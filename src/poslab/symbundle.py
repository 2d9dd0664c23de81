"""Multi-index algebra for symmetric powers S^k E (det E)^m.

Multi-indices are nondecreasing tuples of 1-based frame indices; the monomial
basis e_A of S^k E is *not* orthonormal when indices repeat: its Gram matrix
is the generalized Kronecker delta, diagonal with delta_AA = product of
multiplicity factorials.  All curvature blocks produced here are
CurvatureTensors of indices-down components in that basis, with the Gram
diagonal in ``gram``, so downstream eigenvalue computations must solve
generalized eigenproblems against it.

Each block is a fixed integer linear map of (r, k), built once per process
from its own formula (cached): a curvature block applies its (r, r, F, F) map
as one (n^2, r^2) @ (r^2, F^2) matrix product, and the induced metric S^k h
takes one step per degree.  The maps here
read the basis, each label's position and the Gram diagonal from one cached
table per (r, k), ``_sym_table``, whose read-only int64 Gram every block of
that (r, k) carries.  ``check_sym_budget`` bounds every S^k map, its entry
count and its int64 range, before any is built.  numpy runs the same
products on object arrays against the int64 maps, so exact Fraction-valued
tensors pass through without rounding.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import numpy as np

from .errors import (DimMismatchError, FrameNotNormalizedError, LengthMismatchError,
                     ParamDomainError, short_count)
from .geometry import CurvatureTensor, MetricField, _curvature_from_samples

MultiIndex = tuple[int, ...]

# Entries allowed in one S^k integer map, the (r, r, F, F) derivation and
# integral maps, and in k F r^k, the bound on certify's F x F eigen-solves.
MAX_SYM_MAP_ENTRIES = 4 * 10**6


def sym_basis(r: int, k: int) -> list[MultiIndex]:
    """Lexicographic monomial basis labels of S^k E for rank r."""
    if r < 1 or k < 0:
        raise ParamDomainError(f"need r >= 1, k >= 0, got r={short_count(r)}, "
                               f"k={short_count(k)}")
    return list(combinations_with_replacement(range(1, r + 1), k))


@functools.lru_cache(maxsize=None)
def check_sym_budget(r: int, k: int) -> None:
    """Reject S^k of a rank-r bundle unless each S^k integer map fits: at most
    MAX_SYM_MAP_ENTRIES entries (r^2 F^2 for the derivation and integral maps,
    F = dim S^k E), all in int64, whose largest, (k+1)! and k k! at rank 1, need
    k <= 19.  k F r^k, the k-tuple terms of S^k h, sizes no array, but is held to
    the same budget: it is the only bound on the F x F eigen-solves of certify's
    S^k blocks.  Every builder of those maps is called only after this check."""
    if r < 1 or k < 0:
        raise ParamDomainError(f"need r >= 1, k >= 0, got r={short_count(r)}, "
                               f"k={short_count(k)}")
    if k >= 20:
        raise ParamDomainError(f"S^{short_count(k)} is above the S^k budget: its int64 maps "
                               f"hold (k+1)! and k k!, which need k <= 19")
    F = comb(r + k - 1, k)
    if max(r * r * F * F, k * F * r**k) > MAX_SYM_MAP_ENTRIES:
        raise ParamDomainError(f"S^{k} of a rank-{short_count(r)} bundle (dimension "
                               f"{short_count(F)}) is above the S^k budget of "
                               f"{MAX_SYM_MAP_ENTRIES} map entries")


def generalized_delta(A: MultiIndex, B: MultiIndex) -> int:
    """Permanent of the 0/1 matching matrix M_{jl} = [A_j == B_l].

    Zero unless A and B agree as multisets, in which case it equals the
    product of the multiplicity factorials.
    """
    if len(A) != len(B):
        raise LengthMismatchError(f"multi-index lengths differ: {len(A)} vs {len(B)}")
    ca = Counter(A)
    if ca != Counter(B):
        return 0
    return prod(factorial(m) for m in ca.values())


def gram_diagonal(r: int, k: int) -> list[int]:
    """delta_AA over sym_basis(r, k); the (diagonal) Gram matrix of {e_A}."""
    return [generalized_delta(A, A) for A in sym_basis(r, k)]


@functools.lru_cache(maxsize=None)
def _sym_table(r: int, k: int) -> tuple[list[MultiIndex], dict[MultiIndex, int], np.ndarray]:
    """sym_basis(r, k), each label's position, and the Gram diagonal as one read-only
    int64 array that every block of this (r, k) shares; checks the S^k budget first."""
    check_sym_budget(r, k)
    basis = sym_basis(r, k)
    gram = np.array([generalized_delta(A, A) for A in basis], dtype=np.int64)
    gram.setflags(write=False)
    return basis, {A: a for a, A in enumerate(basis)}, gram


@functools.lru_cache(maxsize=None)
def _sym_metric_map(r: int, k: int) -> tuple[np.ndarray, ...]:
    """Laplace expansion of S^k h along the last slot, k >= 1, as four read-only tables.

    With a the last entry of A, A' the others and B - x the label B with one
    x removed, perm h[A, B] = sum_x mult_B(x) h[a, x] perm h[A', B - x].
    Returns a and the position of A' in sym_basis(r, k - 1), each (F, 1), and
    the position of B - x and mult_B(x), each (r, F), both 0 where x is not in B.
    """
    basis = _sym_table(r, k)[0]
    lower = _sym_table(r, k - 1)[1]
    last = np.array([[A[-1] - 1] for A in basis], dtype=np.intp)
    rest = np.array([[lower[A[:-1]]] for A in basis], dtype=np.intp)
    minus = np.zeros((r, len(basis)), dtype=np.intp)
    mult = np.zeros((r, len(basis)), dtype=np.int64)
    for b, B in enumerate(basis):
        for x in set(B):
            t = B.index(x)
            minus[x - 1, b] = lower[B[:t] + B[t + 1:]]
            mult[x - 1, b] = B.count(x)
    for table in (last, rest, minus, mult):
        table.setflags(write=False)
    return last, rest, minus, mult


def _sym_metric_rows(hs: np.ndarray, k: int) -> np.ndarray:
    """S^k h of every matrix of a (rows, r, r) stack, a (rows, F, F) array, built
    up from S^0 h = 1 one degree at a time by ``_sym_metric_map``, its r terms
    added one x at a time.  The caller checks the S^k budget.
    """
    rows, r = hs.shape[:2]
    s = np.ones((rows, 1, 1), dtype=hs.dtype)
    for j in range(1, k + 1):
        last, rest, minus, mult = _sym_metric_map(r, j)
        s = sum(hs[:, last, x] * s[:, rest, minus[x]] * mult[x] for x in range(r))
    return s


def sym_metric(h, k: int):
    """Induced metric on S^k E: (S^k h)_{A Bbar} = permanent of h[A_j, B_l].

    For h = Id this reduces exactly to the generalized delta Gram matrix.
    Accepts one square array-like (complex or exact object entries).
    """
    h = np.asarray(h)
    if h.dtype != object:
        h = h.astype(complex)
    check_sym_budget(h.shape[0], k)
    return _sym_metric_rows(h[None], k)[0]


@functools.lru_cache(maxsize=None)
def _derivation_map(r: int, k: int) -> np.ndarray:
    """Slot-substitution rule as an (r, r, F, F) integer map.

    T[g, d, a, b] sums delta_BB over the slots t of A with A_t = g whose
    substitution by d sorts to B, so <R e_A, e_B> = sum R_{g dbar} T[g, d, a, b].
    """
    basis, index, gram = _sym_table(r, k)
    T = np.zeros((r, r, len(basis), len(basis)), dtype=np.int64)
    for a, A in enumerate(basis):
        for t in range(k):
            for gamma in range(1, r + 1):
                b = index[tuple(sorted(A[:t] + (gamma,) + A[t + 1:]))]
                T[A[t] - 1, gamma - 1, a, b] += gram[b]
    T.setflags(write=False)
    return T


def check_float_range(**coefficients) -> None:
    """Reject a coefficient (an exponent m or a twist l) that no float holds; the
    float paths run it before their first metric evaluation.  ``_add_diagonal``
    itself takes any int or Fraction into an object array."""
    for name, value in coefficients.items():
        try:
            float(value)
        except OverflowError as exc:
            raise ParamDomainError(f"{name} in S^k E (det E)^m L^l is beyond the float "
                                   f"range") from exc


def _add_diagonal(out: np.ndarray, form: np.ndarray, coeff, gram: np.ndarray) -> None:
    """Add coeff * form_{i jbar} * delta_AB * gram_A to ``out`` in place."""
    if coeff != 0:
        diag = np.arange(len(gram))
        out[:, :, diag, diag] = out[:, :, diag, diag] + coeff * form[:, :, None] * gram


def _contract_with_trace(R: CurvatureTensor, k: int, T: np.ndarray, coeff) -> CurvatureTensor:
    """S^k block sum_{g,d} R_{i jbar g dbar} T[g, d, A, B] + coeff * delta_AB * gram_A * tr R.

    ``T`` is a fixed (r, r, F, F) integer map, applied as one matrix product
    (exact on object arrays); R must be frame-normalized.
    """
    if not R.normalized:
        raise FrameNotNormalizedError("the S^k blocks need a normalized-frame tensor")
    gram = _sym_table(R.rank, k)[2]
    out = np.tensordot(R.values, T, axes=2)  # (n^2, r^2) @ (r^2, F^2)
    _add_diagonal(out, np.trace(R.values, axis1=2, axis2=3), coeff, gram)
    return CurvatureTensor(out, normalized=True, gram=gram)


def induced_sym_det_curvature(R: CurvatureTensor, k: int, m) -> CurvatureTensor:
    """Curvature of S^k E (det E)^m from R by the derivation rule.

    Requires R in a frame with h(p) = Id.  The S^k part is
    <R e_A, e_B> = sum_t sum_gamma R_{i jbar A_t gammabar} * delta_{A', B}
    with A' = A with slot t replaced by gamma; the determinant part adds
    m * delta_AB * tr_fiber R.
    """
    check_sym_budget(R.rank, k)
    return _contract_with_trace(R, k, _derivation_map(R.rank, k), m)


def twist_by_line(Rsym: CurvatureTensor, Rline: CurvatureTensor, t) -> CurvatureTensor:
    """Tensor by L^t: add t * R^L_{i jbar} * delta_AB * gram_A to every block."""
    if Rline.rank != 1:
        raise DimMismatchError("twist_by_line needs a rank-1 curvature")
    if Rline.base_dim != Rsym.base_dim:
        raise DimMismatchError("base dimensions differ")
    out = Rsym.values.copy()
    _add_diagonal(out, Rline.values[:, :, 0, 0], t, Rsym.gram)
    return CurvatureTensor(out, normalized=Rsym.normalized, gram=Rsym.gram)


def _sym_det_rows(hs: np.ndarray, k: int, m) -> np.ndarray:
    """S^k h (det h)^m of every matrix of a (rows, r, r) stack, a C-ordered (rows, F, F)
    array, each det(h)^m taken on a float scalar: the one formula of the induced
    metric of S^k E (det E)^m.  The caller checks the S^k budget."""
    s = _sym_metric_rows(hs, k)
    if m != 0:
        s = s * np.array([d ** m for d in np.linalg.det(hs).real])[:, None, None]
    return np.ascontiguousarray(s)


def _sym_power_curvature(hs: np.ndarray, k: int, m, label: str) -> np.ndarray:
    """Finite-difference curvature of S^k h (det h)^m on the stencil samples ``hs``
    of a ``chern_curvature``; ``label`` names the field in errors.

    ``_sym_det_rows`` lifts the samples one derivative's rows at a time inside
    the stencil contraction, so the lifted values are those of ``sym_power_field``
    and no (64n^2 + 8n + 1, F, F) stack is made.  The caller checks the budgets.
    """
    return _curvature_from_samples(hs, label, lift=lambda rows: _sym_det_rows(rows, k, m))


def sym_power_field(E: MetricField, k: int, m) -> MetricField:
    """Explicit metric field z -> S^k h(z) (det h(z))^m on the monomial basis;
    a ``dataclasses.replace`` of E that reads ``E.value`` once per point.  The
    point-by-point reference for ``_sym_power_curvature``, which lifts E's stencil
    samples by the same ``_sym_det_rows`` instead."""
    check_sym_budget(E.rank, k)
    F = len(sym_basis(E.rank, k))
    return dataclasses.replace(E, rank=F, label=f"sym{k}det{m}({E.label})", line_degree=None,
                               evaluate=lambda z: _sym_det_rows(E.value(z)[None], k, m)[0])
