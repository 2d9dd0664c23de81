"""Fubini-Study moment integrals on P^{r-1} and the integral curvature formula.

The basic identity: with the Fubini-Study volume normalized by
int omega^{r-1} = 1,

    int_{P^{r-1}} V_A conj(V_B) / |W|^{2k} * omega^{r-1} / (r-1)!
        = generalized_delta(A, B) / (r + k - 1)!

for monomials V_A = W_{a_1} ... W_{a_k}.  The Monte Carlo twin samples W
uniformly on the unit sphere of C^r (the pushforward of the normalized FS
volume), so the sphere average of V_A conj(V_B) must be divided by (r-1)!.

The integral curvature formula for S^k E (det E)^m reduces, through the
moment identity, to the exact multiset expansion

    sum_{gamma, delta} R_{i jbar gamma deltabar} * delta_{(A+delta), (B+gamma)}
        + (m - 1) * delta_AB * sum_delta R_{i jbar delta deltabar},

where A+delta appends index delta to the multiset A.  No quadrature is
involved; the Monte Carlo route is kept as an independent stochastic check.
The expansion is a fixed integer map of (r, k), built once per process and
applied as one contraction.

The two Monte Carlo harnesses, ``verify_moments`` and ``verify_lemma_linear``,
return their own ``ok`` and judge z-scores through one gate, ``_worst_over_3sigma``.
``verify_lemma_linear`` samples the metric once: route (b) lifts the samples of
E's ``chern_curvature``, in route (a)'s frame ``fiber_frame``, to S^k h (det h)^m.

``moment_mc``, ``moment_mc_table`` and ``integral_formula_mc`` share one
streaming estimator, ``_sphere_moments``.  It reads the sphere stream in row
chunks of at most _CHUNK_BYTES, so memory does not grow with the sample
count, and reports one stderr, sqrt((E|X|^2 - |E X|^2) / s), from the raw
second moment.  ``moment_mc`` and ``moment_mc_table`` divide by one float
scale, (r-1)!, and reject r whose (r-1)! is above the float range (r >= 172)
before any factorial is computed or anything is drawn.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .errors import FrameNotNormalizedError, LengthMismatchError, ParamDomainError, short_count
from .geometry import (
    CurvatureTensor,
    MetricField,
    as_point,
    check_stencil_budget,
    chern_curvature,
    fiber_frame,
    normalize_at_point,
    philox,
)
from .regions import MAX_REGION_MEMBERS
from .symbundle import (
    MultiIndex,
    _contract_with_trace,
    _sym_power_curvature,
    _sym_table,
    check_float_range,
    check_sym_budget,
    generalized_delta,
    induced_sym_det_curvature,
    sym_basis,
)

# Byte budget of one row chunk of the Monte Carlo terms.
_CHUNK_BYTES = 1 << 22

# Samples per block of the sphere stream.  Changing it changes every stream
# longer than one block.
_SPHERE_BLOCK = 100_000


def _check_pair(r: int, A: MultiIndex, B: MultiIndex) -> None:
    if len(A) != len(B):
        raise LengthMismatchError("multi-index lengths differ")
    if r < 1 or any(not 1 <= a <= r for a in A + B):
        raise ParamDomainError(f"need r >= 1 and multi-index entries in 1..r, got "
                               f"r={short_count(r)}, {A}, {B}")


def moment_exact(r: int, A: MultiIndex, B: MultiIndex) -> Fraction:
    """Exact moment delta_AB / (r + k - 1)! as a reduced rational."""
    _check_pair(r, A, B)
    k = len(A)
    return Fraction(generalized_delta(A, B), factorial(r + k - 1))


def check_samples(samples: int) -> None:
    """Reject a Monte Carlo sample count below the floor of 100 that every
    estimator shares."""
    if samples < 100:
        raise ParamDomainError(f"need at least 100 samples, got {short_count(samples)}")


def _sphere_blocks(r: int, samples: int, seed: int):
    """Uniform points on the unit sphere of C^r (counter-based Philox stream) in
    blocks of _SPHERE_BLOCK; a block draws its real parts, then its imaginary parts.

    The sample floor is checked on the call, not at the first block, because
    callers size their buffers from the count before they draw.
    """
    check_samples(samples)
    rng = philox(seed)

    def blocks():
        for lo in range(0, samples, _SPHERE_BLOCK):
            size = min(_SPHERE_BLOCK, samples - lo)
            w = rng.standard_normal((size, r)) + 1j * rng.standard_normal((size, r))
            yield w / np.linalg.norm(w, axis=1, keepdims=True)

    return blocks()


def _monomial(W: np.ndarray, A: MultiIndex) -> np.ndarray:
    v = np.ones(W.shape[0], dtype=complex)
    for a in A:
        v = v * W[:, a - 1]
    return v


def _monomials(W: np.ndarray, basis) -> np.ndarray:
    """Monomials W_A over the multi-indices of ``basis``, an (s, F) array."""
    return np.stack([_monomial(W, A) for A in basis], axis=1)


def _sphere_moments(r: int, basis, samples: int, seed: int, weight=None):
    """Sphere averages of phi_d(W) V_A conj(V_B), V_A the monomials of ``basis``.

    ``weight`` is None (phi = 1, D = 1) or a pair (Q, b), Q of shape (r, r, D),
    for phi_d(W) = sum_{g,e} Q[g, e, d] conj(W_g) W_e + b_d.  Each row chunk
    of the stream adds (phi x V)^T conj(V) to the first moment and
    (|phi|^2 x |V|^2)^T |V|^2 to the raw second moment; the two (rows, D, F)
    products go into buffers allocated once per call, so a long stream does
    not allocate, free and page-fault them in again per chunk.  Returns (mean,
    stderr), both (D, F, F), stderr = sqrt(max(second/s - |mean|^2, 0) / s).
    """
    stream = _sphere_blocks(r, samples, seed)
    F = len(basis)
    if weight is not None:
        Q, b = weight
        D = len(b)
        Q = Q.reshape(r * r, D)
    else:
        D = 1
    chunk = max(1, _CHUNK_BYTES // (16 * D * F))
    first = np.zeros((D * F, F), dtype=complex)
    second = np.zeros((D * F, F))
    if weight is not None:
        rows = min(chunk, samples, _SPHERE_BLOCK)
        fV_buf = np.empty((rows, D, F), dtype=complex)
        f2_buf = np.empty((rows, D, F))
    for w in stream:
        for lo in range(0, len(w), chunk):
            wc = w[lo:lo + chunk]
            V = _monomials(wc, basis)
            a2 = np.abs(V) ** 2
            if weight is None:
                fV, f2 = V, a2
            else:
                c = len(wc)
                phi = (wc.conj()[:, :, None] * wc[:, None, :]).reshape(c, r * r) @ Q + b
                fV = np.multiply(phi[:, :, None], V[:, None, :], out=fV_buf[:c]).reshape(c, D * F)
                f2 = np.multiply(np.abs(phi[:, :, None]) ** 2, a2[:, None, :],
                                 out=f2_buf[:c]).reshape(c, D * F)
            first += fV.T @ V.conj()
            second += f2.T @ a2
    mean = first / samples
    var = np.maximum(second / samples - np.abs(mean) ** 2, 0.0)
    return mean.reshape(D, F, F), np.sqrt(var / samples).reshape(D, F, F)


def _moment_scale(r: int) -> float:
    """(r-1)!, the factor from the sphere average to the FS moment, as a float;
    r >= 172, whose 171! is above the float range, is rejected before any factorial."""
    if r >= 172:
        raise ParamDomainError(f"the moment scale (r-1)! is above the float range at "
                               f"r = {short_count(r)}")
    return float(factorial(r - 1))


def moment_mc(r: int, A: MultiIndex, B: MultiIndex, samples: int, seed: int = 0):
    """Monte Carlo estimate of the moment; returns (estimate, stderr)."""
    _check_pair(r, A, B)
    scale = _moment_scale(r)
    mean, err = _sphere_moments(r, [A, B], samples, seed)
    return complex(mean[0, 0, 1]) / scale, float(err[0, 0, 1]) / scale


def moment_mc_table(r: int, k: int, samples: int, seed: int = 0):
    """All pairwise moments for |A| = |B| = k at once.

    Returns (basis, estimates, stderrs) with matrices indexed by basis order.
    A table whose F^2 entries print more than MAX_REGION_MEMBERS indices,
    F^2 * max(k, 1), is rejected before anything is sized or drawn, as is an
    r whose scale (r-1)! is above the float range.
    """
    indices = comb(r + k - 1, k) ** 2 * max(k, 1) if r >= 1 and k >= 0 else 0
    if indices > MAX_REGION_MEMBERS:
        raise ParamDomainError(f"the degree-{short_count(k)} moment table on rank "
                               f"{short_count(r)} prints {short_count(indices)} indices, above "
                               f"the budget of {MAX_REGION_MEMBERS}")
    basis = sym_basis(r, k)
    scale = _moment_scale(r)
    mean, err = _sphere_moments(r, basis, samples, seed)
    return basis, mean[0] / scale, err[0] / scale


@functools.lru_cache(maxsize=None)
def _integral_map(r: int, k: int) -> np.ndarray:
    """Multiset expansion as an (r, r, F, F) integer map:
    I[gamma, delta, a, b] = delta_{(A+delta), (B+gamma)}, filled from its nonzeros:
    delta_CC at B = C - gamma for each gamma in each of the F r sums C = A+delta,
    with delta_CC = gram_A * mult_C(delta) read off the one S^k table."""
    basis, index, gram = _sym_table(r, k)
    I = np.zeros((r, r, len(basis), len(basis)), dtype=np.int64)
    for a, A in enumerate(basis):
        for delta in range(1, r + 1):
            C = tuple(sorted(A + (delta,)))
            d = gram[a] * C.count(delta)
            for gamma in set(C):
                t = C.index(gamma)
                I[gamma - 1, delta - 1, a, index[C[:t] + C[t + 1:]]] = d
    I.setflags(write=False)
    return I


def integral_formula_tensor(R: CurvatureTensor, k: int, m) -> CurvatureTensor:
    """The full S^k E (det E)^m block of the integral formula's expansion."""
    check_sym_budget(R.rank, k)
    return _contract_with_trace(R, k, _integral_map(R.rank, k), m - 1)


def integral_formula_mc(R: CurvatureTensor, k: int, m, samples: int = 20000,
                        seed: int = 0):
    """Monte Carlo quadrature of the integral formula (independent of the
    multiset expansion).  Returns (estimates, stderrs), arrays (n, n, F, F).

    The per-sample weight is
    phi_ij(W) = (r+k) sum_{g,d} R_{ij g d} conj(W_g) W_d + (m-1) tr R_ij.
    """
    if not R.normalized:
        raise FrameNotNormalizedError("integral_formula_mc needs a normalized-frame tensor")
    V = np.asarray(R.values, dtype=complex)
    n, r = R.base_dim, R.rank
    check_sym_budget(r, k)
    basis = sym_basis(r, k)
    F = len(basis)
    Q = (r + k) * V.transpose(2, 3, 0, 1).reshape(r, r, n * n)
    b = (complex(m) - 1.0) * np.trace(V, axis1=2, axis2=3).reshape(n * n)
    mean, err = _sphere_moments(r, basis, samples, seed, weight=(Q, b))
    pref = factorial(r + k - 1) / factorial(r - 1)
    return pref * mean.reshape(n, n, F, F), pref * err.reshape(n, n, F, F)


def _worst_over_3sigma(est, exact, err, samples: int, scale: float) -> float:
    """Largest |est - exact| / (3 stderr), 3 sigma floored at 1e-12 and at the rounding
    bound of a mean of ``samples`` terms of size ~``scale`` (a rank-1 stderr may be 0)."""
    floor = max(1e-12, samples * np.finfo(float).eps * scale)
    z = np.abs(est - exact) / np.maximum(3.0 * err, floor)
    return float(np.max(z))


def verify_moments(r: int, k: int, samples: int, seed: int = 0) -> dict:
    """Monte Carlo moment table for |A| = |B| = k, ``ok`` within 3 sigma of exact."""
    basis, est, err = moment_mc_table(r, k, samples, seed=seed)
    exact = np.array([[moment_exact(r, A, B) for B in basis] for A in basis])
    worst = _worst_over_3sigma(est, exact.astype(float), err, samples, float(np.max(exact)))
    rows = [{"A": list(A), "B": list(B), "exact": str(exact[a, b]),
             "mc": [float(est[a, b].real), float(est[a, b].imag)], "stderr": float(err[a, b])}
            for a, A in enumerate(basis) for b, B in enumerate(basis)]
    return {"r": r, "k": k, "samples": samples, "seed": seed,
            "worst_over_3sigma": worst, "ok": bool(worst <= 1.0), "moments": rows}


def verify_lemma_linear(bundle: MetricField, p, k: int, m, mc_samples: int = 20000,
                        seed: int = 0) -> dict:
    """Three deterministic routes to the S^k E (det E)^m curvature, plus MC.

    (a) derivation-rule algebra on the normalize_at_point curvature of E;
    (b) finite-difference curvature of the explicit S^k h (det h)^m metric,
        lifted from E's stencil samples, taken to (a)'s frame by one congruence;
    (c) exact moment expansion of the integral formula;
    (d) Monte Carlo quadrature of the integral formula.

    The metric of E is evaluated once per stencil row, 64n^2 + 8n + 1 times, at
    ``p``, or at the origin when ``p`` is None.  Every budget (E's stencil, the
    S^k maps, and route (b)'s lift of (64n^2 + 8n + 1) F^2 entries, a bound on
    its work: the lift makes one derivative's rows at a time, never that
    stack), the float range of m, (d)'s sample floor and its seed are checked
    before the point is read.  Returns max
    pairwise relative deviations of (a)-(c), the worst MC z-score of (d)
    against (c), and ``ok``: deviations <= 1e-6 and z-score <= 1.
    """
    n, r = bundle.base_dim, bundle.rank
    sym_label = f"sym{k}det{m}({bundle.label})"
    check_stencil_budget(n, r, bundle.label)
    check_sym_budget(r, k)
    check_stencil_budget(n, comb(r + k - 1, k), sym_label)
    check_float_range(m=m)
    check_samples(mc_samples)
    philox(seed)  # a seed numpy cannot key fails here, not after the sampling
    R = chern_curvature(bundle, as_point(np.zeros(n) if p is None else p, n))
    Rn = normalize_at_point(R, None)
    Q = fiber_frame(R)

    a = induced_sym_det_curvature(Rn, k, m).values
    b = _sym_power_curvature(Q.T @ R.samples @ Q.conj(), k, m, sym_label)
    c = integral_formula_tensor(Rn, k, m).values
    d_est, d_err = integral_formula_mc(Rn, k, m, samples=mc_samples, seed=seed)

    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))),
                float(np.max(np.abs(c))))
    denom = max(scale, 1e-12)

    def rel(x, y):
        return float(np.max(np.abs(x - y))) / denom

    devs = {"dev_algebra_vs_fd": rel(a, b), "dev_algebra_vs_integral": rel(a, c),
            "dev_fd_vs_integral": rel(b, c)}
    worst = _worst_over_3sigma(d_est, c, d_err, mc_samples, scale)
    return {
        "bundle": bundle.label,
        "k": k,
        "m": m,
        **devs,
        "mc_worst_over_3sigma": worst,
        "scale": scale,
        "ok": max(devs.values()) <= 1e-6 and worst <= 1.0,
    }
