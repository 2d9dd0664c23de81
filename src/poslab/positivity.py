"""Positivity certification and the Bochner curvature term.

All routines act on normalized-frame curvature tensors (h(p) = Id, and for
quantities measured against a polarization, g(p) = Id as well).  Every
CurvatureTensor carries the diagonal D of its fiber basis's Gram matrix (all
ones, or multiplicity factorials for a symmetric-power block), so every
generalized eigenproblem (M, D) is the standard one of D^{-1/2} M D^{-1/2}
with eigenvectors scaled back by D^{-1/2}; ``_gram_eigh`` is the one helper
that solves it, for Griffiths, Nakano and dual-Nakano.

Griffiths minimization is a non-convex biquadratic problem; we use
alternating smallest-eigenvector iteration with random restarts.  The
restarts run as a stack, one stacked eigh per half-step over every restart
still running, each with its own stopping test, in chunks under the byte
budget limits._GRIFFITHS_CHUNK_BYTES; the starts come from one Philox stream in
restart order and the first smallest value wins.  Each half-step's
contraction is a stacked matrix product on the tensor reshaped once per call,
one item per restart, so a report's bits do not depend on the chunk size.  A
nonpositive minimum is a certificate (the witness reproduces it); a positive
minimum is heuristic and labeled as such.  The maximum is minus the minimum
of -R.

``_scan_minima`` is the one loop over sample points: ``positivity_scan`` and
``boundedness_scan`` apply their measures to the same normalized
S^k E (det E)^m L^l block at each point; L is a rank-1 field, or None for
det E.  Every sampled polarization form is read off a ``chern_curvature`` tensor by
one formula, ``_trace_form``: omega = tr(h(p)^-1 R), which is R / h(p) for a line and,
for det E, the paper's Theta_{det E} = tr Theta_E taken from E's own curvature, so no
field is sampled twice.  A built-in L = O(c) is not sampled at all: its form is c times
``fubini_study``, exactly.

For a line with curvature phi the Bochner term on (p, q)-forms is a Kronecker sum of
two derivation matrices W_p(phi), W_q(phi), each phi applied through the cached signed
wedge map ``_interior_map`` as two matrix products, so its exact minimum over all forms
comes from two small eigenvalue problems; ``curvature_term`` on a ``Form`` is the
reference it is tested against, and no form is drawn.  One stacked kernel,
``_bochner_slacks``, solves a stack of cases: one stacked eigvalsh of phi for the bound,
and one stacked W_d and eigvalsh per degree d.  ``estimate_check`` is its one-case call;
``verify_estimate``, the harness of ``verify --what estimate`` with its own ``ok``, draws
one random (phi, p, q) case per trial and solves them in chunks under the byte budget
``limits._CHUNK_BYTES``, so its memory does not grow with the trials.  A case's draws do
not depend on its chunk, so neither does the report.
"""

from __future__ import annotations

import dataclasses
import functools
from bisect import bisect_left
from itertools import combinations
from math import comb

import numpy as np

from . import limits
from .errors import (
    BidegreeError,
    DimMismatchError,
    FrameNotNormalizedError,
    NonpositivePolarizationError,
    ParamDomainError,
    short_count,
)
from .geometry import (
    CurvatureTensor,
    MetricField,
    as_point,
    chern_curvature,
    fubini_study,
    normalize_at_point,
    philox,
    sample_points,
)
from .symbundle import induced_sym_det_curvature, twist_by_line

# an alternating Griffiths run stops when its value changes by less than this,
# relative to 1 + |value|, or after _GRIFFITHS_ITERS iterations
_GRIFFITHS_TOL = 1e-10
_GRIFFITHS_ITERS = 200


def _values_and_gram(R: CurvatureTensor):
    if not R.normalized:
        raise FrameNotNormalizedError("positivity checks need a normalized-frame tensor")
    return np.asarray(R.values, dtype=complex), R.gram


@dataclasses.dataclass
class PositivityReport:
    mode: str
    min_value: float
    witness: dict
    points: list = dataclasses.field(default_factory=list)
    certified_sign: str = dataclasses.field(init=False)

    def __post_init__(self):
        self.certified_sign = "positive" if self.min_value > 0 else "nonpositive_found"

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class BoundednessCertificate:
    eps1: float
    eps2: float
    strict: bool
    witness_low: dict
    witness_high: dict
    points: list

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _cvec(v):
    return [[float(x.real), float(x.imag)] for x in v]


def _gram_eigh(M, g):
    """Eigenpairs of the Hermitian pencil (M, diag g), g > 0, ascending.

    Eigenvectors are normalized so that x^H diag(g) x = 1.  M may carry
    leading stack axes, one pencil per matrix.
    """
    sqg = np.sqrt(g)
    ew, evec = np.linalg.eigh(M / np.outer(sqg, sqg))
    return ew, evec / sqg[:, None]


def _griffiths_stack(V, g, starts):
    """Alternating iteration from a stack of starts (c, 2, F), real then
    imaginary parts, as one stacked eigh per half-step.

    Each restart stops on its own test (value change below _GRIFFITHS_TOL
    relative to 1 + |value|, or _GRIFFITHS_ITERS iterations) and leaves the
    stack with its last (val, u, v).  Returns vals (c,), us (c, n), vs (c, F).
    Both contractions are stacked matrix products, one item per restart, so a
    restart's bits do not depend on the other restarts in its chunk.
    """
    c, n, F = len(starts), V.shape[0], V.shape[2]
    VW, VM = V.reshape(n * n * F, F), V.reshape(n * n, F * F)
    x = starts[:, 0] + 1j * starts[:, 1]
    v = x / np.sqrt(np.sum(g * np.abs(x) ** 2, axis=1))[:, None]
    vals, us, vs = np.empty(c), np.empty((c, n), complex), np.empty_like(v)
    # prev = inf: no restart stops on its first iteration
    live, prev = np.arange(c), np.full(c, np.inf)
    for it in range(_GRIFFITHS_ITERS):
        # fix v, minimize over unit u
        Wu = ((VW @ v.conj()[:, :, None]).reshape(-1, n * n, F) @ v[:, :, None]).reshape(-1, n, n)
        Wu = 0.5 * (Wu + Wu.conj().swapaxes(1, 2))
        _, evec = np.linalg.eigh(Wu)
        u = evec[:, :, 0].conj()
        # fix u, minimize over v with <v, v>_G = 1
        Mv = ((u[:, :, None] * u.conj()[:, None, :]).reshape(-1, 1, n * n) @ VM).reshape(-1, F, F)
        Mv = 0.5 * (Mv + Mv.conj().swapaxes(1, 2))
        ew2, evec2 = _gram_eigh(Mv, g)
        v = evec2[:, :, 0].conj()
        val = ew2[:, 0]
        done = np.abs(val - prev) < _GRIFFITHS_TOL * (1.0 + np.abs(val))
        done |= it == _GRIFFITHS_ITERS - 1
        vals[live[done]], us[live[done]], vs[live[done]] = val[done], u[done], v[done]
        live, v, prev = live[~done], v[~done], val[~done]
        if not live.size:
            break
    return vals, us, vs


def griffiths_min(R: CurvatureTensor, restarts: int = 32, seed: int = 0) -> PositivityReport:
    """Minimize the Griffiths biquadratic over unit u, unit v (multi-start).

    The restarts run as stacks of at most limits._GRIFFITHS_CHUNK_BYTES per
    (chunk, F, F) array, drawn in restart order from one Philox stream; the
    first smallest value wins.  A nonpositive minimum is certified by its
    witness; a positive result is heuristic (finitely many restarts).  The
    maximum is minus the minimum of
    CurvatureTensor(-R.values, normalized=True, gram=R.gram).
    """
    limits.check_restarts(restarts)
    V, g = _values_and_gram(R)
    F = V.shape[2]
    rng = philox(seed)
    chunk = max(1, limits._GRIFFITHS_CHUNK_BYTES // (16 * F * F))
    best = None
    for start in range(0, restarts, chunk):
        starts = rng.standard_normal((min(chunk, restarts - start), 2, F))
        vals, us, vs = _griffiths_stack(V, g, starts)
        i = int(np.argmin(vals))
        if best is None or vals[i] < best[0]:
            best = float(vals[i]), us[i], vs[i]
    return PositivityReport("griffiths", best[0], {"u": _cvec(best[1]), "v": _cvec(best[2])})


def _pair_matrix(V, dual: bool) -> np.ndarray:
    n, _, F, _ = V.shape
    if dual:
        V = V.transpose(0, 1, 3, 2)
    return V.transpose(0, 2, 1, 3).reshape(n * F, n * F)


def _eig_report(V, g, dual: bool, mode: str) -> PositivityReport:
    n, F = V.shape[0], V.shape[2]
    M = _pair_matrix(V, dual)
    M = 0.5 * (M + M.conj().T)
    ew, evec = _gram_eigh(M, np.tile(g, n))
    val = float(ew[0])
    u = evec[:, 0].conj().reshape(n, F)
    return PositivityReport(mode, val, {"u": [_cvec(row) for row in u]})


def nakano_min(R: CurvatureTensor) -> PositivityReport:
    """Smallest eigenvalue of M_{(iA),(jB)} = R_{i jbar A Bbar} (vs the Gram)."""
    V, g = _values_and_gram(R)
    return _eig_report(V, g, dual=False, mode="nakano")


def dual_nakano_min(R: CurvatureTensor) -> PositivityReport:
    """Smallest eigenvalue of N_{(iA),(jB)} = R_{i jbar B Abar} (vs the Gram)."""
    V, g = _values_and_gram(R)
    return _eig_report(V, g, dual=True, mode="dual_nakano")


def polarization_form(L: MetricField, p) -> np.ndarray:
    """omega_L at p as an n x n matrix, checked positive definite.

    A built-in line bundle of degree c (``L.line_degree``) has omega = c omega_FS
    exactly, and no metric is evaluated.  Any other line field is differentiated:
    omega is ``_trace_form`` of its curvature, R / h_L(p).
    """
    if L.rank != 1:
        raise DimMismatchError(
            f"polarization {L.label!r} has rank {L.rank}; it must be a line bundle")
    z0 = as_point(p, L.base_dim)
    if L.line_degree is not None:
        return _positive_form(L.line_degree * fubini_study(L.base_dim, z0), L.label)
    return _positive_form(_trace_form(chern_curvature(L, z0)), L.label)


def _trace_form(R: CurvatureTensor) -> np.ndarray:
    """tr(h(p)^-1 R) of a ``chern_curvature`` tensor, h(p) row 0 of its samples: the
    curvature form of the determinant line, R / h(p) for a line bundle."""
    return np.einsum("ijab,ba->ij", R.values, np.linalg.inv(R.samples[0]))


def _positive_form(omega: np.ndarray, label: str) -> np.ndarray:
    """The n x n form omega of a line bundle, checked positive definite; halved before
    the sum, so a form near the float range does not overflow, and a NaN is rejected."""
    if not np.min(np.linalg.eigvalsh(0.5 * omega + 0.5 * omega.conj().T)) > 0:
        raise NonpositivePolarizationError(
            f"curvature of {label!r} is not positive at the sampled point"
        )
    return omega


def sym_twisted_curvature_at(E: MetricField, L: MetricField | None, p, k: int, m,
                             l) -> CurvatureTensor:
    """Normalized curvature block of S^k E (det E)^m L^l at a point.

    Coordinates are orthonormalized against omega_L, so the line-bundle twist
    contributes l * Id exactly.  L = None is det E: omega is the trace
    tr(h(p)^-1 R) of E's own curvature R, with no further metric evaluation.
    """
    z0 = as_point(p, E.base_dim)
    line = f"det({E.label})" if L is None else L.label
    g = None if L is None else polarization_form(L, z0)  # L before E's stencil
    R = chern_curvature(E, z0)
    if L is None:
        g = _positive_form(_trace_form(R), line)
    Rn = normalize_at_point(R, g, f"curvature of {E.label!r} against the polarization {line!r}")
    Rsym = induced_sym_det_curvature(Rn, k, m)
    if l != 0:
        Rsym = twist_by_line(Rsym, line_curvature_tensor(np.eye(E.base_dim)), l)
    return Rsym


def _scan_minima(E: MetricField, L: MetricField | None, measures, n_points: int, seed: int,
                 k: int, m, l):
    """Apply each measure (block -> PositivityReport) at every sample point.

    Returns the first smallest report per measure, its point in ``points``,
    and the scanned points.  The stencils of E and of L (when L is sampled: not
    det E, not a built-in line), the S^k maps, m, l and the seed are checked
    before the first metric call, and the n_points * n scanned coordinates,
    which the bounds certificate prints, against limits.MAX_REGION_MEMBERS before any
    point is drawn.
    """
    if L is not None and L.line_degree is None:
        limits.check_stencil_budget(L.base_dim, L.rank, L.label)
    limits.check_stencil_budget(E.base_dim, E.rank, E.label)
    limits.check_sym_budget(E.rank, k)
    limits.check_float_range(m=m, l=l)
    limits.check_printed_count(n_points * E.base_dim, "{} points on n = {} are {} coordinates",
                               n_points, E.base_dim)
    best = [None] * len(measures)
    scanned = []
    for p in sample_points(E.base_dim, n_points, seed=seed):
        block = sym_twisted_curvature_at(E, L, p, k, m, l)
        scanned.append(_cvec(p))
        for i, measure in enumerate(measures):
            rep = measure(block)
            rep.points = scanned[-1]
            if best[i] is None or rep.min_value < best[i].min_value:
                best[i] = rep
    return best, scanned


def positivity_scan(E: MetricField, L: MetricField | None, test: str, n_points: int = 50,
                    seed: int = 0, restarts: int = 32, k: int = 1, m=0,
                    l=0) -> PositivityReport:
    """Smallest "griffiths", "nakano" or "dual" value of S^k E (det E)^m L^l
    over the sample points, L = None for det E; the report's ``points`` is
    where it was found.  Only "griffiths" reads ``restarts``."""
    if test == "griffiths":
        limits.check_restarts(restarts)
    measure = {"griffiths": lambda R: griffiths_min(R, restarts=restarts, seed=seed),
               "nakano": nakano_min, "dual": dual_nakano_min}[test]
    (best,), _ = _scan_minima(E, L, [measure], n_points, seed, k, m, l)
    return best


def boundedness_scan(E: MetricField, L: MetricField | None, n_points: int = 50, seed: int = 0,
                     restarts: int = 8) -> BoundednessCertificate:
    """Scan sample points for the extremal Griffiths values of E against omega_L.

    eps1 / eps2 are the global min / max of the normalized biquadratic
    Q(u, v) / omega_L(u, ubar) over the samples; ``strict`` records whether
    eps2 exceeds eps1 by more than 1e-9, i.e. whether Theta - eps * omega_L x Id
    is not identically zero on the scan.  The k = 1 block is E's own
    normalized curvature; L = None is det E.
    """
    limits.check_restarts(restarts)

    def low(R):
        return griffiths_min(R, restarts=restarts, seed=seed)

    def high(R):
        return low(CurvatureTensor(-R.values, normalized=True, gram=R.gram))

    (lo, hi), scanned = _scan_minima(E, L, [low, high], n_points, seed, 1, 0, 0)
    eps1, eps2 = lo.min_value, -hi.min_value
    return BoundednessCertificate(
        eps1=eps1, eps2=eps2, strict=eps2 - eps1 > 1e-9,
        witness_low={"point": lo.points, **lo.witness, "value": eps1},
        witness_high={"point": hi.points, **hi.witness, "value": eps2},
        points=scanned)


# --- (p,q)-forms and the Bochner curvature term -------------------------------


@dataclasses.dataclass
class Form:
    """A (p, q)-form with values in a rank-F bundle, canonical representative.

    coeffs[x, y, A] is the coefficient on dz^I wedge dzbar^J tensor e_A for
    I the x-th p-subset and J the y-th q-subset of range(n), both strictly
    increasing and enumerated in ``itertools.combinations`` order.
    """

    n: int
    p: int
    q: int
    fiber_rank: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not (0 <= self.p <= self.n and 0 <= self.q <= self.n):
            raise BidegreeError(f"bidegree ({self.p},{self.q}) out of range for n={self.n}")
        expect = (comb(self.n, self.p), comb(self.n, self.q), self.fiber_rank)
        if self.coeffs.shape != expect:
            raise ValueError(f"coefficient array must have shape {expect}")

    @classmethod
    def zero(cls, n, p, q, fiber_rank=1):
        return cls(n, p, q, fiber_rank,
                   np.zeros((comb(n, p), comb(n, q), fiber_rank), dtype=complex))

    @classmethod
    def random(cls, n, p, q, fiber_rank=1, seed=0):
        """A random form of unit coefficient norm."""
        rng = philox(seed)
        u = cls.zero(n, p, q, fiber_rank)
        c = rng.standard_normal(u.coeffs.shape) + 1j * rng.standard_normal(u.coeffs.shape)
        u.coeffs = c / np.linalg.norm(c)
        return u

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


@functools.lru_cache(maxsize=None)
def _interior_map(n: int, q: int) -> np.ndarray:
    """Signed map K[i, y, s] = +-1 where e_i wedge e_S = +-e_Y, for S the s-th
    (q-1)-subset and Y the y-th q-subset of range(n) (combinations order)."""
    pos = {Y: y for y, Y in enumerate(combinations(range(n), q))}
    subsets = list(combinations(range(n), q - 1)) if q else []
    K = np.zeros((n, len(pos), len(subsets)))
    for s, S in enumerate(subsets):
        for i in range(n):
            if i not in S:
                at = bisect_left(S, i)
                K[i, pos[S[:at] + (i,) + S[at:]], s] = -1 if at % 2 else 1
    K.setflags(write=False)
    return K


def curvature_term(R, u: Form) -> float:
    """Bochner curvature term T(u, u) = <[R, Lambda] u, u> at a normalized point.

    Three-sum expansion: R contracted against one barred index of u, then
    one unbarred index (each through the cached wedge map _interior_map),
    minus the fiber trace; the result is real up to roundoff.
    """
    V, _ = _values_and_gram(R)
    n = V.shape[0]
    if u.n != n:
        raise ValueError("form and curvature base dimensions differ")
    if u.fiber_rank != V.shape[2]:
        raise ValueError("form fiber rank does not match curvature")
    c = u.coeffs
    A = np.einsum("iys,xya->ixsa", _interior_map(n, u.q), c)
    B = np.einsum("ixt,xya->itya", _interior_map(n, u.p), c)
    tr = V[np.arange(n), np.arange(n)]  # (n, F, F)
    total = (np.einsum("ijab,ixsa,jxsb->", V, A, A.conj())
             + np.einsum("ijab,jtya,ityb->", V, B, B.conj())
             - np.einsum("iab,xya,xyb->", tr, c, c.conj()))

    scale = max(1.0, float(np.max(np.abs(c))) ** 2 * float(np.max(np.abs(V))))
    if abs(total.imag) > 1e-8 * scale:
        raise ValueError(f"curvature term has non-real value {total}")
    return float(total.real)


def line_curvature_tensor(phi) -> CurvatureTensor:
    """Wrap an n x n Hermitian matrix as a normalized rank-1 curvature."""
    phi = np.asarray(phi, dtype=complex)
    n = phi.shape[0]
    return CurvatureTensor(phi.reshape(n, n, 1, 1), normalized=True)


def eigenvalue_bound(phi, p, q):
    """max{p l1 - (n-q) ln, q l1 - (n-p) ln} for the eigenvalues of phi.  phi may carry
    a leading stack axis, with p and q arrays along it: one bound per case."""
    lam = np.linalg.eigvalsh(np.asarray(phi, dtype=complex))
    n = lam.shape[-1]
    l1, ln = lam[..., 0], lam[..., -1]
    return np.maximum(p * l1 - (n - q) * ln, q * l1 - (n - p) * ln)


def _wedge_derivation(phi: np.ndarray, q: int) -> np.ndarray:
    """W_q(phi)[y, z] = sum_{i,j,s} phi_ij K[i, y, s] K[j, z, s], K = _interior_map(n, q):
    phi acting as a derivation on the q-subsets, as two matrix products on reshapes of K.
    Its eigenvalues are the sums of q eigenvalues of phi with distinct indices.  phi may
    carry leading stack axes, one W per matrix."""
    K = _interior_map(phi.shape[-1], q)
    n, Y, S = K.shape
    lead = phi.shape[:-2]
    phiK = (phi.swapaxes(-1, -2) @ K.reshape(n, -1)).reshape(*lead, n, Y, S)
    phiK = phiK.swapaxes(-3, -2).reshape(*lead, Y, n * S)
    return phiK @ K.transpose(0, 2, 1).reshape(n * S, Y)


def _bochner_slacks(phi: np.ndarray, p: np.ndarray, q: np.ndarray):
    """``eigenvalue_bound`` and slack of each case of a stack, phi (c, n, n) Hermitian and
    p, q (c,) bidegrees: the kernel of ``estimate_check`` and ``verify_estimate``.

    The bound is one stacked eigvalsh of phi.  Each degree d among p and q gets one
    stacked W_d over the cases that read it and one stacked eigvalsh, so a case's
    minimum over forms is lambda_min(W_p) + lambda_min(W_q) - tr phi, whatever its chunk.
    """
    bound = eigenvalue_bound(phi, p, q)
    low = np.empty((2, len(phi)))
    for d in np.unique(np.concatenate((p, q))):
        at = (p == d) | (q == d)
        w = np.linalg.eigvalsh(_wedge_derivation(phi[at], d))[:, 0]
        for row, deg in zip(low, (p, q)):
            row[deg == d] = w[deg[at] == d]
    return bound, low[0] + low[1] - np.trace(phi, axis1=1, axis2=2).real - bound


def estimate_check(phi, p: int, q: int) -> dict:
    """Exact check of T(u,u) >= bound * |u|^2 for the rank-1 case.

    On (p, q)-forms T is the Kronecker sum W_p(phi) x Id + Id x conj(W_q(phi)) - tr phi Id
    (``curvature_term`` is its reference), so its minimum over unit forms is
    lambda_min(W_p) + lambda_min(W_q) - tr phi; ``slack`` is that minimum minus
    ``eigenvalue_bound``, from the one-case stack of ``_bochner_slacks``.  n above the
    form budget (limits.check_form_budget) is rejected before anything is built.
    """
    phi = np.asarray(phi, dtype=complex)
    n = phi.shape[0]
    limits.check_form_budget(n)
    if not (0 <= p <= n and 0 <= q <= n):
        raise BidegreeError(f"bidegree ({p},{q}) out of range for n={n}")
    bound, slack = _bochner_slacks(phi[None], np.array([p]), np.array([q]))
    return {"n": n, "p": p, "q": q, "bound": float(bound[0]), "slack": float(slack[0])}


def verify_estimate(n: int, trials: int, seed: int = 0) -> dict:
    """The exact estimate on ``trials`` cases, each a fresh random phi > 0 and bidegree
    (p, q); ``ok`` when the worst slack is >= -1e-9.  Nothing is drawn before the checks.

    The cases come from one Philox stream in case order (real parts, imaginary parts,
    p, q) and are solved by ``_bochner_slacks`` in chunks of at most limits._CHUNK_BYTES per
    case array (n C(n, n // 2)^2 entries each, one case at n = 11), so memory does not
    grow with ``trials``.
    """
    if n < 1 or trials < 1:
        raise ParamDomainError(f"need --n >= 1 and --trials >= 1, got {short_count(n)} and "
                               f"{short_count(trials)}")
    entries = limits.check_form_budget(n)  # before the first n x n phi is drawn
    rng = philox(seed)
    chunk = min(trials, max(1, limits._CHUNK_BYTES // (16 * entries)))
    draws, pq = np.empty((chunk, 2, n, n)), np.empty((chunk, 2), dtype=int)
    worst = float("inf")
    for start in range(0, trials, chunk):
        c = min(chunk, trials - start)
        for ab, case in zip(draws[:c], pq[:c]):
            rng.standard_normal(out=ab)
            case[0], case[1] = rng.integers(0, n + 1), rng.integers(0, n + 1)
        a = draws[:c, 0] + 1j * draws[:c, 1]
        phi = a @ a.conj().swapaxes(1, 2) + 0.05 * np.eye(n)
        worst = min(worst, float(np.min(_bochner_slacks(phi, pq[:c, 0], pq[:c, 1])[1])))
    return {"n": n, "trials": trials, "worst_slack": worst, "ok": worst >= -1e-9}
