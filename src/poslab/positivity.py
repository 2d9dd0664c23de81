"""Positivity certification and the Bochner curvature term.

All routines act on normalized-frame curvature tensors (h(p) = Id, and for
quantities measured against a polarization, g(p) = Id as well).  Symmetric
power blocks come with a diagonal Gram matrix D (multiplicity factorials), so
every generalized eigenproblem (M, D) is the standard one of
D^{-1/2} M D^{-1/2} with eigenvectors scaled back by D^{-1/2}; ``_gram_eigh``
is the one helper that solves it, for Griffiths, Nakano and dual-Nakano.

Griffiths minimization is a non-convex biquadratic problem; we use
alternating smallest-eigenvector iteration with random restarts.  A
nonpositive minimum is a certificate (the witness reproduces it); a positive
minimum is heuristic and labeled as such.
"""

from __future__ import annotations

import dataclasses
import functools
from bisect import bisect_left
from itertools import combinations
from math import comb

import numpy as np

from .errors import (
    BidegreeError,
    FrameNotNormalizedError,
    NonpositivePolarizationError,
)
from .geometry import CurvatureTensor, MetricField, as_point, chern_curvature, normalize_at_point, sample_points
from .symbundle import SymCurvature, induced_sym_det_curvature, twist_by_line


def _values_and_gram(R, gram=None):
    if isinstance(R, SymCurvature):
        if not R.normalized:
            raise FrameNotNormalizedError("positivity checks need a normalized-frame tensor")
        return R.values.astype(complex), np.asarray(R.gram, dtype=float)
    if isinstance(R, CurvatureTensor):
        if not R.normalized:
            raise FrameNotNormalizedError("positivity checks need a normalized-frame tensor")
        g = np.ones(R.rank) if gram is None else np.asarray(gram, dtype=float)
        return R.values.astype(complex), g
    raise TypeError("expected CurvatureTensor or SymCurvature")


@dataclasses.dataclass
class PositivityReport:
    mode: str
    min_value: float
    witness: dict
    points: list
    certified_sign: str

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "min_value": self.min_value,
            "witness": self.witness,
            "points": self.points,
            "certified_sign": self.certified_sign,
        }


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

    Eigenvectors are normalized so that x^H diag(g) x = 1.
    """
    sqg = np.sqrt(g)
    ew, evec = np.linalg.eigh(M / np.outer(sqg, sqg))
    return ew, evec / sqg[:, None]


def _griffiths_extremum(V, g, restarts, tol, seed, maximize):
    F = V.shape[2]
    rng = np.random.Generator(np.random.Philox(key=seed))
    pick = -1 if maximize else 0
    better = (lambda a, b: a > b) if maximize else (lambda a, b: a < b)
    best_val, best_u, best_v = None, None, None
    for _ in range(max(1, restarts)):
        x = rng.standard_normal(F) + 1j * rng.standard_normal(F)
        x /= np.sqrt(np.sum(g * np.abs(x) ** 2))
        v = x
        prev = None
        for _ in range(200):
            # fix v, extremize over unit u
            Wu = np.einsum("ijab,a,b->ij", V, v, np.conj(v))
            Wu = 0.5 * (Wu + Wu.conj().T)
            ew, evec = np.linalg.eigh(Wu)
            u = evec[:, pick].conj()
            # fix u, extremize over v with <v, v>_G = 1
            Mv = np.einsum("ijab,i,j->ab", V, u, np.conj(u))
            Mv = 0.5 * (Mv + Mv.conj().T)
            ew2, evec2 = _gram_eigh(Mv, g)
            v = evec2[:, pick].conj()
            val = float(ew2[pick])
            if prev is not None and abs(val - prev) < tol * (1.0 + abs(val)):
                break
            prev = val
        if best_val is None or better(val, best_val):
            best_val, best_u, best_v = val, u, v
    return best_val, best_u, best_v


def griffiths_min(R, restarts: int = 32, tol: float = 1e-10, seed: int = 0,
                  gram=None, maximize: bool = False) -> PositivityReport:
    """Extremize the Griffiths biquadratic over unit u, unit v (multi-start).

    For ``maximize=False`` a nonpositive minimum is certified by its witness;
    a positive result is heuristic (finitely many restarts).
    """
    V, g = _values_and_gram(R, gram)
    val, u, v = _griffiths_extremum(V, g, restarts, tol, seed, maximize)
    if maximize:
        sign = "positive" if val > 0 else "nonpositive_found"
    else:
        sign = "nonpositive_found" if val <= 0 else "positive"
    return PositivityReport(
        mode="griffiths_max" if maximize else "griffiths",
        min_value=val,
        witness={"u": _cvec(u), "v": _cvec(v)},
        points=[],
        certified_sign=sign,
    )


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
    return PositivityReport(
        mode=mode,
        min_value=val,
        witness={"u": [_cvec(row) for row in u]},
        points=[],
        certified_sign="positive" if val > 0 else "nonpositive_found",
    )


def nakano_min(R, gram=None) -> PositivityReport:
    """Smallest eigenvalue of M_{(iA),(jB)} = R_{i jbar A Bbar} (vs the Gram)."""
    V, g = _values_and_gram(R, gram)
    return _eig_report(V, g, dual=False, mode="nakano")


def dual_nakano_min(R, gram=None) -> PositivityReport:
    """Smallest eigenvalue of N_{(iA),(jB)} = R_{i jbar B Abar} (vs the Gram)."""
    V, g = _values_and_gram(R, gram)
    return _eig_report(V, g, dual=True, mode="dual_nakano")


def polarization_form(L: MetricField, p, step: float = 1e-3) -> np.ndarray:
    """omega_L at p as an n x n matrix: frame-normalized curvature of L."""
    z0 = as_point(p, L.base_dim)
    R = chern_curvature(L, z0, step=step)
    hL = L(z0)[0, 0].real
    gmat = R.values[:, :, 0, 0] / hL
    if np.min(np.linalg.eigvalsh(0.5 * (gmat + gmat.conj().T))) <= 0:
        raise NonpositivePolarizationError(
            f"curvature of {L.label!r} is not positive at the sampled point"
        )
    return gmat


def boundedness_scan(E: MetricField, L: MetricField, points=None,
                     n_points: int = 50, seed: int = 0, restarts: int = 8,
                     tol: float = 1e-10, step: float = 1e-3) -> BoundednessCertificate:
    """Scan sample points for the extremal Griffiths values of E against omega_L.

    eps1 / eps2 are the global min / max of the normalized biquadratic
    Q(u, v) / omega_L(u, ubar) over the samples; ``strict`` records whether
    eps2 exceeds eps1 by more than 1e-9, i.e. whether
    Theta - eps * omega_L x Id is not identically zero on the scan.
    """
    if points is None:
        points = sample_points(E.base_dim, n_points, seed=seed)
    eps1 = np.inf
    eps2 = -np.inf
    wit_low: dict = {}
    wit_high: dict = {}
    pts_json = []
    for p in points:
        g = polarization_form(L, p, step=step)
        Rn, _, _ = normalize_at_point(E, g, p, step=step)
        lo = griffiths_min(Rn, restarts=restarts, tol=tol, seed=seed)
        hi = griffiths_min(Rn, restarts=restarts, tol=tol, seed=seed, maximize=True)
        pts_json.append(_cvec(p))
        if lo.min_value < eps1:
            eps1 = lo.min_value
            wit_low = {"point": _cvec(p), **lo.witness, "value": lo.min_value}
        if hi.min_value > eps2:
            eps2 = hi.min_value
            wit_high = {"point": _cvec(p), **hi.witness, "value": hi.min_value}
    return BoundednessCertificate(
        eps1=float(eps1),
        eps2=float(eps2),
        strict=eps2 - eps1 > 1e-9,
        witness_low=wit_low,
        witness_high=wit_high,
        points=pts_json,
    )


def sym_twisted_curvature_at(E: MetricField, L: MetricField, p, k: int, m,
                             l, step: float = 1e-3) -> SymCurvature:
    """Normalized curvature block of S^k E (det E)^m L^l at a point.

    Coordinates are orthonormalized against omega_L, so the line-bundle twist
    contributes l * Id exactly.
    """
    z0 = as_point(p, E.base_dim)
    g = polarization_form(L, z0, step=step)
    Rn, _, _ = normalize_at_point(E, g, z0, step=step)
    Rsym = induced_sym_det_curvature(Rn, k, m)
    if l != 0:
        n = E.base_dim
        eye = CurvatureTensor(np.eye(n, dtype=complex).reshape(n, n, 1, 1),
                              normalized=True)
        Rsym = twist_by_line(Rsym, eye, l)
    return Rsym


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
    def random(cls, n, p, q, fiber_rank=1, seed=0, normalize=True):
        rng = np.random.Generator(np.random.Philox(key=seed))
        u = cls.zero(n, p, q, fiber_rank)
        c = rng.standard_normal(u.coeffs.shape) + 1j * rng.standard_normal(u.coeffs.shape)
        if normalize:
            c /= np.linalg.norm(c)
        u.coeffs = c
        return u

    def norm_sq(self, gram=None) -> float:
        w = np.ones(self.fiber_rank) if gram is None else np.asarray(gram, dtype=float)
        return float(np.sum(np.abs(self.coeffs) ** 2 * w))


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


def eigenvalue_bound(phi, p: int, q: int) -> float:
    """max{p l1 - (n-q) ln, q l1 - (n-p) ln} for the eigenvalues of phi."""
    lam = np.linalg.eigvalsh(np.asarray(phi, dtype=complex))
    n = len(lam)
    l1, ln = float(lam[0]), float(lam[-1])
    return max(p * l1 - (n - q) * ln, q * l1 - (n - p) * ln)


def estimate_check(phi, p: int, q: int, trials: int = 1000, seed: int = 0) -> dict:
    """Randomized check of T(u,u) >= bound * |u|^2 for the rank-1 case."""
    phi = np.asarray(phi, dtype=complex)
    n = phi.shape[0]
    if not (0 <= p <= n and 0 <= q <= n):
        raise BidegreeError(f"bidegree ({p},{q}) out of range for n={n}")
    R = line_curvature_tensor(phi)
    bound = eigenvalue_bound(phi, p, q)
    worst = np.inf
    for t in range(trials):
        u = Form.random(n, p, q, 1, seed=(seed, t))
        slack = curvature_term(R, u) - bound * u.norm_sq()
        worst = min(worst, slack)
    return {"n": n, "p": p, "q": q, "bound": bound, "trials": trials,
            "worst_slack": float(worst)}
