"""Charts on CP^n, the Fubini-Study metric and numerical Chern curvature.

Everything lives in the affine chart U_0 = {W_0 != 0} with coordinates
z^i = W_i / W_0.  Metrics are chart-local fields z -> positive Hermitian
r x r matrix.  Curvature components are stored indices-down,

    R_{i jbar alpha betabar} = -d^2 h_{alpha betabar} / dz^i dzbar^j
        + h^{gamma deltabar} (dh_{alpha deltabar}/dz^i)
          (dh_{gamma betabar}/dzbar^j),

with the normalization fixed so that the curvature of the built-in O(1)
metric h = (1 + |z|^2)^{-1} equals the stored Fubini-Study matrix exactly.
Differentiation is 4th-order central differencing in the 2n real
coordinates, with d/dz = (d/dx - i d/dy)/2.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import operator
from typing import Callable

import numpy as np

from . import limits
from .errors import ParamDomainError, SingularMetricError, StencilOutOfChartError, short_count

# 4th-order Wirtinger stencil d/dz = (d/dx - i d/dy)/2 at chart offsets
# o * _STEP: weights c/2 on the real axis and -i c/2 on the imaginary axis, for
# the central first-derivative coefficients c = (1, -8, 8, -1)/12.  d/dzbar
# takes the conjugate weights.  Every curvature, sampled or lifted, is taken at _STEP.
_STEP = 1e-3
_STENCIL_OFFS = np.array([-2, -1, 1, 2, -2j, -1j, 1j, 2j])
_STENCIL_WEIGHTS = np.array([1, -8, 8, -1, -1j, 8j, -8j, 1j]) / 24
# d/dz^i d/dzbar^j: weight of the offset pair (a, b) at index 8a + b
_MIXED_WEIGHTS = np.outer(_STENCIL_WEIGHTS, _STENCIL_WEIGHTS.conj()).ravel()


def as_point(z, n: int) -> np.ndarray:
    """Coerce ``z`` to a length-``n`` complex chart point."""
    p = np.asarray(z, dtype=complex)
    if p.shape != (n,):
        raise ValueError(f"chart point must have {n} coordinates, got shape {p.shape}")
    if not all(map(cmath.isfinite, p.tolist())):
        raise ValueError("chart point has non-finite coordinates")
    return p


@dataclasses.dataclass(frozen=True)
class MetricField:
    """Chart-local Hermitian metric field of rank ``rank`` over CP^n.

    ``evaluate`` maps a chart point (complex length-n array) to an (r, r)
    complex Hermitian positive matrix.  ``domain_radius``, when set, declares
    the validity region |z| < domain_radius; finite-difference stencils that
    leave it raise StencilOutOfChartError.  ``rank`` and ``base_dim`` below 1
    are a ParamDomainError.  A call checks the point and the domain, then
    returns ``value(p)``, which derived fields call on their parent directly.
    ``line_degree`` is c when the field is the built-in line bundle
    h = (1 + |z|^2)^(-c), whose curvature is exactly c times ``fubini_study``;
    it is None on every other field, derived copies included.
    """

    rank: int
    base_dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    domain_radius: float | None = None
    line_degree: float | None = None

    def __post_init__(self):
        if self.rank < 1 or self.base_dim < 1:
            raise ParamDomainError(f"metric {self.label!r} needs rank and base_dim >= 1")

    def __call__(self, z) -> np.ndarray:
        p = as_point(z, self.base_dim)
        if self.domain_radius is not None and np.vdot(p, p).real >= self.domain_radius**2:
            raise StencilOutOfChartError(
                f"point |z|={np.linalg.norm(p):.6g} outside declared domain "
                f"|z| < {self.domain_radius} of metric {self.label!r}"
            )
        return self.value(p)

    def value(self, p: np.ndarray) -> np.ndarray:
        """``evaluate(p)`` at a checked point, as a complex array checked to be (r, r)."""
        h = np.asarray(self.evaluate(p), dtype=complex)
        if h.shape != (self.rank, self.rank):
            raise ValueError(f"metric {self.label!r} returned shape {h.shape}")
        return h


@dataclasses.dataclass
class CurvatureTensor:
    """Pointwise Chern curvature, values[i, j, alpha, beta] = R_{i jbar alpha betabar}.

    ``values`` is stored complex, without a copy of a complex array, unless it
    is an exact ``object`` array, which stays exact; no consumer casts it again.
    ``normalized`` flags tensors expressed in a frame with h(p) = Id (and,
    when produced by normalize_at_point with a polarization, coordinates
    with g(p) = Id); the positivity and symmetric-power routines require it.
    ``gram`` is the diagonal of the fiber basis's Gram matrix: all ones by
    default, the multiplicity factorials for a symmetric-power block.
    ``samples`` is the metric on the 64n^2 + 8n + 1 rows of ``_stencil_offsets(n)``
    at _STEP, in the field's own frame, with row 0 = h(p); only chern_curvature
    sets it, and it is None on every other tensor.
    """

    values: np.ndarray
    normalized: bool = False
    gram: np.ndarray | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values)
        self.values = v if v.dtype == object else np.asarray(v, dtype=complex)
        if self.gram is None:
            self.gram = np.ones(self.rank, dtype=np.int64)

    @property
    def base_dim(self) -> int:
        return self.values.shape[0]

    @property
    def rank(self) -> int:
        return self.values.shape[2]

    def hermitian_defect(self) -> float:
        v = self.values
        return float(np.max(np.abs(v - v.transpose(1, 0, 3, 2).conj())))


def fubini_study(n: int, z) -> np.ndarray:
    """Fubini-Study metric g_{i jbar}(z) = d_i dbar_j log(1 + |z|^2) on U_0.

    In this normalization g equals the curvature form of the built-in O(1)
    metric, and at the origin g = Id.
    """
    if n < 1:
        raise ParamDomainError("base dimension must be >= 1")
    p = as_point(z, n)
    s = 1.0 + float(np.vdot(p, p).real)
    g = p.conj()[:, None] * p / -(s**2)
    g.ravel()[:: n + 1] += 1.0 / s
    return g


@functools.lru_cache(maxsize=None)
def _stencil_offsets(n: int) -> np.ndarray:
    """Chart offsets, in units of the step, of every metric evaluation of a curvature.

    Row 0 is the base point.  Row 1 + 8i + a moves z^i by _STENCIL_OFFS[a]
    (for d/dz^i).  Row 1 + 8n + 64(i n + j) + 8a + b moves z^i by
    _STENCIL_OFFS[a] and z^j by _STENCIL_OFFS[b] (for d/dz^i d/dzbar^j).
    """
    first = (np.eye(n)[:, None, :] * _STENCIL_OFFS[:, None]).reshape(n, 8, n)
    mixed = first[:, None, :, None] + first[None, :, None, :]
    table = np.concatenate([np.zeros((1, n)), first.reshape(8 * n, n),
                            mixed.reshape(64 * n * n, n)])
    table.flags.writeable = False
    return table


def _base_inverse(H: np.ndarray, label: str) -> np.ndarray:
    """h(p)^-1, or SingularMetricError when h(p) is not finite, not Hermitian or not
    positive definite."""
    if not np.isfinite(H).all():
        raise SingularMetricError(f"metric {label!r} not finite at the evaluation point")
    # eigvalsh and cholesky read one triangle: an unchecked defect would go unseen
    if np.max(np.abs(H - H.conj().T)) > 1e-12 * np.max(np.abs(H)):
        raise SingularMetricError(f"metric {label!r} not Hermitian at the evaluation point")
    ev = np.linalg.eigvalsh(H)
    # relative to the largest eigenvalue: a constant factor on h leaves the
    # curvature unchanged, so a small but well-conditioned h(p) is fine
    if ev[0] <= 1e-12 * np.max(np.abs(ev)):
        raise SingularMetricError(f"metric {label!r} not positive definite at the "
                                  f"evaluation point")
    return np.linalg.inv(H)


def _curvature_from_samples(vals: np.ndarray, label: str, Hinv: np.ndarray | None = None,
                            lift: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
    """R_{i jbar alpha betabar} from the metric ``vals`` at the rows of
    ``_stencil_offsets(n)``, row 0 the base value h(p); ``vals`` is not modified.

    ``Hinv`` is h(p)^-1 when the caller has already checked h(p) with
    ``_base_inverse``.  ``lift``, when given, maps a (rows, r, r) block of
    ``vals`` to the C-ordered (rows, F, F) values of a field derived pointwise
    from them, and the curvature is that field's.  Each derivative reads only
    its own rows, so the rows are lifted, checked finite and contracted with
    the Wirtinger weights one group at a time: row 0, the 8n rows of the
    d/dz^i, then the 64 rows of each d/dz^i d/dzbar^j.  No buffer of the whole
    stencil is made beyond ``vals``.
    """
    # len(vals) = 64n^2 + 8n + 1, so 4 len(vals) - 3 = (16n + 1)^2
    n = (math.isqrt(4 * len(vals) - 3) - 1) // 16
    lift = lift or (lambda block: block)

    def rows(lo: int, hi: int) -> np.ndarray:
        block = lift(vals[lo:hi])
        if not np.isfinite(block).all():
            raise SingularMetricError(f"metric {label!r} not finite on the stencil")
        return block.reshape(hi - lo, -1)

    H = lift(vals[:1])[0]
    if Hinv is None:
        Hinv = _base_inverse(H, label)
    F = len(H)
    # every weight row sums to 0: subtracting h(p) leaves the derivatives
    # unchanged and makes those of a constant field exactly 0
    h0 = H.reshape(-1)
    dh = _STENCIL_WEIGHTS @ (rows(1, 1 + 8 * n) - h0).reshape(n, 8, F * F)
    dh = dh.reshape(n, F, F) / _STEP
    lo = 1 + 8 * n
    dd = np.stack([_MIXED_WEIGHTS @ (rows(lo + 64 * g, lo + 64 * g + 64) - h0)
                   for g in range(n * n)]).reshape(n, n, F, F)
    return np.einsum("iab,jdb->ijad", dh @ Hinv, dh.conj()) - dd / _STEP**2


def chern_curvature(h: MetricField, p) -> CurvatureTensor:
    """Finite-difference Chern curvature of (E, h) at ``p``, in the frame of h.

    The metric is evaluated once per row of ``_stencil_offsets(n)`` and the
    rows go through ``_curvature_from_samples``; the returned tensor keeps
    them as ``samples``, so a field derived pointwise from h can be
    differentiated on them without evaluating h again.  Raises
    ParamDomainError, before any metric evaluation, when the stencil buffer
    would hold more than limits.MAX_STENCIL_ENTRIES entries, SingularMetricError when
    h(p) is not positive definite to working precision or h is not finite on
    the stencil, StencilOutOfChartError when a stencil point leaves the declared
    domain of a user metric.
    """
    n = h.base_dim
    r = h.rank
    limits.check_stencil_budget(n, r, h.label)
    z0 = as_point(p, n)

    H = h(z0)
    Hinv = _base_inverse(H, h.label)
    points = z0 + _STEP * _stencil_offsets(n)
    vals = np.empty((len(points), r, r), dtype=complex)
    vals[0] = H
    for row, z in enumerate(points[1:], 1):
        vals[row] = h(z)
    R = _curvature_from_samples(vals, h.label, Hinv)
    return CurvatureTensor(R, normalized=False, samples=vals)


def _orthonormalizer(a: np.ndarray) -> np.ndarray:
    """Matrix P with P^T a conj(P) = Id for Hermitian positive ``a``.

    This is the change making the indices-down pairing sum a_{i jbar} u^i
    conj(u^j) the standard norm in the new components.
    """
    if not np.isfinite(a).all():
        raise SingularMetricError("matrix has non-finite entries")
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError("matrix not positive definite") from exc
    return np.linalg.inv(L).T


def fiber_frame(R: CurvatureTensor) -> np.ndarray:
    """The one fiber frame: Q = _orthonormalizer(h(p)), h(p) row 0 of R.samples."""
    return _orthonormalizer(R.samples[0])


def normalize_at_point(R: CurvatureTensor, g: np.ndarray | None,
                       what: str = "curvature") -> CurvatureTensor:
    """The ``chern_curvature`` tensor R in g-orthonormal coordinates and h-orthonormal frame.

    ``g`` is the polarization form at R's point, an n x n Hermitian positive
    matrix, or None for the identity.  The new tangent vectors are the columns
    of P = _orthonormalizer(g), the new frame vectors those of
    Q = fiber_frame(R); the result has no samples.

    The change R[x, y, u, v] = sum R[i, j, a, b] P[i, x] conj(P[j, y]) Q[a, u]
    conj(Q[b, v]) runs as three matrix products, P^T over i, P^H over j and
    Q^T . conj(Q) over the fiber, so it costs n^3 r^2 + n^2 r^3 rather than
    the n^4 r^4 of one unoptimized contraction over all four indices.  A g or h(p)
    at the edge of the float range can overflow them: a result that is not finite
    is a SingularMetricError, whose message names ``what``.
    """
    n, r = R.base_dim, R.rank
    gp = np.eye(n, dtype=complex) if g is None else np.asarray(g, dtype=complex)
    P = _orthonormalizer(gp)
    Q = fiber_frame(R)
    with np.errstate(all="ignore"):
        vals = (P.T @ R.values.reshape(n, -1)).reshape(n, n, r * r)
        vals = Q.T @ (P.conj().T @ vals).reshape(n, n, r, r) @ Q.conj()
    if not np.isfinite(vals).all():
        raise SingularMetricError(f"{what} not finite in the normalized frame and coordinates")
    return CurvatureTensor(vals, normalized=True)


def philox(seed) -> np.random.Generator:
    """The counter-based Philox generator keyed by ``seed``, the one constructor
    of every random stream.  A key outside the Philox key range (an int outside
    0 .. 2**128 - 1, or a tuple, list or array pair with an entry that is not an
    int in 0 .. 2**64 - 1) is a ParamDomainError."""
    try:
        if isinstance(seed, (tuple, list)) or isinstance(seed, np.ndarray) and seed.ndim:
            # numpy would wrap a negative entry, truncate a float one and can round one
            # above 2**63 through float64; each operator.index entry is exact or an error
            seed = np.array([operator.index(x) for x in seed], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=seed))
    except (ValueError, OverflowError, TypeError) as exc:
        raise ParamDomainError(f"seed is not a Philox key (an int in 0 .. 2**128 - 1, or a "
                               f"pair of ints in 0 .. 2**64 - 1): {exc}") from exc


_SAMPLE_RADIUS = 2.0


def sample_points(n: int, count: int, seed: int = 0) -> list[np.ndarray]:
    """Origin plus radial-uniform points with |z| <= 2, deterministic."""
    if n < 1 or count < 1:
        raise ParamDomainError(f"need base dimension and point count >= 1, got "
                               f"{short_count(n)} and {short_count(count)}")
    rng = philox(seed)
    pts = [np.zeros(n, dtype=complex)]
    while len(pts) < count:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        pts.append(v / norm * (_SAMPLE_RADIUS * rng.random()))
    return pts
