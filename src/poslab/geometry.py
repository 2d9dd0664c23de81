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

import dataclasses
import functools
from typing import Callable

import numpy as np

from .errors import ParamDomainError, SingularMetricError, StencilOutOfChartError

# 4th-order Wirtinger stencil d/dz = (d/dx - i d/dy)/2 at chart offsets
# o * step: weights c/2 on the real axis and -i c/2 on the imaginary axis, for
# the central first-derivative coefficients c = (1, -8, 8, -1)/12.  d/dzbar
# takes the conjugate weights.
_STENCIL_OFFS = np.array([-2, -1, 1, 2, -2j, -1j, 1j, 2j])
_STENCIL_WEIGHTS = np.array([1, -8, 8, -1, -1j, 8j, -8j, 1j]) / 24
# d/dz^i d/dzbar^j: weight of the offset pair (a, b) at index 8a + b
_MIXED_WEIGHTS = np.outer(_STENCIL_WEIGHTS, _STENCIL_WEIGHTS.conj()).ravel()


def as_point(z, n: int) -> np.ndarray:
    """Coerce ``z`` to a length-``n`` complex chart point."""
    p = np.asarray(z, dtype=complex)
    if p.shape != (n,):
        raise ValueError(f"chart point must have {n} coordinates, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("chart point has non-finite coordinates")
    return p


@dataclasses.dataclass(frozen=True)
class MetricField:
    """Chart-local Hermitian metric field of rank ``rank`` over CP^n.

    ``evaluate`` maps a chart point (complex length-n array) to an (r, r)
    complex Hermitian positive matrix.  ``domain_radius``, when set, declares
    the validity region |z| < domain_radius; finite-difference stencils that
    leave it raise StencilOutOfChartError.
    """

    rank: int
    base_dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    domain_radius: float | None = None

    def __call__(self, z) -> np.ndarray:
        p = as_point(z, self.base_dim)
        if self.domain_radius is not None and np.vdot(p, p).real >= self.domain_radius**2:
            raise StencilOutOfChartError(
                f"point |z|={np.linalg.norm(p):.6g} outside declared domain "
                f"|z| < {self.domain_radius} of metric {self.label!r}"
            )
        h = np.asarray(self.evaluate(p), dtype=complex)
        if h.shape != (self.rank, self.rank):
            raise ValueError(f"metric {self.label!r} returned shape {h.shape}")
        return h


@dataclasses.dataclass
class CurvatureTensor:
    """Pointwise Chern curvature, values[i, j, alpha, beta] = R_{i jbar alpha betabar}.

    ``normalized`` flags tensors expressed in a frame with h(p) = Id (and,
    when produced by normalize_at_point with a polarization, coordinates
    with g(p) = Id); the positivity and symmetric-power routines require it.
    """

    values: np.ndarray
    normalized: bool = False

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
    g.flat[:: n + 1] += 1.0 / s
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


def chern_curvature(h: MetricField, p, step: float = 1e-3) -> CurvatureTensor:
    """Finite-difference Chern curvature of (E, h) at ``p``, in the frame of h.

    The metric is evaluated once per row of ``_stencil_offsets(n)``, the base
    value subtracted, and the rows contracted with the Wirtinger weights.
    Raises SingularMetricError when h(p) is not invertible to working
    precision or h is not finite on the stencil, StencilOutOfChartError when
    a stencil point leaves the declared domain of a user metric.
    """
    n = h.base_dim
    r = h.rank
    z0 = as_point(p, n)

    H = h(z0)
    if not np.isfinite(H).all():
        raise SingularMetricError(f"metric {h.label!r} not finite at the evaluation point")
    ev = np.linalg.eigvalsh(H)
    if np.min(np.abs(ev)) <= 1e-12 * max(1.0, np.max(np.abs(ev))):
        raise SingularMetricError(f"metric {h.label!r} singular at the evaluation point")
    Hinv = np.linalg.inv(H)

    points = z0 + step * _stencil_offsets(n)
    vals = np.empty((len(points), r, r), dtype=complex)
    vals[0] = H
    for row in range(1, len(points)):
        vals[row] = h(points[row])
    if not np.isfinite(vals).all():
        raise SingularMetricError(f"metric {h.label!r} not finite on the stencil")
    # every weight row sums to 0: subtracting h(p) leaves the derivatives
    # unchanged and makes those of a constant field exactly 0
    vals -= H
    dh = (_STENCIL_WEIGHTS @ vals[1:1 + 8 * n].reshape(n, 8, r * r)).reshape(n, r, r) / step
    dd = (_MIXED_WEIGHTS @ vals[1 + 8 * n:].reshape(n * n, 64, r * r)).reshape(n, n, r, r)
    R = np.einsum("iab,jdb->ijad", dh @ Hinv, dh.conj()) - dd / step**2
    return CurvatureTensor(R, normalized=False)


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


def normalize_at_point(
    h: MetricField,
    g: MetricField | np.ndarray | None,
    p,
    step: float = 1e-3,
) -> tuple[CurvatureTensor, np.ndarray, np.ndarray]:
    """Curvature of h at p in g-orthonormal coordinates and h-orthonormal frame.

    ``g`` is the polarization metric on the base (a MetricField of rank n, a
    plain n x n matrix value, or None for the identity).  Returns the
    normalized tensor and the coordinate / frame change matrices (P, Q):
    new tangent vectors are columns of P, new frame vectors columns of Q.
    """
    n = h.base_dim
    z0 = as_point(p, n)
    R = chern_curvature(h, z0, step=step)

    if g is None:
        gp = np.eye(n, dtype=complex)
    elif isinstance(g, MetricField):
        gp = g(z0)
    else:
        gp = np.asarray(g, dtype=complex)
    hp = h(z0)
    P = _orthonormalizer(gp)
    Q = _orthonormalizer(hp)
    vals = np.einsum("ijab,ix,jy,au,bv->xyuv", R.values, P, P.conj(), Q, Q.conj())
    return CurvatureTensor(vals, normalized=True), P, Q


def sample_points(n: int, count: int, seed: int = 0, radius: float = 2.0) -> list[np.ndarray]:
    """Origin plus radial-uniform points with |z| <= radius, deterministic."""
    if n < 1 or count < 1:
        raise ParamDomainError(f"need base dimension and point count >= 1, got {n} and {count}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = [np.zeros(n, dtype=complex)]
    while len(pts) < count:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        pts.append(v / norm * (radius * rng.random()))
    return pts
