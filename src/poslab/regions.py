"""Exact vanishing-region computation: lambda_0 ratios, quadrilaterals, strips.

Everything here is exact rational or integer arithmetic; floating point is
deliberately banned so that boundary pairs, which the theorems include, are
decided reproducibly with <= comparisons.  A region is decided row by row:
with lambda_0 = a/b in lowest terms, row p holds exactly the q >= lo(p), an
integer threshold found by cross-multiplication, so a region of n^2 pairs costs
n integer steps and is stored as those thresholds.  Regions of more than
MAX_REGION_MEMBERS pairs are rejected before any pair is built, and
n > MAX_REGION_MEMBERS before any threshold is.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .errors import ParamDomainError, short_count

# Largest region, in member pairs, that ``region`` will enumerate.
MAX_REGION_MEMBERS = 10**6

_ALIASES = {
    "main1": "main1",
    "gg": "globally_generated",
    "globally_generated": "globally_generated",
    "ample": "ample_nef",
    "ample_nef": "ample_nef",
    "griffiths": "griffiths",
}


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _checked_lambda(lam) -> Fraction:
    lam = _rat(lam)
    if not 0 <= lam <= 1:
        raise ParamDomainError(f"lambda0 = {lam} outside [0, 1]")
    return lam


@dataclasses.dataclass(frozen=True)
class TheoremParams:
    n: int
    r: int
    k: int
    m: int
    theorem: str
    eps1: Fraction | None = None
    eps2: Fraction | None = None

    def __post_init__(self):
        t = _ALIASES.get(self.theorem)
        if t is None:
            raise ParamDomainError(f"unknown theorem {self.theorem!r}")
        object.__setattr__(self, "theorem", t)
        if self.n < 1 or self.r < 1 or self.k < 1:
            raise ParamDomainError("need n >= 1, r >= 1, k >= 1")
        if t == "main1":
            if self.eps1 is None or self.eps2 is None:
                raise ParamDomainError("main1 requires eps1 and eps2")
            e1, e2 = _rat(self.eps1), _rat(self.eps2)
            object.__setattr__(self, "eps1", e1)
            object.__setattr__(self, "eps2", e2)
            if e1 > e2:
                raise ParamDomainError("eps1 <= eps2 must hold")
            if self.m + (self.r + self.k) * e1 <= 0:
                raise ParamDomainError("m+(r+k)*eps1 must be > 0 (positivity of the twist)")
        elif self.eps1 is not None or self.eps2 is not None:
            raise ParamDomainError(f"eps1 and eps2 apply to main1 only, not to {t}")
        elif t in ("globally_generated", "griffiths"):
            if self.m < 1:
                raise ParamDomainError("m >= 1 required for a globally generated/Griffiths bound")
        elif t == "ample_nef":
            if self.m < self.k + self.r + 1:
                raise ParamDomainError("m >= k+r+1 required for the ample/nef bound")


def lambda0(params: TheoremParams) -> Fraction:
    """The exact ratio lambda_0 in [0, 1] selecting the vanishing region."""
    t = params.theorem
    rk = params.r + params.k
    if t == "main1":
        num = params.m + rk * params.eps1
        den = params.m + rk * params.eps2
        lam = _rat(num) / _rat(den)
    elif t in ("globally_generated", "griffiths"):
        lam = Fraction(params.m - 1, params.m - 1 + rk)
    else:  # ample_nef
        lam = Fraction((params.m - 1) - rk, (params.m - 1) + params.r * rk)
    return _checked_lambda(lam)


@dataclasses.dataclass(frozen=True)
class VanishingRegion:
    """Row p in 1..n holds exactly the (p, q) with lo[p-1] <= q <= n; iteration is sorted."""
    n: int
    lambda0: Fraction
    lo: tuple[int, ...]

    def __contains__(self, pair) -> bool:
        p, q = pair
        return 1 <= p <= self.n and self.lo[p - 1] <= q <= self.n

    def __iter__(self):
        return ((p, q) for p, t in enumerate(self.lo, 1) for q in range(t, self.n + 1))

    def __len__(self) -> int:
        return sum(self.n + 1 - t for t in self.lo)

    @property
    def c0(self) -> Fraction:
        return self.n / (1 + self.lambda0)

    @property
    def vertices(self) -> dict:
        return {
            "A0": (0, self.n),
            "A1": (self.n, self.n),
            "A2": (self.n, 0),
            "A3": (self.c0, self.c0),
        }

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lambda0": str(self.lambda0),
            "members": [[p, q] for p, q in self],
            "vertices": {name: [str(x) if isinstance(x, Fraction) else x for x in v]
                         for name, v in self.vertices.items()},
        }


def _row_thresholds(n: int, lam: Fraction) -> tuple:
    """lo(p) for p = 1..n: row p of the region is {(p, q) : lo(p) <= q <= n}.

    (n-q)/p <= a/b iff q >= n - floor(a p / b), and (n-p)/q <= a/b iff
    q >= ceil((n-p) b / a) for a > 0 (for a = 0 only p = n qualifies).
    """
    a, b = lam.numerator, lam.denominator
    lo = []
    for p in range(1, n + 1):
        t = n - (a * p) // b
        if a:
            t = min(t, -((p - n) * b // a))
        lo.append(1 if p == n else max(t, 1))
    return tuple(lo)


def check_region_n(n: int) -> None:
    """Reject n > MAX_REGION_MEMBERS before any O(n) work: row n of a region
    alone holds n members (the m = 1 branch, with one member, is bounded too)."""
    if n > MAX_REGION_MEMBERS:
        raise ParamDomainError(f"n = {short_count(n)} is above the region budget of "
                               f"{MAX_REGION_MEMBERS} members: row n alone holds n of them")


def region(n: int, lam) -> VanishingRegion:
    """Pairs 1 <= p,q <= n with min{(n-q)/p, (n-p)/q} <= lambda0, exactly.

    Raises ParamDomainError when the region has more than MAX_REGION_MEMBERS
    pairs; the count comes from the row thresholds, before any pair exists,
    and n itself above the budget is rejected before the thresholds.
    """
    check_region_n(n)
    lam = _checked_lambda(lam)
    reg = VanishingRegion(n=n, lambda0=lam, lo=_row_thresholds(n, lam))
    if (size := len(reg)) > MAX_REGION_MEMBERS:
        raise ParamDomainError(f"region of n = {n}, lambda0 = {lam} has {size} members, "
                               f"above the budget of {MAX_REGION_MEMBERS}")
    return reg


def theorem_region(params: TheoremParams) -> VanishingRegion:
    """Region for a theorem instance, with the m = 1 degenerate branch.

    For the globally-generated and Griffiths flavors with m = 1 the only
    vanishing pair is (n, n): row thresholds n + 1 (empty) for p < n and n for
    p = n.  lambda0 = 0 would wrongly include the whole p = n and q = n edges.
    """
    check_region_n(params.n)
    lam = lambda0(params)
    if params.theorem in ("globally_generated", "griffiths") and params.m == 1:
        return VanishingRegion(params.n, lam, (params.n + 1,) * (params.n - 1) + (params.n,))
    return region(params.n, lam)


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def strip_threshold(n: int, r: int, k: int, s: int, flavor: str) -> int:
    """Minimal twist power m making the strip p+q >= n+s vanish.

    Globally generated: m >= [(n-s)/2] (r+k) / s + 1 (clamped to m >= 1);
    ample/nef: m >= [(n-s)/2] (r+k)(r+1) / s + (r+1) + k (clamped to
    m >= r+k+1, the flavor's own precondition).
    """
    fl = _ALIASES.get(flavor)
    if fl not in ("globally_generated", "ample_nef"):
        raise ParamDomainError(f"unknown strip flavor {flavor!r}")
    if not 1 <= s <= n:
        raise ParamDomainError("need 1 <= s <= n")
    half = (n - s) // 2
    if fl == "globally_generated":
        bound = Fraction(half * (r + k), s) + 1
        return max(_ceil_frac(bound), 1)
    bound = Fraction(half * (r + k) * (r + 1), s) + (r + 1) + k
    return max(_ceil_frac(bound), r + k + 1)


def strip_width(n: int, lam) -> Fraction:
    """s0 with {p+q >= n+s0} contained in the region: s0 = 2n/(1+lambda0) - n."""
    return Fraction(2 * n, 1) / (1 + _checked_lambda(lam)) - n


SVG_CELL = 24  # side of one (p, q) cell in the region SVG, in px


def region_svg(reg: VanishingRegion) -> str:
    """Static SVG of the quadrilateral: shaded member cells, marked vertices."""
    n = reg.n
    pad = 40
    size = 2 * pad + n * SVG_CELL

    def X(p):
        return pad + float(p) * SVG_CELL

    def Y(q):
        return size - pad - float(q) * SVG_CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for (p, q) in reg:
        parts.append(
            f'<rect x="{X(p) - SVG_CELL / 2:.1f}" y="{Y(q) - SVG_CELL / 2:.1f}" '
            f'width="{SVG_CELL}" height="{SVG_CELL}" fill="#9ecae1" stroke="none"/>'
        )
    for t in range(n + 1):
        parts.append(f'<line x1="{X(0):.1f}" y1="{Y(t):.1f}" x2="{X(n):.1f}" y2="{Y(t):.1f}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<line x1="{X(t):.1f}" y1="{Y(0):.1f}" x2="{X(t):.1f}" y2="{Y(n):.1f}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
    v = reg.vertices
    for a, b in ((v["A0"], v["A3"]), (v["A3"], v["A2"]), (v["A0"], v["A1"]), (v["A1"], v["A2"])):
        parts.append(f'<line x1="{X(a[0]):.1f}" y1="{Y(a[1]):.1f}" '
                     f'x2="{X(b[0]):.1f}" y2="{Y(b[1]):.1f}" stroke="black" stroke-width="2"/>')
    for name, (p, q) in v.items():
        parts.append(f'<circle cx="{X(p):.1f}" cy="{Y(q):.1f}" r="3" fill="black"/>')
        parts.append(f'<text x="{X(p) + 5:.1f}" y="{Y(q) - 5:.1f}" font-size="12">{name}</text>')
    parts.append(f'<text x="{pad}" y="{size - 10}" font-size="11">'
                 f'n={n}, lambda0={reg.lambda0}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
