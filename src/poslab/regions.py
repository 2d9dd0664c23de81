"""Exact vanishing-region computation: lambda_0 ratios, quadrilaterals, strips.

Everything here is exact rational or integer arithmetic; floating point is
deliberately banned so that boundary pairs, which the theorems include, are
decided reproducibly with <= comparisons.  A region is decided row by row:
with lambda_0 = a/b in lowest terms, row p holds exactly the q >= lo(p), an
integer threshold found by cross-multiplication, so a region of n^2 pairs costs
n integer steps and is stored as those thresholds.  Its size, membership and
SVG are read from the thresholds alone; only enumerating its pairs is budgeted,
so a region of more than limits.MAX_REGION_MEMBERS pairs is rejected before its
first pair.  n > limits.MAX_REGION_MEMBERS is rejected before any threshold is
built, as is a lambda0 or a vertex whose numerator or denominator has more
digits than the report can print.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from . import limits
from .errors import ParamDomainError

_ALIASES = {
    "main1": "main1",
    "gg": "globally_generated",
    "globally_generated": "globally_generated",
    "ample": "ample_nef",
    "ample_nef": "ample_nef",
    "griffiths": "griffiths",
}


def _checked_lambda(lam) -> Fraction:
    lam = Fraction(lam)
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
            e1, e2 = Fraction(self.eps1), Fraction(self.eps2)
            object.__setattr__(self, "eps1", e1)
            object.__setattr__(self, "eps2", e2)
            limits.check_printed_digits("eps1 or eps2", e1, e2)
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
        lam = Fraction(num) / Fraction(den)
    elif t in ("globally_generated", "griffiths"):
        lam = Fraction(params.m - 1, params.m - 1 + rk)
    else:  # ample_nef
        lam = Fraction((params.m - 1) - rk, (params.m - 1) + params.r * rk)
    return _checked_lambda(lam)


@dataclasses.dataclass(frozen=True)
class VanishingRegion:
    """Row p in 1..n holds exactly the (p, q) with lo[p-1] <= q <= n.  Iteration is
    sorted, and refused before the first pair above limits.MAX_REGION_MEMBERS pairs."""
    n: int
    lambda0: Fraction
    lo: tuple[int, ...]

    def __contains__(self, pair) -> bool:
        p, q = pair
        return 1 <= p <= self.n and self.lo[p - 1] <= q <= self.n

    def __iter__(self):
        limits.check_printed_count(len(self), "region of n = {}, lambda0 = {} has {} members",
                                   self.n, self.lambda0)
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


def region(n: int, lam) -> VanishingRegion:
    """Pairs 1 <= p,q <= n with min{(n-q)/p, (n-p)/q} <= lambda0, exactly.

    n above limits.MAX_REGION_MEMBERS, and a lambda0 or vertex A3 that the report
    could not print, are rejected before the thresholds.  s0 = 2 A3 - n has a
    numerator and a denominator no larger than A3's, so it prints whenever A3 does.
    """
    limits.check_region_n(n)
    lam = _checked_lambda(lam)
    limits.check_printed_digits("lambda0 or the vertex A3", lam, n / (1 + lam))
    return VanishingRegion(n=n, lambda0=lam, lo=_row_thresholds(n, lam))


def theorem_region(params: TheoremParams) -> VanishingRegion:
    """Region for a theorem instance, with the m = 1 degenerate branch.

    For the globally-generated and Griffiths flavors with m = 1 the only
    vanishing pair is (n, n): row thresholds n + 1 (empty) for p < n and n for
    p = n.  lambda0 = 0 would wrongly include the whole p = n and q = n edges.
    """
    limits.check_region_n(params.n)
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
    """Static SVG of the quadrilateral: each nonempty row p shaded as one column of
    cells q = lo(p)..n, a grid pattern, the quadrilateral as one polygon through
    A0, A1, A2, A3, and marked vertices: one rect per nonempty row and a fixed number
    of other elements, whatever n."""
    n = reg.n
    pad, half = 40, SVG_CELL / 2
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
    for p, t in enumerate(reg.lo, 1):
        if t <= n:
            parts.append(f'<rect x="{X(p) - half:.1f}" y="{Y(n) - half:.1f}" '
                         f'width="{SVG_CELL}" height="{(n + 1 - t) * SVG_CELL}" '
                         f'fill="#9ecae1" stroke="none"/>')
    # each tile of the grid draws a cross through its centre, so the lines fall on
    # X(t) and Y(t); the stroke of the filled square draws the border at full width
    parts.append(f'<defs><pattern id="grid" x="{pad - half:.1f}" y="{pad - half:.1f}" '
                 f'width="{SVG_CELL}" height="{SVG_CELL}" patternUnits="userSpaceOnUse">'
                 f'<path d="M {half:.1f} 0 V {SVG_CELL} M 0 {half:.1f} H {SVG_CELL}" '
                 f'stroke="#ddd" stroke-width="0.5"/></pattern></defs>')
    parts.append(f'<path d="M {pad} {pad} H {size - pad} V {size - pad} H {pad} Z" '
                 f'fill="url(#grid)" stroke="#ddd" stroke-width="0.5"/>')
    v = reg.vertices
    points = " ".join(f"{X(p):.1f},{Y(q):.1f}" for p, q in v.values())
    parts.append(f'<polygon points="{points}" fill="none" stroke="black" stroke-width="2"/>')
    for name, (p, q) in v.items():
        parts.append(f'<circle cx="{X(p):.1f}" cy="{Y(q):.1f}" r="3" fill="black"/>')
        parts.append(f'<text x="{X(p) + 5:.1f}" y="{Y(q) - 5:.1f}" font-size="12">{name}</text>')
    parts.append(f'<text x="{pad}" y="{size - 10}" font-size="11">'
                 f'n={n}, lambda0={reg.lambda0}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
