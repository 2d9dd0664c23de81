"""Known cohomology dimensions used as non-vanishing ground truth.

The Grassmannian oracle encodes the classical computation for the
tautological quotient bundle: on X = G(r, V) with dim V = d and
n = r(d - r), H^{n,q}(X, S^k E det E) vanishes except at
q* = (r-1)(d-r), where it is S^{k+r-d} V tensor det V.  For r = d-1 this
specializes to H^{n,q}(P^n, S^k TP^n O(1-k)) nonzero only at q = n-1.

pn_line_cohomology is the full Bott table for H^q(P^n, Omega^p(l)).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import comb, log10, prod

from .errors import ParamDomainError, short_count
from .regions import TheoremParams, VanishingRegion, check_region_n, lambda0, region

# Python's default limit on the digits of an int it converts to text: a larger
# dimension could not be written to the JSON report.
MAX_DIM_DIGITS = 4300


@dataclasses.dataclass(frozen=True)
class CohomologyDim:
    p: int
    q: int
    dim: int
    source: str

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _binomial_product(*pairs: tuple[int, int]) -> int:
    """The product of C(a, b) over ``pairs`` (a, b) of integers a, b >= 0.

    Raises ParamDomainError when it has more than MAX_DIM_DIGITS digits.  With
    c = min(b, a - b) >= 1, (a / c)^c <= C(a, b) <= (e a / c)^c and a / c >= 2,
    so a product above the limit by the lower bound is rejected before any
    binomial is multiplied out, and below it the exact product has fewer than
    2.5 MAX_DIM_DIGITS digits, cheap to compute and compare.
    """
    low = sum(c * (log10(a) - log10(c)) for a, b in pairs if (c := min(b, a - b)) >= 1)
    if low <= MAX_DIM_DIGITS:
        dim = prod(comb(a, b) for a, b in pairs)
        # dim < 2^bits <= 10^digits: the power of ten is built only near the limit
        if dim.bit_length() <= 3.32 * MAX_DIM_DIGITS or dim < 10 ** MAX_DIM_DIGITS:
            return dim
    raise ParamDomainError(f"the cohomology dimension has more than {MAX_DIM_DIGITS} digits, "
                           "above what the report can print")


def grassmannian_nonvanishing(d: int, r: int, k: int) -> list[CohomologyDim]:
    """H^{n,q}(G(r,V), S^k E det E) dimensions, for all q in 0..n.

    n above the region budget is rejected before any record is built, and a
    dimension above MAX_DIM_DIGITS digits before it is multiplied out.
    """
    if not 1 <= r < d:
        raise ParamDomainError("need 1 <= r < d")
    if k < 1:
        raise ParamDomainError("need k >= 1")
    n = r * (d - r)
    check_region_n(n)
    q_star = (r - 1) * (d - r)
    j = k + r - d  # symmetric power of V at the special degree
    dim_star = _binomial_product((d - 1 + j, j)) if j >= 0 else 0
    out = []
    for q in range(n + 1):
        dim = dim_star if q == q_star else 0
        out.append(CohomologyDim(p=n, q=q, dim=dim, source=f"grassmannian(d={d},r={r},k={k})"))
    return out


def pn_line_cohomology(n: int, p: int, q: int, l: int) -> int:
    """dim H^q(P^n, Omega^p(l)) by the Bott formula; above MAX_DIM_DIGITS
    digits a ParamDomainError before any binomial is multiplied out."""
    if not (0 <= p <= n and 0 <= q <= n):
        raise ParamDomainError("need 0 <= p, q <= n")
    if l == 0:
        return 1 if p == q else 0
    if q == 0 and l > p:
        return _binomial_product((l + n - p, l), (l - 1, p))
    if q == n and l < p - n:
        return _binomial_product((-l + p, -l), (-l - 1, n - p))
    return 0


def consistency_check(reg: VanishingRegion, known: list[CohomologyDim]) -> dict:
    """PASS iff no known-nonzero (p, q) lies in the predicted region."""
    offenders = [d.to_json() for d in known if d.dim > 0 and (d.p, d.q) in reg]
    return {
        "status": "PASS" if not offenders else "FAIL",
        "checked": len(known),
        "offenders": offenders,
    }


def prop_ex_lambda0(n: int, k: int, l: int) -> Fraction:
    """lambda_0 for S^k TP^n O(l) via the strictly (0,1)-bounded substitution.

    Equals (l+k-1)/(l+n+2k-1); requires l >= 2-k (l+k-1 >= 1), which the
    Grassmannian oracle shows is optimal.
    """
    params = TheoremParams(n=n, r=n, k=k, m=l + k - 1, theorem="main1",
                           eps1=Fraction(0), eps2=Fraction(1))
    return lambda0(params)


def prop_ex_consistency(n: int, k: int, l: int) -> dict:
    """Confront the S^k TP^n O(l) region with the Grassmannian oracle family.

    The oracle's non-vanishing lives at the boundary twist l = 1-k, where
    m = l+k-1 = 0 and the theorem itself is inapplicable; for any other l the
    bundle parameters differ and the check passes with a recorded parameter
    mismatch.  n above the region budget is rejected first, then n or k below
    1, which no S^k TP^n has, before the theorem's applicability is tested.
    """
    check_region_n(n)
    if n < 1 or k < 1:
        raise ParamDomainError(f"need --n >= 1 and --k >= 1, got --n {short_count(n)} "
                               f"and --k {short_count(k)}")
    try:
        lam = prop_ex_lambda0(n, k, l)
    except ParamDomainError as exc:
        active = [d.to_json() for d in grassmannian_nonvanishing(d=n + 1, r=n, k=k) if d.dim > 0]
        return {
            "status": "INAPPLICABLE",
            "n": n, "k": k, "l": l,
            "reason": str(exc),
            "note": "theorem inapplicable -- non-vanishing oracle active at "
                    + ", ".join(f"({d['p']},{d['q']})" for d in active),
        }
    rep = consistency_check(region(n, lam), [])
    rep.update({
        "n": n, "k": k, "l": l,
        "lambda0": str(lam),
        "oracle_twist": 1 - k,
        "parameter_match": False,
        "note": "oracle family recorded at twist l=1-k; parameters differ",
    })
    return rep
