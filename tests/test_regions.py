from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslab import (
    ParamDomainError,
    TheoremParams,
    lambda0,
    region,
    region_svg,
    strip_threshold,
    strip_width,
    theorem_region,
)
from poslab import regions
from poslab.regions import MAX_REGION_MEMBERS

def reference_members(n, lam):
    """The region by its definition: one Fraction comparison per pair."""
    return frozenset((p, q) for p in range(1, n + 1) for q in range(1, n + 1)
                     if min(Fraction(n - q, p), Fraction(n - p, q)) <= lam)


LAMBDA_GRID = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
               Fraction(2, 3), Fraction(3, 4), Fraction(1)]


class TestLambda0:
    def test_globally_generated_examples(self):
        # m = r + 2, k = 1 gives exactly 1/2 for every rank
        for r in (1, 2, 3, 5):
            p = TheoremParams(n=4, r=r, k=1, m=r + 2, theorem="gg")
            assert lambda0(p) == Fraction(1, 2)

    def test_main1_equal_eps(self):
        p = TheoremParams(n=3, r=2, k=1, m=2, theorem="main1",
                          eps1=Fraction(1), eps2=Fraction(1))
        assert lambda0(p) == 1

    def test_main1_general(self):
        p = TheoremParams(n=5, r=2, k=2, m=4, theorem="main1",
                          eps1=Fraction(0), eps2=Fraction(1))
        assert lambda0(p) == Fraction(4, 8)

    def test_ample_boundary(self):
        p = TheoremParams(n=3, r=2, k=1, m=4, theorem="ample")
        assert lambda0(p) == 0

    def test_monotone_in_m(self):
        prev = None
        for m in range(1, 30):
            lam = lambda0(TheoremParams(n=4, r=2, k=1, m=m, theorem="gg"))
            if prev is not None:
                assert lam >= prev
            prev = lam

    def test_alias_resolution(self):
        a = TheoremParams(n=2, r=1, k=1, m=3, theorem="gg")
        b = TheoremParams(n=2, r=1, k=1, m=3, theorem="globally_generated")
        assert a.theorem == b.theorem == "globally_generated"
        assert lambda0(a) == lambda0(b)


class TestParamDomain:
    def test_main1_needs_eps(self):
        with pytest.raises(ParamDomainError, match="eps1 and eps2"):
            TheoremParams(n=2, r=1, k=1, m=1, theorem="main1")

    def test_main1_order(self):
        with pytest.raises(ParamDomainError, match="eps1 <= eps2"):
            TheoremParams(n=2, r=1, k=1, m=1, theorem="main1",
                          eps1=Fraction(2), eps2=Fraction(1))

    def test_main1_positivity(self):
        with pytest.raises(ParamDomainError, match=r"m\+\(r\+k\)\*eps1"):
            TheoremParams(n=2, r=1, k=1, m=1, theorem="main1",
                          eps1=Fraction(-1), eps2=Fraction(0))

    def test_gg_needs_m(self):
        with pytest.raises(ParamDomainError, match="m >= 1"):
            TheoremParams(n=2, r=1, k=1, m=0, theorem="gg")

    def test_ample_needs_m(self):
        with pytest.raises(ParamDomainError, match=r"k\+r\+1"):
            TheoremParams(n=2, r=2, k=1, m=3, theorem="ample")

    def test_unknown_theorem(self):
        with pytest.raises(ParamDomainError, match="unknown theorem"):
            TheoremParams(n=2, r=1, k=1, m=1, theorem="bogus")


class TestRegion:
    def test_half_example(self):
        reg = region(5, Fraction(1, 2))
        assert (2, 4) in reg
        assert (4, 3) in reg
        assert (1, 1) not in reg
        assert reg.c0 == Fraction(10, 3)

    def test_lambda_one_is_everything_above_antidiagonal(self):
        reg = region(4, Fraction(1))
        for p in range(1, 5):
            for q in range(1, 5):
                assert ((p, q) in reg) == (p + q >= 4)

    def test_lambda_zero_is_edges(self):
        reg = region(4, Fraction(0))
        for p in range(1, 5):
            for q in range(1, 5):
                assert ((p, q) in reg) == (p == 4 or q == 4)

    def test_symmetry_and_monotonicity_exhaustive(self):
        for n in range(1, 31):
            for lam in LAMBDA_GRID:
                mem = region(n, lam)
                for (p, q) in mem:
                    assert (q, p) in mem
                    if p < n:
                        assert (p + 1, q) in mem
                    if q < n:
                        assert (p, q + 1) in mem

    def test_vertex_consistency(self):
        reg = region(6, Fraction(1, 3))
        v = reg.vertices
        assert v["A0"] == (0, 6)
        assert v["A1"] == (6, 6)
        assert v["A2"] == (6, 0)
        assert v["A3"] == (Fraction(9, 2), Fraction(9, 2))
        # the diagonal vertex is on the region boundary: p = q = n/(1+lambda)
        assert reg.c0 * (1 + reg.lambda0) == reg.n

    @given(n=st.integers(1, 12),
           num=st.integers(0, 8), den=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_membership_monotone_property(self, n, num, den):
        lam = Fraction(min(num, den), den)
        mem = region(n, lam)
        for (p, q) in mem:
            if p < n:
                assert (p + 1, q) in mem
            if q < n:
                assert (p, q + 1) in mem


class TestRegionThresholds:
    def test_matches_definition_exhaustive(self):
        lams = sorted({Fraction(a, b) for b in range(1, 13) for a in range(b + 1)})
        for n in range(1, 41):
            for lam in lams:
                reg, ref = region(n, lam), reference_members(n, lam)
                assert frozenset(reg) == ref, (n, lam)
                assert list(reg) == sorted(ref), (n, lam)
                assert len(reg) == len(ref), (n, lam)
                for t in (-1, 0, n + 1):
                    assert all((t, u) not in reg and (u, t) not in reg
                               for u in range(-1, n + 2)), (n, lam, t)

    @given(n=st.integers(1, 250),
           lam=st.one_of(
               st.just(Fraction(0.1)),
               st.builds(lambda a, b: Fraction(min(a, b), b),
                         st.integers(0, 10**30), st.integers(1, 10**30))))
    @settings(max_examples=20, deadline=None)
    def test_matches_definition_property(self, n, lam):
        assert frozenset(region(n, lam)) == reference_members(n, lam)

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1)])
    def test_matches_definition_at_the_ends(self, lam):
        for n in (1, 2, 7, 60):
            assert frozenset(region(n, lam)) == reference_members(n, lam)

    def test_budget(self):
        # n = 1000 at lambda0 = 1 is every pair with p + q >= n: 501 499 members
        assert len(region(1000, 1)) == 501_499 <= MAX_REGION_MEMBERS
        with pytest.raises(ParamDomainError, match="11116665 members"):
            region(5000, Fraction(4, 5))

    def test_n_above_budget_rejected_before_any_threshold(self, monkeypatch):
        # row n alone holds n members, so no threshold needs to be built
        def spy(*args):
            raise AssertionError("row thresholds built for an n above the budget")

        monkeypatch.setattr(regions, "_row_thresholds", spy)
        n = MAX_REGION_MEMBERS + 1
        for call in (lambda: region(n, 1),
                     lambda: theorem_region(TheoremParams(n=n, r=1, k=1, m=9, theorem="gg")),
                     lambda: theorem_region(TheoremParams(n=n, r=1, k=1, m=1, theorem="gg"))):
            with pytest.raises(ParamDomainError, match="above the region budget"):
                call()


class TestTheoremRegion:
    def test_m1_degenerate_branch(self):
        reg = theorem_region(TheoremParams(n=2, r=2, k=1, m=1, theorem="gg"))
        assert frozenset(reg) == frozenset({(2, 2)})
        reg = theorem_region(TheoremParams(n=3, r=1, k=2, m=1, theorem="griffiths"))
        assert frozenset(reg) == frozenset({(3, 3)})

    def test_m_above_one_uses_full_region(self):
        params = TheoremParams(n=5, r=3, k=1, m=5, theorem="gg")
        reg = theorem_region(params)
        assert reg == region(5, Fraction(1, 2))


class TestStrips:
    def test_strip_width_examples(self):
        assert strip_width(4, Fraction(1)) == 0
        assert strip_width(4, Fraction(0)) == 4
        assert strip_width(5, Fraction(1, 2)) == Fraction(5, 3)

    def test_strip_contained_in_region(self):
        for n in range(1, 16):
            for lam in LAMBDA_GRID:
                reg = region(n, lam)
                s0 = strip_width(n, lam)
                for p in range(1, n + 1):
                    for q in range(1, n + 1):
                        if p + q >= n + s0:
                            assert (p, q) in reg

    def test_threshold_examples(self):
        assert strip_threshold(2, 2, 1, 1, "gg") == 1
        assert strip_threshold(4, 2, 1, 1, "gg") == 4
        assert strip_threshold(4, 2, 1, 1, "ample") == 13

    def test_threshold_makes_strip_vanish(self):
        # at the threshold m the strip p+q >= n+s lies inside the lambda0
        # region (the m = 1 single-pair branch is tested separately)
        for n in range(2, 12):
            for s in range(1, n + 1):
                for r, k in [(1, 1), (2, 1), (2, 2)]:
                    m = strip_threshold(n, r, k, s, "gg")
                    lam = lambda0(TheoremParams(n=n, r=r, k=k, m=m, theorem="gg"))
                    reg = region(n, lam)
                    for p in range(1, n + 1):
                        for q in range(1, n + 1):
                            if p + q >= n + s:
                                assert (p, q) in reg, (n, s, r, k, m, lam)

    def test_threshold_identity(self):
        # the critical ratio over the strip is [(n-s)/2] / ([(n-s)/2] + s)
        for n in range(2, 21):
            for s in range(1, n + 1):
                half = (n - s) // 2
                crit = Fraction(half, half + s)
                worst = max(
                    (min(Fraction(n - q, p), Fraction(n - p, q))
                     for p in range(1, n + 1) for q in range(1, n + 1)
                     if p + q >= n + s),
                    default=Fraction(0),
                )
                assert worst == crit, (n, s)

    def test_threshold_flavor_validation(self):
        with pytest.raises(ParamDomainError):
            strip_threshold(3, 1, 1, 1, "main1")
        with pytest.raises(ParamDomainError):
            strip_threshold(3, 1, 1, 5, "gg")


class TestSvg:
    def test_svg_structure(self):
        reg = region(3, Fraction(1, 2))
        svg = region_svg(reg)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") == len(reg) + 1
        for name in ("A0", "A1", "A2", "A3"):
            assert name in svg

    def test_svg_deterministic(self):
        reg = region(4, Fraction(1, 3))
        assert region_svg(reg) == region_svg(reg)
