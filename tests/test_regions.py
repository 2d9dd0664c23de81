import re
from fractions import Fraction
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslab import (
    ParamDomainError,
    TheoremParams,
    VanishingRegion,
    lambda0,
    region,
    region_svg,
    strip_threshold,
    strip_width,
    theorem_region,
)
from poslab import regions
from poslab.limits import MAX_REGION_MEMBERS

SVG = "{http://www.w3.org/2000/svg}"


def reference_members(n, lam):
    """The region by its definition: one Fraction comparison per pair."""
    return frozenset((p, q) for p in range(1, n + 1) for q in range(1, n + 1)
                     if min(Fraction(n - q, p), Fraction(n - p, q)) <= lam)


def spy_pair_generators(monkeypatch):
    """The pair generators a region starts, one entry each: every one begins with
    enumerate over the row thresholds, as region_svg's row loop does."""
    started = []

    def spy(*args):
        started.append(args)
        return enumerate(*args)

    monkeypatch.setattr(regions, "enumerate", spy, raising=False)
    return started


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
        # n = 1000 at lambda0 = 1 is every pair with p + q >= n: 501 499 members;
        # the budget applies to enumerating the members, not to building the region
        assert len(region(1000, 1)) == 501_499 <= MAX_REGION_MEMBERS
        reg = region(5000, Fraction(4, 5))
        for enumerate_members in (list, VanishingRegion.to_json):
            with pytest.raises(ParamDomainError, match="11116665 members"):
                enumerate_members(reg)

    def test_above_budget_answers_len_and_in_without_enumerating(self, monkeypatch):
        def fail(self):
            raise AssertionError("region enumerated")

        monkeypatch.setattr(VanishingRegion, "__iter__", fail)
        reg = region(5000, Fraction(4, 5))
        assert len(reg) == 11_116_665 > MAX_REGION_MEMBERS
        assert (5000, 1) in reg and (1, 5000) in reg
        assert (1, 1) not in reg and (2500, 2500) not in reg

    def test_above_budget_refused_before_the_first_pair(self, monkeypatch):
        started = spy_pair_generators(monkeypatch)
        assert list(region(2, 1)) == [(1, 1), (1, 2), (2, 1), (2, 2)] and len(started) == 1
        started.clear()
        reg = region(5000, Fraction(4, 5))
        for enumerate_members in (list, iter, VanishingRegion.to_json):
            with pytest.raises(ParamDomainError, match="region of n = 5000, lambda0 = 4/5 has "
                                                       "11116665 members, above the budget"):
                enumerate_members(reg)
        assert started == []

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


def shaded_cells(reg):
    """The (p, q) cells that the shaded rects of region_svg(reg) cover, read back
    from its XML, once per rect that covers them."""
    cell = regions.SVG_CELL
    root = ElementTree.fromstring(region_svg(reg))
    size = float(root.get("width"))
    pad = (size - reg.n * cell) / 2
    cells = []
    for rect in root.iter("{http://www.w3.org/2000/svg}rect"):
        if rect.get("fill") == "white":
            continue
        x, y, width, height = (float(rect.get(a)) for a in ("x", "y", "width", "height"))
        p, rows = (x + cell / 2 - pad) / cell, height / cell
        top = (size - pad - y - cell / 2) / cell
        assert width == cell and p.is_integer() and top.is_integer() and rows.is_integer()
        cells += [(int(p), int(top) - i) for i in range(int(rows))]
    return cells


class TestSvg:
    def test_svg_structure(self):
        # one rect per nonempty row, on the white background
        reg = region(3, Fraction(1, 2))
        svg = region_svg(reg)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") == sum(t <= reg.n for t in reg.lo) + 1 == 4
        for name in ("A0", "A1", "A2", "A3"):
            assert name in svg

    def test_svg_deterministic(self):
        reg = region(4, Fraction(1, 3))
        assert region_svg(reg) == region_svg(reg)

    @given(n=st.integers(1, 60),
           lam=st.builds(lambda a, b: Fraction(min(a, b), b),
                         st.integers(0, 10**6), st.integers(1, 10**6)))
    @settings(max_examples=30, deadline=None)
    def test_rows_cover_exactly_the_members(self, n, lam):
        cells = shaded_cells(region(n, lam))
        assert sorted(cells) == sorted(reference_members(n, lam))

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1)])
    def test_rows_cover_exactly_the_members_at_the_ends(self, lam):
        for n in (1, 2, 7, 60):
            assert sorted(shaded_cells(region(n, lam))) == sorted(reference_members(n, lam))

    @pytest.mark.parametrize("theorem", ["gg", "griffiths"])
    def test_rows_cover_the_m1_branch(self, theorem):
        for n in (1, 2, 5):
            reg = theorem_region(TheoremParams(n=n, r=1, k=1, m=1, theorem=theorem))
            assert shaded_cells(reg) == [(n, n)]

    def test_edge_svg_is_one_rect_per_row(self):
        # the 998 989-member region at the top of the budget: 1 412 rows and the background
        reg = region(1412, 1)
        assert len(reg) == 998_989 <= MAX_REGION_MEMBERS
        svg = region_svg(reg)
        assert svg.count("<rect") == 1413
        assert "<line" not in svg
        assert len(svg.encode()) < 2 * 10**5

    def test_m1_branch_at_the_largest_n_is_small(self):
        # one member on the 10^6 x 10^6 square: the file holds rows, not grid lines
        n = 10**6
        reg = theorem_region(TheoremParams(n=n, r=1, k=1, m=1, theorem="gg"))
        svg = region_svg(reg)
        assert len(svg.encode()) < 2000
        ElementTree.fromstring(svg)
        assert shaded_cells(reg) == [(n, n)]

    @pytest.mark.parametrize("n, lam", [(1, Fraction(0)), (3, Fraction(1, 2)),
                                        (7, Fraction(2, 5)), (60, Fraction(1))])
    def test_grid_is_one_pattern_and_quadrilateral_one_polygon(self, n, lam):
        reg = region(n, lam)
        svg = region_svg(reg)
        assert "<line" not in svg
        root = ElementTree.fromstring(svg)
        cell = regions.SVG_CELL
        size = float(root.get("width"))
        pad = (size - n * cell) / 2
        xs = [pad + t * cell for t in range(n + 1)]  # X(t); Y(t) = size - X(t)

        (polygon,) = root.iter(SVG + "polygon")
        points = [tuple(map(float, pt.split(","))) for pt in polygon.get("points").split()]
        corners = [reg.vertices[a] for a in ("A0", "A1", "A2", "A3")]
        assert points == [(pytest.approx(pad + float(p) * cell, abs=0.05),
                           pytest.approx(size - pad - float(q) * cell, abs=0.05))
                          for p, q in corners]

        (pattern,) = root.iter(SVG + "pattern")
        assert pattern.get("patternUnits") == "userSpaceOnUse"
        x0, y0, w, h = (float(pattern.get(a)) for a in ("x", "y", "width", "height"))
        assert w == h == cell
        (tile,) = pattern
        a, height, b, width = map(float, re.fullmatch(r"M (\S+) 0 V (\S+) M 0 (\S+) H (\S+)",
                                                      tile.get("d")).groups())
        assert height == h and width == w
        # the cross runs through the tile, not along its edge, where it would be clipped
        assert 0 < a < w and 0 < b < h

        def lines(origin, period):
            first = -int((origin - xs[0]) // period)
            return [origin + k * period for k in range(first - 1, first + n + 2)
                    if xs[0] <= origin + k * period <= xs[-1]]

        assert lines(x0 + a, w) == xs
        assert lines(y0 + b, h) == xs

        # the pattern fills exactly the n x n square, whose stroke is the outer border
        (area,) = (e for e in root if e.tag == SVG + "path")
        assert area.get("fill") == "url(#grid)" and area.get("stroke") == "#ddd"
        corners = re.fullmatch(r"M (\S+) (\S+) H (\S+) V (\S+) H (\S+) Z", area.get("d"))
        assert list(map(float, corners.groups())) == [xs[0], xs[0], xs[-1], xs[-1], xs[0]]

    def test_drawing_order(self):
        # rows, then grid, then quadrilateral, then markers
        root = ElementTree.fromstring(region_svg(region(5, Fraction(1, 3))))
        tags = [e.tag[len(SVG):] for e in root if e.tag != SVG + "defs"]
        rects = tags.count("rect")
        assert tags[:rects] == ["rect"] * rects
        assert tags[rects:rects + 2] == ["path", "polygon"]
        assert set(tags[rects + 2:]) == {"circle", "text"}
