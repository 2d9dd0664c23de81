from fractions import Fraction
from math import comb

import pytest

from poslab import (
    CohomologyDim,
    ParamDomainError,
    consistency_check,
    grassmannian_nonvanishing,
    pn_line_cohomology,
    prop_ex_consistency,
    prop_ex_lambda0,
    region,
)
from poslab import oracles
from poslab.limits import MAX_REGION_MEMBERS


class TestGrassmannianOracle:
    def test_projective_space_specialization(self):
        # d = n+1, r = n: G(n, V) = P^n, non-vanishing exactly at q = n-1
        dims = grassmannian_nonvanishing(d=4, r=3, k=2)
        table = {c.q: c.dim for c in dims}
        assert table[2] == comb(3 + 1, 1)  # S^{k+r-d} V det V with k+r-d = 1
        assert all(v == 0 for q, v in table.items() if q != 2)
        assert all(c.p == 3 for c in dims)

    def test_generic_grassmannian(self):
        dims = grassmannian_nonvanishing(d=5, r=2, k=3)
        n = 2 * 3
        q_star = 1 * 3
        table = {c.q: c.dim for c in dims}
        assert len(dims) == n + 1
        assert table[q_star] == comb(4 + 0, 0)  # k + r - d = 0
        assert sum(v for v in table.values()) == table[q_star]

    def test_trivial_symmetric_power(self):
        dims = grassmannian_nonvanishing(d=4, r=3, k=1)  # k + r - d = 0
        assert {c.q: c.dim for c in dims}[2] == 1

    def test_domain(self):
        with pytest.raises(ParamDomainError):
            grassmannian_nonvanishing(d=3, r=3, k=1)
        with pytest.raises(ParamDomainError):
            grassmannian_nonvanishing(d=3, r=1, k=0)


class TestBottFormula:
    def test_examples(self):
        assert pn_line_cohomology(2, 0, 0, 3) == 10
        assert pn_line_cohomology(3, 1, 1, 0) == 1
        assert pn_line_cohomology(3, 1, 2, 0) == 0
        assert pn_line_cohomology(2, 1, 0, 2) == comb(3, 2) * comb(1, 1)
        assert pn_line_cohomology(2, 2, 2, -4) == comb(6, 4) * comb(3, 0)

    def test_zero_band(self):
        # H^q(Omega^p(l)) = 0 for 0 < q < n whenever l != 0
        for n in (2, 3):
            for p in range(n + 1):
                for q in range(1, n):
                    for l in (-3, -1, 1, 4):
                        assert pn_line_cohomology(n, p, q, l) == 0

    def test_serre_duality(self):
        for n in (2, 3):
            for p in range(n + 1):
                for q in range(n + 1):
                    for l in range(-5, 6):
                        a = pn_line_cohomology(n, p, q, l)
                        b = pn_line_cohomology(n, n - p, n - q, -l)
                        assert a == b, (n, p, q, l)

    def test_domain(self):
        with pytest.raises(ParamDomainError):
            pn_line_cohomology(2, 3, 0, 1)


class TestConsistencyCheck:
    def test_pass_when_region_avoids_nonzero(self):
        reg = region(3, Fraction(0))
        known = [CohomologyDim(p=1, q=1, dim=5, source="test")]
        rep = consistency_check(reg, known)
        assert rep["status"] == "PASS"
        assert rep["offenders"] == []

    def test_fail_reports_offender(self):
        reg = region(3, Fraction(1))
        known = [CohomologyDim(p=2, q=2, dim=1, source="test")]
        rep = consistency_check(reg, known)
        assert rep["status"] == "FAIL"
        assert rep["offenders"][0]["p"] == 2


class TestPropExIdentity:
    def test_rational_identity(self):
        for n in range(1, 7):
            for k in range(1, 5):
                for l in range(2 - k, 11):
                    lam = prop_ex_lambda0(n, k, l)
                    assert lam == Fraction(l + k - 1, l + n + 2 * k - 1), (n, k, l)

    def test_boundary_twist_rejected(self):
        with pytest.raises(ParamDomainError):
            prop_ex_lambda0(3, 2, -1)  # l = 1-k: m = 0, not > 0 at eps1 = 0


class TestPropExConsistency:
    def test_applicable_twist_passes(self):
        rep = prop_ex_consistency(3, 2, 0)  # l = 0 >= 2-k
        assert rep["status"] == "PASS"
        assert rep["parameter_match"] is False
        assert rep["lambda0"] == str(Fraction(1, 6))

    def test_boundary_twist_inapplicable(self):
        rep = prop_ex_consistency(3, 2, -1)  # l = 1-k
        assert rep["status"] == "INAPPLICABLE"
        assert "(3,2)" in rep["note"]

    def test_family_scan(self):
        for n in range(1, 5):
            for k in range(1, 4):
                for l in range(2 - k, 2 - k + 4):
                    rep = prop_ex_consistency(n, k, l)
                    assert rep["status"] == "PASS", (n, k, l)

    def test_applicable_twist_builds_no_oracle_list(self, monkeypatch):
        # the oracle's twist 1-k is never the bundle's at l >= 2-k, so nothing reads its list
        def spy(*args, **kwargs):
            raise AssertionError("oracle list built at an applicable twist")

        monkeypatch.setattr(oracles, "grassmannian_nonvanishing", spy)
        for n, k in ((1, 1), (3, 2), (4, 3)):
            for l in (2 - k, 5 - k):
                assert prop_ex_consistency(n, k, l)["status"] == "PASS", (n, k, l)

    @pytest.mark.parametrize("l", [0, 5])
    def test_n_above_budget_rejected_before_the_oracle(self, monkeypatch, l):
        # l = 0 at k = 1 is the inapplicable boundary twist, l = 5 an applicable one
        def spy(*args, **kwargs):
            raise AssertionError("oracle list built for an n above the budget")

        monkeypatch.setattr(oracles, "grassmannian_nonvanishing", spy)
        with pytest.raises(ParamDomainError, match="above the region budget"):
            prop_ex_consistency(MAX_REGION_MEMBERS + 1, 1, l)
