import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslab import (
    CurvatureTensor,
    DimMismatchError,
    FrameNotNormalizedError,
    LengthMismatchError,
    ParamDomainError,
    dual_nakano_min,
    generalized_delta,
    gram_diagonal,
    induced_sym_det_curvature,
    nakano_min,
    sym_basis,
    sym_metric,
    sym_power_field,
    tangent_pn,
    twist_by_line,
)
from poslab import moments, symbundle
from poslab.bundles import frame_normalized
from poslab.geometry import chern_curvature
from poslab.moments import integral_formula_mc, integral_formula_tensor
from poslab.symbundle import MAX_SYM_MAP_ENTRIES, check_sym_budget

from conftest import random_curvature, random_hermitian


def rational_curvature(n, r, seed):
    """Random exact-rational tensor with the curvature Hermitian symmetry."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = np.empty((n, n, r, r), dtype=object)
    for i in range(n):
        for j in range(n):
            for a in range(r):
                for b in range(r):
                    v[i, j, a, b] = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9)))
    for i in range(n):
        for j in range(n):
            for a in range(r):
                for b in range(r):
                    if (j, i, b, a) > (i, j, a, b):
                        v[j, i, b, a] = v[i, j, a, b]
    return CurvatureTensor(v, normalized=True)


def brute_force_sym_metric(h, k):
    """(S^k h)_{AB} as the k!-term permanent of h[A_j, B_l], entry by entry."""
    basis = sym_basis(h.shape[0], k)
    out = np.empty((len(basis), len(basis)), dtype=h.dtype)
    for a, A in enumerate(basis):
        for b, B in enumerate(basis):
            total = 0
            for sigma in permutations(range(k)):
                term = 1
                for j in range(k):
                    term = term * h[A[j] - 1, B[sigma[j]] - 1]
                total = total + term
            out[a, b] = total
    return out


class TestSymBasis:
    def test_examples(self):
        assert sym_basis(2, 2) == [(1, 1), (1, 2), (2, 2)]
        assert sym_basis(3, 1) == [(1,), (2,), (3,)]
        assert sym_basis(2, 0) == [()]

    def test_count(self):
        for r in range(1, 5):
            for k in range(0, 5):
                assert len(sym_basis(r, k)) == comb(r + k - 1, k)


class TestGeneralizedDelta:
    def test_examples(self):
        assert generalized_delta((1, 1), (1, 1)) == 2
        assert generalized_delta((1, 2), (2, 1)) == 1
        assert generalized_delta((1, 1), (1, 2)) == 0
        assert generalized_delta((1, 1, 2), (1, 2, 1)) == 2
        assert generalized_delta((), ()) == 1

    def test_matches_brute_force_permanent(self):
        for r, k in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            basis = sym_basis(r, k)
            for A in basis:
                for B in basis:
                    brute = sum(
                        1
                        for sigma in permutations(range(k))
                        if all(A[j] == B[sigma[j]] for j in range(k))
                    )
                    assert generalized_delta(A, B) == brute

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            generalized_delta((1,), (1, 2))


class TestSymMetric:
    def test_identity_reduces_to_gram(self):
        # exact delta-reduction: S^k(Id) equals the generalized delta matrix
        for r, k in [(2, 2), (2, 3), (3, 2)]:
            eye = np.empty((r, r), dtype=object)
            for a in range(r):
                for b in range(r):
                    eye[a, b] = 1 if a == b else 0
            s = sym_metric(eye, k)
            basis = sym_basis(r, k)
            for a, A in enumerate(basis):
                for b, B in enumerate(basis):
                    assert s[a, b] == generalized_delta(A, B)

    @pytest.mark.parametrize("r,k", [(5, 5), (1, 19), (2, 12), (3, 7)])
    def test_identity_reduces_to_gram_at_large_shapes(self, r, k):
        s = sym_metric(np.eye(r, dtype=int).astype(object), k)
        assert s.dtype == object
        assert (s == np.diag(gram_diagonal(r, k))).all()

    def test_lift_peaks_under_five_outputs(self):
        # 40 stencil rows of tpn on n = 5 lifted to S^5 (F = 126): an expansion over
        # the r^k k-tuples held (rows, F, r^k) products, 74 times the output
        hs = chern_curvature(tangent_pn(5), np.zeros(5)).samples[:40]
        symbundle._sym_metric_rows(hs[:1], 5)  # the cached tables are not counted
        tracemalloc.start()
        try:
            out = symbundle._sym_metric_rows(hs, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (40, 126, 126)
        assert peak < 5 * out.nbytes

    def test_diagonal_scaling(self):
        s = sym_metric(np.diag([3.0, 1.0]), 2)
        assert abs(s[0, 0] - 18.0) < 1e-14  # permanent of [[3,3],[3,3]] = 2*9
        assert abs(s[1, 1] - 3.0) < 1e-14
        assert abs(s[2, 2] - 2.0) < 1e-14

    def test_off_diagonal_permanent(self):
        h = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
        s = sym_metric(h, 2)
        # entry ((1,1),(1,2)): permanent [[h11,h12],[h11,h12]] = 2 h11 h12
        assert abs(s[0, 1] - 2.0 * 2.0 * 0.5) < 1e-14
        assert np.max(np.abs(s - s.conj().T)) < 1e-14
        assert np.min(np.linalg.eigvalsh(s)) > 0

    @pytest.mark.parametrize("r,k", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 2)])
    def test_matches_brute_force_permanent(self, r, k):
        h = random_hermitian(r, seed=(r, k))
        s = sym_metric(h, k)
        brute = brute_force_sym_metric(h, k)
        assert s.dtype == complex
        assert np.max(np.abs(s - brute)) <= 1e-12 * np.max(np.abs(brute))

    def test_exact_rational_brute_force(self):
        h = np.array([[Fraction(3, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(5, 7)]],
                     dtype=object)
        s = sym_metric(h, 3)
        brute = brute_force_sym_metric(h, 3)
        assert s.dtype == object
        assert all(s[a, b] == brute[a, b] for a in range(4) for b in range(4))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_stacked_kernel_matches_one_matrix_at_a_time(self, r):
        # one lift over a stack gives each matrix's sym_metric bit for bit
        rng = np.random.Generator(np.random.Philox(key=r))
        hs = rng.standard_normal((9, r, r)) + 1j * rng.standard_normal((9, r, r))
        for k in range(5):
            stacked = symbundle._sym_metric_rows(hs, k)
            assert stacked.dtype == complex
            assert np.array_equal(stacked, np.stack([sym_metric(h, k) for h in hs]))

    @pytest.mark.parametrize("r,k", [(1, 3), (2, 0), (2, 3), (3, 2)])
    def test_stacked_kernel_exact_on_fractions(self, r, k):
        rng = np.random.Generator(np.random.Philox(key=(r, k)))
        hs = np.empty((3, r, r), dtype=object)
        for idx in np.ndindex(hs.shape):
            hs[idx] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        stacked = symbundle._sym_metric_rows(hs, k)
        assert stacked.dtype == object
        for h, s in zip(hs, stacked):
            brute = brute_force_sym_metric(h, k)
            assert (s == brute).all() and (sym_metric(h, k) == brute).all()

    def test_gram_diagonal(self):
        assert gram_diagonal(2, 2) == [2, 1, 2]
        assert gram_diagonal(2, 3) == [6, 2, 2, 6]


class TestInducedCurvature:
    def test_k1_m0_is_identity_map(self):
        R = rational_curvature(2, 2, seed=21)
        S = induced_sym_det_curvature(R, 1, 0)
        assert S.gram.tolist() == [1, 1]
        assert np.array_equal(S.values, R.values)

    def test_k1_m1_exact(self):
        # <R e_a, e_b> = R_ab + d_ab tr R, exactly on rationals
        R = rational_curvature(2, 3, seed=22)
        S = induced_sym_det_curvature(R, 1, 1)
        V = R.values
        for i in range(2):
            for j in range(2):
                tr = V[i, j, 0, 0] + V[i, j, 1, 1] + V[i, j, 2, 2]
                for a in range(3):
                    for b in range(3):
                        expect = V[i, j, a, b] + (tr if a == b else 0)
                        assert S.values[i, j, a, b] == expect

    def test_diagonal_line_sum_case(self):
        # E = O(p1) + O(p2): S^k picks up sum_j p_{A_j}, det^m adds m(p1+p2)
        n = 1
        v = np.zeros((n, n, 2, 2), dtype=complex)
        v[0, 0] = np.diag([3.0, -1.0])
        R = CurvatureTensor(v, normalized=True)
        S = induced_sym_det_curvature(R, 2, 1)
        gram = np.array(S.gram, dtype=float)
        diag = np.array([S.values[0, 0, a, a] / gram[a] for a in range(3)]).real
        # A=(1,1): 2*3 + 2 = 8 ; A=(1,2): 3-1+2 = 4 ; A=(2,2): -2+2 = 0
        assert np.allclose(diag, [8.0, 4.0, 0.0])

    def test_requires_normalized_frame(self):
        R = rational_curvature(1, 2, seed=3)
        R.normalized = False
        with pytest.raises(FrameNotNormalizedError):
            induced_sym_det_curvature(R, 2, 0)

    def test_hermitian_defect_preserved(self):
        R = random_curvature(2, 2, seed=8)
        S = induced_sym_det_curvature(R, 3, 2)
        assert S.hermitian_defect() < 1e-12 * max(1.0, np.max(np.abs(S.values.astype(complex))))


class TestBlockProduct:
    """_contract_with_trace applies its (r, r, F, F) integer map as one matrix product."""

    @pytest.mark.parametrize("n,r,k", [(1, 1, 3), (2, 3, 2), (3, 2, 4), (5, 5, 3)])
    @pytest.mark.parametrize("route", ["derivation", "integral"])
    def test_matches_einsum(self, n, r, k, route):
        R = random_curvature(n, r, seed=100 * n + 10 * r + k)
        T = {"derivation": symbundle._derivation_map,
             "integral": moments._integral_map}[route](r, k)
        got = symbundle._contract_with_trace(R, k, T, 0).values
        want = np.einsum("ijgd,gdab->ijab", R.values, T)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,r,k", [(1, 2, 3), (2, 3, 2)])
    def test_exact_on_fractions(self, n, r, k):
        R = rational_curvature(n, r, seed=100 * n + 10 * r + k)
        T = symbundle._derivation_map(r, k)
        got = symbundle._contract_with_trace(R, k, T, 0).values
        assert got.dtype == object
        assert all(isinstance(x, (int, Fraction)) for x in got.flat)
        assert np.array_equal(got, np.einsum("ijgd,gdab->ijab", R.values, T))


class TestTwistByLine:
    def test_adds_scalar_on_diagonal(self):
        R = random_curvature(2, 2, seed=5)
        S = induced_sym_det_curvature(R, 2, 0)
        line = CurvatureTensor(np.eye(2, dtype=complex).reshape(2, 2, 1, 1), normalized=True)
        T = twist_by_line(S, line, 3)
        diff = T.values - S.values
        for a in range(3):
            for b in range(3):
                expect = 3 * S.gram[a] * np.eye(2) if a == b else np.zeros((2, 2))
                assert np.allclose(diff[:, :, a, b].astype(complex), expect)

    def test_exact_path_takes_coefficients_beyond_the_float_range(self):
        # the float paths reject such an m or l before sampling; object arrays stay exact
        big = 10**320
        R = rational_curvature(1, 2, seed=4)
        line = CurvatureTensor(np.full((1, 1, 1, 1), Fraction(1), dtype=object), normalized=True)
        T = twist_by_line(induced_sym_det_curvature(R, 1, big), line, -big)
        V = R.values[0, 0]
        assert T.values[0, 0, 0, 0] == V[0, 0] + big * (V[0, 0] + V[1, 1]) - big
        with pytest.raises(ParamDomainError):
            symbundle.check_float_range(m=big)

    def test_rank_check(self):
        R = random_curvature(2, 2, seed=5)
        S = induced_sym_det_curvature(R, 1, 0)
        bad = random_curvature(2, 2, seed=6)
        with pytest.raises(DimMismatchError):
            twist_by_line(S, bad, 1)


class TestSymPowerField:
    def test_value_at_normalized_point(self):
        E = frame_normalized(tangent_pn(2), np.zeros(2))
        F = sym_power_field(E, 2, 1)
        s = F(np.zeros(2))
        assert np.allclose(np.diag(s).real, gram_diagonal(2, 2))
        assert np.max(np.abs(s - np.diag(np.diag(s)))) < 1e-12

    def test_derivation_rule_matches_fd(self):
        # curvature of the explicit S^k h det^m field == derivation-rule algebra
        z = np.array([0.3 - 0.1j, 0.2j])
        E = frame_normalized(tangent_pn(2), z)
        R = chern_curvature(E, z)
        Rn = CurvatureTensor(R.values, normalized=True)
        alg = induced_sym_det_curvature(Rn, 2, 1).values.astype(complex)
        fd = chern_curvature(sym_power_field(E, 2, 1), z).values
        scale = max(1.0, float(np.max(np.abs(alg))))
        assert np.max(np.abs(alg - fd)) < 1e-7 * scale


class TestSampleLift:
    # route (b) and the det polarization lift E's stencil samples inside the
    # stencil contraction, one derivative's rows at a time
    def test_peak_under_one_lifted_stencil(self):
        # tpn on n = 4 to S^4 (F = 35): one (1057, 35, 35) complex stack is 19.8 MiB
        hs = chern_curvature(tangent_pn(4), np.zeros(4)).samples
        symbundle._sym_power_curvature(hs, 4, 1, "route-b")  # the cached tables are not counted
        tracemalloc.start()
        try:
            symbundle._sym_power_curvature(hs, 4, 1, "route-b")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(hs) * 35 * 35 * 16

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_each_lift_reads_one_derivatives_rows(self, monkeypatch, n):
        # row 0, the 8n rows of the d/dz^i, then the 64 rows of each d/dz^i d/dzbar^j
        hs = chern_curvature(tangent_pn(n), np.zeros(n)).samples
        sizes, lift = [], symbundle._sym_det_rows
        monkeypatch.setattr(symbundle, "_sym_det_rows",
                            lambda rows, *rest: sizes.append(len(rows)) or lift(rows, *rest))
        symbundle._sym_power_curvature(hs, 2, 1, "route-b")
        assert sizes == [1, 8 * n] + [64] * (n * n)

    @pytest.mark.parametrize("k,m", [(0, 1), (1, 0), (2, 0), (3, 2), (4, -1)])
    def test_lifted_rows_are_c_ordered(self, k, m):
        hs = chern_curvature(tangent_pn(3), np.array([0.1, 0.2j, -0.3])).samples[:64]
        out = symbundle._sym_det_rows(hs, k, m)
        assert out.shape == (64, comb(2 + k, k), comb(2 + k, k))
        assert out.flags.c_contiguous


class TestSymBudget:
    @pytest.mark.parametrize("r,k", [(5, 3), (3, 4), (4, 6), (1, 0), (2, 12), (1, 19)])
    def test_shapes_inside_the_budget(self, r, k):
        F = comb(r + k - 1, k)
        assert max(r * r * F * F, k * F * r**k) <= MAX_SYM_MAP_ENTRIES
        check_sym_budget(r, k)

    def test_largest_benchmark_block_far_inside(self):
        # S^3 of rank 5 (F = 35): r^2 F^2 = 30 625 entries, k F r^k = 13 125
        assert max(5 * 5 * 35 * 35, 3 * 35 * 5**3) * 100 < MAX_SYM_MAP_ENTRIES

    @pytest.mark.parametrize("r,k", [(5, 20), (6, 6), (2, 22), (1, MAX_SYM_MAP_ENTRIES + 1),
                                     (5, 10**9), (1, 20), (1, 21)])
    def test_oversized_rejected_before_any_map(self, monkeypatch, r, k):
        # (5, 20): a 2.8e9-entry derivation map; (6, 6): 1.3e8 k-tuple terms k F r^k;
        # (1, 20) and (1, 21): entries 21! and 22! in the integral map, beyond int64
        def spy(*args):
            raise AssertionError("an S^k integer map was built above the budget")

        for mod, name in ((symbundle, "_derivation_map"), (symbundle, "_sym_metric_map"),
                          (moments, "_integral_map"), (symbundle, "sym_basis"),
                          (moments, "sym_basis")):
            monkeypatch.setattr(mod, name, spy)
        R = random_curvature(1, r, seed=3)
        E = frame_normalized(tangent_pn(r), np.zeros(r))
        for call in (lambda: induced_sym_det_curvature(R, k, 0),
                     lambda: integral_formula_tensor(R, k, 1),
                     lambda: integral_formula_mc(R, k, 1, samples=10),
                     lambda: sym_metric(np.eye(r), k),
                     lambda: sym_power_field(E, k, 0)):
            with pytest.raises(ParamDomainError, match="above the S\\^k budget"):
                call()


class TestSymTable:
    """One cached basis table per (r, k): the maps and blocks read its Gram."""

    def test_blocks_share_one_read_only_gram(self):
        R = random_curvature(2, 3, seed=5)
        grams = [induced_sym_det_curvature(R, 2, 1).gram, induced_sym_det_curvature(R, 2, 0).gram,
                 integral_formula_tensor(R, 2, 3).gram]
        assert all(g is grams[0] for g in grams)
        assert not grams[0].flags.writeable and grams[0].dtype == np.int64
        assert grams[0].tolist() == gram_diagonal(3, 2)

    def test_warm_block_makes_no_delta_call(self, monkeypatch):
        R, T = random_curvature(1, 2, seed=6), symbundle._derivation_map(2, 4)
        symbundle._contract_with_trace(R, 4, T, 0)
        calls = []
        monkeypatch.setattr(symbundle, "generalized_delta",
                            lambda A, B: calls.append(A) or generalized_delta(A, B))
        symbundle._contract_with_trace(R, 4, T, 1)
        assert calls == []

    @pytest.mark.parametrize("r,k", [(1, 19), (3, 4), (5, 3)])
    def test_integral_map_reads_delta_once_per_sum(self, monkeypatch, r, k):
        calls = []
        monkeypatch.setattr(moments, "generalized_delta",
                            lambda A, B: calls.append(A) or generalized_delta(A, B))
        moments._integral_map.__wrapped__(r, k)
        assert len(calls) <= comb(r + k - 1, k) * r

    @pytest.mark.parametrize("r,k", [(1, 19), (3, 4), (5, 5)])
    def test_metric_tables_read_only_and_linear_in_r(self, r, k):
        # degree j holds tables of F_j or r F_j entries, none of r^j
        for j in range(1, k + 1):
            F = comb(r + j - 1, j)
            for table in symbundle._sym_metric_map(r, j):
                assert not table.flags.writeable
                assert table.size <= r * F


def _budget_accepts(r, k):
    try:
        check_sym_budget(r, k)
    except ParamDomainError:
        return False
    return True


_ACCEPTED_RK = [(r, k) for r in range(1, 6) for k in range(1, 8) if _budget_accepts(r, k)]


class TestIntegralIdentity:
    """The integral formula in exact integers: route (c)'s multiset expansion is
    route (a)'s derivation rule plus one Gram-weighted trace,

        _integral_map(r, k) - _derivation_map(r, k) = delta_{gamma delta} delta_AB gram_A,

    which moves the trace coefficient from m to m - 1.  Both maps keep their own
    constructions; no metric and no float enters."""

    def test_budget_covers_the_expected_pairs(self):
        rejected = {(r, k) for r in range(1, 6) for k in range(1, 8)} - set(_ACCEPTED_RK)
        assert len(_ACCEPTED_RK) == 32 and rejected == {(4, 7), (5, 6), (5, 7)}

    @pytest.mark.parametrize("r,k", _ACCEPTED_RK, ids=[f"r{r}-k{k}" for r, k in _ACCEPTED_RK])
    def test_integral_map_is_derivation_map_plus_trace(self, r, k):
        I, T = moments._integral_map(r, k), symbundle._derivation_map(r, k)
        gram = symbundle._sym_table(r, k)[2]
        assert I.dtype == T.dtype == np.int64
        want = np.einsum("gd,ab->gdab", np.eye(r, dtype=np.int64), np.diag(gram))
        assert np.array_equal(I - T, want)


def sandwich_curvature(n, r, q, sign, seed):
    """q Id + sign (N + D) in a normalized frame, Griffiths-bounded by q on the
    side of ``sign``: N is a sum of Nakano-semipositive terms x_{i alpha} conj(x_{j beta}),
    D one of dual-Nakano-semipositive terms y_{i beta} conj(y_{j alpha})."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = q * np.einsum("ij,ab->ijab", np.eye(n), np.eye(r)).astype(complex)
    terms = ["ia,jb->ijab"] * int(rng.integers(0, 4)) + ["ib,ja->ijab"] * int(rng.integers(0, 4))
    for term in terms:
        x = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        v = v + sign * np.einsum(term, x, x.conj())
    return CurvatureTensor(v, normalized=True)


class TestCentralLemma:
    """Through the integral formula, S^k E (det E)^m curves like a line bundle: if
    Theta_E >= q (or <= q) in the Griffiths sense and m >= 1, the Nakano and
    dual-Nakano spectra of S^k E (det E)^m lie on the same side of c q, c = k + m r."""

    @given(n=st.integers(1, 3), r=st.integers(1, 3), k=st.integers(0, 3), m=st.integers(1, 3),
           q=st.floats(-2, 2), sign=st.sampled_from([1, -1]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_spectra_on_the_side_of_c_q(self, n, r, k, m, q, sign, seed):
        S = induced_sym_det_curvature(sandwich_curvature(n, r, q, sign, seed), k, m)
        # the maxima of S are the negated minima of -S
        S = CurvatureTensor(sign * S.values, normalized=True, gram=S.gram)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(S.values))))
        for measure in (nakano_min, dual_nakano_min):
            assert measure(S).min_value >= sign * (k + m * r) * q - tol

    @given(n=st.integers(1, 3), r=st.integers(1, 3), k=st.integers(0, 3), m=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_general_tensor_spectra_inside_c_times_griffiths_bounds(self, n, r, k, m, seed):
        # any Hermitian form on pairs (i alpha), (j beta): its Griffiths values lie in
        # [q1, q2], q1 the larger Nakano / dual-Nakano minimum, q2 the smaller maximum
        H = random_hermitian(n * r, seed=seed)
        R = CurvatureTensor(H.reshape(n, r, n, r).transpose(0, 2, 1, 3), normalized=True)
        neg = CurvatureTensor(-R.values, normalized=True)
        q1 = max(nakano_min(R).min_value, dual_nakano_min(R).min_value)
        q2 = min(-nakano_min(neg).min_value, -dual_nakano_min(neg).min_value)
        S = induced_sym_det_curvature(R, k, m)
        S_neg = CurvatureTensor(-S.values, normalized=True, gram=S.gram)
        c = k + m * r
        tol = 1e-12 * max(1.0, float(np.max(np.abs(S.values))))
        for measure in (nakano_min, dual_nakano_min):
            assert measure(S).min_value >= c * q1 - tol
            assert -measure(S_neg).min_value <= c * q2 + tol

    def test_without_the_det_factor_the_bound_fails(self):
        # Theta_{i jbar alpha betabar} = delta_{i alpha} delta_{j beta} on n = r = 2 is
        # Nakano-semipositive, so Griffiths >= 0, but its dual-Nakano form swaps
        # (i, alpha): eigenvalue -1.  With m = 1 the block adds delta_AB tr Theta = Id.
        R = CurvatureTensor(np.einsum("ia,jb->ijab", np.eye(2), np.eye(2)), normalized=True)
        assert dual_nakano_min(induced_sym_det_curvature(R, 1, 0)).min_value == pytest.approx(-1)
        assert dual_nakano_min(induced_sym_det_curvature(R, 1, 1)).min_value >= -1e-12
