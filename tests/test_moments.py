import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poslab import (
    CurvatureTensor,
    LengthMismatchError,
    FrameNotNormalizedError,
    ParamDomainError,
    integral_formula_mc,
    integral_formula_tensor,
    moment_exact,
    moment_mc,
    moment_mc_table,
    o_line,
    tangent_pn,
    verify_lemma_linear,
)
from poslab import geometry, limits, moments, symbundle
from poslab.bundles import direct_sum, frame_normalized, load_metric_json
from poslab.geometry import chern_curvature, normalize_at_point
from poslab.symbundle import generalized_delta, induced_sym_det_curvature, sym_basis, sym_power_field

from conftest import constant_metric, random_curvature
from test_symbundle import rational_curvature


# a rank-2 metric on P^2 without U(2) symmetry, positive definite everywhere
USER_METRIC = {
    "rank": 2, "base_dim": 2, "label": "user",
    "entries": [["(1 + abs2(z1) + abs2(z2)) ** -1 * (1 + 0.6 * abs2(z1))",
                 "(1 + abs2(z1) + abs2(z2)) ** -1 * 0.2 * z1 * conj(z2)"],
                ["(1 + abs2(z1) + abs2(z2)) ** -1 * 0.2 * conj(z1) * z2",
                 "(1 + abs2(z1) + abs2(z2)) ** -1 * (1 + 0.4 * abs2(z2))"]],
}


def sphere_points(r, samples, seed):
    return np.concatenate(list(moments._sphere_blocks(r, samples, seed)))


def integral_formula_entry(R, k, m, i, j, A, B):
    """Reference: one entry of the integral formula's multiset expansion, term by term."""
    V, r = R.values, R.rank
    total = V[i, j, 0, 0] * 0
    for gamma in range(1, r + 1):
        for delta in range(1, r + 1):
            d = generalized_delta(tuple(sorted(A + (delta,))), tuple(sorted(B + (gamma,))))
            if d:
                total = total + V[i, j, gamma - 1, delta - 1] * d
    if m != 1:
        d_ab = generalized_delta(A, B)
        if d_ab:
            tr = V[i, j, 0, 0]
            for x in range(1, r):
                tr = tr + V[i, j, x, x]
            total = total + (m - 1) * d_ab * tr
    return total


def integral_map_reference(r, k):
    """Reference: the integral formula's integer map by its definition, pair by pair,
    I[gamma, delta, a, b] = delta_{(A+delta), (B+gamma)}."""
    basis = sym_basis(r, k)
    I = np.zeros((r, r, len(basis), len(basis)), dtype=np.int64)
    for gamma, delta in itertools.product(range(1, r + 1), repeat=2):
        for (a, A), (b, B) in itertools.product(enumerate(basis), repeat=2):
            I[gamma - 1, delta - 1, a, b] = generalized_delta(tuple(sorted(A + (delta,))),
                                                              tuple(sorted(B + (gamma,))))
    return I


class TestMomentExact:
    def test_examples(self):
        assert moment_exact(2, (1,), (1,)) == Fraction(1, 2)
        assert moment_exact(2, (1, 1), (1, 1)) == Fraction(2, 6)
        assert moment_exact(2, (1, 2), (1, 2)) == Fraction(1, 6)
        assert moment_exact(3, (1,), (2,)) == 0
        assert moment_exact(3, (), ()) == Fraction(1, 2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            moment_exact(2, (1,), (1, 1))


class TestMomentMC:
    def test_matches_exact_within_3sigma(self):
        for r, A, B in [(2, (1,), (1,)), (2, (1, 2), (1, 2)), (3, (1, 1), (1, 1))]:
            est, err = moment_mc(r, A, B, 40000, seed=3)
            exact = float(moment_exact(r, A, B))
            assert abs(est - exact) <= max(3 * err, 1e-12)

    def test_off_multiset_near_zero(self):
        est, err = moment_mc(2, (1,), (2,), 40000, seed=3)
        assert abs(est) <= max(3 * err, 1e-12)

    def test_deterministic(self):
        a = moment_mc(2, (1,), (1,), 1000, seed=9)
        b = moment_mc(2, (1,), (1,), 1000, seed=9)
        assert a == b

    def test_table_agrees_with_single(self):
        basis, est, err = moment_mc_table(2, 2, 30000, seed=4)
        assert basis == sym_basis(2, 2)
        for a, A in enumerate(basis):
            for b, B in enumerate(basis):
                exact = float(moment_exact(2, A, B))
                assert abs(est[a, b] - exact) <= max(3 * err[a, b], 1e-12)

    @pytest.mark.parametrize("r", [1, 3, 4])
    def test_sphere_stream_is_the_two_draw_reference(self, r):
        # per block, real parts then imaginary parts, (a + 1j b) / |a + 1j b|, bit for bit;
        # the count spans two blocks, the second one partial
        samples, seed = moments._SPHERE_BLOCK + 1234, (7, r)
        rng = geometry.philox(seed)
        want = []
        for size in (moments._SPHERE_BLOCK, 1234):
            w = rng.standard_normal((size, r)) + 1j * rng.standard_normal((size, r))
            want.append(w / np.linalg.norm(w, axis=1, keepdims=True))
        got = list(moments._sphere_blocks(r, samples, seed))
        assert [len(b) for b in got] == [len(b) for b in want]
        for b, w in zip(got, want):
            assert b.dtype == w.dtype and b.tobytes() == w.tobytes()

    def test_single_and_table_read_one_stream(self):
        # 250 000 samples span three sphere blocks, the last one partial
        samples = 250_000
        W = sphere_points(2, samples, seed=4)
        assert np.array_equal(W[:100_000], sphere_points(2, 100_000, seed=4))
        basis, est, err = moment_mc_table(2, 2, samples, seed=4)
        for a, A in enumerate(basis):
            for b, B in enumerate(basis):
                single, single_err = moment_mc(2, A, B, samples, seed=4)
                assert abs(single - est[a, b]) <= 1e-12
                assert abs(single_err - err[a, b]) <= 1e-9 * err[a, b]

    def test_table_over_budget_draws_nothing(self, monkeypatch):
        # F^2 * max(k, 1) printed indices above 10**6, and an r whose scale
        # (r-1)! is above the float range, are rejected before the sphere
        # stream is opened; S^8 of rank 10 (F = 24 310) would need about
        # 14 GB, and S^2 of rank 44 (F = 990) prints 1 960 200 indices
        class Drawn(Exception):
            pass

        def spy(*args):
            raise Drawn

        monkeypatch.setattr(moments, "_sphere_blocks", spy)
        # 990 000 indices at F = 100, k = 99; 170! is the largest factorial below the float range
        for r, k in ((2, 99), (171, 1)):
            with pytest.raises(Drawn):
                moment_mc_table(r, k, 100)
        for r, k in ((2, 100), (1001, 1), (10, 8), (44, 2), (172, 1)):
            with pytest.raises(ParamDomainError):
                moment_mc_table(r, k, 100)


def cli_moments_loop(r, k, samples, seed):
    """Reference: the ``verify --what moments`` loop as the CLI ran it, one
    pair at a time, with 3 sigma floored at 1e-12."""
    basis, est, err = moment_mc_table(r, k, samples, seed=seed)
    worst = 0.0
    rows = []
    for a, A in enumerate(basis):
        for b, B in enumerate(basis):
            exact = moment_exact(r, A, B)
            dev = abs(est[a, b] - float(exact))
            z = float(dev / max(3.0 * err[a, b], 1e-12))
            worst = max(worst, z)
            rows.append({"A": list(A), "B": list(B), "exact": str(exact),
                         "mc": [float(est[a, b].real), float(est[a, b].imag)],
                         "stderr": float(err[a, b])})
    return {"r": r, "k": k, "samples": samples, "seed": seed,
            "worst_over_3sigma": worst, "ok": bool(worst <= 1.0), "moments": rows}


class TestVerifyMoments:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("r,k", [(1, 3), (2, 0), (3, 2), (4, 3)])
    def test_matches_the_pairwise_loop(self, r, k, seed):
        # 2000 samples: the rounding floor 2000 * eps is below 1e-12, so only
        # the vectorized abs may move the worst z, by an ulp or so
        got = moments.verify_moments(r, k, 2000, seed)
        want = cli_moments_loop(r, k, 2000, seed)
        z, z_ref = got.pop("worst_over_3sigma"), want.pop("worst_over_3sigma")
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert abs(z - z_ref) <= 4 * math.ulp(z_ref)

    @given(k=st.integers(0, 600), samples=st.sampled_from([100, 1000]),
           seed=st.integers(0, 2**31 - 1))
    @example(k=600, samples=100, seed=0)
    @settings(max_examples=25, deadline=None)
    def test_rank_one_z_never_above_the_loop(self, k, samples, seed):
        # rank 1: the integrand is constant on the sphere and the floor
        # binds; samples * eps * scale alone would read 0.2 at k = 600,
        # 100 samples, seed 0, where the 1e-12 floor reads 0.0044
        z = moments.verify_moments(1, k, samples, seed)["worst_over_3sigma"]
        z_ref = cli_moments_loop(1, k, samples, seed)["worst_over_3sigma"]
        assert z <= z_ref + 4 * math.ulp(z_ref)


class TestIntegralFormula:
    @pytest.mark.parametrize("r,k", [*itertools.product(range(1, 5), range(5)),
                                     (5, 3), (5, 5), (1, 19)])
    def test_integral_map_is_its_definition(self, r, k):
        I = moments._integral_map(r, k)
        assert I.dtype == np.int64 and np.array_equal(I, integral_map_reference(r, k))

    def test_hand_example_k1_m1(self):
        # R_{11 g d} = d_gd on rank 2: entry (A=B=(1,)) gives R_11 + tr = 3
        v = np.zeros((1, 1, 2, 2), dtype=complex)
        v[0, 0] = np.eye(2)
        R = CurvatureTensor(v, normalized=True)
        val = integral_formula_entry(R, 1, 1, 0, 0, (1,), (1,))
        assert abs(val - 3.0) < 1e-14

    def test_hand_example_k1_m3(self):
        # delta-tensor R, m=3: value 1 + 1 + (3-1)*2 + ... = 7 for the (1,1) entry
        v = np.zeros((1, 1, 2, 2), dtype=complex)
        v[0, 0] = np.eye(2)
        R = CurvatureTensor(v, normalized=True)
        val = integral_formula_entry(R, 1, 3, 0, 0, (1,), (1,))
        assert abs(val - 7.0) < 1e-14

    @pytest.mark.parametrize("n,r,k,m", [(1, 2, 1, 1), (2, 2, 2, 3), (1, 3, 2, 0),
                                         (2, 3, 3, -1)])
    def test_tensor_matches_the_per_entry_expansion(self, n, r, k, m):
        R = rational_curvature(n, r, seed=10 * n + r)
        S = integral_formula_tensor(R, k, m).values
        basis = sym_basis(r, k)
        for i, j, (a, A), (b, B) in itertools.product(range(n), range(n), enumerate(basis),
                                                       enumerate(basis)):
            assert S[i, j, a, b] == integral_formula_entry(R, k, m, i, j, A, B), (i, j, A, B)

    def test_k1_m1_matches_derivation_exactly(self):
        R = rational_curvature(2, 2, seed=31)
        S = integral_formula_tensor(R, 1, 1)
        D = induced_sym_det_curvature(R, 1, 1)
        assert np.array_equal(S.values, D.values)

    def test_exact_rational_passthrough(self):
        R = rational_curvature(1, 3, seed=17)
        S = integral_formula_tensor(R, 2, 2)
        D = induced_sym_det_curvature(R, 2, 2)
        for a in range(S.rank):
            for b in range(S.rank):
                assert S.values[0, 0, a, b] == D.values[0, 0, a, b]

    def test_mc_quadrature_confirms_expansion(self):
        R = rational_curvature(1, 2, seed=13)
        Rc = CurvatureTensor(R.values.astype(complex), normalized=True)
        exact = integral_formula_tensor(Rc, 2, 1).values.astype(complex)
        est, err = integral_formula_mc(Rc, 2, 1, samples=40000, seed=2)
        z = np.abs(est - exact) / np.maximum(3 * err, 1e-12)
        assert float(np.max(z)) <= 1.0

    @pytest.mark.parametrize("route", ["integral", "table"])
    def test_mc_chunks_match_unchunked_reference(self, monkeypatch, route):
        # the chunked estimator must reproduce a one-array mean and centred
        # stderr; 64-row chunks, and the samples are not a multiple of 64
        n, r, k, m, samples = 2, 3, 2, 2, 1001
        F = len(sym_basis(r, k))
        W = sphere_points(r, samples, seed=6)
        mono = np.stack([np.prod(W[:, np.array(A) - 1], axis=1) for A in sym_basis(r, k)],
                        axis=1)
        if route == "integral":
            monkeypatch.setattr(limits, "_CHUNK_BYTES", 64 * 16 * n * n * F)
            R = random_curvature(n, r, seed=41)
            est, err = integral_formula_mc(R, k, m, samples=samples, seed=6)
            quad = np.einsum("ijgd,sg,sd->sij", R.values, W.conj(), W)
            phi = (r + k) * quad + (m - 1) * np.trace(R.values, axis1=2, axis2=3)
            vals = np.einsum("sa,sb,sij->sijab", mono, mono.conj(), phi)
            pref = factorial(r + k - 1) / factorial(r - 1)
        else:
            monkeypatch.setattr(limits, "_CHUNK_BYTES", 64 * 16 * F)
            _, est, err = moment_mc_table(r, k, samples, seed=6)
            vals = np.einsum("sa,sb->sab", mono, mono.conj())
            pref = 1 / factorial(r - 1)
        ref_est = pref * vals.mean(axis=0)
        ref_err = pref * np.sqrt(np.mean(np.abs(vals - vals.mean(axis=0)) ** 2, axis=0)
                                 / samples)
        assert samples % 64 != 0
        assert np.max(np.abs(est - ref_est)) <= 1e-12 * np.max(np.abs(ref_est))
        assert np.max(np.abs(err - ref_err)) <= 1e-12 * np.max(ref_err)

    def test_independent_quadrature_oracle(self):
        # re-derive the (1,1) entry of the hand example by a quadrature written
        # here from scratch (different sampling code path than the package's)
        rng = np.random.Generator(np.random.PCG64(12345))
        r, k, m = 2, 1, 3
        w = rng.standard_normal((200000, r)) + 1j * rng.standard_normal((200000, r))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        # R = delta tensor, so sum R_gd conj(W_g) W_d = |W|^2 = 1, tr R = 2
        phi = (r + k) * 1.0 + (m - 1) * 2.0
        vals = np.abs(w[:, 0]) ** 2 * phi
        pref = factorial(r + k - 1) / factorial(r - 1)
        est = pref * vals.mean()
        se = pref * vals.std() / np.sqrt(len(vals))
        assert abs(est - 7.0) <= 3 * se + 1e-6

    def test_requires_normalized(self):
        v = np.zeros((1, 1, 2, 2), dtype=complex)
        R = CurvatureTensor(v, normalized=False)
        with pytest.raises(FrameNotNormalizedError):
            integral_formula_tensor(R, 1, 1)
        with pytest.raises(FrameNotNormalizedError):
            integral_formula_mc(R, 1, 1)


# off-origin points where route (b) is compared with its per-point reference
ROUTE_B_POINTS = [
    (lambda: tangent_pn(2), [0.3 - 0.1j, 0.2j]),
    (lambda: tangent_pn(3), [0.1, -0.2j, 0.25 + 0.05j]),
    (lambda: direct_sum([1, 1, 1], 2), [0.4, -0.2 + 0.1j]),
    (lambda: load_metric_json(USER_METRIC), [0.2 + 0.1j, -0.3]),
    (lambda: o_line(1, 2), [0.1j, 0.3]),
]
ROUTE_B_IDS = ["tpn-n2", "tpn-n3", "dsum111", "user", "o1"]


class TestLemmaLinearTriangle:
    @pytest.mark.parametrize("k,m", [(1, 1), (2, 2), (3, 1)])
    def test_tangent_p2(self, k, m):
        rep = verify_lemma_linear(tangent_pn(2), np.zeros(2), k, m, mc_samples=20000)
        assert rep["dev_algebra_vs_fd"] <= 1e-6
        assert rep["dev_algebra_vs_integral"] <= 1e-6
        assert rep["dev_fd_vs_integral"] <= 1e-6
        assert rep["mc_worst_over_3sigma"] <= 1.0

    def test_sum_of_lines_off_origin(self):
        E = direct_sum([1, 1], 2)
        rep = verify_lemma_linear(E, np.array([0.4, -0.2 + 0.1j]), 2, 3)
        assert rep["dev_algebra_vs_fd"] <= 1e-6
        assert rep["dev_algebra_vs_integral"] <= 1e-6

    def test_flat_metric_all_zero(self):
        E = constant_metric(np.eye(2), 2)
        rep = verify_lemma_linear(E, np.zeros(2), 2, 1)
        assert rep["dev_algebra_vs_fd"] <= 1e-6
        assert rep["scale"] < 1e-9

    def test_rank_one_rounding_is_within_3sigma(self, monkeypatch):
        # For rank 1 the integrand is constant on the sphere: the stderr is 0
        # and the Monte Carlo value misses the exact one by rounding alone,
        # here 1.3e-13 relative, inside the bound samples * eps = 4.4e-12 of a
        # 20 000-term mean; both harnesses go through the one floor
        def rounded(R, k, m, samples, seed):
            c = integral_formula_tensor(R, k, m).values.astype(complex)
            return c * (1 + 1.3e-13), np.zeros(c.shape)

        def rounded_table(r, k, samples, seed):
            basis = sym_basis(r, k)
            exact = np.array([[float(moment_exact(r, A, B)) for B in basis] for A in basis])
            return basis, exact * (1 + 1.3e-13), np.zeros(exact.shape)

        monkeypatch.setattr(moments, "integral_formula_mc", rounded)
        monkeypatch.setattr(moments, "moment_mc_table", rounded_table)
        rep = verify_lemma_linear(o_line(1, 2), np.zeros(2), 3, 2)
        assert rep["scale"] > 1.0
        assert rep["mc_worst_over_3sigma"] <= 1.0
        assert rep["ok"] is True
        rep = moments.verify_moments(1, 3, 20000)
        assert rep["worst_over_3sigma"] <= 1.0
        assert rep["ok"] is True

    @pytest.mark.parametrize("build,z", ROUTE_B_POINTS, ids=ROUTE_B_IDS)
    def test_route_b_equals_the_sym_power_field(self, build, z):
        # route (b) lifts route (a)'s samples; the per-point field is the reference
        z = np.array(z, dtype=complex)
        E0 = frame_normalized(build(), z)
        hs = chern_curvature(E0, z).samples
        for k in range(1, 5):
            for m in (-1, 0, 1, 3):
                b = symbundle._sym_power_curvature(hs, k, m, "route-b")
                ref = chern_curvature(sym_power_field(E0, k, m), z).values
                assert np.array_equal(b, ref), (k, m)

    @pytest.mark.parametrize("build,z", ROUTE_B_POINTS, ids=ROUTE_B_IDS)
    def test_route_b_input_is_the_frame_normalized_samples(self, monkeypatch, build, z):
        # one stacked congruence of the stencil samples equals the per-row one
        # of frame_normalized, bit for bit
        z = np.array(z, dtype=complex)
        E = build()
        seen = []
        lift = symbundle._sym_power_curvature
        monkeypatch.setattr(moments, "_sym_power_curvature",
                            lambda hs, *rest: seen.append(hs) or lift(hs, *rest))
        verify_lemma_linear(E, z, 2, 1, mc_samples=100)
        ref = chern_curvature(frame_normalized(E, z), z).samples
        assert len(seen) == 1 and np.array_equal(seen[0], ref)

    def test_route_b_contracts_at_the_sampled_step(self, monkeypatch):
        # the lift differentiates the stack at the step it was sampled at
        monkeypatch.setattr(geometry, "_STEP", 2e-3)
        rep = verify_lemma_linear(tangent_pn(2), np.array([0.2 - 0.1j, 0.3j]), 2, 1,
                                  mc_samples=100)
        assert rep["dev_algebra_vs_fd"] <= 1e-6

    def test_one_owner_of_the_fiber_frame(self, monkeypatch):
        # turn the one frame function by a unitary U: routes (a) and (b) both turn,
        # so they still agree, and route (a)'s block is no longer the unturned one
        U = np.linalg.qr(np.array([[1, 2j], [0.5 - 1j, 3]]))[0]
        frame, calls = geometry.fiber_frame, []
        z = np.array([0.3 - 0.2j, 0.1j])
        plain = verify_lemma_linear(tangent_pn(2), z, 2, 1, mc_samples=100)
        for module in (geometry, moments):
            monkeypatch.setattr(module, "fiber_frame", lambda R: calls.append(R) or frame(R) @ U)
        blocks = []

        def derive(*args):
            blocks.append(induced_sym_det_curvature(*args))
            return blocks[-1]

        monkeypatch.setattr(moments, "induced_sym_det_curvature", derive)
        turned = verify_lemma_linear(tangent_pn(2), z, 2, 1, mc_samples=100)
        assert len(calls) == 2
        assert turned["dev_algebra_vs_fd"] <= 1e-6 and plain["dev_algebra_vs_fd"] <= 1e-6
        monkeypatch.undo()
        R = chern_curvature(tangent_pn(2), z)
        unturned = induced_sym_det_curvature(normalize_at_point(R, None), 2, 1).values
        assert np.max(np.abs(blocks[0].values - unturned)) > 0.1

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_metric_evaluation_per_stencil_row(self, metric_calls, n):
        # 64n^2 + 8n + 1 stencil rows, row 0 at p, shared by every route
        rep = verify_lemma_linear(tangent_pn(n), np.zeros(n), 2, 1, mc_samples=100)
        assert rep["dev_algebra_vs_fd"] <= 1e-6
        assert metric_calls == {"tpn": 64 * n * n + 8 * n + 1}

    def test_one_row_chunks_change_nothing(self, monkeypatch):
        E = load_metric_json(USER_METRIC)
        z = np.array([0.2 + 0.1j, -0.3])
        hs = chern_curvature(frame_normalized(E, z), z).samples
        whole = symbundle._sym_power_curvature(hs, 3, 2, "route-b")
        rep = verify_lemma_linear(E, z, 3, 2, mc_samples=100)
        monkeypatch.setattr(limits, "_CHUNK_BYTES", 1)
        assert np.array_equal(symbundle._sym_power_curvature(hs, 3, 2, "route-b"), whole)
        # the Monte Carlo sums run in the same chunks, so only its z-score is rounded anew
        one_row = verify_lemma_linear(E, z, 3, 2, mc_samples=100)
        z_score = one_row.pop("mc_worst_over_3sigma")
        assert z_score == pytest.approx(rep.pop("mc_worst_over_3sigma"), rel=1e-12)
        assert one_row == rep

    def test_tpn4_k3_memory_bounded(self):
        # the unchunked quadrature held one (20000, 4, 4, 20, 20) complex
        # array, about 2 GB, on this input
        tracemalloc.start()
        try:
            rep = verify_lemma_linear(tangent_pn(4), np.zeros(4), 3, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(rep["dev_algebra_vs_fd"], rep["dev_algebra_vs_integral"],
                   rep["dev_fd_vs_integral"]) <= 1e-6
        assert rep["mc_worst_over_3sigma"] <= 1.0
        assert peak < 512 * 2**20
