import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from poslab import (
    CurvatureTensor,
    MetricField,
    ParamDomainError,
    SingularMetricError,
    StencilOutOfChartError,
    chern_curvature,
    fubini_study,
    normalize_at_point,
    o_line,
    sample_points,
    sym_power_field,
    tangent_pn,
    tangent_pn_twist,
)
from poslab import bundles, geometry
from poslab.bundles import builtin, det_field, direct_sum, frame_normalized, load_metric_json
from poslab.geometry import _orthonormalizer, as_point, philox

from conftest import constant_metric, random_curvature, random_positive

_NON_FINITE = [complex(np.nan, 0), complex(np.inf, 0), complex(-np.inf, 0),
               complex(0, np.nan), complex(0, np.inf), complex(0, -np.inf)]
_NON_FINITE_IDS = ["nan-re", "inf-re", "-inf-re", "nan-im", "inf-im", "-inf-im"]


class TestChartPoint:
    @pytest.mark.parametrize("z", [[0.5, -1.0], (0.5, -1.0), np.array([0.5, -1.0]),
                                   np.array([0.5 + 0j, -1.0])],
                             ids=["list", "tuple", "real-array", "complex-array"])
    def test_accepted_inputs_become_complex_points(self, z):
        p = as_point(z, 2)
        assert p.dtype == complex and p.shape == (2,)
        assert np.array_equal(p, [0.5, -1.0])

    @pytest.mark.parametrize("bad", _NON_FINITE, ids=_NON_FINITE_IDS)
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            as_point([0.1, bad], 2)

    @pytest.mark.parametrize("z", [[0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]], 0.1],
                             ids=["short", "long", "2-d", "scalar"])
    def test_wrong_shape_rejected(self, z):
        with pytest.raises(ValueError, match="must have 2 coordinates"):
            as_point(z, 2)

    @pytest.mark.parametrize("bad", _NON_FINITE, ids=_NON_FINITE_IDS)
    def test_metric_call_rejects_before_evaluate(self, bad):
        seen = []
        E = MetricField(rank=1, base_dim=2, label="watched",
                        evaluate=lambda z: seen.append(z) or np.eye(1))
        with pytest.raises(ValueError, match="non-finite"):
            E([bad, 0.0])
        with pytest.raises(ValueError, match="must have 2 coordinates"):
            E([0.0])
        assert seen == []

    @pytest.mark.parametrize("z", [[0.5, -1.0], (0.5, -1.0), np.array([0.5, -1.0])],
                             ids=["list", "tuple", "real-array"])
    def test_metric_call_passes_a_complex_point(self, z):
        seen = []
        E = MetricField(rank=1, base_dim=2, label="watched",
                        evaluate=lambda z: seen.append(z) or np.eye(1))
        assert np.array_equal(E(z), np.eye(1))
        assert seen[0].dtype == complex and np.array_equal(seen[0], [0.5, -1.0])

    def test_lowering_an_entry_builds_nothing_of_size_n(self):
        tracemalloc.start()
        try:
            bundles._lower_expr("z1 * conj(z1000000)", 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestFubiniStudy:
    def test_origin_identity(self):
        for n in (1, 2, 3, 5):
            assert np.allclose(fubini_study(n, np.zeros(n)), np.eye(n))

    def test_scalar_value(self):
        # n=1, z=1: 1/(1+1) - 1/(1+1)^2 = 1/4
        g = fubini_study(1, [1.0])
        assert abs(g[0, 0] - 0.25) < 1e-14

    def test_positive_definite_at_samples(self):
        for p in sample_points(3, 12, seed=5):
            g = fubini_study(3, p)
            assert np.min(np.linalg.eigvalsh(g)) > 0
            assert np.max(np.abs(g - g.conj().T)) < 1e-14


class TestChernCurvature:
    def test_flat_metric_is_zero(self):
        E = constant_metric(np.eye(2), 2)
        R = chern_curvature(E, np.zeros(2))
        assert np.max(np.abs(R.values)) < 1e-10

    def test_o1_matches_fubini_study(self):
        # normalization anchor: curvature of O(1) is the stored FS matrix
        for z in [np.zeros(2), np.array([0.3 + 0.1j, -0.2j])]:
            R = chern_curvature(o_line(1, 2), z)
            h = o_line(1, 2)(z)[0, 0].real
            assert np.allclose(R.values[:, :, 0, 0] / h, fubini_study(2, z), atol=1e-8)

    def test_tp1_origin(self):
        R = chern_curvature(tangent_pn(1), np.zeros(1))
        assert abs(R.values[0, 0, 0, 0] - 2.0) < 1e-8

    def test_tp2_origin_structure(self):
        # R_{ij a b} = d_ij d_ab + d_ib d_aj at the origin
        R = chern_curvature(tangent_pn(2), np.zeros(2)).values
        d = np.eye(2)
        expect = np.einsum("ij,ab->ijab", d, d) + np.einsum("ib,aj->ijab", d, d)
        assert np.max(np.abs(R - expect)) < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_metric_evaluations_per_curvature(self, n):
        # one evaluation at p, 8 per first derivative, 8 x 8 per mixed second
        points = []
        E = MetricField(rank=n, base_dim=n, label="counted",
                        evaluate=lambda z: points.append(z) or fubini_study(n, z))
        chern_curvature(E, np.zeros(n))
        assert len(points) == 64 * n * n + 8 * n + 1

    def test_tpn_stencil_rows_reach_fubini_study_by_name(self, monkeypatch):
        # tangent_pn evaluates through the module-global name bundles.fubini_study,
        # one call per stencil row; a trace that rebinds that name relies on it
        calls = []
        fs = bundles.fubini_study
        monkeypatch.setattr(bundles, "fubini_study", lambda n, z: calls.append(z) or fs(n, z))
        chern_curvature(tangent_pn(2), np.array([0.2 - 0.1j, 0.3j]))
        assert len(calls) == 64 * 2 * 2 + 8 * 2 + 1 == 273

    def test_hermitian_symmetry(self):
        for p in sample_points(2, 6, seed=1):
            R = chern_curvature(tangent_pn(2), p)
            scale = max(1.0, float(np.max(np.abs(R.values))))
            assert R.hermitian_defect() < 1e-8 * scale
            assert R.hermitian_defect() <= 1e-9 * scale

    def test_richardson_order(self, monkeypatch):
        # error against the closed form should shrink at 4th order; demand >= 1.8
        z = np.array([0.4 + 0.2j, -0.1 + 0.3j])
        h = o_line(1, 2)(z)[0, 0].real
        exact = fubini_study(2, z)

        def err(step):
            monkeypatch.setattr(geometry, "_STEP", step)
            R = chern_curvature(o_line(1, 2), z)
            return float(np.max(np.abs(R.values[:, :, 0, 0] / h - exact)))

        e1, e2 = err(0.08), err(0.04)
        order = np.log2(e1 / e2)
        assert order >= 1.8

    def test_singular_metric_raises(self):
        E = constant_metric(np.zeros((2, 2)), 2)
        with pytest.raises(SingularMetricError):
            chern_curvature(E, np.zeros(2))

    def test_stencil_leaves_domain(self):
        src = {"rank": 1, "base_dim": 1, "entries": [["1 + abs2(z1)"]],
               "domain_radius": 0.5}
        E = load_metric_json(src)
        with pytest.raises(StencilOutOfChartError):
            chern_curvature(E, [0.4999])


def nested_curvature(h, p, step=1e-3):
    """Chern curvature by nested Wirtinger stencils, one derivative at a time.

    A reference for chern_curvature's offset-table contraction: the same
    64n^2 + 8n + 1 metric evaluations, summed without subtracting the base
    value.
    """
    offs = np.array([-2, -1, 1, 2, -2j, -1j, 1j, 2j])
    weights = np.array([1, -8, 8, -1, -1j, 8j, -8j, 1j]) / 24

    def wirtinger(f, z, i, bar=False):
        acc = 0
        for w, o in zip(weights.conj() if bar else weights, offs):
            zo = z.copy()
            zo[i] += o * step
            acc = acc + w * f(zo)
        return acc / step

    n, r = h.base_dim, h.rank
    z0 = np.asarray(p, dtype=complex)
    Hinv = np.linalg.inv(h(z0))
    dh = [wirtinger(h, z0, i) for i in range(n)]
    R = np.empty((n, n, r, r), dtype=complex)
    for j in range(n):
        def dbar_j(z, j=j):
            return wirtinger(h, z, j, bar=True)

        for i in range(n):
            R[i, j] = -wirtinger(dbar_j, z0, i) + dh[i] @ Hinv @ dh[j].conj().T
    return R


USER_METRIC = {
    "rank": 2, "base_dim": 2, "label": "perturbed",
    "entries": [["(1 + abs2(z1) + abs2(z2)) ** -1 * (1 + 0.4 * abs2(z1))",
                 "(1 + abs2(z1) + abs2(z2)) ** -1 * 0.2 * z1 * conj(z2)"],
                ["(1 + abs2(z1) + abs2(z2)) ** -1 * 0.2 * conj(z1) * z2",
                 "(1 + abs2(z1) + abs2(z2)) ** -1 * (1 + 0.7 * abs2(z2))"]],
}


class TestStencilContraction:
    @pytest.mark.parametrize("E", [
        *(tangent_pn(n) for n in (1, 2, 3, 4)),
        direct_sum([2, -1, 1], 2),
        det_field(tangent_pn(3)),
        load_metric_json(USER_METRIC),
    ], ids=lambda E: f"{E.label}-n{E.base_dim}")
    def test_matches_nested_stencil(self, E):
        for p in sample_points(E.base_dim, 4, seed=6):
            R = chern_curvature(E, p).values
            assert np.max(np.abs(R - nested_curvature(E, p))) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tpn_closed_form(self, n):
        # R_{i jbar a bbar} = g_{i jbar} g_{a bbar} + g_{i bbar} g_{a jbar}
        for p in sample_points(n, 12, seed=n):
            g = fubini_study(n, p)
            exact = np.einsum("ij,ab->ijab", g, g) + np.einsum("ib,aj->ijab", g, g)
            R = chern_curvature(tangent_pn(n), p).values
            assert np.max(np.abs(R - exact)) < 5e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("l", [1, 2])
    def test_line_closed_form(self, n, l):
        # O(l): R = l h g
        for p in sample_points(n, 12, seed=n):
            L = o_line(l, n)
            R = chern_curvature(L, p).values[:, :, 0, 0]
            assert np.max(np.abs(R - l * L(p)[0, 0] * fubini_study(n, p))) < 5e-10


class TestUserMetric:
    def test_every_construct_matches_numpy(self):
        src = "+(2 + 0.5*I) * conj(z1) - -z2 / 3j + abs2(z1 - z2) ** 1.5 - 7"
        E = load_metric_json({"rank": 2, "base_dim": 2, "entries": [[src, "z1"], ["z2", "1"]]})
        for z in sample_points(2, 5, seed=2):
            a, b = z[0], z[1]
            expect = ((2 + 0.5 * 1j) * np.conj(a) - (-b) / 3j
                      + ((a - b) * np.conj(a - b)).real ** complex(1.5) - complex(7))
            h = E(z)
            assert h[0, 0] == expect
            assert (h[0, 1], h[1, 0], h[1, 1]) == (a, b, 1)


class TestDerivedFields:
    @pytest.mark.parametrize("build", [
        lambda: sym_power_field(frame_normalized(tangent_pn(2), np.zeros(2)), 2, 1),
        lambda: det_field(tangent_pn(2)),
        lambda: tangent_pn_twist(1, 2),
    ], ids=["sym-of-normalized", "det", "tpn-twist"])
    def test_one_checked_call_per_evaluation(self, monkeypatch, build):
        field = build()
        calls = []
        checked_call = MetricField.__call__
        monkeypatch.setattr(MetricField, "__call__",
                            lambda f, z: calls.append(f.label) or checked_call(f, z))
        field(np.array([0.3 - 0.1j, 0.2j]))
        assert calls == [field.label]

    def test_derived_field_inherits_the_domain(self):
        E = MetricField(rank=2, base_dim=1, evaluate=lambda z: np.eye(2), domain_radius=0.5)
        for F in (det_field(E), frame_normalized(E, [0.0]), sym_power_field(E, 2, 1)):
            assert (F.base_dim, F.domain_radius) == (1, 0.5)
            with pytest.raises(StencilOutOfChartError):
                F([0.6])

    def test_det_of_a_misshapen_field_raises(self):
        # declares rank 2 but returns 3 x 3: the parent's output check still runs
        E = MetricField(rank=2, base_dim=1, evaluate=lambda z: np.eye(3), label="bad")
        with pytest.raises(ValueError, match="'bad' returned shape"):
            det_field(E)([0.1])

    @pytest.mark.parametrize("rank,base_dim", [(0, 2), (2, 0), (1, -1)])
    def test_rank_and_base_dim_below_one_rejected(self, rank, base_dim):
        with pytest.raises(ParamDomainError):
            MetricField(rank=rank, base_dim=base_dim, evaluate=lambda z: np.eye(rank))

    @pytest.mark.parametrize("ident", ["o(1)", "dsum(1,2)", "tpn", "tpn_twist(1)"])
    def test_builtin_at_base_dim_below_one_rejected(self, ident):
        for n in (0, -1):
            with pytest.raises(ParamDomainError):
                builtin(ident, n)


class TestFrameCovariance:
    def test_constant_frame_change(self):
        # h~(z) = a^T h(z) conj(a) must transform R by the same pattern
        rng = np.random.Generator(np.random.Philox(key=7))
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a += 2.0 * np.eye(2)
        E = direct_sum([2, -1], 2)

        def ev(z):
            return a.T @ E(z) @ a.conj()

        Et = MetricField(rank=2, base_dim=2, evaluate=ev, label="transformed")
        z = np.array([0.2, 0.1 - 0.3j])
        R = chern_curvature(E, z).values
        Rt = chern_curvature(Et, z).values
        expect = np.einsum("ijgd,ga,db->ijab", R, a, a.conj())
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(Rt - expect)) < 1e-7 * scale


def five_operand_frame_change(values, g, h_p):
    """normalize_at_point's frame change as one unoptimized five-operand einsum."""
    P, Q = _orthonormalizer(g), _orthonormalizer(h_p)
    return np.einsum("ijab,ix,jy,au,bv->xyuv", values, P, P.conj(), Q, Q.conj())


class TestNormalizeAtPoint:
    def test_identity_data_unchanged(self):
        E = o_line(1, 2)
        R0 = chern_curvature(E, np.zeros(2))
        Rn = normalize_at_point(chern_curvature(E, np.zeros(2)), None)
        assert np.allclose(_orthonormalizer(np.eye(2)), np.eye(2))
        assert np.allclose(_orthonormalizer(E(np.zeros(2))), np.eye(1))
        assert np.allclose(Rn.values, R0.values, atol=1e-10)
        assert Rn.normalized

    def test_constant_rescale_invariance(self):
        # scaling h by a constant scales R linearly; the normalized tensor is unchanged
        E = o_line(1, 2)
        E4 = MetricField(rank=1, base_dim=2, evaluate=lambda z: 4.0 * E(z), label="4*o(1)")
        Rn = normalize_at_point(chern_curvature(E, np.zeros(2)), None)
        Rn4 = normalize_at_point(chern_curvature(E4, np.zeros(2)), None)
        assert np.allclose(Rn.values, Rn4.values, atol=1e-9)

    @pytest.mark.parametrize("n,r", [(1, 3), (3, 2), (2, 4), (6, 6)])
    def test_matches_five_operand_contraction(self, n, r):
        R = random_curvature(n, r, seed=100 + 10 * n + r, normalized=False)
        rng = np.random.Generator(np.random.Philox(key=n * r))
        R.samples = rng.standard_normal((3, r, r)) + 0j
        R.samples[0] = random_positive(r, seed=200 + r)
        g = random_positive(n, seed=300 + n)
        want = five_operand_frame_change(R.values, g, R.samples[0])
        Rn = normalize_at_point(R, g)
        assert Rn.values.shape == (n, n, r, r)
        assert np.max(np.abs(Rn.values - want)) <= 1e-13 * np.max(np.abs(want))
        assert Rn.normalized and Rn.samples is None

    def test_field_off_origin_matches_five_operand_contraction(self):
        E, p = tangent_pn_twist(1, 3), np.array([0.4 - 0.2j, 0.1j, -0.3])
        g = random_positive(3, seed=17)
        R = chern_curvature(E, p)
        want = five_operand_frame_change(R.values, g, E(p))
        got = normalize_at_point(R, g).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_pairing_convention(self):
        # after normalization the indices-down pairing of g is the plain norm:
        # P must satisfy P^T g conj(P) = Id
        g = random_positive(3, seed=11)
        P = _orthonormalizer(g)
        assert np.allclose(P.T @ g @ P.conj(), np.eye(3), atol=1e-12)

    def test_tpn_griffiths_range_invariant(self):
        # normalized TP^n Griffiths values lie in [1, 2] at every point
        n = 2
        rng = np.random.Generator(np.random.Philox(key=3))
        for p in sample_points(n, 5, seed=9):
            g = fubini_study(n, p)
            Rn = normalize_at_point(chern_curvature(tangent_pn(n), p), g)
            for _ in range(20):
                u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                u /= np.linalg.norm(u)
                v /= np.linalg.norm(v)
                val = np.einsum("ijab,i,j,a,b->", Rn.values, u, u.conj(), v, v.conj()).real
                assert 1 - 1e-6 <= val <= 2 + 1e-6


class TestOneEvaluationPerStencilRow:
    @pytest.mark.parametrize("z", [[0.0, 0.0], [0.3 - 0.1j, 0.2j]], ids=["origin", "off-origin"])
    def test_normalize_at_point_reads_h_p_from_row_0(self, metric_calls, z):
        E = direct_sum([2, -1], 2)
        R = chern_curvature(E, z)
        Rn = normalize_at_point(R, random_positive(2, seed=3))
        # normalize_at_point makes no metric call; the samples stay in E's own
        # frame, with R, row 0 at p
        assert metric_calls == {E.label: 64 * 4 + 8 * 2 + 1}
        assert Rn.samples is None
        assert np.array_equal(R.samples[0], E(z))

    @pytest.mark.parametrize("entries", [[[-1.0]], [[1.0, 0.0], [0.0, -2.0]]],
                             ids=["negative-line", "indefinite-rank-2"])
    def test_metric_not_positive_definite_at_p_rejected_at_row_0(self, metric_calls, entries):
        E = constant_metric(entries, 2, label="indefinite")
        with pytest.raises(SingularMetricError, match="'indefinite' not positive definite"):
            normalize_at_point(chern_curvature(E, np.zeros(2)), None)
        assert metric_calls == {"indefinite": 1}


class TestPhilox:
    @pytest.mark.parametrize("seed", [(-1, 2), (2, -1), [-3, 0], -1, (2**64, 0), 2**128,
                                      (1, 2, 3), (), np.array([0, -1]), (np.int64(-1), 2),
                                      (1.5, 2)],
                             ids=["negative-first", "negative-second", "negative-in-list",
                                  "negative-int", "entry-too-large", "int-too-large", "triple",
                                  "empty", "negative-in-int64-array", "negative-np-int64",
                                  "float-entry"])
    def test_key_outside_range_rejected(self, seed):
        # numpy itself wraps a negative pair entry to uint64 and truncates a float one
        with pytest.raises(ParamDomainError, match="not a Philox key"):
            philox(seed)

    def test_valid_keys_unchanged(self):
        for seed in (0, 7, 2**128 - 1, (0, 0), (5, 9), [3, 4], np.array([5, 9], dtype=np.uint64),
                     np.array(5)):
            want = np.random.Generator(np.random.Philox(key=seed)).random(3)
            assert np.array_equal(philox(seed).random(3), want)

    def test_large_pair_entries_keyed_exactly(self):
        # a tuple with an entry above 2**63 reaches numpy as float64, where
        # 2**64 - 1 and 2**64 - 2 round to one key
        for seed in ((2**64 - 1, 0), (2**64 - 2, 0), (2**63 + 5, 1)):
            want = np.random.Generator(np.random.Philox(key=np.array(seed, dtype=np.uint64)))
            assert np.array_equal(philox(seed).random(3), want.random(3))
        assert philox((2**64 - 1, 0)).random() != philox((2**64 - 2, 0)).random()


class TestSamplePoints:
    def test_deterministic_and_bounded(self):
        a = sample_points(2, 10, seed=4)
        b = sample_points(2, 10, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert np.allclose(a[0], 0)
        assert all(np.linalg.norm(p) <= 2.0 + 1e-12 for p in a)

    def test_seed_changes_stream(self):
        a = sample_points(2, 4, seed=0)
        b = sample_points(2, 4, seed=1)
        assert not np.allclose(a[1], b[1])


class TestCurvatureTensorChecks:
    @pytest.mark.parametrize("values,dtype", [
        (np.full((1, 1, 2, 2), 0.5), complex), (np.ones((1, 1, 2, 2), dtype=int), complex),
        (np.full((1, 1, 2, 2), Fraction(1, 3), dtype=object), object),
        (np.full((1, 1, 2, 2), 0.5 - 1j), complex),
    ], ids=["real", "int", "exact", "complex"])
    def test_values_are_complex_unless_exact(self, values, dtype):
        R = CurvatureTensor(values)
        assert R.values.dtype == dtype and np.array_equal(R.values, values)
        # an array already of the stored dtype is kept, not copied
        assert (R.values is values) == (values.dtype == dtype)
        if dtype == object:
            assert all(type(x) is Fraction for x in R.values.flat)

    def test_symmetry_violation_measured(self):
        v = np.zeros((1, 1, 2, 2), dtype=complex)
        v[0, 0] = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert CurvatureTensor(v).hermitian_defect() == 1.0
