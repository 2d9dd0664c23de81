import numpy as np
import pytest

from poslab import (
    CurvatureTensor,
    MetricField,
    SingularMetricError,
    StencilOutOfChartError,
    chern_curvature,
    fubini_study,
    normalize_at_point,
    o_line,
    sample_points,
    tangent_pn,
)
from poslab.bundles import det_field, direct_sum, load_metric_json

from conftest import constant_metric, random_positive


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

    def test_hermitian_symmetry(self):
        for p in sample_points(2, 6, seed=1):
            R = chern_curvature(tangent_pn(2), p)
            scale = max(1.0, float(np.max(np.abs(R.values))))
            assert R.hermitian_defect() < 1e-8 * scale
            assert R.hermitian_defect() <= 1e-9 * scale

    def test_richardson_order(self):
        # error against the closed form should shrink at 4th order; demand >= 1.8
        z = np.array([0.4 + 0.2j, -0.1 + 0.3j])
        h = o_line(1, 2)(z)[0, 0].real
        exact = fubini_study(2, z)

        def err(step):
            R = chern_curvature(o_line(1, 2), z, step=step)
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
            chern_curvature(E, [0.4999], step=1e-3)


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


class TestNormalizeAtPoint:
    def test_identity_data_unchanged(self):
        E = o_line(1, 2)
        R0 = chern_curvature(E, np.zeros(2))
        Rn, P, Q = normalize_at_point(E, None, np.zeros(2))
        assert np.allclose(P, np.eye(2))
        assert np.allclose(Q, np.eye(1))
        assert np.allclose(Rn.values, R0.values, atol=1e-10)
        assert Rn.normalized

    def test_constant_rescale_invariance(self):
        # scaling h by a constant scales R linearly; the normalized tensor is unchanged
        E = o_line(1, 2)
        E4 = MetricField(rank=1, base_dim=2, evaluate=lambda z: 4.0 * E(z), label="4*o(1)")
        Rn, _, _ = normalize_at_point(E, None, np.zeros(2))
        Rn4, _, _ = normalize_at_point(E4, None, np.zeros(2))
        assert np.allclose(Rn.values, Rn4.values, atol=1e-9)

    def test_pairing_convention(self):
        # after normalization the indices-down pairing of g is the plain norm:
        # P must satisfy P^T g conj(P) = Id
        g = random_positive(3, seed=11)
        E = o_line(1, 3)
        _, P, _ = normalize_at_point(E, g, np.zeros(3))
        assert np.allclose(P.T @ g @ P.conj(), np.eye(3), atol=1e-12)

    def test_tpn_griffiths_range_invariant(self):
        # normalized TP^n Griffiths values lie in [1, 2] at every point
        n = 2
        rng = np.random.Generator(np.random.Philox(key=3))
        for p in sample_points(n, 5, seed=9):
            g = fubini_study(n, p)
            Rn, _, _ = normalize_at_point(tangent_pn(n), g, p)
            for _ in range(20):
                u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                u /= np.linalg.norm(u)
                v /= np.linalg.norm(v)
                val = np.einsum("ijab,i,j,a,b->", Rn.values, u, u.conj(), v, v.conj()).real
                assert 1 - 1e-6 <= val <= 2 + 1e-6


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
    def test_symmetry_violation_measured(self):
        v = np.zeros((1, 1, 2, 2), dtype=complex)
        v[0, 0] = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert CurvatureTensor(v).hermitian_defect() == 1.0
