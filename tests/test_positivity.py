import os
import pathlib
import subprocess
import sys
from bisect import bisect_left
from itertools import combinations

import numpy as np
import pytest

import poslab
from poslab import (
    BidegreeError,
    CurvatureTensor,
    Form,
    FrameNotNormalizedError,
    MetricField,
    NonpositivePolarizationError,
    boundedness_scan,
    curvature_term,
    dual_nakano_min,
    estimate_check,
    griffiths_min,
    nakano_min,
    o_line,
    sym_twisted_curvature_at,
    tangent_pn,
)
from poslab.bundles import direct_sum, det_field
from poslab.geometry import chern_curvature, normalize_at_point, fubini_study
from poslab.positivity import eigenvalue_bound, line_curvature_tensor
from poslab.symbundle import induced_sym_det_curvature

from conftest import random_curvature


def delta_tensor(n):
    """R_{ij a b} = d_ij d_ab + d_ib d_aj (the TP^n model at the origin)."""
    d = np.eye(n)
    v = np.einsum("ij,ab->ijab", d, d) + np.einsum("ib,aj->ijab", d, d)
    return CurvatureTensor(v.astype(complex), normalized=True)


class TestGriffiths:
    def test_delta_tensor_min_is_one(self):
        rep = griffiths_min(delta_tensor(3), restarts=8)
        assert abs(rep.min_value - 1.0) < 1e-8
        assert rep.certified_sign == "positive"

    def test_delta_tensor_max_is_two(self):
        rep = griffiths_min(delta_tensor(3), restarts=8, maximize=True)
        assert abs(rep.min_value - 2.0) < 1e-8

    def test_negative_summand_detected(self):
        # O(3) + O(-1) against omega_{O(1)}: min is -1 with witness along e2
        E = direct_sum([3, -1], 2)
        g = fubini_study(2, np.zeros(2))
        Rn, _, _ = normalize_at_point(E, g, np.zeros(2))
        rep = griffiths_min(Rn, restarts=8)
        assert abs(rep.min_value + 1.0) < 1e-8
        assert rep.certified_sign == "nonpositive_found"
        v = np.array([complex(a, b) for a, b in rep.witness["v"]])
        assert abs(abs(v[1]) - 1.0) < 1e-6

    def test_witness_reproduces_value(self):
        R = random_curvature(2, 3, seed=41)
        rep = griffiths_min(R, restarts=16)
        u = np.array([complex(a, b) for a, b in rep.witness["u"]])
        v = np.array([complex(a, b) for a, b in rep.witness["v"]])
        val = np.einsum("ijab,i,j,a,b->", R.values, u, u.conj(), v, v.conj()).real
        assert abs(val - rep.min_value) < 1e-8

    def test_requires_normalized(self):
        R = random_curvature(2, 2, seed=1, normalized=False)
        with pytest.raises(FrameNotNormalizedError):
            griffiths_min(R)


class TestNakano:
    def test_delta_tensor(self):
        # pairing is Id + swap; the swap operator has eigenvalues +-1, so the
        # Nakano minimum is 0 (antisymmetric witness), exactly as for TP^n
        rep = nakano_min(delta_tensor(3))
        assert abs(rep.min_value) < 1e-10
        assert abs(nakano_min(delta_tensor(1)).min_value - 2.0) < 1e-10

    def test_tangent_p2_not_strictly_positive(self):
        # min over Nakano vectors is exactly 0 for TP^2 (antisymmetric witness)
        g = fubini_study(2, np.zeros(2))
        Rn, _, _ = normalize_at_point(tangent_pn(2), g, np.zeros(2))
        rep = nakano_min(Rn)
        assert abs(rep.min_value) < 1e-8

    def test_rank_one_agrees_with_dual(self):
        phi = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=complex)
        R = line_curvature_tensor(phi)
        assert abs(nakano_min(R).min_value - dual_nakano_min(R).min_value) < 1e-12

    def test_sym_twisted_family(self):
        # Nakano min of S^k TP^2 O(l) at the origin is l for k = 1
        for l in (-1, 0, 2):
            S = sym_twisted_curvature_at(tangent_pn(2), o_line(1, 2), np.zeros(2),
                                         k=1, m=0, l=l)
            rep = nakano_min(S)
            assert abs(rep.min_value - l) < 1e-7


class TestDualNakano:
    def test_delta_tensor(self):
        rep = dual_nakano_min(delta_tensor(2))
        assert abs(rep.min_value - 1.0) < 1e-10

    def test_tangent_p2_strictly_positive(self):
        g = fubini_study(2, np.zeros(2))
        Rn, _, _ = normalize_at_point(tangent_pn(2), g, np.zeros(2))
        rep = dual_nakano_min(Rn)
        assert abs(rep.min_value - 1.0) < 1e-7

    def test_equals_negated_nakano_of_dual(self):
        # dual metric is the transposed inverse in this index-down convention;
        # the dual curvature is -R with bundle indices swapped
        def ev(z):
            b = np.array([[0.3, 0.1 - 0.2j], [0.4 + 0.2j, -0.4]], dtype=complex)
            c = np.array([[1.0, 0.2], [0.2, 0.5]], dtype=complex)
            return (np.eye(2, dtype=complex) + b * z[0] + b.conj().T * np.conj(z[0])
                    + c * (z[0] * np.conj(z[0])))

        E = MetricField(rank=2, base_dim=1, evaluate=ev, label="bumpy")
        Ed = MetricField(rank=2, base_dim=1,
                         evaluate=lambda z: np.linalg.inv(ev(z)).T, label="bumpy*")
        p = np.zeros(1)
        R = chern_curvature(E, p).values
        Rd = chern_curvature(Ed, p).values
        assert np.max(np.abs(Rd + R.transpose(0, 1, 3, 2))) < 1e-7
        # dual-Nakano positivity of E == Nakano positivity of -curvature of E*
        mn = nakano_min(CurvatureTensor(-Rd, normalized=True)).min_value
        dn = dual_nakano_min(CurvatureTensor(R, normalized=True)).min_value
        assert abs(mn - dn) < 1e-7


def _gram_blocks():
    """Builders of symmetric-power blocks whose Gram diagonal is not the identity."""
    p = np.array([0.3 - 0.2j, 0.1 + 0.4j])
    return [
        *(pytest.param(lambda n=n, r=r, k=k, m=m: induced_sym_det_curvature(
                           random_curvature(n, r, seed=(70, k)), k, m),
                       id=f"random-n{n}-r{r}-k{k}-m{m}")
          for n, r, k, m in [(2, 2, 2, 0), (3, 2, 3, 1), (2, 3, 2, -1), (2, 3, 3, 0)]),
        *(pytest.param(lambda k=k, l=l: sym_twisted_curvature_at(
                           tangent_pn(2), o_line(1, 2), p, k=k, m=0, l=l),
                       id=f"s{k}tp2-o{l}")
          for k, l in [(2, -1), (3, -2), (3, 1)]),
    ]


class TestGramSolver:
    @pytest.mark.parametrize("block", _gram_blocks())
    @pytest.mark.parametrize("dual", [False, True], ids=["nakano", "dual"])
    def test_agrees_with_unsymmetric_eigensolve(self, block, dual):
        S = block()
        n, F = S.values.shape[0], S.values.shape[2]
        V = S.values.transpose(0, 1, 3, 2) if dual else S.values
        M = V.transpose(0, 2, 1, 3).reshape(n * F, n * F)
        w = np.tile(np.asarray(S.gram, dtype=float), n)
        assert w.min() < w.max()
        rep = (dual_nakano_min if dual else nakano_min)(S)
        ref = np.min(np.linalg.eigvals(np.diag(1 / w) @ M).real)
        assert abs(rep.min_value - ref) <= 1e-10 * max(1.0, abs(ref))
        # the witness u pairs as sum M u conj(u); its conjugate x is a unit
        # eigenvector of the pencil (M, diag w)
        x = np.array([complex(a, b) for row in rep.witness["u"] for a, b in row]).conj()
        assert abs(np.vdot(x, w * x) - 1.0) <= 1e-12
        assert np.linalg.norm(M @ x - rep.min_value * w * x) <= 1e-10 * np.linalg.norm(M, 2)

    def test_cli_import_does_not_load_scipy(self):
        src = str(pathlib.Path(poslab.__file__).resolve().parents[1])
        code = "import sys, poslab.cli; assert 'scipy' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestPositivityOrdering:
    def test_nakano_below_griffiths(self):
        for seed in range(4):
            R = random_curvature(2, 2, seed=(50, seed))
            nk = nakano_min(R).min_value
            gr = griffiths_min(R, restarts=16).min_value
            assert nk <= gr + 1e-8

    def test_rank_one_factorable_signs_agree(self):
        # R = phi_{ij} tau_a conj(tau_b): Griffiths/dual-Nakano signs follow phi
        phi = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
        tau = np.array([1.0, 2.0j])
        v = np.einsum("ij,a,b->ijab", phi, tau, tau.conj())
        R = CurvatureTensor(v, normalized=True)
        # vectors orthogonal to tau annihilate the form, so all three notions
        # agree in sign: semi-positive, strictly positive along tau
        assert griffiths_min(R, restarts=16).min_value >= -1e-10
        assert griffiths_min(R, restarts=16, maximize=True).min_value > 0
        assert dual_nakano_min(R).min_value >= -1e-10
        assert nakano_min(R).min_value >= -1e-10


class TestBoundedness:
    def test_tangent_p2(self):
        cert = boundedness_scan(tangent_pn(2), o_line(1, 2), n_points=10, seed=0,
                                restarts=6)
        assert abs(cert.eps1 - 1.0) < 1e-6
        assert abs(cert.eps2 - 2.0) < 1e-6
        assert cert.strict

    def test_twisted_tangent(self):
        cert = boundedness_scan(
            MetricField(rank=2, base_dim=2,
                        evaluate=lambda z: tangent_pn(2)(z) * (1 + np.vdot(z, z).real),
                        label="tpn*o(-1)"),
            o_line(1, 2), n_points=8, seed=0, restarts=6)
        assert abs(cert.eps1 - 0.0) < 1e-6
        assert abs(cert.eps2 - 1.0) < 1e-6

    def test_sum_vs_det(self):
        E = direct_sum([3, -1], 2)
        cert = boundedness_scan(E, det_field(E), n_points=8, seed=0, restarts=6)
        assert abs(cert.eps1 + 0.5) < 1e-6
        assert abs(cert.eps2 - 1.5) < 1e-6

    def test_nonpositive_polarization_rejected(self):
        with pytest.raises(NonpositivePolarizationError):
            boundedness_scan(tangent_pn(2), o_line(-1, 2), n_points=2)


def loop_curvature_term(R, u):
    """The Bochner term with its wedge signs worked out entry by entry."""
    V = R.values.astype(complex)
    n, p, q, c = u.n, u.p, u.q, u.coeffs
    I_pos = {I: x for x, I in enumerate(combinations(range(n), p))}
    J_pos = {J: y for y, J in enumerate(combinations(range(n), q))}

    def inserted(S):
        """(sign, T, i) with e_i wedge e_S = sign * e_T, for each i not in S."""
        out = []
        for i in range(n):
            if i not in S:
                at = bisect_left(S, i)
                out.append((-1 if at % 2 else 1, S[:at] + (i,) + S[at:], i))
        return out

    total = 0.0 + 0.0j
    if q >= 1:
        for S in combinations(range(n), q - 1):
            ins = inserted(S)
            for sg_i, J_i, i in ins:
                for sg_j, J_j, j in ins:
                    total += sg_i * sg_j * np.einsum(
                        "ab,xa,xb->", V[i, j], c[:, J_pos[J_i], :], c[:, J_pos[J_j], :].conj())
    if p >= 1:
        for S in combinations(range(n), p - 1):
            ins = inserted(S)
            for sg_j, I_j, j in ins:
                for sg_i, I_i, i in ins:
                    total += sg_j * sg_i * np.einsum(
                        "ab,ya,yb->", V[i, j], c[I_pos[I_j], :, :], c[I_pos[I_i], :, :].conj())
    tr = V[np.arange(n), np.arange(n)]
    total -= np.einsum("iab,xya,xyb->", tr, c, c.conj())
    return total.real


class TestCurvatureTerm:
    @pytest.mark.parametrize("fiber_rank", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_loop_reference(self, n, fiber_rank):
        R = random_curvature(n, fiber_rank, seed=70 + n)
        for p in range(n + 1):
            for q in range(n + 1):
                u = Form.random(n, p, q, fiber_rank, seed=(71, 100 * n + 10 * p + q))
                ref = loop_curvature_term(R, u)
                # (0, n) and (n, 0) forms give 0 exactly, so the scale is that of R
                size = max(abs(ref), float(np.max(np.abs(R.values))) * u.norm_sq())
                assert abs(curvature_term(R, u) - ref) <= 1e-12 * size

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_diagonal_closed_form(self, n):
        # phi = diag(lam): T(u,u) = sum_{I,J} (lam_I + lam_J - sum lam) |u_IJ|^2
        lam = np.linspace(-1.0, 2.5, n) + 0.3 * np.arange(n) ** 2
        R = line_curvature_tensor(np.diag(lam))
        for p in range(n + 1):
            for q in range(n + 1):
                u = Form.random(n, p, q, 1, seed=(72, 100 * n + 10 * p + q))
                w = np.array([[sum(lam[list(I)]) + sum(lam[list(J)]) - lam.sum()
                               for J in combinations(range(n), q)]
                              for I in combinations(range(n), p)])
                want = float(np.sum(w * np.abs(u.coeffs[:, :, 0]) ** 2))
                assert abs(curvature_term(R, u) - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("n,p,q", [(3, 3, 1), (3, 2, 2), (3, 1, 1), (3, 0, 2), (3, 3, 3)])
    def test_identity_phi_closed_form(self, n, p, q):
        R = line_curvature_tensor(np.eye(n))
        for seed in range(3):
            u = Form.random(n, p, q, 1, seed=(60, seed))
            val = curvature_term(R, u)
            assert abs(val - (p + q - n) * u.norm_sq()) < 1e-10

    def test_zero_form(self):
        R = line_curvature_tensor(np.diag([1.0, 2.0]))
        assert curvature_term(R, Form.zero(2, 1, 1)) == 0.0

    def test_scalar_phi_exact_slack(self):
        rep = estimate_check(2.5 * np.eye(3), 2, 2, trials=40, seed=0)
        assert abs(rep["worst_slack"]) < 1e-9

    def test_positive_on_sym_bundle_top_degree(self):
        # (n, q) forms with q >= 1 valued in S^1 TP^2 det TP^2: T(u,u) > 0
        g = fubini_study(2, np.zeros(2))
        Rn, _, _ = normalize_at_point(tangent_pn(2), g, np.zeros(2))
        S = induced_sym_det_curvature(Rn, 1, 1)
        gram_ok = np.allclose(S.gram, 1)
        assert gram_ok
        for q in (1, 2):
            for seed in range(5):
                u = Form.random(2, 2, q, S.sym_rank, seed=(61, 10 * q + seed))
                assert curvature_term(S, u) > 0

    def test_bidegree_error(self):
        with pytest.raises(BidegreeError):
            Form.zero(2, 3, 0)


class TestEstimate:
    def test_bound_values(self):
        assert eigenvalue_bound(np.eye(3), 3, 1) == 1.0
        assert eigenvalue_bound(np.diag([1.0, 3.0]), 1, 1) == -2.0

    def test_randomized_slack_nonnegative(self):
        rng = np.random.Generator(np.random.Philox(key=77))
        for t in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            phi = a @ a.conj().T + 0.05 * np.eye(3)
            p = int(rng.integers(0, 4))
            q = int(rng.integers(0, 4))
            rep = estimate_check(phi, p, q, trials=30, seed=t)
            assert rep["worst_slack"] >= -1e-9

    def test_bad_bidegree(self):
        with pytest.raises(BidegreeError):
            estimate_check(np.eye(2), 3, 0)
