import os
import pathlib
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poslab
from poslab import (
    BidegreeError,
    CurvatureTensor,
    Form,
    FrameNotNormalizedError,
    MetricField,
    NonpositivePolarizationError,
    ParamDomainError,
    PositivityReport,
    boundedness_scan,
    curvature_term,
    dual_nakano_min,
    estimate_check,
    griffiths_min,
    nakano_min,
    o_line,
    positivity_scan,
    sym_twisted_curvature_at,
    tangent_pn,
)
from poslab.bundles import (
    det_field,
    direct_sum,
    frame_normalized,
    load_metric_json,
    tangent_pn_twist,
)
from poslab.geometry import chern_curvature, normalize_at_point, fubini_study, sample_points
from poslab.symbundle import _sym_power_curvature
from poslab import geometry, limits, positivity
from poslab.limits import check_form_budget
from poslab.positivity import (
    _gram_eigh,
    _interior_map,
    _values_and_gram,
    _wedge_derivation,
    eigenvalue_bound,
    line_curvature_tensor,
    polarization_form,
    verify_estimate,
)
from poslab.symbundle import induced_sym_det_curvature, sym_power_field, twist_by_line

from conftest import random_curvature, random_hermitian


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
        # the maximum is minus the minimum of -R
        neg = CurvatureTensor(-delta_tensor(3).values, normalized=True)
        rep = griffiths_min(neg, restarts=8)
        assert abs(-rep.min_value - 2.0) < 1e-8

    def test_negative_summand_detected(self):
        # O(3) + O(-1) against omega_{O(1)}: min is -1 with witness along e2
        E = direct_sum([3, -1], 2)
        g = fubini_study(2, np.zeros(2))
        Rn = normalize_at_point(chern_curvature(E, np.zeros(2)), g)
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

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_needs_a_restart(self, restarts):
        with pytest.raises(ParamDomainError):
            griffiths_min(delta_tensor(2), restarts=restarts)


def serial_griffiths_min(R, restarts, seed):
    """Reference: the restarts one at a time, two single eigen-solves per
    iteration, each stopping at the module tolerance or after 200 iterations;
    returns the first smallest value.  Each half-step is the module's matrix
    product on one restart, so this checks stacking, chunking and stopping;
    test_half_steps_match_einsum checks the contractions themselves."""
    V, g = _values_and_gram(R)
    n, F = V.shape[0], V.shape[2]
    VW, VM = V.reshape(n * n * F, F), V.reshape(n * n, F * F)
    rng = np.random.Generator(np.random.Philox(key=seed))
    best_val = None
    for _ in range(restarts):
        x = rng.standard_normal(F) + 1j * rng.standard_normal(F)
        x /= np.sqrt(np.sum(g * np.abs(x) ** 2))
        v = x
        prev = None
        for _ in range(200):
            Wu = ((VW @ v.conj()).reshape(n * n, F) @ v).reshape(n, n)
            Wu = 0.5 * (Wu + Wu.conj().T)
            ew, evec = np.linalg.eigh(Wu)
            u = evec[:, 0].conj()
            Mv = (np.outer(u, u.conj()).reshape(n * n) @ VM).reshape(F, F)
            Mv = 0.5 * (Mv + Mv.conj().T)
            ew2, evec2 = _gram_eigh(Mv, g)
            v = evec2[:, 0].conj()
            val = float(ew2[0])
            if prev is not None and abs(val - prev) < positivity._GRIFFITHS_TOL * (1.0 + abs(val)):
                break
            prev = val
        if best_val is None or val < best_val:
            best_val = val
    return best_val


def gram_curvature(n, gram, seed):
    """Random Hermitian-symmetric tensor against the Gram diagonal ``gram``."""
    v = random_curvature(n, len(gram), seed).values
    return CurvatureTensor(v, normalized=True, gram=np.array(gram, dtype=float))


class TestStackedRestarts:
    @given(n=st.integers(1, 3), gram=st.lists(st.integers(1, 3), min_size=1, max_size=6),
           tensor_seed=st.integers(0, 2**32 - 1), restarts=st.integers(1, 40),
           seed=st.integers(0, 2**63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_serial_restarts(self, n, gram, tensor_seed, restarts, seed):
        R = gram_curvature(n, gram, tensor_seed)
        want = serial_griffiths_min(R, restarts, seed)
        got = griffiths_min(R, restarts=restarts, seed=seed).min_value
        assert abs(got - want) <= 1e-12 * (1 + abs(want))

    @pytest.mark.parametrize("make", [
        lambda: sym_twisted_curvature_at(tangent_pn(3), o_line(1, 3), np.full(3, 0.2), 2, 0, -1),
        lambda: gram_curvature(2, [1, 2, 1], seed=8),
    ], ids=["tpn3-sym2", "random-gram"])
    def test_one_restart_per_chunk_gives_the_same_report(self, monkeypatch, make):
        R = make()
        want = griffiths_min(R, restarts=32, seed=4).to_json()
        assert limits._GRIFFITHS_CHUNK_BYTES // (16 * R.values.shape[2] ** 2) >= 32
        monkeypatch.setattr(limits, "_GRIFFITHS_CHUNK_BYTES", 1)
        assert griffiths_min(R, restarts=32, seed=4).to_json() == want

    def test_several_chunks_match_serial(self):
        # F = 35: three restarts per chunk under the default budget
        S = sym_twisted_curvature_at(tangent_pn(5), o_line(1, 5), np.zeros(5), 3, 0, 0)
        assert limits._GRIFFITHS_CHUNK_BYTES // (16 * 35 * 35) == 3
        rep = griffiths_min(S, restarts=7, seed=2)
        assert abs(rep.min_value - serial_griffiths_min(S, 7, 2)) <= 1e-12 * (1 + 3)
        assert abs(rep.min_value - 3.0) < 1e-6

    def test_one_restart_per_chunk_at_f35(self, monkeypatch):
        # S^3 TP^5: three restarts per chunk by default, one per chunk here
        S = sym_twisted_curvature_at(tangent_pn(5), o_line(1, 5), np.full(5, 0.2), 3, 0, 0)
        want = griffiths_min(S, restarts=8, seed=5).to_json()
        monkeypatch.setattr(limits, "_GRIFFITHS_CHUNK_BYTES", 1)
        assert griffiths_min(S, restarts=8, seed=5).to_json() == want

    @pytest.mark.parametrize("make", [
        lambda: gram_curvature(1, [1], seed=3),
        lambda: gram_curvature(3, [1, 2, 6, 1], seed=31),
        lambda: random_curvature(4, 7, seed=32),
        lambda: sym_twisted_curvature_at(tangent_pn(5), o_line(1, 5), np.full(5, 0.2), 3, 0, 0),
    ], ids=["n1-F1", "n3-gram", "n4-F7", "tpn5-sym3"])
    def test_half_steps_match_einsum(self, monkeypatch, make):
        # every eigen-solve's input, three iterations of five restarts, against the
        # einsum contractions of the (u, v) that the solves before it returned
        V, g = _values_and_gram(make())
        sqg = np.sqrt(g)
        eigh, solves = np.linalg.eigh, []

        def spy(M):
            ew, evec = eigh(M)
            solves.append((M, evec))
            return ew, evec

        monkeypatch.setattr(np.linalg, "eigh", spy)
        monkeypatch.setattr(positivity, "_GRIFFITHS_TOL", -1.0)  # no restart stops early
        monkeypatch.setattr(positivity, "_GRIFFITHS_ITERS", 3)
        starts = np.random.Generator(np.random.Philox(key=7)).standard_normal((5, 2, len(g)))
        positivity._griffiths_stack(V, g, starts)
        assert len(solves) == 6
        x = starts[:, 0] + 1j * starts[:, 1]
        v = x / np.sqrt(np.sum(g * np.abs(x) ** 2, axis=1))[:, None]
        for (Wu, evec), (Mv, evec2) in zip(solves[::2], solves[1::2]):
            want = np.einsum("ijab,ra,rb->rij", V, v, v.conj())
            want = 0.5 * (want + want.conj().swapaxes(1, 2))
            assert np.max(np.abs(Wu - want)) <= 1e-13 * np.max(np.abs(want))
            u = evec[:, :, 0].conj()
            want = np.einsum("ijab,ri,rj->rab", V, u, u.conj())
            want = 0.5 * (want + want.conj().swapaxes(1, 2))
            assert np.max(np.abs(Mv * np.outer(sqg, sqg) - want)) <= 1e-13 * np.max(np.abs(want))
            v = (evec2 / sqg[:, None])[:, :, 0].conj()

    def test_one_restart(self):
        R = gram_curvature(2, [1, 2], seed=12)
        rep = griffiths_min(R, restarts=1, seed=9)
        assert abs(rep.min_value - serial_griffiths_min(R, 1, 9)) <= 1e-12 * (1 + abs(rep.min_value))
        u = np.array([complex(a, b) for a, b in rep.witness["u"]])
        v = np.array([complex(a, b) for a, b in rep.witness["v"]])
        val = np.einsum("ijab,i,j,a,b->", R.values, u, u.conj(), v, v.conj()).real
        assert abs(val - rep.min_value) < 1e-8


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
        Rn = normalize_at_point(chern_curvature(tangent_pn(2), np.zeros(2)), g)
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
        Rn = normalize_at_point(chern_curvature(tangent_pn(2), np.zeros(2)), g)
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
    def test_measures_read_the_values_without_a_copy(self):
        R = random_curvature(2, 3, seed=4)
        assert _values_and_gram(R)[0] is R.values

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
        neg = CurvatureTensor(-R.values, normalized=True)
        assert -griffiths_min(neg, restarts=16).min_value > 0
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

    @pytest.mark.parametrize("E,L", [
        (tangent_pn(2), o_line(1, 2)),
        # the origin is a degenerate point: every unit u attains both extremes
        (direct_sum([3, -1], 2), o_line(2, 2)),
    ], ids=["tpn-o1", "dsum-o2"])
    def test_witnesses_reproduce_extremes(self, E, L):
        cert = boundedness_scan(E, L, n_points=4, seed=0, restarts=6)
        for wit, eps in ((cert.witness_low, cert.eps1), (cert.witness_high, cert.eps2)):
            p, u, v = (np.array([complex(a, b) for a, b in wit[key]])
                       for key in ("point", "u", "v"))
            Rn = normalize_at_point(chern_curvature(E, p), polarization_form(L, p))
            val = np.einsum("ijab,i,j,a,b->", Rn.values, u, u.conj(), v, v.conj()).real
            assert abs(val - eps) < 1e-10

    def test_nonpositive_polarization_rejected(self):
        with pytest.raises(NonpositivePolarizationError):
            boundedness_scan(tangent_pn(2), o_line(-1, 2), n_points=2)


def _cvec(p):
    return [[float(x.real), float(x.imag)] for x in p]


def reference_positivity_scan(E, L, test, n_points, seed, restarts, k, m, l):
    """The certify sample loop as written before the one scan."""
    best = None
    for p in sample_points(E.base_dim, n_points, seed=seed):
        Rsym = sym_twisted_curvature_at(E, L, p, k=k, m=m, l=l)
        if test == "griffiths":
            rep = griffiths_min(Rsym, restarts=restarts, seed=seed)
        elif test == "nakano":
            rep = nakano_min(Rsym)
        else:
            rep = dual_nakano_min(Rsym)
        rep.points = _cvec(p)
        if best is None or rep.min_value < best.min_value:
            best = rep
    return best


def reference_boundedness_scan(E, L, n_points, seed, restarts):
    """The boundedness loop as written before the one scan: polarization,
    normalization and the Griffiths minima of Rn and -Rn at each point."""
    eps1, eps2 = np.inf, -np.inf
    wit_low, wit_high, pts = {}, {}, []
    for p in sample_points(E.base_dim, n_points, seed=seed):
        Rn = normalize_at_point(chern_curvature(E, p), polarization_form(L, p))
        lo = griffiths_min(Rn, restarts=restarts, seed=seed)
        hi = griffiths_min(CurvatureTensor(-Rn.values, normalized=True),
                           restarts=restarts, seed=seed)
        pts.append(_cvec(p))
        if lo.min_value < eps1:
            eps1 = lo.min_value
            wit_low = {"point": _cvec(p), **lo.witness, "value": lo.min_value}
        if -hi.min_value > eps2:
            eps2 = -hi.min_value
            wit_high = {"point": _cvec(p), **hi.witness, "value": eps2}
    return {"eps1": eps1, "eps2": eps2, "strict": eps2 - eps1 > 1e-9,
            "witness_low": wit_low, "witness_high": wit_high, "points": pts}


# a perfbench-style rank-2 user metric: a U(2)-breaking perturbation of O(1)+O(1)
_W = "(1 + abs2(z1) + abs2(z2)) ** -1"
_USER_RANK2 = {
    "rank": 2, "base_dim": 2, "label": "user-rank2", "domain_radius": 10.0,
    "entries": [[f"{_W} * (1 + 0.7 * abs2(z1))", f"{_W} * 0.2 * z1 * conj(z2)"],
                [f"{_W} * 0.2 * conj(z1) * z2", f"{_W} * (1 + 0.4 * abs2(z2))"]],
}


def json_line(c, n):
    """O(c) written as a JSON metric: o_line's formula, but differentiated on its stencil."""
    s = " + ".join(f"abs2(z{i})" for i in range(1, n + 1))
    return load_metric_json({"rank": 1, "base_dim": n, "label": f"json-o({c:g})",
                             "entries": [[f"(1 + {s}) ** -{c}"]]})


class TestOneScan:
    """positivity_scan and boundedness_scan equal the loops they replaced, exactly."""

    @pytest.mark.parametrize("test", ["griffiths", "nakano", "dual"])
    @pytest.mark.parametrize("E,k,m,l", [
        (tangent_pn(2), 2, 0, -1),
        (direct_sum([1, 2, 3], 2), 1, 1, 0),
    ], ids=["tpn-sym2-twist-1", "dsum123-det1"])
    def test_positivity_scan_matches_reference(self, test, E, k, m, l):
        L = o_line(1, 2)
        got = positivity_scan(E, L, test, n_points=3, seed=5, restarts=4, k=k, m=m, l=l)
        want = reference_positivity_scan(E, L, test, 3, 5, 4, k, m, l)
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("E,L", [
        (tangent_pn(2), o_line(1, 2)),
        (direct_sum([3, -1], 2), o_line(2, 2)),
        (tangent_pn(2), det_field(tangent_pn(2))),
        (load_metric_json(_USER_RANK2), o_line(1, 2)),
    ], ids=["tpn-o1", "dsum-o2", "tpn-det", "user-rank2"])
    def test_boundedness_scan_matches_reference(self, E, L):
        got = boundedness_scan(E, L, n_points=3, seed=2, restarts=4)
        assert got.to_json() == reference_boundedness_scan(E, L, 3, 2, 4)

    @pytest.mark.parametrize("scan", [
        lambda E, L: positivity_scan(E, L, "nakano", n_points=3, seed=1, k=2, l=1),
        lambda E, L: boundedness_scan(E, L, n_points=3, seed=1, restarts=2),
    ], ids=["positivity", "boundedness"])
    @pytest.mark.parametrize("E,L,sampled", [
        (tangent_pn(2), o_line(1, 2), 0),
        (load_metric_json(_USER_RANK2), o_line(1, 2), 0),
        (tangent_pn(2), json_line(1, 2), 1),
        (load_metric_json(_USER_RANK2), json_line(1, 2), 1),
    ], ids=["tpn", "user-rank2", "tpn-json-l", "user-rank2-json-l"])
    def test_one_metric_evaluation_per_stencil_row(self, metric_calls, scan, E, L, sampled):
        # each point samples a JSON L's stencil, then E's, h(p) of each its row 0;
        # the built-in O(1) is omega_FS in closed form and is never evaluated
        scan(E, L)
        rows = 64 * 4 + 8 * 2 + 1
        assert metric_calls == Counter({E.label: 3 * rows, L.label: 3 * rows * sampled})

    def test_points_budget_edge(self, monkeypatch):
        # n * points = 10**6 coordinates reach the draw; one more point is rejected before it
        drawn = []
        monkeypatch.setattr(positivity, "sample_points",
                            lambda n, count, seed: drawn.append(count) or [])
        positivity_scan(tangent_pn(2), o_line(1, 2), "nakano", n_points=500_000)
        with pytest.raises(ParamDomainError, match="above the budget"):
            boundedness_scan(tangent_pn(2), o_line(1, 2), n_points=500_001)
        assert drawn == [500_000]

    def test_polarization_form_one_evaluation_per_stencil_row(self, metric_calls):
        z = np.array([0.3 - 0.1j, 0.2j])
        g = polarization_form(o_line(2, 2), z)
        assert metric_calls == {}
        gj = polarization_form(json_line(2, 2), z)
        assert metric_calls == {"json-o(2)": 64 * 4 + 8 * 2 + 1}
        # O(2) has curvature 2 omega_FS
        assert np.array_equal(g, 2 * fubini_study(2, z))
        assert np.allclose(gj, g, atol=1e-7)

    def test_report_sign_rule(self):
        assert PositivityReport("nakano", 0.5, {}).to_json() == {
            "mode": "nakano", "min_value": 0.5, "witness": {}, "points": [],
            "certified_sign": "positive"}
        for val in (0.0, -1.0):
            assert PositivityReport("griffiths", val, {}).certified_sign == "nonpositive_found"


class TestExactPolarization:
    """A built-in O(c) polarizes by c omega_FS in closed form; every other line is sampled."""

    @pytest.mark.parametrize("c", [1, 2, 0.5, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_builtin_line_is_c_times_fubini_study(self, metric_calls, n, c):
        for p in sample_points(n, 4, seed=7):
            want = c * fubini_study(n, p)
            assert np.array_equal(polarization_form(o_line(c, n), p), want)
            assert np.array_equal(polarization_form(direct_sum([c], n), p), want)
        assert metric_calls == {}

    @pytest.mark.parametrize("c", [1, 2, 0.5])
    def test_json_line_matches_closed_form(self, c):
        L = json_line(c, 2)
        assert L.line_degree is None
        for p in sample_points(2, 5, seed=3):
            got = polarization_form(L, p)
            assert np.max(np.abs(got - c * fubini_study(2, p))) < 5e-10

    def test_derived_fields_inherit_no_degree(self):
        L = o_line(1, 2)
        S2 = sym_power_field(L, 2, 0)  # S^2 O(1) = O(2): rank 1, degree 2, not 1
        assert S2.rank == 1 and S2.line_degree is None
        assert det_field(L).line_degree is None
        assert frame_normalized(L, [0.1, 0.2j]).line_degree is None
        assert tangent_pn_twist(1, 2).line_degree is None
        assert direct_sum([1, 2], 2).line_degree is None
        for p in sample_points(2, 3, seed=1):
            assert np.max(np.abs(polarization_form(S2, p) - 2 * fubini_study(2, p))) < 5e-10

    @pytest.mark.parametrize("c", [0, -1])
    @pytest.mark.parametrize("scan", [
        lambda L: polarization_form(L, [0.2, 0.1j]),
        lambda L: positivity_scan(tangent_pn(2), L, "nakano", n_points=2),
        lambda L: boundedness_scan(tangent_pn(2), L, n_points=2),
    ], ids=["form", "positivity", "boundedness"])
    def test_nonpositive_line_rejected_before_any_metric_call(self, metric_calls, scan, c):
        with pytest.raises(NonpositivePolarizationError, match=rf"o\({c}\)"):
            scan(o_line(c, 2))
        assert metric_calls == {}


# benchmark user metric 5
_USER5 = {
    "rank": 2, "base_dim": 2, "label": "user5", "domain_radius": 10.0,
    "entries": [[f"{_W} * (1 + 0.714 * abs2(z1))", f"{_W} * -0.264 * z1 * conj(z2)"],
                [f"{_W} * -0.264 * conj(z1) * z2", f"{_W} * (1 + 0.468 * abs2(z2))"]],
}
_DET_FIELDS = {
    "tpn3": lambda: tangent_pn(3),
    "dsum123": lambda: direct_sum([1, 2, 3], 3),
    "tpn_twist-1": lambda: tangent_pn_twist(-1, 2),
    "user5": lambda: load_metric_json(_USER5),
}


def trace_block(E, p, k, m, l):
    """S^k E (det E)^m L^l at p against omega = tr(h(p)^-1 R), from E's curvature R."""
    R = chern_curvature(E, p)
    g = np.einsum("ijab,ba->ij", R.values, np.linalg.inv(R.samples[0]))
    block = induced_sym_det_curvature(normalize_at_point(R, g), k, m)
    return twist_by_line(block, line_curvature_tensor(np.eye(E.base_dim)), l)


_TRACE_FIELDS = {
    **{f"tpn{n}": (lambda n=n: tangent_pn(n), n + 1) for n in (2, 3, 5)},
    **{f"tpn_twist({a})": (lambda a=a: tangent_pn_twist(a, 2), 3 + 2 * a) for a in (1, -1)},
    "dsum123": (lambda: direct_sum([1, 2, 3], 3), 6),
    "dsum3-1": (lambda: direct_sum([3, -1], 2), 2),
}


class TestDetPolarization:
    """L = None polarizes by det E, the trace of E's own curvature."""

    @pytest.mark.parametrize("make,degree", _TRACE_FIELDS.values(), ids=_TRACE_FIELDS.keys())
    def test_trace_form_is_degree_times_fubini_study(self, make, degree):
        # det of a homogeneous bundle of degree d is O(d): omega = d omega_FS
        E = make()
        for p in sample_points(E.base_dim, 4, seed=2):
            got = positivity._trace_form(chern_curvature(E, p))
            assert np.max(np.abs(got - degree * fubini_study(E.base_dim, p))) <= 1e-9 * degree

    @pytest.mark.parametrize("make", _DET_FIELDS.values(), ids=_DET_FIELDS.keys())
    def test_lift_equals_det_field_curvature_bit_for_bit(self, make):
        E = make()
        for p in sample_points(E.base_dim, 3, seed=4)[1:]:
            R = chern_curvature(E, p)
            want = chern_curvature(det_field(E), p)
            lift = _sym_power_curvature(R.samples, 0, 1, "det")
            assert np.array_equal(lift, want.values)
            assert np.linalg.det(R.samples[0]).real == want.samples[0, 0, 0].real
            # the block against det E is the one built from the trace form, and it is
            # within the lift-vs-trace tolerance of the one against det_field(E)
            block = sym_twisted_curvature_at(E, None, p, 2, 1, -1).values
            assert np.array_equal(block, trace_block(E, p, 2, 1, -1).values)
            lifted = sym_twisted_curvature_at(E, det_field(E), p, 2, 1, -1).values
            assert np.max(np.abs(block - lifted)) <= 1e-8 * np.max(np.abs(lifted))

    @pytest.mark.parametrize("make", _DET_FIELDS.values(), ids=_DET_FIELDS.keys())
    def test_lift_equals_det_field_curvature_at_another_step(self, monkeypatch, make):
        # the lift is contracted at the step its samples were taken at
        monkeypatch.setattr(geometry, "_STEP", 2e-3)
        self.test_lift_equals_det_field_curvature_bit_for_bit(make)

    @pytest.mark.parametrize("make", [lambda: tangent_pn(3), lambda: tangent_pn(5),
                                      lambda: direct_sum([1, 2, 3], 3),
                                      lambda: tangent_pn_twist(-1, 2)],
                             ids=["tpn3", "tpn5", "dsum123", "tpn_twist-1"])
    def test_lift_is_the_trace_of_theta_e(self, make):
        # the paper's identity Theta_det E = tr_h Theta_E, the stored curvature of
        # det h over det h(p)
        E = make()
        for p in sample_points(E.base_dim, 2, seed=9):
            R = chern_curvature(E, p)
            trace = np.einsum("ijab,ba->ij", R.values, np.linalg.inv(R.samples[0]))
            lift = (_sym_power_curvature(R.samples, 0, 1, "det")[:, :, 0, 0]
                    / np.linalg.det(R.samples[0]).real)
            assert np.max(np.abs(lift - trace)) <= 1e-8 * np.max(np.abs(trace))

    @pytest.mark.parametrize("scan", [
        lambda E: positivity_scan(E, None, "nakano", n_points=3, seed=1, k=2, m=1, l=1),
        lambda E: boundedness_scan(E, None, n_points=3, seed=1, restarts=2),
    ], ids=["positivity", "boundedness"])
    @pytest.mark.parametrize("E", [tangent_pn(2), direct_sum([1, 2], 2)],
                             ids=["tpn", "dsum12"])
    def test_one_metric_evaluation_per_stencil_row_of_e(self, metric_calls, scan, E):
        # det E is the trace of E's curvature: E once per stencil row, no second field
        scan(E)
        assert metric_calls == {E.label: 3 * (64 * 4 + 8 * 2 + 1)}

    def test_bounds_of_a_sum_against_its_det(self):
        cert = boundedness_scan(direct_sum([1, 2, 3], 3), None, n_points=2, seed=0, restarts=6)
        assert abs(cert.eps1 - 1 / 6) < 1e-6
        assert abs(cert.eps2 - 1 / 2) < 1e-6

    def test_nonpositive_det_rejected(self):
        with pytest.raises(NonpositivePolarizationError, match=r"det\(dsum\(1,-3\)\)"):
            boundedness_scan(direct_sum([1, -3], 2), None, n_points=1)


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
        rep = estimate_check(2.5 * np.eye(3), 2, 2)
        assert abs(rep["slack"]) < 1e-9

    def test_positive_on_sym_bundle_top_degree(self):
        # (n, q) forms with q >= 1 valued in S^1 TP^2 det TP^2: T(u,u) > 0
        g = fubini_study(2, np.zeros(2))
        Rn = normalize_at_point(chern_curvature(tangent_pn(2), np.zeros(2)), g)
        S = induced_sym_det_curvature(Rn, 1, 1)
        gram_ok = np.allclose(S.gram, 1)
        assert gram_ok
        for q in (1, 2):
            for seed in range(5):
                u = Form.random(2, 2, q, S.rank, seed=(61, 10 * q + seed))
                assert curvature_term(S, u) > 0

    def test_bidegree_error(self):
        with pytest.raises(BidegreeError):
            Form.zero(2, 3, 0)


def _kron_bochner(phi, p, q):
    """The Bochner term on (p, q)-forms as a matrix on their coefficient vectors (x, y):
    W_p x Id + Id x conj(W_q) - tr phi Id."""
    Wp, Wq = _wedge_derivation(phi, p), _wedge_derivation(phi, q)
    return (np.kron(Wp, np.eye(len(Wq))) + np.kron(np.eye(len(Wp)), Wq.conj())
            - phi.trace().real * np.eye(len(Wp) * len(Wq)))


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
            assert estimate_check(phi, p, q)["slack"] >= -1e-9

    def test_bad_bidegree(self):
        with pytest.raises(BidegreeError):
            estimate_check(np.eye(2), 3, 0)

    def test_negative_seed_rejected(self):
        # numpy would wrap -1 to 2**64 - 1 inside a key array
        with pytest.raises(ParamDomainError, match="not a Philox key"):
            verify_estimate(2, 1, seed=-1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exact_minimum_is_the_lowest_eigenvalue_sums(self, n):
        # W_q's eigenvalues are the sums of q eigenvalues of phi, so the minimum over
        # forms is the p lowest plus the q lowest minus tr phi; n = 1, q = 0 has a
        # wedge map with no columns
        assert _interior_map(1, 0).shape == (1, 1, 0)
        for p in range(n + 1):
            for q in range(n + 1):
                phi = random_hermitian(n, seed=(90 + n, 10 * p + q))
                lam = np.linalg.eigvalsh(phi)
                want = lam[:p].sum() + lam[:q].sum() - lam.sum()  # lam ascending
                rep = estimate_check(phi, p, q)
                assert abs(rep["slack"] + rep["bound"] - want) <= 1e-9 * (1 + np.abs(lam).sum())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_kronecker_sum_is_the_curvature_term(self, n):
        phi = random_hermitian(n, seed=(95, n))
        R = line_curvature_tensor(phi)
        for p in range(n + 1):
            for q in range(n + 1):
                M = _kron_bochner(phi, p, q)
                for t in range(3):
                    u = Form.random(n, p, q, 1, seed=(96 + t, 100 * n + 10 * p + q))
                    c = u.coeffs.reshape(-1)
                    want = curvature_term(R, u)
                    got = c.conj() @ M @ c
                    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_verify_draws_no_form(self, monkeypatch):
        # verify --what estimate prints this harness's report (test_cli checks that)
        def fail(*_, **__):
            raise AssertionError("the exact estimate drew or evaluated a form")

        monkeypatch.setattr(Form, "random", fail)
        monkeypatch.setattr(positivity, "curvature_term", fail)
        assert verify_estimate(3, 60, 0)["ok"]

    @pytest.mark.parametrize("n,seed", [(1, 5), (2, 1), (3, 0), (3, 7), (4, 3), (6, 2)])
    def test_one_case_per_chunk_gives_the_same_report(self, monkeypatch, n, seed):
        # every case of n <= 6 fits one chunk by default; a budget of 1 byte runs one
        # case per chunk, so a case's bits do not depend on the cases beside it
        want = verify_estimate(n, 60, seed)
        assert limits._CHUNK_BYTES // (16 * check_form_budget(n)) >= 60
        monkeypatch.setattr(limits, "_CHUNK_BYTES", 1)
        assert verify_estimate(n, 60, seed) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_case_is_the_closed_form(self, monkeypatch, n):
        # each stacked case against its own eigenvalues: the p lowest plus the q
        # lowest minus tr phi, minus max{p l1 - (n-q) ln, q l1 - (n-p) ln}
        seen, kernel = [], positivity._bochner_slacks

        def spy(phi, p, q):
            bound, slack = kernel(phi, p, q)
            seen.extend(zip(phi, p, q, bound, slack))
            return bound, slack

        monkeypatch.setattr(positivity, "_bochner_slacks", spy)
        rep = verify_estimate(n, 200, seed=11)
        assert len(seen) == 200 and {int(p) for _, p, _, _, _ in seen} == set(range(n + 1))
        for phi, p, q, bound, slack in seen:
            lam = np.linalg.eigvalsh(phi)
            want = max(p * lam[0] - (n - q) * lam[-1], q * lam[0] - (n - p) * lam[-1])
            assert abs(bound - want) <= 1e-9
            low = lam[:p].sum() + lam[:q].sum() - phi.trace().real
            assert abs(slack - (low - want)) <= 1e-9
        assert rep["worst_slack"] == min(slack for *_, slack in seen)

    def test_memory_does_not_grow_with_trials(self, monkeypatch):
        # --trials 10**7 --n 2, stopped after its first chunk: one (trials, n, n) complex
        # array alone would be 640 MB
        class Stop(Exception):
            pass

        chunks, kernel = [], positivity._bochner_slacks

        def spy(phi, p, q):
            chunks.append(len(phi))
            kernel(phi, p, q)
            raise Stop

        monkeypatch.setattr(positivity, "_bochner_slacks", spy)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                verify_estimate(2, 10**7, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks == [limits._CHUNK_BYTES // (16 * check_form_budget(2))]
        assert peak <= 8 * limits._CHUNK_BYTES

    def test_top_of_the_form_budget(self):
        # n = 11: 11 C(11, 5)^2 = 2 347 884 entries, within MAX_SYM_MAP_ENTRIES
        for seed in (0, 1):
            rep = verify_estimate(11, 1, seed)
            assert rep["ok"] and rep["n"] == 11 and rep["trials"] == 1
