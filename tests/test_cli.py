import contextlib
import gc
import io
import json
import weakref
import xml.dom.minidom
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from poslab import bundles, geometry, moments, oracles, positivity, regions, symbundle
from poslab.cli import main
from poslab.errors import ParamDomainError
from poslab.positivity import estimate_check
from test_regions import reference_members


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    payload = json.loads(result.output) if result.output.strip() else None
    return result, payload


class TestRegionCommand:
    def test_gg_region(self, runner):
        result, payload = run_json(runner, [
            "region", "--n", "5", "--r", "3", "--k", "1", "--m", "5", "--theorem", "gg"])
        assert result.exit_code == 0
        assert payload["schema"] == 1
        assert payload["lambda0"] == "1/2"
        assert [2, 4] in payload["members"]
        assert payload["vertices"]["A3"] == ["10/3", "10/3"]

    def test_main1_equal_eps(self, runner):
        result, payload = run_json(runner, [
            "region", "--n", "3", "--r", "2", "--k", "1", "--m", "2",
            "--theorem", "main1", "--eps1", "1", "--eps2", "1"])
        assert result.exit_code == 0
        assert payload["lambda0"] == "1"
        assert payload["s0"] == "0"

    def test_param_domain_exit_2(self, runner):
        result, payload = run_json(runner, [
            "region", "--n", "2", "--r", "2", "--k", "1", "--m", "0", "--theorem", "ample"])
        assert result.exit_code == 2
        assert payload["error"]["code"] == "PARAM_DOMAIN"
        assert "k+r+1" in payload["error"]["message"]

    def test_deterministic_output(self, runner):
        args = ["region", "--n", "4", "--r", "2", "--k", "2", "--m", "6", "--theorem", "gg"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2

    def test_svg_written(self, runner, tmp_path):
        svg = tmp_path / "region.svg"
        result = runner.invoke(main, [
            "region", "--n", "3", "--r", "1", "--k", "1", "--m", "3",
            "--theorem", "gg", "--svg", str(svg)])
        assert result.exit_code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "A3" in text
        xml.dom.minidom.parseString(text)

    def test_output_file_matches_stdout(self, runner, tmp_path):
        out = tmp_path / "r.json"
        result = runner.invoke(main, [
            "region", "--n", "3", "--r", "1", "--k", "1", "--m", "3",
            "--theorem", "gg", "--output", str(out)])
        assert result.exit_code == 0
        assert out.read_text() == result.output

    @pytest.mark.parametrize("args,theorem,lam", [
        (["--n", "5", "--r", "3", "--k", "1", "--m", "5", "--theorem", "gg"],
         "globally_generated", Fraction(1, 2)),
        (["--n", "7", "--m", "1", "--theorem", "gg"], "globally_generated", Fraction(0)),
        (["--n", "3", "--m", "1", "--theorem", "gg"], "globally_generated", Fraction(0)),
        (["--n", "200", "--r", "3", "--k", "2", "--m", "6", "--theorem", "gg"],
         "globally_generated", Fraction(1, 2)),
        (["--n", "6", "--r", "2", "--k", "1", "--m", "2", "--theorem", "main1",
          "--eps1", "0", "--eps2", "1"], "main1", Fraction(2, 5)),
        (["--n", "4", "--r", "2", "--k", "1", "--m", "6", "--theorem", "ample"],
         "ample_nef", Fraction(2, 11)),
        (["--n", "40", "--r", "3", "--k", "2", "--m", "6", "--theorem", "griffiths"],
         "griffiths", Fraction(1, 2)),
    ], ids=["gg", "gg-m1", "gg-m1-n3", "gg-n200", "main1", "ample", "griffiths-n40"])
    def test_stdout_is_the_definition_serialized(self, runner, args, theorem, lam):
        # the bytes json.dumps writes for a report built from the region's
        # definition; the m = 1 branch vanishes at (n, n) alone
        opts = dict(zip(args[::2], args[1::2]))
        n, m = int(opts["--n"]), int(opts["--m"])
        members = {(n, n)} if m == 1 else reference_members(n, lam)
        c0 = str(n / (1 + lam))
        report = {
            "schema": 1,
            "params": {"n": n, "r": int(opts.get("--r", 1)), "k": int(opts.get("--k", 1)),
                       "m": m, "theorem": theorem,
                       "eps1": opts.get("--eps1"), "eps2": opts.get("--eps2")},
            "n": n,
            "lambda0": str(lam),
            "s0": str(2 * n / (1 + lam) - n),
            "members": [[p, q] for p, q in sorted(members)],
            "vertices": {"A0": [0, n], "A1": [n, n], "A2": [n, 0], "A3": [c0, c0]},
        }
        result = runner.invoke(main, ["region", *args])
        assert result.exit_code == 0
        assert result.output == json.dumps(report, sort_keys=True, indent=2) + "\n"


class TestCertifyCommand:
    def test_griffiths_tpn(self, runner):
        result, payload = run_json(runner, [
            "certify", "--bundle", "tpn", "--n", "2", "--test", "griffiths",
            "--points", "3", "--restarts", "6"])
        assert result.exit_code == 0
        rep = payload["report"]
        assert abs(rep["min_value"] - 1.0) < 1e-6
        assert rep["certified_sign"] == "positive"

    def test_bounds_tpn(self, runner):
        result, payload = run_json(runner, [
            "certify", "--bundle", "tpn", "--n", "2", "--test", "bounds",
            "--points", "5", "--restarts", "6"])
        assert result.exit_code == 0
        cert = payload["certificate"]
        assert abs(cert["eps1"] - 1.0) < 1e-6
        assert abs(cert["eps2"] - 2.0) < 1e-6

    def test_nakano_twisted_sym(self, runner):
        result, payload = run_json(runner, [
            "certify", "--bundle", "tpn", "--n", "2", "--test", "nakano",
            "--sym", "2", "--det", "0", "--twist", "-1", "--points", "2"])
        assert result.exit_code == 0
        assert abs(payload["report"]["min_value"]) < 1e-6

    @pytest.mark.parametrize("args,eps1,eps2", [
        # a JSON line polarization is differentiated on its stencil: O(1) as JSON
        (["--bundle", "tpn", "--n", "2", "--l",
          '{"rank": 1, "base_dim": 2, "entries": [["(1 + abs2(z1) + abs2(z2)) ** -1"]]}'], 1, 2),
        # the built-in O(c) polarizes by c omega_FS in closed form
        (["--bundle", "tpn", "--n", "3", "--l", "o(2)"], Fraction(1, 2), 1),
        # det(O(1) + O(2) + O(3)) = O(6)
        (["--bundle", "dsum(1,2,3)", "--n", "3", "--l", "det"], Fraction(1, 6), Fraction(1, 2)),
        # det TP^3 = O(4), and det (TP^2 (x) O(1)) = O(5) against curvature between 2 and 3
        (["--bundle", "tpn", "--n", "3", "--l", "det"], Fraction(1, 4), Fraction(1, 2)),
        (["--bundle", "tpn_twist(1)", "--n", "2", "--l", "det"], Fraction(2, 5), Fraction(3, 5)),
    ], ids=["tpn-json-o1", "tpn3-o2", "dsum123-det", "tpn3-det", "tpn_twist1-det"])
    def test_bounds_closed_form(self, runner, args, eps1, eps2):
        result, payload = run_json(runner, ["certify", *args, "--test", "bounds", "--points", "2"])
        assert result.exit_code == 0, result.output
        cert = payload["certificate"]
        assert abs(cert["eps1"] - eps1) < 1e-6 and abs(cert["eps2"] - eps2) < 1e-6, cert

    @pytest.mark.parametrize("args,value,tol", [
        # the n = r = 10 frame change of normalize_at_point; Nakano of tpn is exactly 0
        (["--n", "10", "--test", "nakano", "--points", "1"], 0, 1e-8),
        # F = 35 runs the 40 Griffiths restarts in several chunks; the minimum is k = 3
        (["--n", "5", "--test", "griffiths", "--sym", "3", "--points", "1", "--restarts", "40"],
         3, 1e-6),
        # k(1+a) + m(n+1+na) + l = 3 at k = 3, a = m = l = 0, at every point
        (["--n", "5", "--test", "griffiths", "--sym", "3", "--points", "2"], 3, 1e-6),
    ], ids=["nakano-n10", "griffiths-F35-restarts-40", "griffiths-F35-points-2"])
    def test_tpn_minimum_is_closed_form(self, runner, args, value, tol):
        result, payload = run_json(runner, ["certify", "--bundle", "tpn", *args])
        assert result.exit_code == 0, result.output
        assert abs(payload["report"]["min_value"] - value) <= tol

    @pytest.mark.parametrize("test", ["nakano", "dual"])
    def test_o1_sym_19_is_o19(self, runner, test):
        # the largest rank-1 S^k whose integer maps fit in int64: 20! and 19 * 19!
        result, payload = run_json(runner, [
            "certify", "--bundle", "o(1)", "--n", "1", "--test", test, "--sym", "19",
            "--points", "1"])
        assert result.exit_code == 0, result.output
        assert abs(payload["report"]["min_value"] - 19) < 1e-6

    def test_user_metric_json(self, runner, tmp_path):
        spec = {"rank": 1, "base_dim": 1,
                "entries": [["(1 + abs2(z1)) ** -2"]], "label": "user-o2"}
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(spec))
        result, payload = run_json(runner, [
            "certify", "--bundle", str(path), "--n", "1", "--test", "griffiths",
            "--points", "2"])
        assert result.exit_code == 0
        assert abs(payload["report"]["min_value"] - 2.0) < 1e-6

    def test_det_polarization(self, runner):
        result, payload = run_json(runner, [
            "certify", "--bundle", "dsum(3,-1)", "--n", "2", "--test", "bounds",
            "--l", "det", "--points", "3", "--restarts", "6"])
        assert result.exit_code == 0
        assert payload["polarization"] == "det(dsum(3,-1))"
        cert = payload["certificate"]
        assert abs(cert["eps1"] + 0.5) < 1e-6
        assert abs(cert["eps2"] - 1.5) < 1e-6

    @pytest.mark.parametrize("test", ["nakano", "dual", "bounds", "griffiths"])
    def test_polarization_near_the_float_maximum_runs_warning_free(self, runner, test):
        # omega = 1e308 omega_FS is symmetrized without overflow; filterwarnings = error
        # would turn a numpy overflow warning into exit 1
        result, payload = run_json(runner, ["certify", "--bundle", "tpn", "--n", "2", "--test",
                                            test, "--l", "o(1e308)", "--points", "2"])
        assert result.exit_code == 0, result.output
        assert payload["polarization"] == "o(1e+308)"

    def test_builtin_id_wins_over_same_named_path(self, runner, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tpn").mkdir()
        result, payload = run_json(runner, [
            "certify", "--bundle", "tpn", "--n", "2", "--test", "nakano", "--points", "1"])
        assert result.exit_code == 0, result.output
        assert payload["bundle"] == "tpn"
        (tmp_path / "o(1)").write_text(json.dumps(
            {"rank": 1, "base_dim": 2, "entries": [["(1 + abs2(z1) + abs2(z2)) ** -2"]],
             "label": "file-o(1)"}))
        for ident, label in (("o(1)", "o(1)"), ("./o(1)", "file-o(1)")):
            result, payload = run_json(runner, [
                "certify", "--bundle", ident, "--n", "2", "--test", "nakano", "--points", "1"])
            assert result.exit_code == 0, result.output
            assert payload["bundle"] == label

    def test_small_well_conditioned_metric_is_not_singular(self, runner):
        # h = (1 + |z|^2)^-20 falls below 1e-12 at |z| = 2, yet a line bundle
        # metric has condition number 1
        result, payload = run_json(runner, [
            "certify", "--bundle", "o(20)", "--n", "2", "--test", "nakano", "--points", "8"])
        assert result.exit_code == 0, result.output
        assert payload["points_scanned"] == 8
        assert abs(payload["report"]["min_value"] - 20.0) < 1e-6


class TestVerifyCommand:
    def test_moments_ok(self, runner):
        result, payload = run_json(runner, [
            "verify", "--what", "moments", "--r", "2", "--k", "1",
            "--samples", "20000", "--seed", "3"])
        assert result.exit_code == 0
        assert payload["ok"] is True

    def test_lemma_linear_ok(self, runner):
        for n_k in ("2", "3"):
            result, payload = run_json(runner, [
                "verify", "--what", "lemma-linear", "--bundle", "tpn", "--n", n_k,
                "--k", n_k, "--m", "1"])
            assert result.exit_code == 0, result.output
            assert payload["ok"] is True
            assert payload["dev_algebra_vs_fd"] < 1e-6

    @pytest.mark.parametrize("args", [
        ["--bundle", "o(1)", "--n", "2", "--k", "3", "--m", "2"],
        ["--bundle", "dsum(2)", "--k", "2", "--m", "2"],
    ], ids=["o1-k3", "dsum2-k2"])
    def test_lemma_linear_rank_one_ok(self, runner, args):
        # rank 1: the quadrature integrand is constant on the sphere
        result, payload = run_json(runner, ["verify", "--what", "lemma-linear", *args])
        assert result.exit_code == 0, result.output
        assert payload["ok"] is True

    @pytest.mark.parametrize("what,default,key", [
        ("moments", 100000, "worst_over_3sigma"),
        ("lemma-linear", 20000, "mc_worst_over_3sigma"),
    ])
    def test_samples_flag_reaches_the_harness(self, runner, what, default, key):
        args = ["verify", "--what", what, "--seed", "1"]
        omitted = runner.invoke(main, args)
        assert omitted.output == runner.invoke(main, [*args, "--samples", str(default)]).output
        result, payload = run_json(runner, [*args, "--samples", "2000"])
        assert result.exit_code == 0, result.output
        assert payload[key] != json.loads(omitted.output)[key]

    def test_lemma_linear_indefinite_metric_exit_2(self, runner):
        # the metric has eigenvalues 3 and -1 at every point
        bundle = json.dumps({"rank": 2, "base_dim": 2, "entries": [["1", "2"], ["2", "1"]]})
        for args in (["verify", "--what", "lemma-linear", "--n", "2", "--k", "2"],
                     ["certify", "--n", "2", "--test", "nakano"]):
            result, payload = run_json(runner, args + ["--bundle", bundle])
            assert result.exit_code == 2
            assert payload["error"]["code"] == "SINGULAR_METRIC"

    def test_estimate_ok(self, runner):
        result, payload = run_json(runner, [
            "verify", "--what", "estimate", "--n", "2", "--trials", "200"])
        assert result.exit_code == 0
        assert payload["worst_slack"] >= -1e-9

    @pytest.mark.parametrize("trials", [10, 120])
    def test_estimate_reports_the_trials_it_ran(self, runner, monkeypatch, trials):
        ran = []

        def counting(*args, **kwargs):
            ran.append(kwargs["trials"])
            return estimate_check(*args, **kwargs)

        monkeypatch.setattr(positivity, "estimate_check", counting)
        result, payload = run_json(runner, [
            "verify", "--what", "estimate", "--n", "2", "--trials", str(trials)])
        assert result.exit_code == 0
        assert payload["trials"] == sum(ran) == trials

    @pytest.mark.parametrize("seed", [0, 7])
    def test_estimate_is_the_library_harness(self, runner, seed):
        result, payload = run_json(runner, ["verify", "--what", "estimate", "--n", "3",
                                            "--trials", "120", "--seed", str(seed)])
        assert result.exit_code == 0
        assert payload == {"schema": 1, "what": "estimate",
                           **positivity.verify_estimate(3, 120, seed)}

    @pytest.mark.parametrize("trials,code", [(100, 2), (50, 0)])
    def test_estimate_seed_range_checked_before_the_first_batch(self, runner, monkeypatch,
                                                                 trials, code):
        # at seed 2**64 - 1 the second batch of 50 would key its forms by (2**64, t)
        ran = []
        monkeypatch.setattr(positivity, "estimate_check", lambda *a, **kw: ran.append(kw["trials"])
                            or estimate_check(*a, **kw))
        result, payload = run_json(runner, ["verify", "--what", "estimate", "--n", "3",
                                            "--trials", str(trials), "--seed", str(2**64 - 1)])
        assert result.exit_code == code
        if code == 2:
            assert payload["error"]["code"] == "PARAM_DOMAIN" and ran == []
        else:
            assert payload["trials"] == sum(ran) == 50


class TestMomentsCommand:
    def test_single_pair(self, runner):
        result, payload = run_json(runner, [
            "moments", "--r", "2", "--a", "1", "--b", "1", "--samples", "5000"])
        assert result.exit_code == 0
        assert payload["exact"] == "1/2"
        assert abs(payload["mc"][0] - 0.5) <= max(3 * payload["stderr"], 1e-12)


class TestOracleCommand:
    def test_grassmannian(self, runner):
        result, payload = run_json(runner, [
            "oracle", "--family", "grassmannian", "--d", "4", "--r", "3", "--k", "2"])
        assert result.exit_code == 0
        nonzero = [d for d in payload["dims"] if d["dim"] > 0]
        assert nonzero == [{"p": 3, "q": 2, "dim": 4,
                            "source": "grassmannian(d=4,r=3,k=2)"}]

    def test_bott(self, runner):
        result, payload = run_json(runner, [
            "oracle", "--family", "bott", "--n", "2", "--p", "0", "--q", "0", "--l", "3"])
        assert result.exit_code == 0
        assert payload["dim"] == 10

    @pytest.mark.parametrize("args,missing", [
        (["--family", "bott", "--n", "2", "--q", "0"], "bott oracle needs --p --l"),
        (["--family", "grassmannian", "--d", "4"], "grassmannian oracle needs --r --k"),
        (["--family", "grassmannian"], "grassmannian oracle needs --d --r --k"),
    ], ids=["bott-p-l", "grassmannian-r-k", "grassmannian-all"])
    def test_missing_flags_are_named(self, runner, args, missing):
        result = runner.invoke(main, ["oracle", *args])
        assert result.exit_code == 2
        assert result.output.rstrip().endswith(f"Error: {missing}")


class TestCheckCommand:
    def test_inapplicable_boundary(self, runner):
        result, payload = run_json(runner, [
            "check", "--n", "3", "--k", "2", "--l", "-1"])
        assert result.exit_code == 0
        assert payload["status"] == "INAPPLICABLE"

    def test_applicable(self, runner):
        result, payload = run_json(runner, ["check", "--n", "2", "--k", "1", "--l", "1"])
        assert result.exit_code == 0
        assert payload["status"] == "PASS"

    @pytest.mark.parametrize("n,k", [("0", "1"), ("3", "0")])
    def test_n_or_k_below_1_names_the_flags(self, runner, n, k):
        # not the oracle's "1 <= r < d" or "k >= 1", which the user never passed
        result, payload = run_json(runner, ["check", "--n", n, "--k", k, "--l", "1"])
        assert result.exit_code == 2
        assert payload["error"]["message"] == f"need --n >= 1 and --k >= 1, got --n {n} and --k {k}"


class TestConfigDefaults:
    def test_config_file_supplies_missing_flags(self, runner, tmp_path):
        # config mapping is wired through the group; commands with explicit
        # flags still take precedence and run identically
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7}))
        args = ["--config", str(cfg), "region", "--n", "3", "--r", "1",
                "--k", "1", "--m", "3", "--theorem", "gg"]
        result, payload = run_json(runner, args)
        assert result.exit_code == 0
        assert payload["lambda0"] == "1/2"

    def test_config_fills_an_omitted_required_flag(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3}))
        region = ["region", "--r", "1", "--k", "1", "--m", "3", "--theorem", "gg"]
        result, payload = run_json(runner, ["--config", str(cfg), *region])
        assert result.exit_code == 0
        assert payload["params"]["n"] == 3
        result, payload = run_json(runner, ["--config", str(cfg), *region, "--n", "4"])
        assert result.exit_code == 0
        assert payload["params"]["n"] == 4

    def test_config_value_for_an_unread_flag_is_ignored(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sym": 2}))
        result, payload = run_json(runner, [
            "--config", str(cfg), "certify", "--bundle", "tpn", "--n", "2", "--test", "bounds",
            "--points", "1"])
        assert result.exit_code == 0, result.output
        assert abs(payload["certificate"]["eps1"] - 1.0) < 1e-6

    def test_config_eps_is_read_by_main1_alone(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps1": "1/2", "eps2": "1"}))
        region = ["--config", str(cfg), "region", "--n", "3", "--m", "3", "--theorem"]
        result, payload = run_json(runner, [*region, "gg"])
        assert result.exit_code == 0, result.output
        assert payload["params"]["eps1"] is payload["params"]["eps2"] is None
        assert payload["lambda0"] == "1/2"
        result, payload = run_json(runner, [*region, "main1"])
        assert result.exit_code == 0, result.output
        assert [payload["params"]["eps1"], payload["params"]["eps2"]] == ["1/2", "1"]
        assert payload["lambda0"] == "4/5"

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json"], ids=["array", "not-json"])
    def test_config_not_an_object_exit_2(self, runner, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        result, payload = run_json(runner, [
            "--config", str(cfg), "region", "--n", "3", "--theorem", "gg"])
        assert result.exit_code == 2
        assert payload["error"]["code"] == "PARAM_DOMAIN"


def _metric(**spec):
    return json.dumps({"rank": 1, "base_dim": 2, "entries": [["1 + abs2(z1)"]], **spec})


def _sum_metric(terms):
    """A metric entry of ``terms`` summands, a left-nested chain of that depth."""
    return _metric(entries=[["+".join(["1"] + ["abs2(z1)"] * (terms - 1))]])


# the curvature stencil buffer (64n^2 + 8n + 1) r^2: 8.3e8 entries for tpn on
# n = 60, 1.4e8 for S^4 of tpn on n = 7 (r = 210)
STENCIL_OVER_BUDGET = {
    "certify-stencil-over-budget":
        ["certify", "--bundle", "tpn", "--n", "60", "--test", "nakano", "--points", "1"],
    "lemma-linear-stencil-over-budget":
        ["verify", "--what", "lemma-linear", "--bundle", "tpn", "--n", "60", "--k", "1"],
    "lemma-linear-sym-stencil-over-budget":
        ["verify", "--what", "lemma-linear", "--bundle", "tpn", "--n", "7", "--k", "4"],
}


# S^k of a rank-1 bundle above k = 19: its integer maps would hold (k+1)! and k k!
SYM_INT64_RANGE = {
    **{f"certify-o1-sym-{k}": ["certify", "--bundle", "o(1)", "--n", "1", "--test", "nakano",
                               "--sym", str(k), "--points", "1"] for k in (20, 21)},
    **{f"lemma-linear-o1-k-{k}": ["verify", "--what", "lemma-linear", "--bundle", "o(1)",
                                  "--n", "1", "--k", str(k)] for k in (20, 21)},
}

# inputs whose derived counts (stencil entries, dim S^k E, moment-table indices) have
# more digits than Python prints, and an n whose origin alone numpy cannot size
_DIGITS_3000, _DIGITS_2000 = str(10**3000), str(10**2000)
HUGE_COUNTS = {
    "certify-n-3001-digits":
        ["certify", "--bundle", "tpn", "--n", _DIGITS_3000, "--test", "nakano"],
    "json-metric-base-dim-3001-digits":
        ["certify", "--bundle", f'{{"rank": 1, "base_dim": {_DIGITS_3000}, "entries": [["1"]]}}',
         "--n", _DIGITS_3000, "--test", "nakano"],
    "certify-sym-2001-digits": ["certify", "--bundle", "tpn", "--n", "5", "--test", "nakano",
                                "--sym", _DIGITS_2000, "--points", "1"],
    "lemma-linear-k-2001-digits": ["verify", "--what", "lemma-linear", "--bundle", "tpn",
                                   "--n", "5", "--k", _DIGITS_2000],
    "moments-k-2001-digits": ["verify", "--what", "moments", "--r", "3", "--k", _DIGITS_2000],
    "lemma-linear-n-2^60": ["verify", "--what", "lemma-linear", "--n", str(2**60)],
}


# ints of thousands of digits reach the library's rejections only from Python, because
# click rejects them first; each message prints them short instead of failing to
_H = 10**5000
HUGE_INT_CALLS = {
    "stencil-n": lambda: geometry.check_stencil_budget(_H, 1, "x"),
    "stencil-r": lambda: geometry.check_stencil_budget(2, _H, "x"),
    "stencil-n-3001-digits": lambda: geometry.check_stencil_budget(10**3000, 1, "x"),
    "sym-budget-k": lambda: symbundle.check_sym_budget(2, _H),
    "sym-budget-r": lambda: symbundle.check_sym_budget(_H, 2),
    "sym-budget-negative-r": lambda: symbundle.check_sym_budget(-_H, 2),
    "sym-basis-negative-r": lambda: symbundle.sym_basis(-_H, 1),
    "moment-table-k": lambda: moments.moment_mc_table(3, _H, 100),
    "moment-table-r": lambda: moments.moment_mc_table(_H, 2, 100),
    "moment-scale": lambda: moments._moment_scale(_H),
    "samples-negative": lambda: moments.check_samples(-_H),
    "region-n": lambda: regions.check_region_n(_H),
    "restarts-negative": lambda: positivity.check_restarts(-_H),
    "form-budget": lambda: positivity.check_form_budget(_H),
    "estimate-negative-n": lambda: positivity.verify_estimate(-_H, 1),
    "sample-points-negative-n": lambda: geometry.sample_points(-_H, 1),
    "grassmannian-d": lambda: oracles.grassmannian_nonvanishing(_H, 1, 1),
}


@pytest.mark.parametrize("call", list(HUGE_INT_CALLS.values()), ids=list(HUGE_INT_CALLS))
def test_huge_int_rejected_with_a_short_message(call):
    with pytest.raises(ParamDomainError) as info:
        call()
    assert len(str(info.value)) < 300

# (r-1)! above the float range at r = 200 and r = 1000; at r = 2, k = 999 the
# moments table prints F^2 * k = 999 000 000 indices
MOMENTS_OVER_RANGE = {
    "moments-scale-over-float-range":
        ["moments", "--r", "200", "--a", "1", "--b", "1", "--samples", "100"],
    "moments-table-scale-over-float-range":
        ["verify", "--what", "moments", "--r", "1000", "--k", "1", "--samples", "100"],
    "moments-table-indices-over-budget":
        ["verify", "--what", "moments", "--r", "2", "--k", "999", "--samples", "100"],
}


# seeds numpy's Philox cannot key, and coefficients that no float holds
_BAD_SEEDS = {"negative": "-1", "2^128": str(2**128)}
_HUGE = str(10**320)
SEED_AND_RANGE = {
    **{f"certify-seed-{name}": ["certify", "--bundle", "tpn", "--n", "2", "--test", "nakano",
                                "--points", "1", "--seed", seed]
       for name, seed in _BAD_SEEDS.items()},
    **{f"verify-{what}-seed-{name}": ["verify", "--what", what, "--seed", seed]
       for what in ("moments", "lemma-linear", "estimate") for name, seed in _BAD_SEEDS.items()},
    "moments-seed-negative": ["moments", "--r", "2", "--a", "1", "--b", "1", "--seed", "-1"],
    # estimate keys its forms by the pair (seed + batch, trial) of 64-bit ints
    "verify-estimate-seed-2^64": ["verify", "--what", "estimate", "--n", "2", "--trials", "1",
                           "--seed", str(2**64)],
    **{f"certify{flag}-321-digits": ["certify", "--bundle", "tpn", "--n", "2", "--test", "nakano",
                                     "--points", "1", flag, value]
       for flag, value in (("--det", _HUGE), ("--twist", "-" + _HUGE))},
    "lemma-linear-m-321-digits": ["verify", "--what", "lemma-linear", "--m", _HUGE],
}
# h(p) = [[1, 5], [0, 1]]: eigvalsh and cholesky read one triangle, and each
# triangle alone is positive definite
_SKEW = '{"rank": 2, "base_dim": 1, "entries": [["1", "5"], ["0", "1"]], "label": "skew"}'

BAD_INPUT = [
    *(pytest.param(args, "PARAM_DOMAIN", id=name) for name, args in MOMENTS_OVER_RANGE.items()),
    *(pytest.param(args, "PARAM_DOMAIN", id=name) for name, args in SEED_AND_RANGE.items()),
    *(pytest.param([*args, "--bundle", _SKEW, "--n", "1"], "SINGULAR_METRIC", id=f"{name}-skew")
      for name, args in (("certify", ["certify", "--test", "nakano", "--points", "2"]),
                         ("lemma-linear", ["verify", "--what", "lemma-linear"]))),
    pytest.param(["moments", "--r", "3", "--a", "1,2", "--b", "1,2", "--samples", "50"],
                 "PARAM_DOMAIN", id="too-few-samples"),
    pytest.param(["moments", "--r", "3", "--a", "1,4", "--b", "1,4"], "PARAM_DOMAIN",
                 id="index-above-rank"),
    *(pytest.param(["verify", "--what", what, "--samples", "50"], "PARAM_DOMAIN",
                   id=f"verify-{what}-too-few-samples") for what in ("moments", "lemma-linear")),
    *(pytest.param(["verify", "--what", "lemma-linear", "--bundle", ident, "--n", n],
                   "PARAM_DOMAIN", id=f"lemma-linear-{ident}-n{n}")
      for ident, n in (("o(1)", "0"), ("dsum(1,2)", "-1"))),
    pytest.param(["verify", "--what", "moments", "--r", "0", "--k", "1"], "PARAM_DOMAIN",
                 id="rank-0"),
    pytest.param(["verify", "--what", "estimate", "--n", "0"], "PARAM_DOMAIN",
                 id="estimate-n-0"),
    pytest.param(["certify", "--bundle", '{"rank":1}', "--n", "2", "--test", "nakano"],
                 "PARAM_DOMAIN", id="metric-missing-keys"),
    # the field itself rejects base_dim -1, before the load-time probe at z = 0.1
    pytest.param(["certify", "--bundle", '{"rank": 1, "base_dim": -1, "entries": [["1"]]}',
                  "--n", "-1", "--test", "nakano"], "PARAM_DOMAIN", id="metric-base-dim-negative"),
    pytest.param(["certify", "--bundle", '{"rank": 0, "base_dim": 2, "entries": []}',
                  "--n", "2", "--test", "nakano"], "PARAM_DOMAIN", id="metric-rank-0"),
    # rank and base_dim are JSON integers: no float, bool or string is coerced
    *(pytest.param(["certify", "--bundle", f'{{"rank": {rank}, "base_dim": {dim}, '
                    f'"entries": [["1"]]}}', "--n", "2", "--test", "nakano"], "PARAM_DOMAIN",
                   id=f"metric-{name}")
      for name, rank, dim in (("rank-1e400", "1e400", "2"), ("base-dim-2.5", "1", "2.5"),
                              ("base-dim-2.0", "1", "2.0"), ("rank-true", "true", "2"),
                              ("rank-string", '"1"', "2"))),
    pytest.param(["certify", "--bundle", _metric(entries=[["foo"]]), "--n", "2",
                  "--test", "nakano"], "PARAM_DOMAIN", id="metric-unknown-name"),
    pytest.param(["certify", "--bundle", _metric(entries=[["1+"]]), "--n", "2",
                  "--test", "nakano"], "PARAM_DOMAIN", id="metric-syntax"),
    pytest.param(["certify", "--bundle", _metric(), "--n", "3", "--test", "nakano"],
                 "DIM_MISMATCH", id="metric-base-dim"),
    pytest.param(["certify", "--bundle", "tpn", "--n", "0", "--test", "nakano"],
                 "PARAM_DOMAIN", id="certify-n-0"),
    pytest.param(["certify", "--bundle", "tpn", "--n", "2", "--test", "nakano",
                  "--points", "0"], "PARAM_DOMAIN", id="certify-points-0"),
    # 2e8 scanned coordinates, above the 10**6 budget: about 18 GB of points if drawn
    pytest.param(["certify", "--bundle", "tpn", "--n", "2", "--test", "nakano",
                  "--points", "100000000"], "PARAM_DOMAIN", id="certify-points-over-budget"),
    pytest.param(["certify", "--bundle", _metric(entries=[["10 ** 400"]]), "--n", "2",
                  "--test", "nakano"], "PARAM_DOMAIN", id="metric-overflow-at-load"),
    pytest.param(["certify", "--bundle", _metric(entries=[["1/0"]]), "--n", "2",
                  "--test", "nakano"], "PARAM_DOMAIN", id="metric-zero-division-at-load"),
    pytest.param(["certify", "--bundle", _metric(entries=[["1/abs2(z1)"]]), "--n", "2",
                  "--test", "nakano", "--points", "1"], "SINGULAR_METRIC",
                 id="metric-zero-division-at-origin"),
    pytest.param(["verify", "--what", "lemma-linear", "--bundle", _metric(entries=[["1/z1"]]),
                  "--n", "2"], "SINGULAR_METRIC", id="metric-not-finite-at-origin"),
    pytest.param(["certify", "--bundle", "tpn", "--n", "2", "--test", "bounds",
                  "--l", "dsum(1,-5)", "--points", "2"], "DIM_MISMATCH",
                 id="bounds-polarization-rank-2"),
    pytest.param(["certify", "--bundle", "tpn", "--n", "2", "--test", "nakano", "--l", "tpn"],
                 "DIM_MISMATCH", id="nakano-polarization-rank-2"),
    pytest.param(["certify", "--bundle", "tpn", "--n", "2", "--test", "nakano", "--l", "o(-1)"],
                 "NONPOSITIVE_POLARIZATION", id="nakano-polarization-o(-1)"),
    # a subnormal polarization: its orthonormal coordinates overflow to inf
    *(pytest.param(["certify", "--bundle", "tpn", "--n", "2", "--test", test, "--l", line,
                    "--points", "2"], "SINGULAR_METRIC", id=f"{test}-polarization-{line}")
      for test in ("nakano", "dual", "bounds", "griffiths")
      for line in ("o(1e-320)", "dsum(1e-320)")),
    *(pytest.param(["certify", "--bundle", ident, "--n", "2", "--test", "nakano"],
                   "PARAM_DOMAIN", id=f"bundle-id-{ident}")
      for ident in ("o(abc)", "dsum()", "dsum(1,,2)", "foo",
                    "o(nan)", "dsum(1e400)", "tpn_twist(inf)")),
    pytest.param(["certify", "--bundle", "tpn", "--n", "2", "--test", "nakano",
                  "--l", "o(-inf)", "--points", "1"], "PARAM_DOMAIN",
                 id="polarization-id-o(-inf)"),
    *(pytest.param(["certify", "--bundle", "tpn", "--n", "2", "--test", "bounds",
                    "--points", "1", flag, value], "PARAM_DOMAIN", id=f"bounds{flag}-{value}")
      for flag, value in (("--sym", "2"), ("--twist", "1"), ("--sym", "1"))),
    # a flag the selected mode does not read
    pytest.param(["verify", "--what", "estimate", "--n", "2", "--trials", "60", "--samples", "7",
                  "--bundle", "nonsense", "--k", "9"], "PARAM_DOMAIN", id="estimate-unread-flags"),
    pytest.param(["verify", "--what", "lemma-linear", "--bundle", "o(1)", "--n", "2", "--k", "2",
                  "--m", "0", "--r", "7", "--trials", "3"], "PARAM_DOMAIN",
                 id="lemma-linear-unread-flags"),
    pytest.param(["oracle", "--family", "grassmannian", "--d", "4", "--r", "2", "--k", "1",
                  "--n", "99", "--p", "3"], "PARAM_DOMAIN", id="grassmannian-unread-flags"),
    pytest.param(["oracle", "--family", "bott", "--n", "2", "--p", "0", "--q", "0", "--l", "1",
                  "--d", "9"], "PARAM_DOMAIN", id="bott-unread-flags"),
    pytest.param(["certify", "--bundle", "tpn", "--n", "2", "--test", "griffiths",
                  "--points", "1", "--restarts", "0"], "PARAM_DOMAIN",
                 id="griffiths-restarts-0"),
    # nakano and dual read no --restarts, whatever its value
    *(pytest.param(["certify", "--bundle", "tpn", "--n", "2", "--test", test,
                    "--restarts", value], "PARAM_DOMAIN", id=f"{test}-restarts-{value}")
      for test, value in (("nakano", "5"), ("dual", "-5"))),
    # S^20 of rank 5: a 2.8e9-entry derivation map; S^6 of rank 6: 1.3e8 k-tuple terms k F r^k
    pytest.param(["certify", "--bundle", "tpn", "--n", "5", "--test", "nakano", "--sym", "20"],
                 "PARAM_DOMAIN", id="certify-sym-over-budget"),
    pytest.param(["verify", "--what", "lemma-linear", "--bundle", "tpn", "--n", "6", "--k", "6"],
                 "PARAM_DOMAIN", id="lemma-linear-sym-over-budget"),
    # rank 1 above k = 19: (k+1)! and k k! leave int64
    *(pytest.param(args, "PARAM_DOMAIN", id=name) for name, args in SYM_INT64_RANGE.items()),
    # counts of thousands of digits, which a message must not print in full
    *(pytest.param(args, "PARAM_DOMAIN", id=name) for name, args in HUGE_COUNTS.items()),
    # F = 24 310: a 5.9e8-entry moments table
    pytest.param(["verify", "--what", "moments", "--r", "10", "--k", "8"], "PARAM_DOMAIN",
                 id="moments-table-over-budget"),
    *(pytest.param(args, "PARAM_DOMAIN", id=name) for name, args in STENCIL_OVER_BUDGET.items()),
    # forms on n = 40: 40 C(40, 20)^2 entries, about 1.7e23
    pytest.param(["verify", "--what", "estimate", "--n", "40", "--trials", "1"], "PARAM_DOMAIN",
                 id="estimate-forms-over-budget"),
    # dimensions of 12 039 and 4 882 digits, above the 4 300 Python prints
    pytest.param(["oracle", "--family", "bott", "--n", "20000", "--p", "0", "--q", "0",
                  "--l", "20000"], "PARAM_DOMAIN", id="bott-dim-over-digit-limit"),
    pytest.param(["oracle", "--family", "grassmannian", "--d", "5000", "--r", "1",
                  "--k", "20000"], "PARAM_DOMAIN", id="grassmannian-dim-over-digit-limit"),
    # 1 003 002 records, above the 10**6 region budget
    pytest.param(["oracle", "--family", "grassmannian", "--d", "2003", "--r", "1001",
                  "--k", "1"], "PARAM_DOMAIN", id="grassmannian-records-over-budget"),
    *(pytest.param(["certify", "--bundle", _sum_metric(terms), "--n", "2", "--test", "nakano",
                    "--points", "1"], "PARAM_DOMAIN", id=f"metric-{terms}-terms")
      for terms in (1200, 3000)),
    pytest.param(["certify", "--bundle", '{"rank": 1' + "0" * 5000 + "}", "--n", "2",
                  "--test", "nakano"], "PARAM_DOMAIN", id="metric-int-over-digit-limit"),
    pytest.param(["region", "--n", "3", "--r", "1", "--k", "1", "--m", "2", "--theorem", "gg",
                  "--eps1", "1/2"], "PARAM_DOMAIN", id="region-gg-eps1"),
    pytest.param(["region", "--n", "3", "--r", "1", "--k", "1", "--m", "3", "--theorem", "ample",
                  "--eps2", "3"], "PARAM_DOMAIN", id="region-ample-eps2"),
    # 11 116 665 and 8 336 667 members, above the 10**6 budget
    pytest.param(["region", "--n", "5000", "--m", "9", "--theorem", "gg"], "PARAM_DOMAIN",
                 id="region-over-budget"),
    pytest.param(["check", "--n", "5000", "--k", "1", "--l", "5000"], "PARAM_DOMAIN",
                 id="check-over-budget"),
    # n above 10**6: row n alone is over budget, even where the answer would be small
    pytest.param(["region", "--n", "1000001", "--m", "1", "--theorem", "gg"], "PARAM_DOMAIN",
                 id="region-m1-n-over-budget"),
    pytest.param(["check", "--n", "1000001", "--k", "1", "--l", "0"], "PARAM_DOMAIN",
                 id="check-inapplicable-n-over-budget"),
    # no S^k TP^n below n = 1 or k = 1, applicable or not
    *(pytest.param(["check", "--n", n, "--k", k, "--l", "1"], "PARAM_DOMAIN",
                   id=f"check-n{n}-k{k}") for n, k in (("0", "1"), ("3", "0"), ("-2", "-1"))),
    *(pytest.param(["certify", "--bundle", _metric(domain_radius=radius), "--n", "2",
                    "--test", "nakano", "--points", "1"], "PARAM_DOMAIN",
                   id=f"metric-domain-radius-{radius}") for radius in ("x", -1, 0)),
    *(pytest.param(["certify", "--bundle", _metric(entries=[[src]]), "--n", "2",
                    "--test", "nakano", "--points", "1"], "PARAM_DOMAIN", id=f"metric-{name}")
      for name, src in [("import", '__import__("os")'), ("attribute", "z1.real"),
                        ("lambda", "(lambda: 1)()"), ("subscript", "[z1][0]"),
                        ("conditional", "z1 if 1 else 0"), ("keyword", "conj(z1, out=z2)"),
                        ("keyword-abs2", "abs2(z1, foo=1)"), ("starred", "conj(*z1)"),
                        ("name-above-base-dim", "z3"), ("name-z0", "z0"),
                        ("name-leading-zero", "z01"), ("name-non-ascii-digit", "z\u0661"),
                        ("name-5000-digits", "z" + "9" * 5000)]),
]


@pytest.mark.parametrize("args,code", BAD_INPUT)
def test_bad_input_exit_2_with_error_json(runner, args, code):
    result, payload = run_json(runner, args)
    assert result.exit_code == 2, result.output
    assert payload["error"]["code"] == code


@pytest.mark.parametrize("args,spy", [
    (STENCIL_OVER_BUDGET["certify-stencil-over-budget"], (bundles, "fubini_study")),
    (STENCIL_OVER_BUDGET["lemma-linear-stencil-over-budget"], (geometry, "_stencil_offsets")),
    (STENCIL_OVER_BUDGET["lemma-linear-sym-stencil-over-budget"], (symbundle, "_sym_det_rows")),
    # no metric is evaluated: not the polarization's stencil, not route (a)'s
    (STENCIL_OVER_BUDGET["certify-stencil-over-budget"], (geometry.MetricField, "__call__")),
    (["certify", "--bundle", "tpn", "--n", "5", "--test", "nakano", "--sym", "20"],
     (geometry.MetricField, "__call__")),
    (STENCIL_OVER_BUDGET["lemma-linear-sym-stencil-over-budget"],
     (geometry.MetricField, "__call__")),
    (["verify", "--what", "estimate", "--n", "40", "--trials", "1"], (np.random, "Philox")),
    (["verify", "--what", "estimate", "--n", "40", "--trials", "1"], (positivity, "_interior_map")),
    # a JSON metric's stencil before its entries are lowered; lemma-linear's before its point
    (["certify", "--bundle", '{"rank": 1, "base_dim": 100000000, "entries": [["1"]]}',
      "--n", "100000000", "--test", "nakano"], (bundles, "_lower_expr")),
    (["verify", "--what", "lemma-linear", "--n", str(10**12)], (moments, "as_point")),
    (HUGE_COUNTS["lemma-linear-n-2^60"], (moments, "as_point")),
    # rank 1 above k = 19: no S^k map and no factorial
    (SYM_INT64_RANGE["certify-o1-sym-20"], (symbundle, "_derivation_map")),
    (SYM_INT64_RANGE["certify-o1-sym-21"], (symbundle, "factorial")),
    (SYM_INT64_RANGE["lemma-linear-o1-k-20"], (symbundle, "factorial")),
    (SYM_INT64_RANGE["lemma-linear-o1-k-21"], (moments, "_integral_map")),
    # r >= 172 before any factorial
    (["moments", "--r", "10000000", "--a", "1", "--b", "1"], (moments, "factorial")),
    (["verify", "--what", "moments", "--r", "400000", "--k", "0", "--samples", "100"],
     (moments, "factorial")),
    (["oracle", "--family", "bott", "--n", "20000", "--p", "0", "--q", "0", "--l", "20000"],
     (oracles, "comb")),
    (["oracle", "--family", "grassmannian", "--d", "5000", "--r", "1", "--k", "20000"],
     (oracles, "CohomologyDim")),
    (["oracle", "--family", "grassmannian", "--d", "2003", "--r", "1001", "--k", "1"],
     (oracles, "CohomologyDim")),
    # no point drawn and no metric evaluated for a scan above the coordinate budget
    (["certify", "--bundle", "tpn", "--n", "2", "--test", "bounds", "--points", "500001"],
     (positivity, "sample_points")),
    (["certify", "--bundle", "tpn", "--n", "2", "--test", "griffiths", "--points", "500001"],
     (geometry.MetricField, "__call__")),
    # no sphere point drawn for a moment scale or table out of range
    *((args, (moments, "_sphere_blocks")) for args in MOMENTS_OVER_RANGE.values()),
], ids=["certify-stencil", "lemma-linear-stencil", "lemma-linear-sym-stencil",
        "certify-stencil-no-metric-call", "certify-sym-no-metric-call",
        "lemma-linear-sym-stencil-no-metric-call", "estimate-draw",
        "estimate-wedge-map", "json-metric-stencil-before-lowering",
        "lemma-linear-stencil-before-the-point", "lemma-linear-2^60-before-the-point",
        "certify-o1-sym-20-no-derivation-map", "certify-o1-sym-21-no-factorial",
        "lemma-linear-o1-k-20-no-factorial", "lemma-linear-o1-k-21-no-integral-map",
        "moments-scale-before-factorial",
        "moments-table-scale-before-factorial", "bott-digits", "grassmannian-digits",
        "grassmannian-records", "certify-points-before-the-draw",
        "certify-points-no-metric-call", *MOMENTS_OVER_RANGE])
def test_over_budget_is_rejected_before_the_work(runner, monkeypatch, args, spy):
    def fail(*_, **__):
        raise AssertionError(f"{spy[1]} ran before the budget check")

    monkeypatch.setattr(*spy, fail)
    result, payload = run_json(runner, args)
    assert result.exit_code == 2, result.output
    assert payload["error"]["code"] == "PARAM_DOMAIN"


_INDEFINITE = '{"rank": 1, "base_dim": 2, "entries": [["-1"]], "label": "indefinite"}'
_ROWS_N2 = 64 * 4 + 8 * 2 + 1
# O(1) written as JSON line metrics, sampled on their stencils like any other field
_JSON_O1_N1 = ('{"rank": 1, "base_dim": 1, "label": "json-o(1)", '
               '"entries": [["(1 + abs2(z1)) ** -1"]]}')
_JSON_O1_N2 = ('{"rank": 1, "base_dim": 2, "label": "json-o(1)", '
               '"entries": [["(1 + abs2(z1) + abs2(z2)) ** -1"]]}')


@pytest.mark.parametrize("args,code,calls", [
    *(pytest.param(["certify", "--bundle", "tpn", "--n", "4", "--test", test, "--restarts", "0"],
                   "PARAM_DOMAIN", {}, id=f"{test}-restarts-0") for test in ("griffiths", "bounds")),
    pytest.param(["verify", "--what", "lemma-linear", "--bundle", "tpn", "--n", "4", "--k", "3",
                  "--samples", "50"], "PARAM_DOMAIN", {}, id="lemma-linear-too-few-samples"),
    # h(p) is row 0 of E's stencil: the built-in O(1) is c omega_FS and makes no call,
    # a JSON line is sampled at the origin first; then E once
    pytest.param(["certify", "--bundle", _INDEFINITE, "--n", "2", "--test", "nakano"],
                 "SINGULAR_METRIC", {"indefinite": 1},
                 id="certify-indefinite-metric"),
    pytest.param(["certify", "--bundle", _INDEFINITE, "--n", "2", "--test", "nakano",
                  "--l", _JSON_O1_N2], "SINGULAR_METRIC", {"json-o(1)": _ROWS_N2, "indefinite": 1},
                 id="certify-indefinite-metric-json-polarization"),
    pytest.param(["verify", "--what", "lemma-linear", "--bundle", _INDEFINITE, "--n", "2"],
                 "SINGULAR_METRIC", {"indefinite": 1}, id="lemma-linear-indefinite-metric"),
    # det E comes from E's own stencil, so E is sampled first and stops at h(p)
    pytest.param(["certify", "--bundle", _INDEFINITE, "--n", "2", "--test", "bounds",
                  "--l", "det"], "SINGULAR_METRIC", {"indefinite": 1},
                 id="certify-det-indefinite-metric"),
    *(pytest.param(SEED_AND_RANGE[name], "PARAM_DOMAIN", {}, id=name)
      for name in ("certify-seed-negative", "verify-lemma-linear-seed-2^128",
                   "certify--det-321-digits", "certify--twist-321-digits",
                   "lemma-linear-m-321-digits")),
])
def test_rejected_after_exactly_these_metric_calls(runner, metric_calls, args, code, calls):
    result, payload = run_json(runner, args)
    assert result.exit_code == 2, result.output
    assert payload["error"]["code"] == code
    assert metric_calls == calls
    if code == "SINGULAR_METRIC":
        assert "'indefinite' not positive definite" in payload["error"]["message"]


@pytest.mark.parametrize("args,calls", [
    (["certify", "--test", "nakano", "--points", "2"], {"skew": 1}),
    (["certify", "--test", "nakano", "--points", "2", "--l", _JSON_O1_N1],
     {"json-o(1)": 64 + 8 + 1, "skew": 1}),
    (["verify", "--what", "lemma-linear"], {"skew": 1}),
], ids=["certify", "certify-json-polarization", "lemma-linear"])
def test_non_hermitian_metric_rejected_at_h_p(runner, metric_calls, args, calls):
    result, payload = run_json(runner, [*args, "--bundle", _SKEW, "--n", "1"])
    assert result.exit_code == 2, result.output
    assert payload["error"]["code"] == "SINGULAR_METRIC"
    assert "'skew' not Hermitian" in payload["error"]["message"]
    assert metric_calls == calls


def test_bundle_det_is_an_unknown_bundle(runner):
    # "det" names a polarization only; as a bundle it is an ID like any other
    result, payload = run_json(runner, ["certify", "--bundle", "det", "--n", "2",
                                        "--test", "nakano"])
    assert result.exit_code == 2, result.output
    message = payload["error"]["message"]
    assert "neither a built-in bundle ID" in message
    assert "--L" not in message and "--l" not in message


@pytest.mark.parametrize("owner,budget,at_budget,call", [
    # tpn on n = 2: (64 * 4 + 16 + 1) * 2^2 stencil entries
    (geometry, "MAX_STENCIL_ENTRIES", 273 * 4,
     lambda: geometry.chern_curvature(bundles.tangent_pn(2), [0, 0])),
    # forms on n = 3: 3 * C(3, 1)^2 entries per Bochner array
    (positivity, "MAX_SYM_MAP_ENTRIES", 27,
     lambda: estimate_check(np.eye(3), 1, 2, trials=1)),
    # H^0(P^2, O(3)) has dimension C(5, 3) C(2, 0) = 10, two digits
    (oracles, "MAX_DIM_DIGITS", 2, lambda: oracles.pn_line_cohomology(2, 0, 0, 3)),
    # G(2, 5) has n = 6
    (regions, "MAX_REGION_MEMBERS", 6, lambda: oracles.grassmannian_nonvanishing(5, 2, 1)),
], ids=["stencil", "forms", "dim-digits", "grassmannian-records"])
def test_budget_edge(monkeypatch, owner, budget, at_budget, call):
    monkeypatch.setattr(owner, budget, at_budget)
    call()
    monkeypatch.setattr(owner, budget, at_budget - 1)
    with pytest.raises(ParamDomainError):
        call()


def test_expression_below_the_depth_limit_loads(runner):
    result, payload = run_json(runner, [
        "certify", "--bundle", _sum_metric(900), "--n", "2", "--test", "nakano", "--points", "1"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("args", [
    ["certify", "--bundle", "PATH", "--n", "2", "--test", "nakano"],
    ["verify", "--what", "lemma-linear", "--bundle", "PATH", "--n", "2"],
    ["--config", "PATH", "region", "--n", "3"],
], ids=["certify", "verify-lemma-linear", "config"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8", "nested-too-deeply"])
def test_unreadable_file_exit_2_with_error_json(runner, tmp_path, args, kind):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{")
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    result, payload = run_json(runner, [str(path) if a == "PATH" else a for a in args])
    assert result.exit_code == 2, result.output
    assert payload["error"]["code"] == "PARAM_DOMAIN"


@pytest.mark.parametrize("args", [
    ["region", "--n", "3", "--m", "3", "--theorem", "gg", "--output", "PATH"],
    ["region", "--n", "3", "--m", "3", "--theorem", "gg", "--svg", "PATH"],
    ["certify", "--bundle", "tpn", "--n", "2", "--test", "nakano", "--points", "1",
     "--output", "PATH"],
], ids=["region-output", "region-svg", "certify-output"])
@pytest.mark.parametrize("kind", ["directory", "missing-parent"])
def test_unwritable_file_exit_2_with_error_json(runner, tmp_path, args, kind):
    # the file is written before the report is printed, so stdout is the error alone
    path = tmp_path / "out"
    if kind == "directory":
        path.mkdir()
    else:
        path = path / "x.json"
    result = runner.invoke(main, [str(path) if a == "PATH" else a for a in args])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.stdout)
    assert set(payload) == {"schema", "error"}
    assert payload["error"]["code"] == "PARAM_DOMAIN"


@pytest.mark.parametrize("args", [
    ["moments", "--r", "3", "--a", "1,x", "--b", "1,2"],
    ["region", "--n", "3", "--theorem", "main1", "--eps1", "1/0", "--eps2", "1"],
], ids=["multi-index", "rational"])
def test_malformed_flag_is_a_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Invalid value" in result.output


def test_emit_keeps_no_reference_to_stdout():
    # an in-process caller's stdout buffer must be freed once the caller drops it
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main.main(args=["region", "--n", "20", "--m", "3"], prog_name="poslab",
                      standalone_mode=True)
        except SystemExit as exc:
            assert exc.code == 0
    assert json.loads(out.getvalue())["n"] == 20
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None
