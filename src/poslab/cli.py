"""poslab command line: region / certify / verify / moments / oracle / check.

All outputs are versioned JSON ("schema": 1), byte-identical for identical
configuration and seed.  Exit codes: 0 ok; 1 only when verify exceeds a
tolerance; 2 for a usage error (click's text) or a domain error, which is
emitted as JSON naming the violated precondition.  An --output or --svg file
is written before the report is printed, so one that cannot be written is a
domain error too.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from . import __version__
from .bundles import builtin, load_metric_json, read_json_object
from .errors import DimMismatchError, ParamDomainError, PoslabError
from .moments import moment_exact, moment_mc, verify_lemma_linear, verify_moments
from .oracles import grassmannian_nonvanishing, pn_line_cohomology, prop_ex_consistency
from .positivity import boundedness_scan, positivity_scan, verify_estimate
from .regions import TheoremParams, lambda0, region_svg, strip_width, theorem_region

SCHEMA = 1


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParamDomainError(f"{path!r} is not a writable file: {exc}") from exc


def _emit(report: dict, output: str | None) -> None:
    report = {"schema": SCHEMA, **report}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if output:
        _write(output, text)
    # an explicit stream: click caches the default one per sys.stdout object
    # for good, which would keep every in-process caller's output alive
    click.echo(text, file=sys.stdout, nl=False)


def _rational(ctx, param, text):
    try:
        return Fraction(text) if text is not None else None
    except (ValueError, ZeroDivisionError) as exc:
        raise click.BadParameter(f"{text!r} is not a rational number") from exc


def _multi_index(ctx, param, text):
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError as exc:
        raise click.BadParameter(f"{text!r} is not a comma-separated list of integers") from exc


def _reject_unread_flags(mode_param: str, reads: dict) -> None:
    """PARAM_DOMAIN for a flag on the command line that the selected mode does not read.

    ``reads`` maps each value of the mode flag ``mode_param`` to the parameters
    that mode reads besides the mode flag and --output.  Only flags typed on the
    command line count, so a --config value for a flag the mode does not read
    is ignored.
    """
    ctx = click.get_current_context()
    mode = ctx.params[mode_param]
    flags = {param.name: param.opts[0] for param in ctx.command.params}
    unread = [flag for name, flag in flags.items()
              if name not in (mode_param, "output", *reads[mode])
              and ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE]
    if unread:
        raise ParamDomainError(f"{flags[mode_param]} {mode} does not read {', '.join(unread)}")


class _Group(click.Group):
    """Emits a PoslabError raised anywhere below as error JSON and exits 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PoslabError as exc:
            _emit({"error": {"code": exc.code, "message": str(exc)}}, None)
            ctx.exit(2)


@click.group(cls=_Group)
@click.version_option(__version__)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON object of parameter names to defaults for omitted flags.")
@click.pass_context
def main(ctx, config_path):
    """Curvature positivity and vanishing regions on complex projective space."""
    if config_path:
        mapping = read_json_object(config_path, "not a readable config file")
        # one flat mapping serves every command
        ctx.default_map = dict.fromkeys(ctx.command.commands, mapping)


@main.command("region")
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, default=1, show_default=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--m", type=int, default=1, show_default=True)
@click.option("--eps1", default=None, callback=_rational,
              help="rational, e.g. -1 or 1/2 (main1 only)")
@click.option("--eps2", default=None, callback=_rational)
@click.option("--theorem", type=click.Choice(["main1", "gg", "ample", "griffiths"]),
              default="gg", show_default=True)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
@click.option("--output", type=click.Path(), default=None)
def cmd_region(n, r, k, m, eps1, eps2, theorem, svg_path, output):
    """Vanishing region (members, lambda0, quadrilateral vertices, strip)."""
    common = ("n", "r", "k", "m", "svg_path")
    _reject_unread_flags("theorem", {"main1": (*common, "eps1", "eps2"), "gg": common,
                                     "ample": common, "griffiths": common})
    eps = {"eps1": eps1, "eps2": eps2} if theorem == "main1" else {}
    params = TheoremParams(n=n, r=r, k=k, m=m, theorem=theorem, **eps)
    reg = theorem_region(params)
    report = {
        "params": {"n": n, "r": r, "k": k, "m": m, "theorem": params.theorem,
                   "eps1": None if params.eps1 is None else str(params.eps1),
                   "eps2": None if params.eps2 is None else str(params.eps2)},
        "s0": str(strip_width(n, lambda0(params))),  # perfbench patches cli.lambda0
        **reg.to_json(),
    }
    if svg_path:
        _write(svg_path, region_svg(reg))
    _emit(report, output)


def _resolve_bundle(ident, n):
    # a built-in ID wins over a same-named path; "./tpn" still names the file
    try:
        return builtin(ident, n)
    except KeyError:
        spec = read_json_object(
            ident, "neither a built-in bundle ID nor a readable metric file", inline=True)
    field = load_metric_json(spec)
    if field.base_dim != n:
        raise DimMismatchError(f"metric base_dim {field.base_dim} differs from --n {n}")
    return field


@main.command("certify")
@click.option("--bundle", required=True, help='builtin id ("tpn", "o(2)", "dsum(3,-1)") or JSON metric path')
@click.option("--n", type=int, required=True, help="base dimension")
@click.option("--test", "which", type=click.Choice(["griffiths", "nakano", "dual", "bounds"]),
              required=True)
@click.option("--l", "--L", "line", default="o(1)", show_default=True,
              help='polarization: a line bundle id (rank 1, e.g. "o(1)"), or "det"')
@click.option("--twist", type=int, default=0, show_default=True)
@click.option("--sym", type=int, default=1, show_default=True)
@click.option("--det", "det_power", type=int, default=0, show_default=True)
@click.option("--points", type=int, default=8, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--restarts", type=int, default=32, show_default=True)
@click.option("--output", type=click.Path(), default=None)
def cmd_certify(bundle, n, which, line, twist, sym, det_power, points, seed, restarts, output):
    """Positivity / boundedness certification of a built-in or user bundle."""
    scan = ("bundle", "n", "line", "points", "seed")
    block = (*scan, "twist", "sym", "det_power")
    _reject_unread_flags("which", {"bounds": (*scan, "restarts"),
                                   "griffiths": (*block, "restarts"),
                                   "nakano": block, "dual": block})
    E = _resolve_bundle(bundle, n)
    L = None if line == "det" else _resolve_bundle(line, n)  # None: det E, tr of E's curvature
    polarization = f"det({E.label})" if L is None else L.label
    if which == "bounds":
        cert = boundedness_scan(E, L, n_points=points, seed=seed, restarts=restarts)
        _emit({"bundle": E.label, "polarization": polarization,
               "certificate": cert.to_json()}, output)
        return
    rep = positivity_scan(E, L, which, n_points=points, seed=seed, restarts=restarts,
                          k=sym, m=det_power, l=twist)
    _emit({
        "bundle": E.label,
        "polarization": polarization,
        "sym": sym,
        "det": det_power,
        "twist": twist,
        "points_scanned": points,
        "report": rep.to_json(),
    }, output)


_DEFAULT_SAMPLES = {"moments": 100000, "lemma-linear": 20000}


@main.command("verify")
@click.option("--what", type=click.Choice(["moments", "lemma-linear", "estimate"]), required=True)
@click.option("--bundle", default="tpn", show_default=True)
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--r", type=int, default=2, show_default=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--m", type=int, default=1, show_default=True)
@click.option("--samples", type=int, default=None,
              help="Monte Carlo samples, >= 100  [default: 100000 for moments, "
                   "20000 for lemma-linear]")
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(), default=None)
def cmd_verify(what, bundle, n, r, k, m, samples, trials, seed, output):
    """Cross-verification harnesses; exits 1 when a tolerance is exceeded."""
    _reject_unread_flags("what", {"moments": ("r", "k", "samples", "seed"),
                                  "lemma-linear": ("bundle", "n", "k", "m", "samples", "seed"),
                                  "estimate": ("n", "trials", "seed")})
    if samples is None:
        samples = _DEFAULT_SAMPLES.get(what)
    if what == "moments":
        rep = verify_moments(r, k, samples, seed)
    elif what == "lemma-linear":
        # p = None: the origin, built after the budgets are checked
        rep = verify_lemma_linear(_resolve_bundle(bundle, n), None, k, m,
                                  mc_samples=samples, seed=seed)
    else:
        rep = verify_estimate(n, trials, seed)
    _emit({"what": what, **rep}, output)
    sys.exit(0 if rep["ok"] else 1)


@main.command("moments")
@click.option("--r", type=int, required=True)
@click.option("--a", "--A", "a_idx", required=True, callback=_multi_index,
              help='multi-index, e.g. "1,2"')
@click.option("--b", "--B", "b_idx", required=True, callback=_multi_index)
@click.option("--samples", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(), default=None)
def cmd_moments(r, a_idx, b_idx, samples, seed, output):
    """Exact and Monte Carlo Fubini-Study moments for one index pair."""
    A, B = a_idx, b_idx
    # moment_mc rejects an r above the float range before moment_exact's (r+k-1)!
    est, err = moment_mc(r, A, B, samples, seed=seed)
    exact = moment_exact(r, A, B)
    _emit({"r": r, "A": list(A), "B": list(B),
           "exact": str(exact), "mc": [est.real, est.imag], "stderr": err,
           "samples": samples, "seed": seed}, output)


@main.command("oracle")
@click.option("--family", type=click.Choice(["grassmannian", "bott"]), required=True)
@click.option("--d", type=int, default=None)
@click.option("--r", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--q", type=int, default=None)
@click.option("--l", type=int, default=None)
@click.option("--output", type=click.Path(), default=None)
def cmd_oracle(family, d, r, k, n, p, q, l, output):
    """Known cohomology dimensions (Grassmannian family or Bott formula)."""
    reads = {"grassmannian": ("d", "r", "k"), "bott": ("n", "p", "q", "l")}
    _reject_unread_flags("family", reads)
    missing = [f"--{x}" for x in reads[family] if click.get_current_context().params[x] is None]
    if missing:
        raise click.UsageError(f"{family} oracle needs {' '.join(missing)}")
    if family == "grassmannian":
        dims = grassmannian_nonvanishing(d, r, k)
        _emit({"family": family, "d": d, "r": r, "k": k,
               "dims": [x.to_json() for x in dims]}, output)
        return
    _emit({"family": family, "n": n, "p": p, "q": q, "l": l,
           "dim": pn_line_cohomology(n, p, q, l)}, output)


@main.command("check")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--l", type=int, required=True)
@click.option("--output", type=click.Path(), default=None)
def cmd_check(n, k, l, output):
    """Predicted region for S^k TP^n O(l) versus the non-vanishing oracle."""
    _emit(prop_ex_consistency(n, k, l), output)


if __name__ == "__main__":
    main()
