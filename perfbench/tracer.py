"""Outside-in span tracer for the poslab modules.

The tracer wraps public poslab functions from outside the package: every
module-level name in ``poslab.*`` bound to a wrapped function is rebound to
the wrapper, because ``cli.py``, ``moments.py`` and ``positivity.py`` import
names directly.  Each wrapper records a span (call count, duration) and
charges its duration to the enclosing span, so a span's self time excludes
its child spans.  Counts derived from the arguments (permanent terms, Monte
Carlo bytes, region pairs) are recorded at the same boundary.

Nothing is written while tracing; ``snapshot`` returns the per-layer metrics
collected since the last ``reset``.
"""

from __future__ import annotations

import collections
import dataclasses
import inspect
import sys
import time
from math import comb, factorial

# (module, attribute, span name).  Several functions may share a span name;
# their self times add up under that name.  Spans that no metric reports
# still matter: without them their self time would count as cli.self_s.
SPANS = [
    ("geometry", "chern_curvature", "geometry.chern_curvature"),
    ("geometry", "normalize_at_point", "geometry.normalize_at_point"),
    ("geometry", "fubini_study", "geometry.fubini_study"),
    ("geometry", "sample_points", "geometry.sample_points"),
    ("bundles", "builtin", "bundles.construct"),
    ("bundles", "det_field", "bundles.construct"),
    ("bundles", "frame_normalized", "bundles.construct"),
    ("symbundle", "sym_metric", "symbundle.sym_metric"),
    ("symbundle", "induced_sym_det_curvature", "symbundle.induced_sym_det_curvature"),
    ("symbundle", "twist_by_line", "symbundle.twist_by_line"),
    ("symbundle", "sym_power_field", "symbundle.construct"),
    ("moments", "integral_formula_mc", "moments.integral_formula_mc"),
    ("moments", "integral_formula_tensor", "moments.integral_formula_tensor"),
    ("moments", "moment_mc_table", "moments.moment_mc_table"),
    ("moments", "moment_mc", "moments.moment_mc"),
    ("moments", "moment_exact", "moments.moment_exact"),
    ("moments", "verify_lemma_linear", "moments.verify_lemma_linear"),
    ("positivity", "griffiths_min", "positivity.griffiths_min"),
    ("positivity", "nakano_min", "positivity.nakano_min"),
    ("positivity", "dual_nakano_min", "positivity.nakano_min"),
    ("positivity", "boundedness_scan", "positivity.boundedness_scan"),
    ("positivity", "sym_twisted_curvature_at", "positivity.sym_twisted_curvature_at"),
    ("positivity", "polarization_form", "positivity.polarization_form"),
    ("positivity", "curvature_term", "positivity.curvature_term"),
    ("positivity", "estimate_check", "positivity.estimate_check"),
    ("regions", "region", "regions.region"),
    ("regions", "theorem_region", "regions.theorem_region"),
    ("regions", "lambda0", "regions.lambda0"),
    ("regions", "strip_width", "regions.strip_width"),
    ("oracles", "grassmannian_nonvanishing", "oracles"),
    ("oracles", "pn_line_cohomology", "oracles"),
    ("oracles", "consistency_check", "oracles"),
    ("oracles", "prop_ex_lambda0", "oracles"),
    ("oracles", "prop_ex_consistency", "oracles"),
]

# Eigen-solvers counted when the innermost open span is a positivity span.
EIGEN_SOLVERS = [("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"), ("scipy.linalg", "eigh")]

# Per-layer metrics reported by ``snapshot`` (name -> unit), in output order.
PER_LAYER_UNITS = {
    "geometry.chern_curvature.calls": "count",
    "geometry.chern_curvature.self_s": "s",
    "geometry.metric_evals": "count",
    "geometry.metric_evals_per_curvature": "count",
    "geometry.metric_eval.self_s": "s",
    "geometry.normalize_at_point.self_s": "s",
    "geometry.fubini_study.self_s": "s",
    "bundles.user_metric_evals": "count",
    "bundles.user_metric.self_s": "s",
    "symbundle.sym_metric.calls": "count",
    "symbundle.sym_metric.self_s": "s",
    "symbundle.permanent_terms": "count",
    "symbundle.induced_sym_det_curvature.self_s": "s",
    "moments.integral_formula_mc.self_s": "s",
    "moments.integral_formula_mc.bytes": "B",
    "moments.integral_formula_tensor.self_s": "s",
    "moments.moment_mc_table.self_s": "s",
    "moments.moment_mc.self_s": "s",
    "moments.mc_samples": "count",
    "positivity.griffiths_min.calls": "count",
    "positivity.griffiths_min.self_s": "s",
    "positivity.nakano_min.self_s": "s",
    "positivity.eigen_solves": "count",
    "positivity.eigen_solves_per_certificate": "count",
    "positivity.curvature_term.calls": "count",
    "positivity.curvature_term.self_s": "s",
    "regions.region.calls": "count",
    "regions.region.self_s": "s",
    "regions.pairs_tested": "count",
    "oracles.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Frame:
    __slots__ = ("name", "child_s", "direct_evals")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.direct_evals = 0


class Tracer:
    """Patches poslab on ``install``, restores it on ``uninstall``."""

    def __init__(self):
        self._stack: list[Frame] = []
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    # -- collection ---------------------------------------------------------

    def reset(self) -> None:
        self.self_s = collections.defaultdict(float)
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        # (field label, base dimension, metric evaluations made directly
        # inside the span) for every chern_curvature span
        self.curvatures: list[tuple[str, int, int]] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        frame = Frame(name)
        stack = self._stack
        if name == "geometry.metric_eval" and stack and stack[-1].name == "geometry.chern_curvature":
            stack[-1].direct_evals += 1
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            self.self_s[name] += dt - frame.child_s
            self.calls[name] += 1
            if stack:
                stack[-1].child_s += dt
            if name == "geometry.chern_curvature":
                field = args[0] if args else kwargs["h"]
                self.curvatures.append((field.label, field.base_dim, frame.direct_evals))

    def _wrap(self, name, fn):
        tracer = self
        count = _ARGUMENT_COUNTS.get(name)
        signature = inspect.signature(fn) if count else None

        def wrapper(*args, **kwargs):
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound.arguments).items():
                    tracer.counts[key] += value
            return tracer.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_user_loader(self, load):
        tracer = self

        def load_traced(*args, **kwargs):
            field = load(*args, **kwargs)
            evaluate = field.evaluate

            def traced_evaluate(z):
                return tracer.call("bundles.user_metric", evaluate, z)

            return dataclasses.replace(field, evaluate=traced_evaluate)

        load_traced.__wrapped__ = load
        return load_traced

    def _wrap_eigen(self, fn):
        tracer = self

        def eigen(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1].name.startswith("positivity."):
                tracer.counts["positivity.eigen_solves"] += 1
            return fn(*args, **kwargs)

        eigen.__wrapped__ = fn
        return eigen

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Rebind every poslab binding of the traced functions to a wrapper."""
        import poslab  # noqa: F401  (loads every submodule)
        from poslab.geometry import MetricField

        modules = [m for k, m in sys.modules.items() if k == "poslab" or k.startswith("poslab.")]
        originals = {}
        for mod_name, attr, span in SPANS:
            fn = getattr(sys.modules[f"poslab.{mod_name}"], attr)
            originals[fn] = self._wrap(span, fn)
        from poslab.bundles import load_metric_json
        originals[load_metric_json] = self._wrap_user_loader(load_metric_json)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if callable(value) and value in originals:
                    self._set(mod, key, originals[value])

        call = MetricField.__call__
        tracer = self
        self._set(MetricField, "__call__",
                  lambda field, z: tracer.call("geometry.metric_eval", call, field, z))

        for mod_name, attr in EIGEN_SOLVERS:
            __import__(mod_name)
            mod = sys.modules[mod_name]
            self._set(mod, attr, self._wrap_eigen(getattr(mod, attr)))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def check(self, wall_s: float) -> list[str]:
        """Self-checks on the spans of one traced pass; returns the failures."""
        problems = []
        for label, n, evals in self.curvatures:
            if label.startswith("tpn") and evals != 64 * n * n + 8 * n + 1:
                problems.append(f"chern_curvature({label}, n={n}) made {evals} metric "
                                f"evaluations, expected {64 * n * n + 8 * n + 1}")
        total = sum(self.self_s.values())
        if total > wall_s:
            problems.append(f"summed self time {total:.6f} s exceeds wall {wall_s:.6f} s")
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        return problems

    def snapshot(self, certificates: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded since ``reset``."""
        s, c, n = self.self_s, self.calls, self.counts
        curvatures = c["geometry.chern_curvature"]
        evals = c["geometry.metric_eval"]
        eigen = n["positivity.eigen_solves"]
        return {
            "geometry.chern_curvature.calls": curvatures,
            "geometry.chern_curvature.self_s": s["geometry.chern_curvature"],
            "geometry.metric_evals": evals,
            "geometry.metric_evals_per_curvature": evals / curvatures if curvatures else 0.0,
            "geometry.metric_eval.self_s": s["geometry.metric_eval"],
            "geometry.normalize_at_point.self_s": s["geometry.normalize_at_point"],
            "geometry.fubini_study.self_s": s["geometry.fubini_study"],
            "bundles.user_metric_evals": c["bundles.user_metric"],
            "bundles.user_metric.self_s": s["bundles.user_metric"],
            "symbundle.sym_metric.calls": c["symbundle.sym_metric"],
            "symbundle.sym_metric.self_s": s["symbundle.sym_metric"],
            "symbundle.permanent_terms": n["symbundle.permanent_terms"],
            "symbundle.induced_sym_det_curvature.self_s": s["symbundle.induced_sym_det_curvature"],
            "moments.integral_formula_mc.self_s": s["moments.integral_formula_mc"],
            "moments.integral_formula_mc.bytes": n["moments.integral_formula_mc.bytes"],
            "moments.integral_formula_tensor.self_s": s["moments.integral_formula_tensor"],
            "moments.moment_mc_table.self_s": s["moments.moment_mc_table"],
            "moments.moment_mc.self_s": s["moments.moment_mc"],
            "moments.mc_samples": n["moments.mc_samples"],
            "positivity.griffiths_min.calls": c["positivity.griffiths_min"],
            "positivity.griffiths_min.self_s": s["positivity.griffiths_min"],
            "positivity.nakano_min.self_s": s["positivity.nakano_min"],
            "positivity.eigen_solves": eigen,
            "positivity.eigen_solves_per_certificate": eigen / certificates if certificates else 0.0,
            "positivity.curvature_term.calls": c["positivity.curvature_term"],
            "positivity.curvature_term.self_s": s["positivity.curvature_term"],
            "regions.region.calls": c["regions.region"],
            "regions.region.self_s": s["regions.region"],
            "regions.pairs_tested": n["regions.pairs_tested"],
            "oracles.self_s": s["oracles"],
            "cli.self_s": s["cli"],
        }


def _sym_metric_terms(a):
    rank, k = a["h"].shape[0], a["k"]
    return {"symbundle.permanent_terms": comb(rank + k - 1, k) ** 2 * factorial(k)}


def _integral_mc_bytes(a):
    n, _, rank, _ = a["R"].values.shape
    k = a["k"]
    return {"moments.integral_formula_mc.bytes":
            a["samples"] * n * n * comb(rank + k - 1, k) ** 2 * 16}


_ARGUMENT_COUNTS = {
    "symbundle.sym_metric": _sym_metric_terms,
    "moments.integral_formula_mc": _integral_mc_bytes,
    "moments.moment_mc_table": lambda a: {"moments.mc_samples": a["samples"]},
    "moments.moment_mc": lambda a: {"moments.mc_samples": a["samples"]},
    "regions.region": lambda a: {"regions.pairs_tested": a["n"] * a["n"]},
}
