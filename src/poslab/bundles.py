"""Built-in metric fields on CP^n and the declarative JSON metric loader.

Catalogue (string identifiers accepted by :func:`builtin`):

* ``o(l)``          -- the line bundle O(l) with h = (1 + |z|^2)^(-l)
* ``tpn``           -- the tangent bundle with the Fubini-Study metric
* ``tpn_twist(l)``  -- TP^n tensor O(l)
* ``dsum(a,b,...)`` -- the direct sum O(a) + O(b) + ...

``o(c)`` is the one-summand ``dsum(c)`` under its own label, so both carry
``line_degree`` = c, set by ``direct_sum`` alone, and a polarization by them is
c times the Fubini-Study form with no metric call
(``positivity.polarization_form``); a JSON line metric, even one with the same
formula, is differentiated on its stencil.

Derived fields (``tpn_twist``, ``det_field``, ``frame_normalized``,
``sym_power_field``) are ``dataclasses.replace`` copies of their parent, so
they inherit its ``base_dim`` and ``domain_radius``; each resets ``line_degree``
to None, since its curvature is no longer that of the parent (S^2 O(1) has
rank 1 and degree 2).  Their own call checks the point and their evaluator
reads the parent's ``value`` on it.
``det_field`` is ``sym_power_field(E, 0, 1)`` relabelled ``det(E)``, so det h has
one formula.  ``det_field``, ``frame_normalized`` and ``sym_power_field`` are per-point
references that no command uses: ``certify --l det`` reads det E's curvature off E's
``chern_curvature`` as its trace, and lemma-linear lifts that tensor's samples, whose
frame ``geometry.normalize_at_point`` changes once.

User metrics load from a JSON object (``read_json_object`` reads one) with
keys ``rank`` and ``base_dim`` (JSON integers, not floats, booleans or strings),
``entries`` (matrix of expression strings) and
optional ``label`` and ``domain_radius`` (a positive number).  Expressions use variables
``z1 .. zn``, the functions ``conj(.)`` and ``abs2(.)`` with one positional
argument, the imaginary unit ``I``, numeric literals and ``+ - * / **`` with
parentheses; nothing else parses.  The entries are compiled once at load; an
arithmetic failure (division by zero, overflow) is a ParamDomainError at the
load-time test point and a SingularMetricError at any later point.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import re

import numpy as np

from .errors import ParamDomainError, SingularMetricError
from .geometry import MetricField, _orthonormalizer, check_stencil_budget, fubini_study
from .symbundle import sym_power_field


def _norm2(z: np.ndarray) -> float:
    return float(np.vdot(z, z).real)


def o_line(l: float, n: int) -> MetricField:
    """O(l) with the Fubini-Study-induced metric h = (1+|z|^2)^(-l): the one-summand direct sum."""
    return dataclasses.replace(direct_sum([l], n), label=f"o({l:g})")


def tangent_pn(n: int) -> MetricField:
    """TP^n with the metric induced by the Fubini-Study form."""
    return MetricField(rank=n, base_dim=n, evaluate=lambda z: fubini_study(n, z), label="tpn")


def direct_sum(powers, n: int) -> MetricField:
    """O(a_1) + ... + O(a_r) with the product metric; one summand O(c) sets line_degree = c."""
    powers = [float(a) for a in powers]

    def ev(z):
        s = 1.0 + _norm2(z)
        return np.diag(np.array([s ** (-a) for a in powers], dtype=complex))

    label = "dsum(" + ",".join(f"{a:g}" for a in powers) + ")"
    return MetricField(rank=len(powers), base_dim=n, evaluate=ev, label=label,
                       line_degree=powers[0] if len(powers) == 1 else None)


def tangent_pn_twist(l: float, n: int) -> MetricField:
    """TP^n tensor O(l): the Fubini-Study metric times (1+|z|^2)^(-l)."""
    def ev(z, l=float(l)):
        return fubini_study(n, z) * (1.0 + _norm2(z)) ** (-l)

    return dataclasses.replace(tangent_pn(n), evaluate=ev, label=f"tpn_twist({l:g})",
                               line_degree=None)


def det_field(E: MetricField) -> MetricField:
    """det E with the induced metric det(h): ``sym_power_field(E, 0, 1)`` under its own label."""
    return dataclasses.replace(sym_power_field(E, 0, 1), label=f"det({E.label})")


def frame_normalized(E: MetricField, p) -> MetricField:
    """Conjugate E by a constant frame change so the metric at ``p`` is Id; the
    per-point reference for the stacked congruence of ``verify_lemma_linear``.

    Raises SingularMetricError when the metric at ``p`` is not positive definite.
    """
    # new frame vectors are the columns of Q; h~ = Q^T h conj(Q) is Id at p
    Q = _orthonormalizer(E(p))

    def ev(z):
        return Q.T @ E.value(z) @ Q.conj()

    return dataclasses.replace(E, evaluate=ev, label=f"{E.label}@norm", line_degree=None)


_BUILTIN_RE = re.compile(r"^\s*(o|tpn_twist|dsum|tpn)\s*(?:\(([^()]*)\))?\s*$")


def builtin(ident: str, n: int) -> MetricField:
    """Resolve a catalogue identifier like ``o(2)`` or ``dsum(3,-1)``.

    Raises KeyError for an unknown name or an argument list that does not
    parse as the name's numbers.
    """
    m = _BUILTIN_RE.match(ident.lower())
    name, args = m.groups() if m else (None, None)
    try:
        nums = None if args is None else [float(a) for a in args.split(",")]
    except ValueError:
        nums = []  # malformed: matches no case below
    if nums and not all(math.isfinite(x) for x in nums):
        nums = []  # nan, inf and overflowing literals are malformed too
    if name == "tpn" and nums is None:
        return tangent_pn(n)
    if name == "o" and nums and len(nums) == 1:
        return o_line(nums[0], n)
    if name == "tpn_twist" and nums and len(nums) == 1:
        return tangent_pn_twist(nums[0], n)
    if name == "dsum" and nums:
        return direct_sum(nums, n)
    raise KeyError(f"unknown bundle identifier {ident!r}")


# --- declarative JSON metrics -------------------------------------------------

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_COORDINATE_RE = re.compile(r"z([1-9][0-9]*)")
_FUNCTIONS = {"conj": np.conj, "abs2": lambda v: (v * np.conj(v)).real}


def _lower_expr(src: str, n: int) -> ast.expr:
    """Check one metric-entry expression against the whitelist and lower it.

    Literals become complex constants, ``I`` becomes 1j and ``zk`` becomes
    ``z[k-1]`` for a decimal k in 1..n without a leading zero, read from the
    name itself, so the work does not grow with n; every operation keeps its
    operands and their order.
    """
    try:
        tree = ast.parse(src, mode="eval")
    except (SyntaxError, MemoryError) as exc:  # the parser overflows on deep nesting
        raise ParamDomainError(f"metric expression {src!r} does not parse") from exc

    def lower(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float, complex)):
            return ast.Constant(complex(node.value))
        if isinstance(node, ast.Name):
            if node.id == "I":
                return ast.Constant(1j)
            # more digits than n has: out of range, and no int() of a long name
            k = _COORDINATE_RE.fullmatch(node.id)
            if k and len(k[1]) <= len(str(n)) and int(k[1]) <= n:
                return ast.Subscript(ast.Name("z", ast.Load()), ast.Constant(int(k[1]) - 1),
                                     ast.Load())
            raise ParamDomainError(f"unknown name {node.id!r} in metric expression")
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            return ast.BinOp(lower(node.left), node.op, lower(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return lower(node.operand)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ast.UnaryOp(node.op, lower(node.operand))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in _FUNCTIONS:
                raise ParamDomainError(f"unknown function {node.func.id!r} in metric expression")
            if len(node.args) != 1 or node.keywords:
                raise ParamDomainError(
                    f"{node.func.id}() takes exactly one positional argument in metric "
                    f"expression {src!r}")
            return ast.Call(ast.Name(node.func.id, ast.Load()), [lower(node.args[0])], [])
        raise ParamDomainError(f"disallowed syntax in metric expression: {ast.dump(node)}")

    return lower(tree.body)


def _compile_entries(rows, n: int):
    """Compile an r x r matrix of entry expressions once into a function of z;
    nesting too deep to parse, lower or compile is a ParamDomainError."""
    try:
        body = ast.Tuple([ast.Tuple([_lower_expr(str(e), n) for e in row], ast.Load())
                          for row in rows], ast.Load())
        args = ast.arguments(posonlyargs=[], args=[ast.arg("z")], kwonlyargs=[],
                             kw_defaults=[], defaults=[])
        tree = ast.fix_missing_locations(ast.Expression(ast.Lambda(args, body)))
        return eval(compile(tree, "<metric entries>", "eval"), {"__builtins__": {}, **_FUNCTIONS})
    except RecursionError as exc:
        raise ParamDomainError("metric expression is nested too deeply") from exc


def read_json_object(source: str, unreadable: str, inline: bool = False) -> dict:
    """The JSON object in ``source``: its own text when ``inline`` and it starts with "{",
    else the UTF-8 file at that path.  ParamDomainError naming the source when the file
    is ``unreadable``, the text does not parse or nests too deeply, or it is no object."""
    text = source if inline and source.lstrip().startswith("{") else None
    name = "inline JSON" if text is not None else repr(source)
    try:
        if text is None:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        value = json.loads(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParamDomainError(f"{name} is {unreadable}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, huge ints, deep nesting
        raise ParamDomainError(f"{name} does not parse as JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ParamDomainError(f"{name} is not a JSON object")
    return value


def load_metric_json(spec: dict) -> MetricField:
    """Build a MetricField from a JSON metric object, such as read_json_object returns;
    a curvature stencil over MAX_STENCIL_ENTRIES is rejected before the entries compile."""
    r, n, rows = spec.get("rank"), spec.get("base_dim"), spec.get("entries")
    if type(r) is not int or type(n) is not int:  # no float, bool or str is coerced
        raise ParamDomainError(f"metric JSON needs integer rank and base_dim, got "
                               f"{r!r:.20} and {n!r:.20}")
    if (not isinstance(rows, list) or len(rows) != r
            or any(not isinstance(row, list) or len(row) != r for row in rows)):
        raise ParamDomainError("metric JSON needs an r x r entries matrix, r = rank")
    radius = spec.get("domain_radius")
    if radius is not None and (type(radius) not in (int, float) or not radius > 0):
        raise ParamDomainError(
            f"metric JSON domain_radius must be a positive number, got {radius!r}")
    label = str(spec.get("label", "user"))
    # every use of a metric is a curvature: reject its stencil before compiling
    check_stencil_budget(n, r, label)
    entries = _compile_entries(rows, n)

    def ev(z):
        try:
            with np.errstate(all="ignore"):
                return np.array(entries(z), dtype=complex)
        except ArithmeticError as exc:
            raise SingularMetricError(f"metric {label!r} fails at z = {z}: {exc}") from exc

    # the field checks rank and base_dim before the probe needs them
    field = MetricField(rank=r, base_dim=n, evaluate=ev, label=label, domain_radius=radius)
    # numpy floating-point warnings are silenced: a non-finite value is
    # reported as SINGULAR_METRIC by the curvature's isfinite checks instead
    try:
        # evaluate once at a test point so arithmetic failures show at load time
        with np.errstate(all="ignore"):
            entries(np.zeros(n, dtype=complex) + 0.1)
    except ArithmeticError as exc:
        raise ParamDomainError(f"metric {label!r} fails at z = 0.1: {exc}") from exc
    return field
