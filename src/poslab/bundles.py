"""Built-in metric fields on CP^n and the declarative JSON metric loader.

Catalogue (string identifiers accepted by :func:`builtin`):

* ``o(l)``          -- the line bundle O(l) with h = (1 + |z|^2)^(-l)
* ``tpn``           -- the tangent bundle with the Fubini-Study metric
* ``tpn_twist(l)``  -- TP^n tensor O(l)
* ``dsum(a,b,...)`` -- the direct sum O(a) + O(b) + ...

User metrics load from a JSON object with keys ``rank``, ``base_dim``,
``entries`` (matrix of expression strings) and optional ``label`` and
``domain_radius`` (a positive number).  Expressions use variables
``z1 .. zn``, the functions ``conj(.)`` and ``abs2(.)`` with one positional
argument, the imaginary unit ``I``, numeric literals and ``+ - * / **`` with
parentheses; nothing else parses.  The entries are compiled once at load; an
arithmetic failure (division by zero, overflow) is a ParamDomainError at the
load-time test point and a SingularMetricError at any later point.
"""

from __future__ import annotations

import ast
import json
import re

import numpy as np

from .errors import ParamDomainError, SingularMetricError
from .geometry import MetricField, _orthonormalizer, fubini_study


def _norm2(z: np.ndarray) -> float:
    return float(np.vdot(z, z).real)


def o_line(l: float, n: int) -> MetricField:
    """O(l) with the Fubini-Study-induced metric h = (1+|z|^2)^(-l)."""
    def ev(z, l=float(l)):
        return np.array([[(1.0 + _norm2(z)) ** (-l)]], dtype=complex)

    return MetricField(rank=1, base_dim=n, evaluate=ev, label=f"o({l:g})")


def tangent_pn(n: int) -> MetricField:
    """TP^n with the metric induced by the Fubini-Study form."""
    return MetricField(rank=n, base_dim=n, evaluate=lambda z: fubini_study(n, z), label="tpn")


def direct_sum(powers, n: int) -> MetricField:
    """O(a_1) + ... + O(a_r) with the product metric."""
    powers = [float(a) for a in powers]

    def ev(z):
        s = 1.0 + _norm2(z)
        return np.diag([s ** (-a) for a in powers]).astype(complex)

    label = "dsum(" + ",".join(f"{a:g}" for a in powers) + ")"
    return MetricField(rank=len(powers), base_dim=n, evaluate=ev, label=label)


def twist(E: MetricField, l: float) -> MetricField:
    """E tensor O(l): multiply the metric by (1+|z|^2)^(-l)."""
    def ev(z, l=float(l)):
        return E(z) * (1.0 + _norm2(z)) ** (-l)

    return MetricField(
        rank=E.rank,
        base_dim=E.base_dim,
        evaluate=ev,
        label=f"{E.label}*o({l:g})",
        domain_radius=E.domain_radius,
    )


def tangent_pn_twist(l: float, n: int) -> MetricField:
    f = twist(tangent_pn(n), l)
    return MetricField(rank=n, base_dim=n, evaluate=f.evaluate, label=f"tpn_twist({l:g})")


def det_field(E: MetricField) -> MetricField:
    """det E with the induced metric det(h)."""
    def ev(z):
        return np.array([[np.linalg.det(E(z)).real]], dtype=complex)

    return MetricField(
        rank=1, base_dim=E.base_dim, evaluate=ev,
        label=f"det({E.label})", domain_radius=E.domain_radius,
    )


def frame_normalized(E: MetricField, p) -> MetricField:
    """Conjugate E by a constant frame change so the metric at ``p`` is Id.

    Raises SingularMetricError when the metric at ``p`` is not positive definite.
    """
    # new frame vectors are the columns of Q; h~ = Q^T h conj(Q) is Id at p
    Q = _orthonormalizer(E(p))

    def ev(z):
        return Q.T @ E(z) @ Q.conj()

    return MetricField(
        rank=E.rank, base_dim=E.base_dim, evaluate=ev,
        label=f"{E.label}@norm", domain_radius=E.domain_radius,
    )


_BUILTIN_RE = re.compile(r"^\s*(o|tpn_twist|dsum|tpn)\s*(?:\(([^()]*)\))?\s*$")


def builtin(ident: str, n: int) -> MetricField:
    """Resolve a catalogue identifier like ``o(2)`` or ``dsum(3,-1)``."""
    m = _BUILTIN_RE.match(ident.lower())
    if not m:
        raise KeyError(f"unknown bundle identifier {ident!r}")
    name, args = m.group(1), m.group(2)
    if name == "tpn" and args is None:
        return tangent_pn(n)
    if name == "o" and args is not None:
        return o_line(float(args), n)
    if name == "tpn_twist" and args is not None:
        return tangent_pn_twist(float(args), n)
    if name == "dsum" and args is not None:
        return direct_sum([float(a) for a in args.split(",")], n)
    raise KeyError(f"unknown bundle identifier {ident!r}")


# --- declarative JSON metrics -------------------------------------------------

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_FUNCTIONS = {"conj": np.conj, "abs2": lambda v: (v * np.conj(v)).real}


def _lower_expr(src: str, n: int) -> ast.expr:
    """Check one metric-entry expression against the whitelist and lower it.

    Literals become complex constants, ``I`` becomes 1j and ``zk`` becomes
    ``z[k-1]``; every operation keeps its operands and their order.
    """
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ParamDomainError(f"metric expression {src!r} does not parse") from exc

    names = {f"z{i + 1}": i for i in range(n)}

    def lower(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float, complex)):
            return ast.Constant(complex(node.value))
        if isinstance(node, ast.Name):
            if node.id == "I":
                return ast.Constant(1j)
            if node.id in names:
                return ast.Subscript(ast.Name("z", ast.Load()), ast.Constant(names[node.id]),
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
    """Compile an r x r matrix of entry expressions once into a function of z."""
    body = ast.Tuple([ast.Tuple([_lower_expr(str(e), n) for e in row], ast.Load())
                      for row in rows], ast.Load())
    args = ast.arguments(posonlyargs=[], args=[ast.arg("z")], kwonlyargs=[],
                         kw_defaults=[], defaults=[])
    tree = ast.fix_missing_locations(ast.Expression(ast.Lambda(args, body)))
    return eval(compile(tree, "<metric entries>", "eval"), {"__builtins__": {}, **_FUNCTIONS})


def load_metric_json(source) -> MetricField:
    """Build a MetricField from a JSON description (dict, JSON text, or path)."""
    if isinstance(source, dict):
        spec = source
    else:
        text = str(source)
        try:
            if text.lstrip().startswith("{"):
                spec = json.loads(text)
            else:
                with open(text) as fh:
                    spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParamDomainError(f"metric JSON does not parse: {exc}") from exc

    try:
        r, n, rows = int(spec["rank"]), int(spec["base_dim"]), spec["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParamDomainError(
            f"metric JSON needs integer rank and base_dim and entries ({exc!r})") from exc
    if (r < 1 or n < 1 or not isinstance(rows, list) or len(rows) != r
            or any(not isinstance(row, list) or len(row) != r for row in rows)):
        raise ParamDomainError(
            "metric JSON needs rank >= 1, base_dim >= 1 and an r x r entries matrix")
    radius = spec.get("domain_radius")
    if radius is not None and (type(radius) not in (int, float) or not radius > 0):
        raise ParamDomainError(
            f"metric JSON domain_radius must be a positive number, got {radius!r}")
    entries = _compile_entries(rows, n)
    label = str(spec.get("label", "user"))
    # numpy floating-point warnings are silenced: a non-finite value is
    # reported as SINGULAR_METRIC by the curvature's isfinite checks instead
    try:
        # evaluate once at a test point so arithmetic failures show at load time
        with np.errstate(all="ignore"):
            entries(np.zeros(n, dtype=complex) + 0.1)
    except ArithmeticError as exc:
        raise ParamDomainError(f"metric {label!r} fails at z = 0.1: {exc}") from exc

    def ev(z):
        try:
            with np.errstate(all="ignore"):
                return np.array(entries(z), dtype=complex)
        except ArithmeticError as exc:
            raise SingularMetricError(f"metric {label!r} fails at z = {z}: {exc}") from exc

    return MetricField(
        rank=r,
        base_dim=n,
        evaluate=ev,
        label=label,
        domain_radius=radius,
    )
