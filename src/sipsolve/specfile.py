"""Problem definition files: a small YAML dialect compiled to SipProblem.

Schema (see README for a complete example)::

    name: example1                  # optional string
    n: 2                            # number of decision variables x1..xn
    m: 1                            # number of index variables y1..ym
    objective: "-x1 + 1.5*x2"       # expression over x only
    si_constraints:                 # >= 1 expressions over x and y, g <= 0
      - "-y1^2 + 2*y1*x1 - x2"
    index_constraints:              # >= 1 expressions over y only, v <= 0
      - "y1 - 1"
      - "-y1 - 1"
    finite_constraints: []          # optional expressions over x, c <= 0
    x_bounds: [[-1, 1], [-1, 1]]    # optional, n pairs [lo, hi]
    y_bounds: [[-1, 1]]             # m finite pairs, Y = {y in them : v <= 0};
                                    # optional for interval bounds like these
    x0: [1, -1]                     # optional canonical start
    known_solution: [0.333, 0.111]  # optional reference minimizer
    known_objective: -0.1666        # optional reference value

Expressions use variables x1..xn / y1..ym, the operators + - * / ^ and the
functions sin, cos, exp, log, sqrt.  Compiling a field differentiates it once
into gradient and Hessian expressions, exact to rounding, and compiles all of
them into Python functions once.  The built-in problems are the documents in
``sipsolve/data``, loaded the same way.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

# No solve calls eval_taylor2 or eval_value; perfbench/tracing.py hooks them
# here by name until it reads the run's own records (ROADMAP item 3).
from .expressions import (Expression, SpecParseError, compile_functions,  # noqa: F401
                          eval_taylor2, eval_value, parse_expression, variables)
from .model import ScalarField, SipProblem, index_set_box


_KNOWN_KEYS = {"name", "n", "m", "objective", "si_constraints",
               "index_constraints", "finite_constraints", "x_bounds",
               "y_bounds", "x0", "known_solution", "known_objective"}


@dataclass
class ProblemSpecFile:
    """Parsed, dimension-checked problem document (expressions still text)."""

    name: str
    n: int
    m: int
    objective: str
    si_constraints: list
    index_constraints: list
    finite_constraints: list
    x_bounds: Optional[list]
    y_bounds: Optional[list]
    x0: Optional[list]
    known_solution: Optional[list]
    known_objective: Optional[float]
    asts: dict = field(repr=False, default_factory=dict)


class SpecFileError(ValueError):
    """Structural error in a problem document (bad key, type, or dimension)."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecFileError(message)


def _number(value, where: str, finite: bool) -> float:
    """``value`` as a float.  A bool, anything ``float`` cannot read and nan
    are a SpecFileError, and so is +-inf when ``finite``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = np.nan
    _require(not isinstance(value, bool) and not np.isnan(number),
             f"{where}: expected a number, got {value!r}")
    _require(np.isfinite(number) or not finite,
             f"{where}: expected a finite number, got {value!r}")
    return number


def _bounds(doc, key: str, count: int, finite: bool):
    """The ``count`` [lo, hi] pairs under ``key`` as floats, or None."""
    pairs = doc.get(key)
    if pairs is None:
        return None
    _require(isinstance(pairs, list) and len(pairs) == count,
             f"{key}: expected {count} [lo, hi] pairs")
    _require(all(isinstance(pair, list) and len(pair) == 2 for pair in pairs),
             f"{key}: each entry must be a [lo, hi] pair")
    pairs = [[_number(v, f"{key}[{j}]", finite) for v in pair]
             for j, pair in enumerate(pairs)]
    for j, (lo, hi) in enumerate(pairs):
        _require(lo != np.inf and hi != -np.inf,
                 f"{key}[{j}]: [{lo}, {hi}] leaves no finite point")
        _require(lo <= hi, f"{key}: lower {lo} exceeds upper {hi}")
    return pairs


def _parse_expr(text, where: str, n: int, m: int, allow_x: bool, allow_y: bool):
    _require(isinstance(text, str), f"{where}: expected an expression string")
    try:
        ast = parse_expression(text)
    except SpecParseError as exc:
        raise SpecParseError(f"{where}: {exc.message}", exc.line, exc.col) from None
    for kind, index in sorted(variables(ast)):
        if kind == "x":
            _require(allow_x, f"{where}: x variables are not allowed here")
            _require(index <= n, f"{where}: references x{index} but n={n}")
        else:
            _require(allow_y, f"{where}: y variables are not allowed here")
            _require(index <= m, f"{where}: references y{index} but m={m}")
    return ast


def _expr_list(doc, key: str, n: int, m: int, allow_x: bool, allow_y: bool,
               required: bool, asts: dict) -> list:
    items = doc.get(key, [])
    if items is None:
        items = []
    _require(isinstance(items, list), f"{key}: expected a list of expressions")
    _require(not required or items, f"{key}: at least one constraint is required")
    out = []
    for k, text in enumerate(items):
        ast = _parse_expr(text, f"{key}[{k}]", n, m, allow_x, allow_y)
        asts[(key, k)] = ast
        out.append(text)
    return out


def parse_spec(text: str) -> ProblemSpecFile:
    """Parse a YAML problem document into a validated spec structure."""
    try:    # libyaml's loader when PyYAML has it; both read the same documents
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise SpecFileError(f"not a valid YAML document: {exc}") from None
    _require(isinstance(doc, dict), "document must be a mapping of keys to values")
    unknown = sorted(set(doc) - _KNOWN_KEYS)
    _require(not unknown, f"unknown key(s): {', '.join(map(str, unknown))}")
    for key in ("n", "m", "objective", "si_constraints", "index_constraints"):
        _require(key in doc, f"missing required key: {key}")
    n, m = doc["n"], doc["m"]
    _require(type(n) is int and n >= 1, "n must be an integer >= 1")
    _require(type(m) is int and m >= 1, "m must be an integer >= 1")
    name = doc.get("name")
    _require(name is None or isinstance(name, str), "name must be a string")

    asts: dict = {}
    objective = doc["objective"]
    asts[("objective", 0)] = _parse_expr(objective, "objective", n, m,
                                         allow_x=True, allow_y=False)
    si = _expr_list(doc, "si_constraints", n, m, True, True, True, asts)
    index = _expr_list(doc, "index_constraints", n, m, False, True, True, asts)
    finite = _expr_list(doc, "finite_constraints", n, m, True, False, False, asts)

    # -inf lower and +inf upper x bounds are no bound: SipProblem puts the
    # default box's there
    x_bounds = _bounds(doc, "x_bounds", n, finite=False)
    y_bounds = _bounds(doc, "y_bounds", m, finite=True)

    def _point(key: str):
        value = doc.get(key)
        if value is None:
            return None
        _require(isinstance(value, list) and len(value) == n,
                 f"{key}: expected a list of {n} numbers")
        return [_number(v, key, finite=True) for v in value]

    known_objective = doc.get("known_objective")
    if known_objective is not None:
        known_objective = _number(known_objective, "known_objective", finite=True)

    return ProblemSpecFile(
        name=name or "",
        n=n, m=m,
        objective=objective,
        si_constraints=si,
        index_constraints=index,
        finite_constraints=finite,
        x_bounds=x_bounds,
        y_bounds=y_bounds,
        x0=_point("x0"),
        known_solution=_point("known_solution"),
        known_objective=known_objective,
        asts=asts,
    )


def _compile_field(ast: Expression, n: int, m: int, layout: str, name: str) -> ScalarField:
    """Build a ScalarField from an AST, its functions compiled once.

    layout 'xy': arity n+m with x in z[:n], y in z[n:];
    layout 'x': arity n; layout 'y': arity m.
    """
    xs = [("x", i + 1) for i in range(n)]
    ys = [("y", j + 1) for j in range(m)]
    keys = {"xy": xs + ys, "x": xs, "y": ys}[layout]
    value, gradient, hessian, batch = compile_functions(ast, keys, name)
    return ScalarField(len(keys), value, gradient, hessian, batch, name=name)


def compile_spec(spec: ProblemSpecFile) -> SipProblem:
    """Compile a parsed document into a solvable problem instance."""
    n, m = spec.n, spec.m

    def fields(key, layout, prefix):
        return tuple(_compile_field(spec.asts[(key, k)], n, m, layout, f"{prefix}{k + 1}")
                     for k in range(len(getattr(spec, key))))

    return SipProblem(
        n=n, m=m,
        objective=_compile_field(spec.asts[("objective", 0)], n, m, "x", "objective"),
        si_constraints=fields("si_constraints", "xy", "g"),
        index_constraints=fields("index_constraints", "y", "v"),
        finite_constraints=fields("finite_constraints", "x", "c"),
        x_bounds=np.asarray(spec.x_bounds, dtype=float) if spec.x_bounds else None,
        y_bounds=spec.y_bounds,
        known_solution=spec.known_solution,
        known_objective=spec.known_objective,
        start=spec.x0,
        name=spec.name,
    )


def load_problem(path) -> SipProblem:
    """Read, parse, and compile a problem document from ``path``; an index
    set without a box (``index_set_box``) is a SpecFileError."""
    path = Path(path)
    problem = compile_spec(parse_spec(path.read_text(encoding="utf-8")))
    try:
        index_set_box(problem)
    except (ValueError, ArithmeticError) as exc:
        raise SpecFileError(f"index set: {exc}") from None
    if not problem.name:
        object.__setattr__(problem, "name", path.stem)
    return problem
