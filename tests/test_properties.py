"""Property tests on random grammar expressions over x1 and x2, the
compiled fields of the shipped specs against the reference evaluators, and
short solver and CLI runs on random small spec files, valid or with one
malformed key."""
import tempfile
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import yaml

from sipsolve import cli
from sipsolve.driver import DriverOptions, run_blankenship_falk, run_qcad

from sipsolve.expressions import (FUNCTIONS, Bin, Call, Neg, Num, Var,
                                  _domain_checks, derivative_tables,
                                  eval_taylor2, eval_value, parse_expression)
from sipsolve.problems import REGISTRY, get_problem
from sipsolve.specfile import SpecFileError, _compile_field, compile_spec, parse_spec

from helpers import to_string

# deterministic and small, so that the tier-1 run stays fast and repeatable
SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)

VARIABLES = st.sampled_from([Var("x", 1), Var("x", 2)])
EXPONENTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])


def grammar(leaves):
    """Expressions the parser can produce, grown from ``leaves``."""
    def extend(sub):
        return st.one_of(
            sub.map(Neg),
            st.builds(Call, st.sampled_from(FUNCTIONS), sub),
            st.builds(Bin, st.sampled_from("+-*/"), sub, sub),
            st.builds(lambda base, p: Bin("^", base, Num(p)), sub, EXPONENTS))
    return st.recursive(leaves, extend, max_leaves=8)


# every leaf of the differentiated expressions depends on a variable, so that
# no example is a constant
SCALED_VARIABLES = st.one_of(VARIABLES, st.builds(
    lambda c, v: Bin("*", Num(c), v), st.floats(min_value=0.25, max_value=2.0),
    VARIABLES))


@SETTINGS
@given(grammar(st.one_of(VARIABLES, st.floats(min_value=0.0, max_value=1e6).map(Num))))
def test_printing_then_parsing_reproduces_the_ast(expr):
    assert parse_expression(to_string(expr)) == expr


@SETTINGS
@given(grammar(SCALED_VARIABLES),
       st.floats(min_value=0.2, max_value=0.8),
       st.floats(min_value=0.2, max_value=0.8))
def test_derivatives_match_central_differences(expr, x1, x2):
    z = np.array([x1, x2])
    env = {("x", 1): x1, ("x", 2): x2}
    # stay well inside the domain of every log, sqrt and division
    for arg, op in _domain_checks(expr):
        v = eval_value(arg, env)
        assume(abs(v) >= 0.1 if op == "/" else v >= 0.1)
    f = _compile_field(expr, 2, 0, "xy", "f")
    value, grad, hess = f.value(z), f.gradient(z), f.hessian(z)
    scale = max(1.0, abs(value), np.abs(grad).max(), np.abs(hess).max())
    assume(scale <= 1e4)
    assert np.array_equal(hess, hess.T)

    h = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd_grad = (f.value(z + e) - f.value(z - e)) / (2.0 * h)
        fd_hess = (f.gradient(z + e) - f.gradient(z - e)) / (2.0 * h)
        assert abs(grad[j] - fd_grad) <= 1e-6 * scale
        assert np.abs(hess[:, j] - fd_hess).max() <= 1e-6 * scale


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the arithmetic error it raises
    (DomainError, or a Python float's ZeroDivisionError) as text."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return f"{type(exc).__name__}: {exc}"


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(a, b, equal_nan=True)


def assert_matches_reference(field, expr, keys, points):
    """Compiled value, batches, gradient and Hessian of ``field`` against
    eval_value and eval_taylor2 on ``expr``: the same floats, or the same
    error from both.  ``value_and_gradient_batch`` gives the batch values
    and every row's gradient, or the error of the first row that has
    one."""
    grad, hess = derivative_tables(expr, keys)
    with np.errstate(all="ignore"):
        batch = _outcome(lambda: np.broadcast_to(
            eval_value(expr, dict(zip(keys, points.T))), (len(points),)))
        assert _same(_outcome(field.value_batch, points), batch)
        rows = []
        for z in points:
            env = dict(zip(keys, z))
            assert _same(_outcome(field.value, z),
                         _outcome(lambda: float(eval_value(expr, env))))
            rows.append(_outcome(eval_taylor2, grad, env))
            assert _same(_outcome(field.gradient, z), rows[-1])
            assert _same(_outcome(field.hessian, z), _outcome(eval_taylor2, hess, env))
        fused = _outcome(field.value_and_gradient_batch, points)
        failed = [row for row in rows if isinstance(row, str)]
        if failed:
            assert fused == failed[0]
        else:
            assert _same(fused[0], batch)
            assert _same(fused[1], np.reshape(rows, points.shape))


# zero and one hit the domain checks of log, sqrt and division
COORDINATES = st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                        st.floats(min_value=-3.0, max_value=3.0))


@SETTINGS
@given(grammar(st.one_of(VARIABLES, st.floats(min_value=0.0, max_value=1e6).map(Num))),
       st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1, max_size=6))
def test_compiled_functions_match_the_reference_evaluators(expr, points):
    field = _compile_field(expr, 2, 0, "xy", "f")
    assert_matches_reference(field, expr, [("x", 1), ("x", 2)], np.array(points))


def test_shipped_fields_match_the_reference_evaluators():
    rng = np.random.default_rng(2024)
    checked = 0
    for name in REGISTRY:
        spec = parse_spec((files("sipsolve") / "data" / f"{name}.yaml").read_text())
        problem = get_problem(name)
        xs = [("x", i + 1) for i in range(problem.n)]
        ys = [("y", j + 1) for j in range(problem.m)]
        for key, keys in (("objective", xs), ("si_constraints", xs + ys),
                          ("index_constraints", ys), ("finite_constraints", xs)):
            fields = getattr(problem, key)
            for k, field in enumerate(fields if key != "objective" else [fields]):
                points = rng.uniform(-3.0, 3.0, size=(2000, len(keys)))
                assert_matches_reference(field, spec.asts[(key, k)], keys, points)
                checked += 1
    assert checked == 13


NUMBERS = st.floats(min_value=0.0, max_value=10.0).map(Num)
ENDPOINTS = st.integers(min_value=-4, max_value=2).map(lambda k: 0.5 * k)
WIDTHS = st.sampled_from([0.0, 1e-3, 0.01, 0.5, 1.0, 2.0])


def _box_points(n):
    return st.lists(st.floats(min_value=-1.0, max_value=1.0),
                    min_size=n, max_size=n)


def _minus(y, c):
    """y - c as an expression, for any float c."""
    return Bin("-", y, Num(c)) if c >= 0.0 else Bin("+", y, Num(-c))


@st.composite
def small_spec_docs(draw):
    """A spec document, as a dict, with n <= 2, m = 1 and an interval index
    set."""
    n = draw(st.integers(min_value=1, max_value=2))
    xs = [Var("x", j + 1) for j in range(n)]
    y = Var("y", 1)
    lo = draw(ENDPOINTS)
    hi = lo + draw(WIDTHS)
    doc = {
        "name": "random",
        "n": n, "m": 1,
        "objective": to_string(draw(grammar(st.one_of(st.sampled_from(xs),
                                                      NUMBERS)))),
        "si_constraints": [to_string(draw(grammar(st.one_of(
            st.sampled_from(xs + [y]), NUMBERS))))],
        "index_constraints": [to_string(_minus(y, hi)),
                              to_string(Neg(_minus(y, lo)))],
        "x_bounds": [[-1.0, 1.0]] * n,
        "x0": draw(_box_points(n)),
    }
    if draw(st.booleans()):
        doc["known_solution"] = draw(_box_points(n))
    return doc


def small_specs():
    """``small_spec_docs`` as YAML text."""
    return small_spec_docs().map(yaml.safe_dump)


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


NOT_NUMBERS = ["abc", "", True, [1.0], {"a": 1.0}, None]
NON_FINITE = [np.nan, np.inf, -np.inf]
NOT_LISTS = ["abc", 1.0, True, {"a": 1.0}]


@st.composite
def _one_entry(draw, value, bad):
    """``value``, a list of numbers or of [lo, hi] pairs, with one entry
    replaced by a draw from ``bad``."""
    out = [list(v) if isinstance(v, list) else v for v in value]
    j = draw(st.integers(0, len(out) - 1))
    if isinstance(out[j], list):
        out[j][draw(st.integers(0, 1))] = draw(bad)
    else:
        out[j] = draw(bad)
    return out


def _wrong_values(key: str, doc: dict):
    """Values of the wrong type for ``key``, or non-finite numbers where a
    finite one is needed (x_bounds takes +-inf as no bound)."""
    if key == "name":
        return st.sampled_from([1, 2.5, True, ["random"], {"a": 1}])
    if key in ("n", "m"):
        return st.sampled_from(NOT_NUMBERS + NON_FINITE + [1.5, 0])
    if key == "objective":
        return st.sampled_from(NOT_LISTS[1:] + [["x1"], None, np.nan])
    if key in ("si_constraints", "index_constraints", "finite_constraints"):
        lists = [[1.0], [None], [np.inf], [["x1"]], "x1", 1.0, True, {"a": "x1"}]
        return st.sampled_from(lists + ([None] if key != "finite_constraints" else []))
    if key == "x_bounds":
        return st.one_of(st.sampled_from(NOT_LISTS + [[1.0] * len(doc[key])]),
                         _one_entry(doc[key], st.sampled_from(NOT_NUMBERS + [np.nan])))
    if key in ("x0", "known_solution"):
        return st.one_of(st.sampled_from(NOT_LISTS),
                         _one_entry(doc["x0"], st.sampled_from(NOT_NUMBERS + NON_FINITE)))
    return st.sampled_from(NOT_NUMBERS[:-1] + NON_FINITE)       # known_objective


@pytest.mark.parametrize("key", ["name", "n", "m", "objective", "si_constraints",
                                 "index_constraints", "finite_constraints",
                                 "x_bounds", "x0", "known_solution",
                                 "known_objective"])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_malformed_specs_are_configuration_errors(key, data):
    # a small spec with one top-level key holding a wrong value
    doc = data.draw(small_spec_docs())
    doc[key] = data.draw(_wrong_values(key, doc))
    text = yaml.safe_dump(doc)
    with pytest.raises(SpecFileError):
        parse_spec(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.yaml"
        path.write_text(text)
        assert _exit_code(["run", "--spec", str(path)]) == 2
        assert _exit_code(["verify", "--spec", str(path)]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=25, derandomize=True, deadline=None)
@given(small_specs())
def test_random_specs_end_in_a_status_and_an_exit_code(text):
    # a user's fields may overflow, leave their domain or raise; the drivers
    # still return a status and the CLI exits with 0, 1 or 2
    problem = compile_spec(parse_spec(text))
    opts = DriverOptions(mode="practical", max_iter=3)
    for run in (run_blankenship_falk, run_qcad):
        result = run(problem, opts=opts)
        assert result.final_status in ("tolerance_met", "max_iter",
                                       "subsolver_failure")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.yaml"
        path.write_text(text)
        assert _exit_code(["run", "--spec", str(path), "--alg", "both",
                           "--max-iter", "3"]) in (0, 1, 2)
        assert _exit_code(["verify", "--spec", str(path)]) in (0, 1, 2)
