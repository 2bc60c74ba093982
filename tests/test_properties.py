"""Property tests on random grammar expressions over x1 and x2."""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sipsolve.expressions import (FUNCTIONS, Bin, Call, Neg, Num, Var,
                                  _domain_checks, eval_value, parse_expression,
                                  to_string)
from sipsolve.specfile import _compile_field

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
