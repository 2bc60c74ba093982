import warnings

import numpy as np
import pytest

from sipsolve.expressions import (DomainError, SpecParseError, derivative,
                                  eval_value, parse_expression, variables)
from sipsolve.specfile import _compile_field

from helpers import to_string


class TestParseErrors:
    @pytest.mark.parametrize("text,col,fragment", [
        ("x1 + (", 6, "unexpected end"),
        ("x1 +", 4, "unexpected end"),
        ("", 1, "unexpected end"),
        ("(", 1, "unexpected end"),
        ("sin(", 4, "unexpected end"),
        ("(x1", 1, "unclosed"),
        ("x1 )", 4, "unexpected ')'"),
        ("x1^2.5", 3, "exponent"),
        ("x1^-1", 3, "exponent"),
        ("x0", 1, "index must start at 1"),
        ("y0 + 1", 1, "index must start at 1"),
    ])
    def test_position_and_message(self, text, col, fragment):
        with pytest.raises(SpecParseError) as exc:
            parse_expression(text)
        assert exc.value.line == 1
        assert exc.value.col == col, str(exc.value)
        assert fragment in str(exc.value)

    def test_unknown_function_name(self):
        with pytest.raises(SpecParseError) as exc:
            parse_expression("foo(x1)")
        assert "unknown identifier 'foo'" in str(exc.value)

    def test_abs_is_called_out(self):
        # nonsmooth, deliberately rejected
        with pytest.raises(SpecParseError) as exc:
            parse_expression("abs(x1)")
        assert "abs is not supported" in str(exc.value)

    def test_error_column_counts_from_one(self):
        with pytest.raises(SpecParseError) as exc:
            parse_expression("? + x1")
        assert exc.value.col == 1


class TestEvaluation:
    def test_value_of_polynomial(self):
        e = parse_expression("-y1^2 + 2*y1*x1 - x2")
        env = {("x", 1): 0.5, ("x", 2): 0.0, ("y", 1): 0.3}
        assert eval_value(e, env) == pytest.approx(0.21, abs=1e-15)

    def test_variables_collected(self):
        e = parse_expression("-y1^2 + 2*y1*x1 - x2")
        assert variables(e) == {("x", 1), ("x", 2), ("y", 1)}

    def test_half_power_is_sqrt(self):
        e = parse_expression("x1^0.5")
        assert eval_value(e, {("x", 1): 4.0}) == 2.0

    def test_half_power_of_negative_base_is_nan(self):
        # a Python-float base would give a complex number under **
        assert np.isnan(eval_value(parse_expression("(0 - 2)^0.5"), {}))
        vals = eval_value(parse_expression("x1^0.5"),
                          {("x", 1): np.array([-4.0, 4.0])})
        assert np.isnan(vals[0]) and vals[1] == 2.0
        # compiled, the constant base stays a Python float
        assert np.isnan(compiled("x1 + (0 - 2)^0.5").value([1.0, 0.0]))

    def test_integer_power_chain(self):
        e = parse_expression("x1^3")
        assert eval_value(e, {("x", 1): -2.0}) == -8.0

    def test_batch_evaluation_is_permissive(self):
        # grid scans hit out-of-domain points; values go nan/inf, no raise
        e = parse_expression("log(x1)")
        with np.errstate(all="ignore"):
            vals = eval_value(e, {("x", 1): np.array([-1.0, 1.0])})
        assert np.isnan(vals[0]) and vals[1] == 0.0


def compiled(text: str, n: int = 2, m: int = 0):
    """The spec-file field of ``text`` over (x1..xn, y1..ym)."""
    return _compile_field(parse_expression(text), n, m, "xy", text)


class TestTaylor2:
    """Second-order data of compiled fields: value, gradient and Hessian."""

    def test_polynomial_value_gradient_hessian(self):
        f = compiled("-y1^2 + 2*y1*x1 - x2", n=2, m=1)
        z = np.array([0.5, 0.0, 0.3])
        assert f.value(z) == pytest.approx(0.21, abs=1e-15)
        assert np.allclose(f.gradient(z), [0.6, -1.0, 0.4])
        assert np.allclose(f.hessian(z), [[0.0, 0.0, 2.0],
                                          [0.0, 0.0, 0.0],
                                          [2.0, 0.0, -2.0]])

    def test_constant_has_zero_derivatives(self):
        f = compiled("3")
        z = np.zeros(2)
        assert f.value(z) == 3.0
        assert np.array_equal(f.gradient(z), np.zeros(2))
        assert np.array_equal(f.hessian(z), np.zeros((2, 2)))
        assert np.array_equal(f.value_batch(np.zeros((4, 2))), np.full(4, 3.0))

    def test_square_hessian(self):
        f = compiled("x1^2", n=1)
        assert np.allclose(f.hessian([1.7]), [[2.0]])

    @pytest.mark.parametrize("text,value,fragment", [
        ("log(x1)", -1.0, "log of a nonpositive value"),
        ("log(x1)", 0.0, "log of a nonpositive value"),
        ("sqrt(x1)", -1.0, "sqrt of a nonpositive value"),
        ("x1^0.5", -1.0, "sqrt of a nonpositive value"),
        ("1 / x1", 0.0, "division by zero"),
    ])
    def test_domain_errors(self, text, value, fragment):
        f = compiled(text, n=1)
        for derivative_of in (f.gradient, f.hessian):
            with pytest.raises(DomainError) as exc:
                derivative_of([value])
            assert fragment in str(exc.value)
        # values stay permissive, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(f.value([value]))
            assert not np.isfinite(f.value_batch(np.array([[value]]))[0])

    @pytest.mark.parametrize("text,fragment", [
        # the checks come from the expression, not from its derivatives:
        # constant subexpressions and terms that differentiate to zero count
        ("x2 + log(0 - 1)", "log of a nonpositive value"),
        ("x2 + 0*sqrt(x1)", "sqrt of a nonpositive value"),
        ("x2 + x1 / (x1 - x1)", "division by zero"),
        # arguments are checked before the nodes that use them, and the first
        # check to fail in evaluation order is reported
        ("log(1 / x1 - 1 / x1)", "division by zero"),
        ("log(x1) + x2 / x1", "log of a nonpositive value"),
    ])
    def test_domain_errors_from_the_value_expression(self, text, fragment):
        f = compiled(text)
        for derivative_of in (f.gradient, f.hessian):
            with pytest.raises(DomainError) as exc:
                derivative_of([0.0, 1.0])
            assert fragment in str(exc.value)


class TestDerivative:
    def test_exact_simplifications(self):
        # d/dx1 (x1*x2 + 1) = 1*x2 + x1*0 + 0 -> x2
        e = parse_expression("x1*x2 + 1")
        assert derivative(e, ("x", 1)) == parse_expression("x2")
        assert derivative(e, ("y", 1)) == parse_expression("0")


SMOOTH_CASES = [
    "x1^2 + 2*x1*x2 - x2^3",
    "sin(x1)*cos(x2) + exp(x1 - x2)",
    "log(x1) + sqrt(x2)",
    "x1 / x2 + x2 / (1 + x1^2)",
    "exp(-x1^2) * sin(3*x2)",
    "x1^0.5 * x2 + 1 / (x1 + x2)",
]


class TestDerivativesAgainstFiniteDifferences:
    @pytest.mark.parametrize("text", SMOOTH_CASES)
    def test_gradient_and_hessian_match_central_differences(self, text):
        f = compiled(text)
        d = 2
        rng = np.random.default_rng(11)
        h = 1e-5

        for _ in range(100):
            # keep points inside every function's domain
            z = rng.uniform(0.1, 0.9, size=d)
            v, g, hess = f.value(z), f.gradient(z), f.hessian(z)
            scale = max(1.0, abs(v))
            for j in range(d):
                ej = np.zeros(d)
                ej[j] = h
                fd = (f.value(z + ej) - f.value(z - ej)) / (2.0 * h)
                assert abs(g[j] - fd) <= 1e-6 * max(scale, abs(fd))
                fd2 = (f.value(z + ej) - 2.0 * v + f.value(z - ej)) / h ** 2
                assert abs(hess[j, j] - fd2) <= 2e-4 * max(scale, abs(fd2))


class TestPrinting:
    @pytest.mark.parametrize("text", SMOOTH_CASES + [
        "-y1^2 + 2*y1*x1 - x2",
        "3",
        "x1^0.5",
        "-(x1 + x2) * 4",
    ])
    def test_round_trip_is_stable(self, text):
        e1 = parse_expression(text)
        printed = to_string(e1)
        e2 = parse_expression(printed)
        assert e1 == e2
        assert to_string(e2) == printed

    def test_round_trip_preserves_values(self):
        e1 = parse_expression("-y1^2 + 2*y1*x1 - x2")
        e2 = parse_expression(to_string(e1))
        env = {("x", 1): 0.5, ("x", 2): 0.0, ("y", 1): 0.3}
        assert eval_value(e1, env) == eval_value(e2, env)
