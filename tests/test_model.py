import numpy as np
import pytest

from sipsolve.driver import _family_rows
from sipsolve.expressions import DomainError, parse_expression
from sipsolve.model import (FieldEvaluationError, ScalarField, SipProblem,
                            validate_problem, verify_derivatives)
from sipsolve.problems import get_problem
from sipsolve.specfile import _compile_field

import helpers
from helpers import (family_of, fd_block_hessian, interval_index_fields,
                     reference_restricted_batch)


def quad_field():
    return ScalarField(2, lambda x: x[0] ** 2 + x[1] ** 2,
                       lambda x: 2.0 * x,
                       hessian=lambda x: 2.0 * np.eye(2), name="quad")


class TestScalarField:
    def test_value_gradient_hessian(self):
        f = quad_field()
        z = np.array([1.0, 2.0])
        assert f.value(z) == 5.0
        assert np.array_equal(f.gradient(z), [2.0, 4.0])
        assert np.array_equal(f.hessian(z), 2.0 * np.eye(2))
        assert f.has_hessian

    def test_eval_bundle(self):
        f = quad_field()
        z = np.array([3.0, 0.0])
        v, g, h = f.value(z), f.gradient(z), f.hessian(z)
        assert v == 9.0 and g[0] == 6.0 and h[1, 1] == 2.0

    def test_missing_hessian(self):
        f = ScalarField(1, lambda x: x[0], lambda x: np.ones(1))
        assert not f.has_hessian
        with pytest.raises(FieldEvaluationError):
            f.hessian(np.zeros(1))

    def test_arity_enforced(self):
        f = quad_field()
        with pytest.raises(ValueError):
            f.value(np.zeros(3))

    def test_bad_gradient_shape_reported(self):
        f = ScalarField(2, lambda x: x[0], lambda x: np.ones(3))
        with pytest.raises(FieldEvaluationError):
            f.gradient(np.zeros(2))

    def test_value_batch_fallback_matches_rows(self):
        f = ScalarField(2, lambda x: x[0] * x[1], lambda x: x[::-1].copy())
        pts = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]])
        assert np.array_equal(f.value_batch(pts), [2.0, 12.0, -0.5])

    def test_evaluation_is_pure(self):
        f = quad_field()
        z = np.array([0.3, -0.7])
        assert f.value(z) == f.value(z)
        assert np.array_equal(f.gradient(z), f.gradient(z))


def _rowwise_or_raised(call, points):
    """``call(points)``, or the type and message of what it raises."""
    try:
        return call(points)
    except Exception as exc:    # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def _assert_batch_is_rowwise(field, points):
    """``value_and_gradient_batch`` gives ``value_batch``'s values and the
    stacked per-row gradients, bit for bit, or the exception and message
    of the first row whose gradient raises."""
    want = _rowwise_or_raised(
        lambda pts: np.array([field.gradient(z) for z in pts]), points)
    got = _rowwise_or_raised(field.value_and_gradient_batch, points)
    if isinstance(want, tuple):
        assert got == want
    else:
        values, grads = got
        assert values.tobytes() == field.value_batch(points).tobytes()
        assert grads.shape == points.shape
        assert grads.tobytes() == want.tobytes()


# spec expressions over (x1, x2, y1): each domain check of the grammar, a
# constant one, powers, and an expression whose gradient is constant
_DOMAIN_SPECS = ["log(x1) + y1/x1", "sqrt(x1*x2) - y1^0.5",
                 "(x1 - y1)^0.5 + 3/x2", "log(x2^2 + 1) / (y1 - 0.5)",
                 "x2 / 2 + x1^4 - (x1 + y1)^5 * sin(y1)",
                 "x1^3 * exp(x2 / 4) - cos(x1*y1)^2 + x1 / (2 - 2)",
                 "2*x1 - 3*y1 + 1", "5"]


class TestGradientBatch:
    """The fused ``value_and_gradient_batch``, which the master's row
    blocks call once per evaluation."""

    @staticmethod
    def _points(rng, arity):
        inside = np.abs(rng.normal(size=(40, arity))) + 0.1
        yield inside
        yield rng.normal(size=(40, arity)) * 10.0
        yield np.zeros((0, arity))
        for col in range(arity):
            for bad in (0.0, -1.0, -0.0):
                outside = inside.copy()
                outside[-1, col] = bad      # the last row outside a domain
                yield outside

    def test_builtin_fields(self):
        # the built-ins are the three shipped specs
        rng = np.random.default_rng(5)
        for name in ("example1", "example2", "design_centering"):
            p = get_problem(name)
            fields = ([p.objective] + list(p.si_constraints)
                      + list(p.index_constraints) + list(p.finite_constraints))
            for f in fields:
                assert f._value_and_gradient_batch is not None
                for points in self._points(rng, f.arity):
                    _assert_batch_is_rowwise(f, points)

    @pytest.mark.parametrize("text", _DOMAIN_SPECS)
    def test_spec_fields_inside_and_outside_their_domain(self, text):
        rng = np.random.default_rng(7)
        f = _compile_field(parse_expression(text), 2, 1, "xy", text)
        for points in self._points(rng, 3):
            _assert_batch_is_rowwise(f, points)

    def test_row_outside_the_domain_raises_the_rows_error(self):
        f = _compile_field(parse_expression("log(x1) + y1/x1"), 1, 1, "xy", "f")
        with pytest.raises(DomainError, match="log of a nonpositive"):
            f.value_and_gradient_batch(np.array([[1.0, 2.0], [0.0, 1.0]]))
        f = _compile_field(parse_expression("x1 / (y1 - 2)"), 1, 1, "xy", "f")
        with pytest.raises(DomainError, match="division by zero"):
            f.value_and_gradient_batch(np.array([[1.0, 3.0], [1.0, 2.0]]))

    def test_values_follow_the_value_batch_on_an_integer_power(self):
        # an array's ** and libm pow may round x^3 apart in the last bit;
        # the fused values are value_batch's, its gradients gradient's
        f = _compile_field(parse_expression("(x1 + 0.3*y1)^3 - x1*y1"), 1, 1,
                           "xy", "cube")
        points = np.random.default_rng(11).uniform(-3.0, 3.0, size=(20000, 2))
        values, grads = f.value_and_gradient_batch(points)
        batch = f.value_batch(points)
        assert values.tobytes() == batch.tobytes()
        assert grads.tobytes() == np.array([f.gradient(z) for z in points]).tobytes()
        if (batch == np.array([f.value(z) for z in points])).all():
            # whether the two round apart depends on numpy's build and the CPU
            pytest.skip("an array's ** and libm pow agree on every point here")

    def test_hand_built_fields_use_the_fallback(self):
        rng = np.random.default_rng(9)
        problems = [helpers.three_peak_problem(), helpers.two_peak_problem(),
                    helpers.pinned_index_problem(), helpers.tie_problem(),
                    helpers.narrow_peak_problem()]
        for p in problems:
            for f in [p.objective, *p.si_constraints, *p.index_constraints]:
                assert f._value_and_gradient_batch is None
                for points in self._points(rng, f.arity):
                    _assert_batch_is_rowwise(f, points)

    def test_family_rows_jacobian_is_the_per_point_gradients(self, dc):
        g = dc.si_constraints[2]
        points = [np.array([0.3, -0.8]), np.array([-1.0, 0.0])]
        x = np.array([1.0, -0.5, 2.0, 0.7, -1.2])
        z = np.array([np.concatenate([x, y]) for y in points])
        calls = []
        fused = g._value_and_gradient_batch
        g._value_and_gradient_batch = lambda pts: calls.append(1) or fused(pts)
        try:
            values, jac = _family_rows(g, dc.n, points)[1](x)
        finally:
            g._value_and_gradient_batch = fused
        assert len(calls) == 1      # one field call per evaluation
        assert values.tobytes() == g.value_batch(z).tobytes()
        assert np.array_equal(
            jac, [g.gradient(np.concatenate([x, y]))[:dc.n] for y in points])

    def test_bad_batch_shape_reported(self):
        f = ScalarField(2, lambda x: x[0], lambda x: np.ones(2),
                        value_and_gradient_batch=lambda pts: (
                            pts[:, 0], np.ones(len(pts))))
        with pytest.raises(FieldEvaluationError):
            f.value_and_gradient_batch(np.zeros((3, 2)))


class TestRestrictions:
    # the lower level's family problem freezes x in g(x, y): its objective
    # is -g(x, .), and ``value``/``values`` give g(x, .) itself
    def test_restrict_to_y_slices_derivatives(self):
        g = ScalarField(3, lambda z: z[0] * z[2] ** 2,
                        lambda z: np.array([z[2] ** 2, 0.0, 2.0 * z[0] * z[2]]),
                        hessian=lambda z: np.array([
                            [0.0, 0.0, 2.0 * z[2]],
                            [0.0, 0.0, 0.0],
                            [2.0 * z[2], 0.0, 2.0 * z[0]]]))
        family = family_of(g, 2, np.array([2.0, 5.0]))
        gy = family.nlp.objective
        y = np.array([3.0])
        assert family.value(y) == 18.0
        assert np.allclose(-gy.gradient(y), [12.0])
        assert np.allclose(-gy.hessian(y), [[4.0]])

    @pytest.mark.parametrize("name", ["example1", "example2",
                                      "design_centering"])
    def test_restricted_batch_matches_tile_and_hstack(self, name):
        # the batch fills one (N, n + m) array: the bits of np.tile plus
        # np.hstack, for compiled fields and for a field evaluated per row
        problem = get_problem(name)
        rng = np.random.default_rng(7)
        per_row = ScalarField(problem.n + problem.m, lambda z: float(z @ z),
                              lambda z: 2.0 * z)
        for g in problem.si_constraints + (per_row,):
            for count in (1, 2, 65):
                x = rng.normal(size=problem.n)
                Y = rng.uniform(-1.0, 1.0, size=(count, problem.m))
                got = family_of(g, problem.n, x).values(Y)
                want = reference_restricted_batch(g, problem.n, x, Y)
                assert got.tobytes() == want.tobytes()

    def test_restrict_to_x_slices_derivatives(self):
        # a master family block: the rows x -> g(x, y_j) of one family
        dc = get_problem("design_centering")
        rng = np.random.default_rng(5)
        ys = [y / max(1.0, np.linalg.norm(y)) for y in rng.normal(size=(6, 2))]
        x = np.asarray(dc.known_solution) + 0.1 * rng.normal(size=dc.n)
        for g in dc.si_constraints:
            size, evaluate, _ = _family_rows(g, dc.n, ys)
            assert size == len(ys)
            values, jac = evaluate(x)
            zs = [np.concatenate([x, y]) for y in ys]
            # bit for bit, not just equal
            assert values.tobytes() == np.array([g.value(z) for z in zs]).tobytes()
            assert np.array(jac).tobytes() == np.array(
                [g.gradient(z)[:dc.n] for z in zs]).tobytes()

    def test_family_block_hessian_matches_differences(self):
        # example2's rows -y^2 + 2 y x1^2 - x2 curve in x (design_centering's
        # are linear in x)
        ex2 = get_problem("example2")
        ys = [np.array([y]) for y in (-0.9, -0.2, 0.3, 0.6, 1.0)]
        x = np.array([0.45, -0.3])
        w = np.array([0.7, 0.0, 1.3, 0.2, 0.0])
        block = _family_rows(ex2.si_constraints[0], ex2.n, ys)
        hess = block[2](x, w)
        assert hess[0, 0] == pytest.approx(4.0 * (0.7 * -0.9 + 1.3 * 0.3 + 0.2 * 0.6))
        assert np.abs(hess - fd_block_hessian(block, x, w)).max() <= 1e-6
        # all-zero weights give the zero matrix
        assert np.array_equal(block[2](x, np.zeros(5)), np.zeros((2, 2)))

    def test_negated(self):
        # quad_field over y, with x1 frozen and left out
        f = ScalarField(3, lambda z: z[1] ** 2 + z[2] ** 2,
                        lambda z: np.array([0.0, 2.0 * z[1], 2.0 * z[2]]),
                        hessian=lambda z: np.diag([0.0, 2.0, 2.0]))
        nf = family_of(f, 1, np.array([4.0])).nlp.objective
        z = np.array([1.0, 1.0])
        assert nf.value(z) == -2.0
        assert np.array_equal(nf.gradient(z), [-2.0, -2.0])
        assert np.array_equal(nf.hessian(z), -2.0 * np.eye(2))

    def test_wrappers_of_a_field_without_hessian_or_batch(self):
        # the family problem forwards both unconditionally: asking for the
        # missing Hessian still raises, and the batch still evaluates row by
        # row
        f = ScalarField(2, lambda z: z[0] * z[1], lambda z: np.array([z[1], z[0]]))
        family = family_of(f, 1, np.array([2.0]))
        with pytest.raises(FieldEvaluationError):
            family.nlp.objective.hessian(np.array([3.0]))
        assert np.array_equal(family.values(np.array([[3.0], [-1.0]])), [6.0, -2.0])
        assert np.array_equal(family.nlp.objective.value_batch(
            np.array([[3.0], [-0.5]])), [-6.0, 1.0])


class TestVerifyDerivatives:
    def test_quadratic_is_exact_under_central_differences(self):
        err = verify_derivatives(quad_field(), [np.array([1.0, 1.0])], h=1e-5)
        assert err <= 1e-8

    def test_hand_gradient_of_parabolic_constraint(self):
        # g(x1, x2, y) = -y^2 + 2 y x1 - x2, gradient (2y, -1, -2y + 2 x1)
        def grad(z):
            x1, _, y = z
            return np.array([2.0 * y, -1.0, -2.0 * y + 2.0 * x1])

        g = ScalarField(3, lambda z: -z[2] ** 2 + 2.0 * z[2] * z[0] - z[1],
                        grad)
        z = np.array([0.5, 0.0, 0.3])
        assert np.allclose(g.gradient(z), [0.6, -1.0, 0.4])
        assert verify_derivatives(g, [z], h=1e-5) <= 1e-6

    def test_wrong_gradient_is_flagged(self):
        f = ScalarField(2, lambda x: x[0] ** 2 + x[1] ** 2,
                        lambda x: 2.0 * x + np.array([1.0, 0.0]))
        err = verify_derivatives(f, [np.array([1.0, 1.0])], h=1e-5)
        assert err > 0.1

    def test_wrong_hessian_is_flagged(self):
        # true second derivative at 1 is 6, declared is 0
        f = ScalarField(1, lambda x: x[0] ** 3, lambda x: 3.0 * x ** 2,
                        hessian=lambda x: np.zeros((1, 1)))
        err = verify_derivatives(f, [np.array([1.0])], h=1e-5)
        assert err > 0.9

    def test_evaluation_failure_propagates(self):
        import math

        f = ScalarField(1, lambda x: math.log(x[0]), lambda x: 1.0 / x)
        with pytest.raises(FieldEvaluationError):
            verify_derivatives(f, [np.array([-1.0])], h=1e-5)


def _toy_problem(**overrides):
    f = ScalarField(2, lambda x: -x[0] + 1.5 * x[1],
                    lambda x: np.array([-1.0, 1.5]),
                    hessian=lambda x: np.zeros((2, 2)))
    g = ScalarField(3, lambda z: -z[2] ** 2 + 2.0 * z[2] * z[0] - z[1],
                    lambda z: np.array([2.0 * z[2], -1.0,
                                        -2.0 * z[2] + 2.0 * z[0]]),
                    hessian=lambda z: np.array([[0.0, 0.0, 2.0],
                                                [0.0, 0.0, 0.0],
                                                [2.0, 0.0, -2.0]]))
    kw = dict(n=2, m=1, objective=f, si_constraints=(g,),
              index_constraints=interval_index_fields(),
              x_bounds=np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    kw.update(overrides)
    return SipProblem(**kw)


class TestValidateProblem:
    def test_wellformed_problem_is_valid(self):
        report = validate_problem(_toy_problem())
        assert report.valid, report.issues

    def test_gradient_arity_mismatch(self):
        bad = ScalarField(2, lambda x: x[0], lambda x: np.ones(1))
        report = validate_problem(_toy_problem(objective=bad))
        assert not report.valid
        assert any("objective" in msg for msg in report.issues)

    def test_objective_arity_mismatch(self):
        bad = ScalarField(3, lambda x: x[0], lambda x: np.ones(3))
        report = validate_problem(_toy_problem(objective=bad))
        assert not report.valid
        assert any("dimension mismatch" in msg for msg in report.issues)

    def test_unbounded_index_set_detected(self):
        # v(y) = -1 never binds, so Y is all of R
        vacuous = ScalarField(1, lambda y: -1.0, lambda y: np.zeros(1),
                              hessian=lambda y: np.zeros((1, 1)),
                              value_batch=lambda pts: -np.ones(len(pts)))
        report = validate_problem(_toy_problem(index_constraints=(vacuous,)))
        assert not report.valid
        assert any("unbounded index set" in msg for msg in report.issues)

    def test_empty_index_set_detected(self):
        impossible = ScalarField(
            1, lambda y: y[0] ** 2 + 1.0, lambda y: 2.0 * y,
            hessian=lambda y: 2.0 * np.eye(1),
            value_batch=lambda pts: pts[:, 0] ** 2 + 1.0)
        report = validate_problem(_toy_problem(index_constraints=(impossible,)))
        assert not report.valid
        assert any("empty" in msg for msg in report.issues)

    def test_index_set_without_a_box_named(self):
        # a disk is no interval bound: its box must be declared
        disk = ScalarField(1, lambda y: y[0] ** 2 - 1.0, lambda y: 2.0 * y,
                           hessian=lambda y: 2.0 * np.eye(1),
                           value_batch=lambda pts: pts[:, 0] ** 2 - 1.0)
        for y_bounds in (None, [[1.0, -1.0]], [[-np.inf, 1.0]]):
            report = validate_problem(
                _toy_problem(index_constraints=(disk,), y_bounds=y_bounds))
            assert [msg for msg in report.issues if "y_bounds" in msg]
        assert validate_problem(_toy_problem(index_constraints=(disk,),
                                             y_bounds=[[-1.0, 1.0]])).valid

    def test_crossed_bounds_detected(self):
        report = validate_problem(
            _toy_problem(x_bounds=np.array([[1.0, -1.0], [-1.0, 1.0]])))
        assert not report.valid

    @pytest.mark.parametrize("key", ["si_constraints", "objective",
                                     "finite_constraints"])
    def test_missing_si_hessian_detected(self, key):
        # every field carries a Hessian: the master's second-order check
        # reads the objective's and the finite constraints' too
        without = {
            "si_constraints": (ScalarField(3, lambda z: z[2],
                                           lambda z: np.array([0.0, 0.0, 1.0])),),
            "objective": ScalarField(2, lambda x: x[0], lambda x: np.array([1.0, 0.0])),
            "finite_constraints": (ScalarField(2, lambda x: x[1] - 0.5,
                                               lambda x: np.array([0.0, 1.0])),),
        }
        report = validate_problem(_toy_problem(**{key: without[key]}))
        assert not report.valid
        assert any(msg.startswith(key) and "missing Hessian" in msg
                   for msg in report.issues)


class TestSipProblem:
    def test_infinite_bounds_are_clamped(self):
        p = _toy_problem(x_bounds=np.array([[-np.inf, np.inf],
                                            [-1.0, 1.0]]))
        assert np.array_equal(p.x_bounds[0], [-1e3, 1e3])
        assert np.array_equal(p.x_bounds[1], [-1.0, 1.0])

    def test_finite_bounds_beyond_the_default_box_are_kept(self):
        p = _toy_problem(x_bounds=np.array([[2000.0, 3000.0],
                                            [-5000.0, -1500.0]]))
        assert np.array_equal(p.x_bounds, [[2000.0, 3000.0], [-5000.0, -1500.0]])
        assert validate_problem(p).valid

    @pytest.mark.parametrize("pair", [[np.inf, np.inf], [-np.inf, -np.inf]])
    def test_bound_without_a_finite_point_is_reported(self, pair):
        # only the infinity on the open side of the box is replaced
        p = _toy_problem(x_bounds=np.array([pair, [-1.0, 1.0]]))
        assert np.isinf(p.x_bounds[0]).sum() == 1
        report = validate_problem(p)
        assert not report.valid
        assert any(msg.startswith("x_bounds:") for msg in report.issues)

    def test_default_bounds(self):
        p = _toy_problem(x_bounds=None)
        assert np.array_equal(p.x_bounds, [[-1e3, 1e3], [-1e3, 1e3]])

    def test_n_si(self):
        assert _toy_problem().n_si == 1
