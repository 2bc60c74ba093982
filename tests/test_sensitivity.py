import numpy as np
import pytest

from sipsolve import driver, lower_level, sensitivity
from sipsolve.driver import DriverOptions, run_qcad
from sipsolve.lower_level import solve_lower_level_global
from sipsolve.sensitivity import (SensitivityError, compute_sensitivity,
                                  linearization_field,
                                  linearized_value_and_gradient)

from helpers import (fd_block_hessian, fd_maximizer_jacobian,
                     pinned_index_problem, reference_kkt_jacobian)


def _linearize(problem, i, x):
    sol = solve_lower_level_global(problem, i, x)
    return sol, compute_sensitivity(problem, sol)


class TestMaximizerSensitivity:
    def test_interior_parabola_is_exact(self, ex1):
        # argmax of -y^2 + 2 y x1 - x2 is y = x1, so dy/dx = (1, 0)
        x = np.array([0.5, 0.0])
        sol = solve_lower_level_global(ex1, 0, x)
        lc = compute_sensitivity(ex1, sol)
        assert np.allclose(lc.dy_dx, [[1.0, 0.0]], atol=1e-12)
        assert np.array_equal(lc.dmu_dx, np.zeros((2, 2)))

    def test_squared_parabola_chain_rule(self, ex2):
        # argmax is y = x1^2, so dy/dx = (2 x1, 0)
        x = np.array([0.707107, 0.0])
        sol = solve_lower_level_global(ex2, 0, x)
        lc = compute_sensitivity(ex2, sol)
        assert np.allclose(lc.dy_dx, [[2.0 * x[0], 0.0]], atol=1e-9)

    def test_matches_finite_difference_resolves(self, dc):
        x = np.asarray(dc.known_solution)
        sol = solve_lower_level_global(dc, 2, x)
        lc = compute_sensitivity(dc, sol)
        fd = fd_maximizer_jacobian(dc, 2, x)
        assert np.abs(lc.dy_dx - fd).max() <= 1e-5

    def test_inactive_multiplier_rows_are_exactly_zero(self, ex2):
        x = np.array([0.707107, 0.0])
        sol = solve_lower_level_global(ex2, 0, x)
        lc = compute_sensitivity(ex2, sol)
        assert lc.dmu_dx.shape == (2, 2)
        assert np.array_equal(lc.dmu_dx, np.zeros((2, 2)))

    def test_singular_active_set_raises(self):
        p = pinned_index_problem()
        sol = solve_lower_level_global(p, 0, np.array([0.0]))
        assert sol.active_set == (0, 1)
        with pytest.raises(SensitivityError):
            compute_sensitivity(p, sol)


class TestKktMatrixBuiltOnce:
    def test_qcad_run_builds_each_matrix_once(self, dc, monkeypatch):
        # every KKT system is a point of the polish (its start or a Newton
        # step) or an unpolished record, and builds its matrix at most once
        # at its multipliers: a Newton step builds the matrix of its point,
        # a record reads the matrix of the point it keeps, built then or
        # already.  Here each solve keeps one record, its solution, whose
        # regularity is read off that matrix once.  compute_sensitivity
        # reads the matrix that certified regularity, so it builds none
        system = lower_level.KktSystem
        init, build = system.__init__, system.jacobian_at
        regularity = lower_level._regularity
        where = ["solution"]
        evaluated = {"solution": 0, "polish": 0, "sensitivity": 0}
        builds = []     # (system, multipliers, where, matrix)
        polish_calls = []
        regularity_checks = []

        def counting_init(self, *args):
            evaluated[where[-1]] += 1
            init(self, *args)

        def counting_build(self, mu_a):
            out = build(self, mu_a)
            builds.append((self, mu_a.tobytes(), where[-1], out[0]))
            return out

        def counting_regularity(*args):
            regularity_checks.append(where[-1])
            return regularity(*args)

        def inside(name, fn):
            def wrapper(*args, **kwargs):
                polish_calls.append(name == "polish")
                where.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    where.pop()
            return wrapper

        monkeypatch.setattr(system, "__init__", counting_init)
        monkeypatch.setattr(system, "jacobian_at", counting_build)
        monkeypatch.setattr(lower_level, "_regularity", counting_regularity)
        monkeypatch.setattr(lower_level, "_polish_kkt",
                            inside("polish", lower_level._polish_kkt))
        monkeypatch.setattr(driver, "compute_sensitivity",
                            inside("sensitivity", driver.compute_sensitivity))
        result = run_qcad(dc, opts=DriverOptions(mode="known", tol_dist=1e-4))

        assert result.final_status == "tolerance_met"
        solutions = [sol for rec in result.history for sol in rec.lower_level]
        # the polish evaluates its start, then one point per Newton step,
        # and each step builds the matrix at its point
        newton_steps = evaluated["polish"] - sum(polish_calls)
        places = [place for _, _, place, _ in builds]
        assert places.count("polish") == newton_steps > 0
        assert places.count("sensitivity") == evaluated["sensitivity"] == 0
        assert places.count("solution") <= len(solutions)
        assert len({(id(s), mu) for s, mu, _, _ in builds}) == len(builds)
        matrices = {id(matrix) for *_, matrix in builds}
        assert all(id(sol.kkt_matrix) in matrices for sol in solutions)
        assert regularity_checks == ["solution"] * len(solutions)
        assert all(sol.regularity.all_ok for sol in solutions)
        linearized = 0
        for rec in result.history:
            for i, lc in rec.linearizations.items():
                sol = rec.lower_level[i]
                active = list(sol.active_set)
                jac, d2_yx = reference_kkt_jacobian(dc, i, rec.x, sol.y, active,
                                                    sol.multipliers[active])
                rhs = np.zeros((len(jac), dc.n))
                rhs[:dc.m] = -d2_yx
                assert np.array_equal(lc.dy_dx,
                                      np.linalg.solve(jac, rhs)[:dc.m])
                linearized += 1
        assert linearized == 3 * (len(result.history) - 1)


class TestPredictedMaximizer:
    def test_linear_tracking_is_exact(self, ex1):
        # the true maximizer y(x) = x1 is affine, so the prediction is exact
        _, lc = _linearize(ex1, 0, np.array([0.5, 0.0]))
        y = lc.predicted_maximizer(np.array([0.6, 0.0]))
        assert y == pytest.approx([0.6], abs=1e-12)

    def test_quadratic_tracking_first_order(self, ex2):
        _, lc = _linearize(ex2, 0, np.array([0.707107, 0.0]))
        y = lc.predicted_maximizer(np.array([0.72, 0.0]))
        # first-order model of y(x) = x1^2 around 0.707107
        expect = 0.707107 ** 2 + 2.0 * 0.707107 * (0.72 - 0.707107)
        assert y[0] == pytest.approx(expect, abs=1e-12)
        assert y[0] == pytest.approx(0.51823, abs=1e-4)

    def test_predicted_multipliers_stay_zero_when_inactive(self, ex2):
        _, lc = _linearize(ex2, 0, np.array([0.707107, 0.0]))
        mu = lc.predicted_multipliers(np.array([0.72, 0.1]))
        assert np.array_equal(mu, np.zeros(2))


class TestLinearizedConstraint:
    def test_base_point_identities(self, ex2, dc):
        # at the base point the surrogate matches g and its x-gradient exactly
        for problem, i, x in ((ex2, 0, np.array([0.707107, 0.0])),
                              (dc, 2, np.asarray(dc.known_solution))):
            sol, lc = _linearize(problem, i, x)
            value, grad = linearized_value_and_gradient(lc, problem, x)
            z = np.concatenate([x, sol.y])
            assert abs(value - problem.si_constraints[i].value(z)) <= 1e-10
            d1g = problem.si_constraints[i].gradient(z)[:problem.n]
            assert np.abs(grad - d1g).max() <= 1e-10

    def test_affine_case_value_and_gradient(self, ex1):
        # for example1 the surrogate reproduces x1^2 - x2 exactly
        _, lc = _linearize(ex1, 0, np.array([0.5, 0.0]))
        x = np.array([0.6, 0.2])
        value, grad = linearized_value_and_gradient(lc, ex1, x)
        assert value == pytest.approx(0.16, abs=1e-12)
        assert np.allclose(grad, [1.2, -1.0], atol=1e-12)

    def test_value_matches_hand_composition(self, ex2):
        x_base = np.array([0.707107, 0.0])
        _, lc = _linearize(ex2, 0, x_base)
        x = np.array([0.72, 0.1])
        value, _ = linearized_value_and_gradient(lc, ex2, x)
        yhat = x_base[0] ** 2 + 2.0 * x_base[0] * (x[0] - x_base[0])
        expect = -yhat ** 2 + 2.0 * yhat * x[0] ** 2 - x[1]
        assert value == pytest.approx(expect, abs=1e-9)

    def test_gradient_matches_finite_differences(self, ex2, dc):
        cases = ((ex2, 0, np.array([0.707107, 0.0]), np.array([0.73, 0.12])),
                 (dc, 2, np.asarray(dc.known_solution),
                  np.asarray(dc.known_solution) + 0.01))
        h = 1e-6
        for problem, i, x_base, x in cases:
            _, lc = _linearize(problem, i, x_base)
            _, grad = linearized_value_and_gradient(lc, problem, x)
            for j in range(problem.n):
                e = np.zeros(problem.n)
                e[j] = h
                up, _ = linearized_value_and_gradient(lc, problem, x + e)
                dn, _ = linearized_value_and_gradient(lc, problem, x - e)
                assert abs(grad[j] - (up - dn) / (2 * h)) <= 1e-6

    def test_field_wrapper_agrees(self, ex2):
        _, lc = _linearize(ex2, 0, np.array([0.707107, 0.0]))
        size, evaluate, _ = linearization_field(lc, ex2)
        x = np.array([0.72, 0.1])
        value, grad = linearized_value_and_gradient(lc, ex2, x)
        assert size == 1
        values, jac = evaluate(x)
        assert values == [value]
        assert len(jac) == 1 and np.array_equal(jac[0], grad)

    @pytest.mark.parametrize("name, i", [("example2", 0),
                                         ("design_centering", 0),
                                         ("design_centering", 2)])
    def test_block_hessian_matches_differences(self, name, i, ex2, dc):
        # every term of the Hessian: yhat and muhat are affine in x, and on
        # design_centering the disk constraint is active with dmu != 0
        problem = ex2 if name == "example2" else dc
        x = (np.array([0.707107, 0.0]) if name == "example2"
             else np.asarray(dc.known_solution))
        _, lc = _linearize(problem, i, x)
        block = linearization_field(lc, problem)
        away = x + 0.05 * np.cos(np.arange(problem.n) + 1.0)
        for w in (1.0, 0.3):
            hess = block[2](away, np.array([w]))
            assert np.allclose(hess, hess.T, rtol=0.0, atol=1e-12)
            fd = fd_block_hessian(block, away, np.array([w]))
            assert np.abs(hess - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())
        if name == "design_centering":
            assert np.abs(lc.dmu_dx).max() > 0.0

    def test_surrogate_error_is_second_order(self, ex2):
        # |max_y g - surrogate| should shrink at least quadratically in the
        # step; here the composition is smooth enough to be quartic
        x_base = np.array([0.707107, 0.0])
        _, lc = _linearize(ex2, 0, x_base)
        ts = np.array([1e-1, 3e-2, 1e-2, 3e-3])
        rng = np.random.default_rng(17)
        for _ in range(3):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            gaps = []
            for t in ts:
                x = x_base + t * d
                true_val = solve_lower_level_global(ex2, 0, x).value
                lin_val, _ = linearized_value_and_gradient(lc, ex2, x)
                gaps.append(abs(true_val - lin_val))
            gaps = np.array(gaps)
            assert np.all(gaps > 0)
            slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
            assert slope >= 1.9
