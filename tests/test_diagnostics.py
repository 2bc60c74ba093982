import warnings
from dataclasses import replace

import numpy as np
import pytest

from sipsolve.diagnostics import (estimate_order, feasibility_measure,
                                  perturbation_params, stationarity_residual)
from sipsolve.lower_level import (LowerLevelError, solve_all_lower_levels,
                                  solve_lower_level_global)
from sipsolve.model import ScalarField
from sipsolve.sensitivity import compute_sensitivity
from sipsolve.specfile import compile_spec, parse_spec

from helpers import linearization_gaps


def _feasibility(problem, x):
    return feasibility_measure(solve_all_lower_levels(problem, x))


def _stationarity(problem, x):
    return stationarity_residual(problem, x, solve_all_lower_levels(problem, x))


class TestFeasibilityMeasure:
    def test_zero_at_solution(self, ex1):
        assert abs(_feasibility(ex1, np.asarray(ex1.known_solution))) <= 1e-9

    def test_negative_strictly_inside(self, ex1):
        assert _feasibility(ex1, np.array([0.0, 1.0])) == pytest.approx(-1.0)

    def test_positive_outside(self, ex1):
        assert _feasibility(ex1, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_max_over_families(self, dc):
        x = np.asarray(dc.start)
        sols = solve_all_lower_levels(dc, x)
        assert feasibility_measure(sols) == pytest.approx(
            max(s.value for s in sols), abs=1e-12)


class TestStationarityResidual:
    def test_solution_of_parabolic_problem(self, ex1):
        assert _stationarity(ex1, np.asarray(ex1.known_solution)) <= 1e-6

    def test_empty_active_set_returns_gradient_norm(self, ex1):
        assert _stationarity(ex1, np.array([0.0, 0.5])) == pytest.approx(
            np.hypot(1.0, 1.5))

    def test_bound_column_carries_no_weight_when_useless(self, ex1):
        # x2 = 1 sits on its upper bound but that bound cannot reduce the
        # objective gradient, so the residual equals the gradient norm
        assert _stationarity(ex1, np.array([0.0, 1.0])) == pytest.approx(
            np.hypot(1.0, 1.5))

    def test_ellipse_solution(self, dc):
        assert _stationarity(dc, np.asarray(dc.known_solution)) <= 1e-6

    def test_overflowing_active_column_gives_inf(self):
        # the maximum at y = 0 is active at x1 = 0, and its x-gradient
        # 1 / 2.2e-311 overflows; the QP sees inf data and returns lam = 0,
        # and inf * 0 must not turn the residual into nan
        problem = compile_spec(parse_spec(
            "n: 1\nm: 1\nobjective: x1\nsi_constraints:\n"
            "  - x1 / 2.225073858507e-311 - y1^2\n"
            "index_constraints:\n  - y1 - 1\n  - -y1 - 1\n"))
        x = np.zeros(1)
        assert problem.si_constraints[0].gradient(np.zeros(2))[0] == np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _stationarity(problem, x) == np.inf

    def test_nan_objective_gradient_gives_inf(self, ex1):
        # at x = (0, 0.5) nothing is active, so the residual is ||grad f||
        objective = ScalarField(2, lambda x: 0.0, lambda x: np.array([np.nan, 1.0]),
                                hessian=lambda x: np.zeros((2, 2)))
        problem = replace(ex1, objective=objective)
        assert _stationarity(problem, np.array([0.0, 0.5])) == np.inf


class TestEstimateOrder:
    def test_quadratic_sequence(self):
        est = estimate_order([1e-1, 1e-2, 1e-4, 1e-8])
        assert est.order == pytest.approx(2.0, abs=1e-9)
        assert est.monotone_tail
        assert est.pairs_used == 3

    def test_linear_sequence(self):
        est = estimate_order([1e-1, 5e-2, 2.5e-2, 1.25e-2])
        assert est.order == pytest.approx(1.0, abs=1e-9)
        assert est.monotone_tail

    def test_scale_invariance(self):
        base = [1e-1, 1e-2, 1e-4, 1e-8]
        a = estimate_order(base)
        b = estimate_order([1e-9 * e for e in base])
        assert b.order == pytest.approx(a.order, abs=1e-6)

    def test_non_monotone_flagged(self):
        est = estimate_order([1e-1, 1e-3, 1e-2, 1e-8])
        assert not est.monotone_tail

    @pytest.mark.parametrize("bad", [[], [1e-1], [1e-1, 1e-2],
                                     [1e-1, 0.0, 1e-4],
                                     [1e-1, -1e-2, 1e-4]])
    def test_rejects_short_or_nonpositive(self, bad):
        with pytest.raises(ValueError):
            estimate_order(bad)


class TestPerturbationParams:
    def test_zero_beta_at_solution(self, ex1):
        x = np.asarray(ex1.known_solution)
        sols = solve_all_lower_levels(ex1, x)
        params = perturbation_params(ex1, x, sols, np.array([1.5]))
        assert params.beta_norm <= 1e-8
        assert params.alpha_max <= 1e-8

    def test_inactive_family_with_zero_weight(self, ex1):
        # strictly feasible point, lambda_bar = 0: alpha clips to zero and
        # beta reduces to the objective gradient
        x = np.array([0.0, 1.0])
        sols = solve_all_lower_levels(ex1, x)
        params = perturbation_params(ex1, x, sols, np.zeros(1))
        assert params.alpha == pytest.approx([0.0])
        assert np.allclose(params.beta, [-1.0, 1.5])
        assert params.beta_norm == pytest.approx(np.hypot(1.0, 1.5))

    def test_positive_weight_keeps_signed_violation(self, ex1):
        # lambda_bar > 0 keeps alpha = g even when g < 0
        x = np.array([0.0, 1.0])
        sols = solve_all_lower_levels(ex1, x)
        params = perturbation_params(ex1, x, sols, np.array([2.0]))
        assert params.alpha == pytest.approx([-1.0])

    def test_record_matches_direct_call(self, ex2, ex2_qcad_known):
        history = ex2_qcad_known.result.history
        rec = history[2]
        assert rec.lambda_bar is not None
        params = perturbation_params(ex2, rec.x, rec.lower_level,
                                     rec.lambda_bar)
        assert rec.beta_norm == pytest.approx(params.beta_norm, abs=1e-12)
        assert rec.alpha_max == pytest.approx(params.alpha_max, abs=1e-12)


def _linearize_at(problem, i, x):
    return compute_sensitivity(problem, solve_lower_level_global(problem, i, x))


class TestLinearizationGaps:
    def test_zero_step_gives_zero_gaps(self, ex2):
        x = np.array([0.707107, 0.0])
        lc = _linearize_at(ex2, 0, x)
        gaps = linearization_gaps(ex2, 0, x, x, lc)
        assert gaps.value_gap == 0.0
        assert gaps.gradient_gap == 0.0
        assert gaps.step2 == 0.0 and gaps.step4 == 0.0

    def test_affine_tracking_has_no_gap(self, ex1):
        lc = _linearize_at(ex1, 0, np.array([0.5, 0.0]))
        gaps = linearization_gaps(ex1, 0, np.array([0.5, 0.0]),
                                  np.array([0.6, 0.2]), lc)
        assert gaps.value_gap <= 1e-12
        assert gaps.gradient_gap <= 1e-12

    def test_gap_scaling_on_smooth_problem(self, ex2):
        x_prev = np.array([0.707107, 0.0])
        lc = _linearize_at(ex2, 0, x_prev)
        x_curr = np.array([0.73, 0.05])
        gaps = linearization_gaps(ex2, 0, x_prev, x_curr, lc)
        assert gaps.step2 == pytest.approx(
            np.linalg.norm(x_curr - x_prev) ** 2)
        assert gaps.step4 == pytest.approx(gaps.step2 ** 2)
        assert gaps.value_gap <= 1e3 * gaps.step4
        assert gaps.gradient_gap <= 1e2 * gaps.step2

    def test_irregular_current_point_raises(self, ex2):
        # at x1 = 1 the maximizer hits the boundary with a zero multiplier
        lc = _linearize_at(ex2, 0, np.array([0.707107, 0.0]))
        with pytest.raises(LowerLevelError):
            linearization_gaps(ex2, 0, np.array([0.707107, 0.0]),
                               np.array([1.0, 0.0]), lc)
