import numpy as np
import pytest

from sipsolve import lower_level
from sipsolve.lower_level import (LowerLevelError, check_regularity,
                                  index_set_box, kkt_jacobian,
                                  solve_all_lower_levels,
                                  solve_lower_level_global)
from sipsolve.model import ScalarField, SipProblem, grid_nodes

from helpers import (interval_index_fields, narrow_peak_problem,
                     pinned_index_problem, three_peak_problem, tie_problem)


class TestGlobalMaximizer:
    def test_interior_maximum_on_parabola(self, ex1):
        # g(x, y) = -y^2 + 2 y x1 - x2 peaks at y = x1
        sol = solve_lower_level_global(ex1, 0, np.array([0.5, 0.0]))
        assert sol.y == pytest.approx([0.5], abs=1e-10)
        assert sol.value == pytest.approx(0.25, abs=1e-10)
        assert np.allclose(sol.multipliers, [0.0, 0.0])
        assert sol.active_set == ()
        assert not sol.multiple_global

    def test_maximizer_tracks_x_smoothly(self, ex2):
        x = np.array([0.707107, 0.0])
        sol = solve_lower_level_global(ex2, 0, x)
        assert abs(sol.y[0] - x[0] ** 2) <= 1e-9
        assert sol.value == pytest.approx(x[0] ** 4, abs=1e-9)

    def test_ellipse_side_constraint_analytic(self, dc):
        # at the start the third family reduces to 0.25 y1 + y2 - 0.75 on
        # the unit disk, so the maximizer is the normalized coefficient
        # vector and the value is the coefficient norm minus 0.75
        x = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
        sol = solve_lower_level_global(dc, 2, x)
        coeff = np.array([0.25, 1.0])
        norm = np.linalg.norm(coeff)
        assert np.allclose(sol.y, coeff / norm, atol=1e-9)
        assert sol.value == pytest.approx(norm - 0.75, abs=1e-9)
        assert sol.active_set == (0,)
        assert sol.multipliers[0] == pytest.approx(norm / 2.0, abs=1e-9)

    def test_ellipse_side_constraint_sampled_oracle(self, dc):
        x = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
        sol = solve_lower_level_global(dc, 2, x)
        rng = np.random.default_rng(3)
        # rejection-sample the unit disk
        pts = rng.uniform(-1.0, 1.0, size=(2 * 10 ** 6, 2))
        pts = pts[(pts ** 2).sum(axis=1) <= 1.0][:10 ** 6]
        z = np.column_stack([np.broadcast_to(x, (len(pts), 5)), pts])
        sampled = dc.si_constraints[2].value_batch(z)
        assert sampled.max() <= sol.value + 1e-3

    def test_kkt_residual_recomputable(self, dc):
        x = np.asarray(dc.known_solution)
        sol = solve_lower_level_global(dc, 2, x)
        assert sol.kkt_residual <= 1e-8
        # stationarity of g - mu' v at the reported point
        z = np.concatenate([x, sol.y])
        grad = dc.si_constraints[2].gradient(z)[dc.n:]
        for mu_l, v in zip(sol.multipliers, dc.index_constraints):
            grad = grad - mu_l * v.gradient(sol.y)
        assert np.abs(grad).max() <= 1e-8

    def test_deterministic(self, ex2):
        x = np.array([0.3, -0.2])
        a = solve_lower_level_global(ex2, 0, x)
        b = solve_lower_level_global(ex2, 0, x)
        assert np.array_equal(a.y, b.y)
        assert a.value == b.value
        assert np.array_equal(a.multipliers, b.multipliers)

    def test_solve_all_matches_per_family(self, dc):
        x = np.asarray(dc.start)
        sols = solve_all_lower_levels(dc, x)
        assert [s.index for s in sols] == [0, 1, 2]
        for i, s in enumerate(sols):
            single = solve_lower_level_global(dc, i, x)
            assert np.allclose(s.y, single.y, atol=1e-12)
            assert s.value == pytest.approx(single.value, abs=1e-12)

    def test_tie_reports_multiple_global(self):
        # g = y^2 - 2 peaks at both endpoints of [-1, 1]
        sol = solve_lower_level_global(tie_problem(), 0, np.array([0.5]))
        assert sol.y == pytest.approx([-1.0])
        assert sol.value == pytest.approx(-1.0)
        assert sol.multiple_global
        tops = sorted((round(y[0], 6), round(v, 6))
                      for y, v in sol.local_maxima)
        assert tops == [(-1.0, -1.0), (1.0, -1.0)]

    def test_failed_polish_keeps_local_solution(self, dc, monkeypatch):
        # the Newton polish fails on its first call (no input is known to
        # reach this path on its own); the candidate then keeps the SQP
        # point with its multipliers masked to the active rows, and the
        # winner must still be the maximizer on the circle
        x = np.array([1.6647114202107154, -0.3334434839090681,
                      2.3100340905999035, 0.6665565160909319,
                      -1.328949451599116])
        polish = lower_level._polish_kkt
        failures = []

        def counting_polish(*args):
            out = polish(*args) if failures else None
            failures.append(out is None)
            return out

        monkeypatch.setattr(lower_level, "_polish_kkt", counting_polish)
        sol = solve_lower_level_global(dc, 0, x)
        assert sum(failures) >= 1
        assert abs(np.linalg.norm(sol.y) - 1.0) <= 1e-12
        assert sol.kkt_residual <= 1e-8
        assert sol.regularity.all_ok
        box, _ = index_set_box(dc)
        nodes = grid_nodes(box, lower_level.GRID_PER_DIM)
        nodes = nodes[dc.index_constraints[0].value_batch(nodes)
                      <= lower_level.TOL_FEAS]
        z = np.column_stack([np.broadcast_to(x, (len(nodes), 5)), nodes])
        assert sol.value >= dc.si_constraints[0].value_batch(z).max()

    def test_pinned_point_index_set(self):
        # y <= 0 and -y <= 0 pin Y to the origin
        sol = solve_lower_level_global(pinned_index_problem(), 0,
                                       np.array([0.0]))
        assert abs(sol.y[0]) == 0.0
        assert sol.value == 0.0
        assert sol.active_set == (0, 1)


@pytest.fixture
def local_runs(monkeypatch):
    """Count the local SQP runs of the lower level."""
    runs = []
    solve_nlp = lower_level.solve_nlp

    def counting_solve_nlp(*args, **kwargs):
        runs.append(1)
        return solve_nlp(*args, **kwargs)

    monkeypatch.setattr(lower_level, "solve_nlp", counting_solve_nlp)
    return runs


class TestStartSelection:
    def test_one_local_run_per_family_at_start(self, dc, local_runs):
        # every family of the disk has a single basin at the start: the
        # seven starts after the best lie on its ascent path
        x = np.asarray(dc.start)
        for i in range(dc.n_si):
            local_runs.clear()
            solve_lower_level_global(dc, i, x)
            assert len(local_runs) == 1

    def test_three_basins_tie(self, local_runs):
        sol = solve_lower_level_global(three_peak_problem(), 0,
                                       np.array([0.0]))
        assert len(local_runs) == 3
        tops = sorted((y[0], v) for y, v in sol.local_maxima)
        assert np.allclose([t[0] for t in tops], [-2 / 3, 0.0, 2 / 3],
                           atol=1e-10)
        assert np.allclose([t[1] for t in tops], 1.0, atol=1e-12)
        assert sol.multiple_global
        assert sol.y == pytest.approx([-2 / 3], abs=1e-10)

    def test_three_basins_tilted(self, local_runs):
        sol = solve_lower_level_global(three_peak_problem(), 0,
                                       np.array([0.05]))
        assert len(local_runs) == 3
        values = sorted((v for _, v in sol.local_maxima), reverse=True)
        assert values == pytest.approx([1.033347, 1.000014, 0.966681],
                                       abs=1e-6)
        assert not sol.multiple_global
        assert sol.y == pytest.approx([-0.66723], abs=1e-5)
        assert sol.value == pytest.approx(values[0], abs=1e-15)

    @pytest.mark.parametrize("x, y_star, tied", [
        (0.0, 0.01 / 6, True), (0.05, 0.00166385218, False)])
    def test_narrow_index_set(self, local_runs, x, y_star, tied):
        # Y = [0, 0.01]: with a grid step of 1.6e-4 the eight best nodes
        # crowd around the peaks; the ascent-path skip still
        # leaves one local run per maximum
        sol = solve_lower_level_global(narrow_peak_problem(), 0,
                                       np.array([x]))
        assert len(sol.local_maxima) == 3
        assert len(local_runs) == 3
        tops = sorted(y[0] for y, _ in sol.local_maxima)
        assert np.allclose(tops, [0.01 / 6, 0.005, 0.05 / 6], atol=1e-5)
        assert sol.y == pytest.approx([y_star], abs=1e-10)
        assert sol.multiple_global == tied
        assert sol.regularity.all_ok


class TestKktMatrix:
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_stored_matrix_is_the_kkt_jacobian_at_the_solution(self, dc, i):
        x = np.asarray(dc.known_solution)
        sol = solve_lower_level_global(dc, i, x)
        active = list(sol.active_set)
        jac, d2_yx = kkt_jacobian(dc, i, x, sol.y, active,
                                  sol.multipliers[active])
        assert np.array_equal(sol.kkt_matrix, jac)
        assert np.array_equal(sol.d2_yx, d2_yx)

    def test_active_set_is_the_polished_classification(self, dc):
        # the active set and multipliers travel with the polished point;
        # classifying the returned point again gives the same set
        x = np.asarray(dc.known_solution)
        for sol in solve_all_lower_levels(dc, x):
            again = tuple(l for l, v in enumerate(dc.index_constraints)
                          if v.value(sol.y) >= -lower_level.TOL_ACT)
            assert sol.active_set == again
            inactive = [l for l in range(len(dc.index_constraints))
                        if l not in sol.active_set]
            assert not sol.multipliers[inactive].any()


class TestRegularity:
    def test_interior_maximizer_is_regular(self, ex1):
        sol = solve_lower_level_global(ex1, 0, np.array([0.5, 0.0]))
        flags = check_regularity(sol)
        assert flags.licq and flags.strict_complementarity and flags.sosc

    def test_active_disk_with_positive_multiplier(self, dc):
        sol = solve_lower_level_global(dc, 2, np.asarray(dc.known_solution))
        assert sol.multipliers[sol.active_set[0]] > 1e-6
        flags = check_regularity(sol)
        assert flags.licq and flags.strict_complementarity and flags.sosc

    def test_pinned_point_fails_licq(self):
        p = pinned_index_problem()
        sol = solve_lower_level_global(p, 0, np.array([0.0]))
        flags = check_regularity(sol)
        assert not flags.licq
        assert not flags.strict_complementarity
        assert flags.sosc

    def test_degenerate_multiplier_fails_strict_complementarity(self, ex1):
        # at x1 = 1 the maximizer sits on y = 1 with multiplier exactly 0
        sol = solve_lower_level_global(ex1, 0, np.array([1.0, 0.0]))
        assert sol.y == pytest.approx([1.0], abs=1e-9)
        flags = check_regularity(sol)
        assert not flags.strict_complementarity


class TestIndexSetBox:
    def test_interval_recognized_exactly(self, ex1):
        box, recognized = index_set_box(ex1)
        assert recognized
        assert np.array_equal(box, [[-1.0, 1.0]])

    def test_disk_scanned_with_padding(self, dc):
        box, recognized = index_set_box(dc)
        assert not recognized
        assert box.shape == (2, 2)
        assert np.allclose(box, [[-1.03125, 1.03125], [-1.03125, 1.03125]])

    def test_empty_index_set_raises(self):
        impossible = ScalarField(
            1, lambda y: y[0] ** 2 + 1.0, lambda y: 2.0 * y,
            hessian=lambda y: 2.0 * np.eye(1),
            value_batch=lambda pts: pts[:, 0] ** 2 + 1.0)
        f = ScalarField(1, lambda x: x[0], lambda x: np.ones(1),
                        hessian=lambda x: np.zeros((1, 1)))
        g = ScalarField(2, lambda z: z[1] - z[0],
                        lambda z: np.array([-1.0, 1.0]),
                        hessian=lambda z: np.zeros((2, 2)))
        p = SipProblem(n=1, m=1, objective=f, si_constraints=(g,),
                       index_constraints=(impossible,),
                       x_bounds=np.array([[-1.0, 1.0]]), name="empty_y")
        with pytest.raises(LowerLevelError):
            solve_lower_level_global(p, 0, np.array([0.0]))

    def test_pinned_interval_collapses_to_point(self):
        box, recognized = index_set_box(pinned_index_problem())
        assert recognized
        assert box.shape == (1, 2)
        assert abs(box[0, 0]) == 0.0 and abs(box[0, 1]) == 0.0


class TestGridDominance:
    def test_returned_value_dominates_fine_grid(self, ex2):
        box, _ = index_set_box(ex2)
        nodes = grid_nodes(box, 320)
        rng = np.random.default_rng(21)
        for _ in range(5):
            x = rng.uniform([0.0, -1.0], [1.0, 1.0])
            sol = solve_lower_level_global(ex2, 0, x)
            z = np.column_stack([np.broadcast_to(x, (len(nodes), 2)), nodes])
            grid_best = ex2.si_constraints[0].value_batch(z).max()
            assert grid_best <= sol.value + 1e-9
