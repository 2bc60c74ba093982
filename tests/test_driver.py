from dataclasses import replace

import numpy as np
import pytest

from sipsolve import driver, nlp
from sipsolve.driver import (DiscretizationState, DriverOptions,
                             IterateRecord, check_termination,
                             run_blankenship_falk, run_qcad)
from sipsolve.model import ScalarField

from helpers import (always_violated_problem, onestep_problem,
                     pinned_index_problem)


class TestDiscretizationState:
    def test_add_and_dedup(self):
        disc = DiscretizationState.empty(2)
        assert disc.add(0, [0.5])
        assert disc.add(0, [0.25])
        assert disc.add(1, [0.5])
        assert not disc.add(0, [0.5])
        assert not disc.add(0, [0.5 + 1e-13])
        assert len(disc.points[0]) == 2
        assert len(disc.points[1]) == 1
        assert disc.total_points() == 3

    def test_copy_is_independent(self):
        disc = DiscretizationState.empty(1)
        disc.add(0, [0.5])
        clone = disc.copy()
        clone.add(0, [0.75])
        clone.points[0][0][0] = 99.0
        assert len(disc.points[0]) == 1
        assert disc.points[0][0][0] == 0.5


def _record(k, feasibility=1.0, residual=1.0, dist=None):
    return IterateRecord(k=k, x=np.zeros(1), objective=0.0,
                         feasibility=feasibility,
                         stationarity_residual=residual,
                         dist_to_known=dist, step_norm=None, beta_norm=None,
                         alpha_max=None, n_constraints_in_master=None,
                         wall_time_ms=None)


class TestCheckTermination:
    def test_known_mode_distance(self):
        opts = DriverOptions(mode="known", tol_dist=1e-4)
        assert check_termination([_record(3, dist=5e-5)], opts) == "tolerance_met"
        assert check_termination([_record(3, dist=2e-4)], opts) is None

    def test_practical_mode_needs_both(self):
        opts = DriverOptions(mode="practical", tol_feas=1e-6, tol_stat=1e-6)
        ok = _record(3, feasibility=1e-7, residual=1e-7)
        assert check_termination([ok], opts) == "tolerance_met"
        assert check_termination(
            [_record(3, feasibility=1e-7, residual=1e-3)], opts) is None
        assert check_termination(
            [_record(3, feasibility=1e-3, residual=1e-7)], opts) is None

    def test_iteration_budget(self):
        opts = DriverOptions(mode="practical", max_iter=5)
        assert check_termination([_record(5)], opts) == "max_iter"
        assert check_termination([_record(4)], opts) is None


class TestRunStructure:
    def test_first_iterations_of_parabolic_problem(self, ex1_bf_20):
        r = ex1_bf_20.result
        h = r.history
        assert np.array_equal(h[0].x, [1.0, -1.0])
        # the first maximizer sits at y = 1
        assert h[0].lower_level[0].y == pytest.approx([1.0], abs=1e-9)
        assert np.allclose(h[1].x, [0.0, -1.0], atol=1e-8)

        # record 0 predates any master solve
        assert h[0].lambda_bar is None
        assert h[0].n_constraints_in_master is None
        assert h[0].step_norm is None
        assert h[0].beta_norm is None

        # record 1 carries data of the master that produced x^1
        assert h[1].n_constraints_in_master == 1
        assert h[1].step_norm == pytest.approx(1.0, abs=1e-8)
        assert h[1].lambda_bar is not None

    def test_record_index_matches_position(self, ex2_qcad_known):
        for pos, rec in enumerate(ex2_qcad_known.result.history):
            assert rec.k == pos

    def test_objective_and_feasibility_recorded(self, ex1_bf_20, ex1):
        for rec in ex1_bf_20.result.history:
            assert rec.objective == pytest.approx(ex1.objective.value(rec.x))
            assert rec.feasibility == pytest.approx(
                max(s.value for s in rec.lower_level))

    def test_metadata(self, ex1_bf_20, ex2_qcad_known):
        assert ex1_bf_20.result.algorithm == "blankenship_falk"
        assert ex1_bf_20.result.problem_name == "example1"
        assert ex2_qcad_known.result.algorithm == "qcad"

    def test_final_accessors(self, ex2_qcad_known):
        r = ex2_qcad_known.result
        assert r.final is r.history[-1]
        assert np.array_equal(r.x, r.history[-1].x)

    def test_lambda_bar_nonnegative_after_first_master(self, ex2_qcad_known):
        for rec in ex2_qcad_known.result.history[1:]:
            assert rec.lambda_bar is not None
            assert rec.lambda_bar.min() >= -1e-12

    def test_final_discretization_has_no_duplicates(self, ex2_qcad_known):
        disc = ex2_qcad_known.result.final_discretization
        for fam in disc.points:
            for a in range(len(fam)):
                for b in range(a + 1, len(fam)):
                    assert np.linalg.norm(fam[a] - fam[b]) > 1e-12

    def test_iterates_satisfy_previous_master_rows(self, ex1_bf_20, ex1):
        # x^{k+1} is feasible for every discretization row known when it
        # was produced
        h = ex1_bf_20.result.history
        g = ex1.si_constraints[0]
        for k in range(1, len(h)):
            for rec in h[:k]:
                for sol in rec.lower_level:
                    z = np.concatenate([h[k].x, sol.y])
                    assert g.value(z) <= 1e-6


class TestConvergenceBehavior:
    def test_constant_maximizer_converges_in_one_step(self):
        r = run_blankenship_falk(onestep_problem())
        assert r.final_status == "tolerance_met"
        assert r.final.k == 1
        assert abs(r.x[0]) <= 1e-9
        assert np.array_equal(r.history[0].x, [1.0])

    def test_infeasible_problem_stalls_and_reports(self):
        r = run_blankenship_falk(always_violated_problem())
        assert r.final_status == "subsolver_failure"
        assert r.final.k == 3
        assert any("no new discretization points and no feasibility progress"
                   in w for w in r.warnings)

    def test_regularity_warning_at_degenerate_start(self, ex2_qcad_known):
        r = ex2_qcad_known.result
        assert any("regularity failed for constraint 0" in w
                   for w in r.warnings)
        assert any("iteration 0" in w for w in r.history[0].warnings)

    def test_linearizations_only_on_regular_iterations(self, ex2_qcad_known):
        h = ex2_qcad_known.result.history
        assert h[0].linearizations == {}
        for rec in h[1:-1]:
            assert 0 in rec.linearizations
        # the final record never builds one (the loop stops at termination)
        assert h[-1].linearizations == {}

    def test_bf_never_linearizes(self, ex1_bf_20):
        for rec in ex1_bf_20.result.history:
            assert rec.linearizations == {}

    def test_trust_box_caps_steps(self, dc_bf_known):
        for rec in dc_bf_known.result.history[1:]:
            prev = dc_bf_known.result.history[rec.k - 1]
            assert np.abs(rec.x - prev.x).max() <= 2.0 + 1e-9

    def test_indefinite_bfgs_matrix_restarts(self, dc):
        # in the first master from this start, rounding takes the smallest
        # BFGS eigenvalue to -2.6e-14 (largest 2.5e5); the SQP restarts
        # from the identity instead of ending in qp_failure
        x0 = [0.05663372243244269, 0.2706774314584631, 0.5504147567809613,
              0.6823188888562653, -0.3241708295993819]
        r = run_qcad(dc, x0, opts=DriverOptions(mode="known", tol_dist=1e-4))
        assert r.final_status == "tolerance_met"
        assert r.final.k == 2

    def test_master_at_a_fixed_point_keeps_its_iterates(self, dc, monkeypatch):
        # from this start two masters stop moving long before max_iter:
        # every accepted step rounds back to the same z.  Cutting such a
        # solve short must leave the run exactly as running every step.
        x0 = [0.03499384480157308, -0.23780634716635007, 1.4844926961990392,
              1.1773784291182752, 0.43138456473068754]
        opts = DriverOptions(mode="known", tol_dist=1e-4)
        statuses, qps = [], []
        solve, qp = driver.solve_nlp, nlp.solve_qp

        def master(*args, **kwargs):
            sol = solve(*args, **kwargs)
            statuses.append(sol.status)
            return sol

        def counted(*args, **kwargs):
            qps.append(1)
            return qp(*args, **kwargs)

        monkeypatch.setattr(driver, "solve_nlp", master)
        monkeypatch.setattr(nlp, "solve_qp", counted)
        short = run_qcad(dc, x0, opts=opts)
        short_qps = len(qps)
        assert statuses.count("max_iter") >= 2
        monkeypatch.setattr(nlp, "_state", lambda *parts: [object()])
        qps.clear()
        full = run_qcad(dc, x0, opts=opts)
        assert short.final_status == full.final_status == "tolerance_met"
        assert [rec.x.tobytes() for rec in short.history] \
            == [rec.x.tobytes() for rec in full.history]
        assert 3 * short_qps < len(qps)

    @pytest.mark.parametrize("x0", [
        # the master QP at k=12 has five near-duplicate discretization rows;
        # an absolute dependence test let the dual method's working set
        # outgrow d and cycle to its cap (master qp_failure)
        [-0.2534503263680755, 0.035691587125125435, 1.2095500275154252,
         0.9730031233628731, 0.2956852189571276],
        [0.21921165586204083, -0.15022695480858933, 1.1264999511885958,
         0.7342155723018952, -0.2907556564307887],
        # fails when the QP is hot-started but keeps the absolute test
        [0.38949648965533756, -0.26734779826560806, 1.2303504089192099,
         0.5343542774082571, -0.30831302728284005],
    ])
    def test_bf_from_near_duplicate_master_rows(self, dc, x0):
        r = run_blankenship_falk(dc, x0,
                                 opts=DriverOptions(mode="known", tol_dist=1e-4))
        assert r.final_status == "tolerance_met"
        assert np.linalg.norm(r.x - dc.known_solution) <= 1e-4

    @pytest.mark.parametrize("runner", [run_blankenship_falk, run_qcad])
    @pytest.mark.parametrize("x0", [
        [0.85720104921748, -0.28620937347194364],
        [0.809313546050908, -0.6483519639498072],
    ])
    def test_master_escapes_a_saddle(self, ex2, runner, x0):
        # a master from these starts converges to x = (0, 0): a KKT point
        # whose Lagrangian has curvature -2 along +x1 on the critical cone.
        # Without the second-order escape the run stalls there and ends in
        # subsolver_failure.
        r = runner(ex2, x0, opts=DriverOptions(mode="known", tol_dist=1e-4))
        assert r.final_status == "tolerance_met"
        assert np.linalg.norm(r.x - ex2.known_solution) <= 1e-4

    def test_one_master_solve_per_iteration(self, dc, monkeypatch):
        calls = []
        solve = driver.solve_nlp

        def counted(nlp, z0, *args, **kwargs):
            calls.append(1)
            return solve(nlp, z0, *args, **kwargs)

        monkeypatch.setattr(driver, "solve_nlp", counted)
        opts = DriverOptions(mode="known", tol_dist=1e-4)
        for runner in (run_blankenship_falk, run_qcad):
            calls.clear()
            r = runner(dc, opts=opts)
            assert r.final_status == "tolerance_met"
            # every record but the last was followed by one master
            assert len(calls) == len(r.history) - 1


class TestPreseeding:
    def test_seeded_points_survive_and_dedup(self, ex1):
        d0 = DiscretizationState.empty(1)
        d0.add(0, [0.5])
        opts = DriverOptions(mode="known", tol_dist=1e-4)
        r = run_blankenship_falk(ex1, d0=d0, opts=opts)
        final = r.final_discretization.points[0]
        assert any(np.allclose(y, [0.5], atol=1e-12) for y in final)
        assert r.final_status == "tolerance_met"
        # the input state is not mutated by the run
        assert d0.total_points() == 1


class TestInputValidation:
    def test_wrong_shape(self, ex1):
        with pytest.raises(ValueError):
            run_blankenship_falk(ex1, x0=np.zeros(3))

    def test_nonfinite_start(self, ex1):
        with pytest.raises(ValueError):
            run_qcad(ex1, x0=np.array([np.nan, 0.0]))

    def test_known_mode_requires_reference_point(self):
        with pytest.raises(ValueError):
            run_blankenship_falk(always_violated_problem(),
                                 opts=DriverOptions(mode="known"))

    def test_problem_without_start_needs_x0(self):
        with pytest.raises(ValueError, match="has no start point"):
            run_qcad(pinned_index_problem())


class TestFieldFailures:
    def test_field_error_ends_in_subsolver_failure(self):
        # the gradient has the wrong shape, so evaluating it raises
        # FieldEvaluationError at the first iterate
        bad = ScalarField(1, lambda x: x[0], lambda x: np.zeros(2),
                          name="f_bad")
        problem = replace(onestep_problem(), objective=bad)
        r = run_qcad(problem)
        assert r.final_status == "subsolver_failure"
        assert any(w.startswith("iteration 0: field evaluation failed")
                   and "f_bad" in w for w in r.warnings)

    def test_objective_without_hessian_ends_in_subsolver_failure(self):
        # the second-order check at the first converged master asks for the
        # objective's Hessian
        bare = ScalarField(1, lambda x: x[0], lambda x: np.array([1.0]),
                           name="f_bare")
        problem = replace(onestep_problem(), objective=bare)
        r = run_blankenship_falk(problem)
        assert r.final_status == "subsolver_failure"
        assert any(w.startswith("iteration 0: field evaluation failed")
                   and "f_bare does not define a Hessian" in w
                   for w in r.warnings)
