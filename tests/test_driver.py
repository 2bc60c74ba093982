import hashlib
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sipsolve import driver, nlp
from sipsolve.driver import (DiscretizationState, DriverOptions,
                             IterateRecord, check_termination,
                             run_blankenship_falk, run_qcad)
from sipsolve.model import ScalarField
from sipsolve.problems import get_problem
from sipsolve.specfile import compile_spec, load_problem, parse_spec

from helpers import (always_violated_problem, onestep_problem,
                     pinned_index_problem, tie_problem)


QUARTER_DISK = Path(__file__).with_name("data") / "quarter_disk.yaml"


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

    @pytest.mark.parametrize("runner", [run_blankenship_falk, run_qcad])
    def test_descent_at_the_full_trust_radius_is_progress(self, runner):
        # min x1 s.t. x1 >= -y^2 in the box [2000, 3000]: every master steps
        # the trust radius down, the maximizer y = 0 repeats and the
        # feasibility -x1 only rises, yet the run is far from stalled
        problem = replace(onestep_problem(),
                          x_bounds=np.array([[2000.0, 3000.0]]),
                          start=np.array([2500.0]))
        r = runner(problem, opts=DriverOptions(max_iter=6))
        assert r.final_status == "max_iter"
        assert [rec.x[0] for rec in r.history] == [2500.0 - 2.0 * k
                                                   for k in range(7)]

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

    def test_near_singular_bfgs_matrix_restarts(self, dc):
        # on the box [-1, 1]^2 the first master from this start gets a BFGS
        # matrix that is positive definite but singular to working precision;
        # the SQP restarts from the identity instead of solving a QP on it
        x0 = [0.05663372243244269, 0.2706774314584631, 0.5504147567809613,
              0.6823188888562653, -0.3241708295993819]
        unit = replace(dc, y_bounds=[[-1.0, 1.0], [-1.0, 1.0]])
        r = run_qcad(unit, x0, opts=DriverOptions(mode="known", tol_dist=1e-4))
        assert r.final_status == "tolerance_met"
        assert r.final.k == 2

    def test_master_at_a_fixed_point_keeps_its_iterates(self, dc, monkeypatch):
        # from this start two masters stop moving long before max_iter:
        # every accepted step rounds back to the same z.  Cutting such a
        # solve short must leave the run exactly as running every step.
        x0 = [0.9320362924289076, 0.5860391173142572, 1.7993953104363045,
              1.7204577058647854, -0.009712259136400503]
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

    @pytest.mark.parametrize("runner", [run_blankenship_falk, run_qcad])
    @pytest.mark.parametrize("x0", [[-2.5], [2.0 + 1e-12]])
    def test_start_outside_the_box(self, runner, x0):
        with pytest.raises(ValueError, match="outside x_bounds"):
            runner(onestep_problem(), x0=np.array(x0))

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


# log(x1) is undefined for x1 <= 0; from x0 = (2, 1) a derivative there is
# asked for at iteration 1
LOG_SPEC = ("n: 2\nm: 1\nobjective: log(x1) + x2\nsi_constraints:\n"
            "  - -y1^2 + 2*y1*x1 - x2\nindex_constraints:\n  - y1 - 1\n"
            "  - -y1 - 1\nx_bounds: [[-1, 2], [-1, 1]]\nx0: [2, 1]\n")


def _terminal_warnings(r):
    """The run's warnings after those of its records, which lead in order."""
    recorded = [w for rec in r.history for w in rec.warnings]
    assert r.warnings[:len(recorded)] == recorded
    return r.warnings[len(recorded):]


class TestWarnings:
    @pytest.mark.parametrize("runner", [run_blankenship_falk, run_qcad])
    def test_tie_is_warned_once_per_iteration(self, runner):
        r = runner(tie_problem())
        assert r.final_status == "tolerance_met"
        assert [rec.warnings for rec in r.history] == [
            [f"iteration {k}: constraint 0 has multiple global lower-level "
             "maximizers"] for k in range(len(r.history))]
        assert _terminal_warnings(r) == []

    def test_regularity_failure_is_recorded(self, ex2_qcad_known):
        r = ex2_qcad_known.result
        assert r.final_status == "tolerance_met"
        assert [w.startswith("iteration 0: regularity failed")
                for w in r.warnings] == [True]
        assert _terminal_warnings(r) == []

    def test_stagnation_is_the_terminal_warning(self, ex1):
        r = run_blankenship_falk(ex1)
        assert r.final_status == "subsolver_failure"
        assert any(rec.warnings for rec in r.history)
        assert _terminal_warnings(r) == [
            f"iteration {r.final.k}: no new discretization points and no "
            "feasibility progress for 3 iterations"]

    @pytest.mark.parametrize("runner", [run_blankenship_falk, run_qcad])
    def test_field_failure_is_the_terminal_warning(self, runner):
        r = runner(compile_spec(parse_spec(LOG_SPEC)))
        assert r.final_status == "subsolver_failure"
        assert _terminal_warnings(r) == [
            f"iteration {len(r.history)}: field evaluation failed: log of a "
            "nonpositive value"]


class TestDeclaredBox:
    """quarter_disk.yaml: each maximizer at the answer lies where the
    circle meets the declared face y1 = 0.5."""

    @pytest.mark.parametrize("runner", [run_blankenship_falk, run_qcad])
    def test_quarter_disk_reaches_the_answer(self, runner):
        problem = load_problem(QUARTER_DISK)
        practical = runner(problem)
        assert practical.final_status == "tolerance_met"
        assert np.linalg.norm(practical.history[-1].x - [0.75, 0.6]) <= 1e-6
        known = runner(problem, opts=DriverOptions(mode="known", tol_dist=1e-4))
        assert known.final_status == "tolerance_met"

    @pytest.mark.parametrize("mode", ["practical", "known"])
    def test_bf_names_a_face_maximizer_it_adds(self, mode):
        # qcad names it in its regularity warning, so only bf warns here
        opts = DriverOptions(mode=mode, tol_dist=1e-4)
        bf = run_blankenship_falk(load_problem(QUARTER_DISK), opts=opts)
        assert not bf.history[0].lower_level[0].regularity.kkt_point
        assert [w for w in bf.warnings if "KKT" in w] == [
            "iteration 0: the lower-level maximizer of constraint 0 is not a "
            "KKT point of its active set; added to the discretization as found"]
        qcad = run_qcad(load_problem(QUARTER_DISK), opts=opts)
        assert not any("added to the discretization" in w
                       for w in qcad.warnings)

    def test_qcad_does_not_linearize_a_face_maximizer(self):
        rec = run_qcad(load_problem(QUARTER_DISK)).history[0]
        assert not rec.linearizations
        assert not any(sol.regularity.kkt_point for sol in rec.lower_level)
        assert any("regularity failed for constraint 0 (not a KKT point "
                   "of its active set" in w for w in rec.warnings)


# SHA-256 of repr(float) of every x^k, one line per iterate, of the 12
# built-in runs from their canonical starts.  A change that moves iterates
# on purpose records the new digests and says so.
_ITERATE_DIGESTS = {
    ("example1", "bf", "known"): "872b7fcd0b09ef7bc1a28efef63a930097c0ceba4fd4afb82d06977fdf10f906",
    ("example1", "bf", "practical"): "a1fc068f31952f4893fad1432da4094702518c9784ea6be762886f54e63627a6",
    ("example1", "qcad", "known"): "13beb8cfdf955136ace46dfc73454b6ce500d9d7e7ce6db614706716e7930ed1",
    ("example1", "qcad", "practical"): "13beb8cfdf955136ace46dfc73454b6ce500d9d7e7ce6db614706716e7930ed1",
    ("example2", "bf", "known"): "a324b31763d4a5322e9666245eb0527ea79f8bf129d7dd73c56ddd9b334fff75",
    ("example2", "bf", "practical"): "6401ea920ba9ca168b967e42611ead78b01b497dc97af97c7cd60cf67a3f8b9b",
    ("example2", "qcad", "known"): "45afba0f7e0a4c9a9701d6287e598f355813ab131d5853e8750befd27766e5c0",
    ("example2", "qcad", "practical"): "45afba0f7e0a4c9a9701d6287e598f355813ab131d5853e8750befd27766e5c0",
    ("design_centering", "bf", "known"): "95270eadd038061775cbb4c86782df0d0b7b47f4a419115e686342c1adf62d65",
    ("design_centering", "bf", "practical"): "1c9c0d674003e77478eacd578bbb21b6fe39642c46fa8bc95c26c19f9c3986c3",
    ("design_centering", "qcad", "known"): "63e0e04e6fc8587d13e6ae0b00a40f0501b72d4658dd9f633bae700c83d33b3a",
    ("design_centering", "qcad", "practical"): "63e0e04e6fc8587d13e6ae0b00a40f0501b72d4658dd9f633bae700c83d33b3a",
}


# the digests pin the rounding of numpy 2.4's x86-64 wheels (their
# OpenBLAS and SIMD loops); another build may round otherwise
@pytest.mark.skipif(not (np.__version__.startswith("2.4.")
                         and platform.machine() == "x86_64"),
                    reason="iterate digests recorded with numpy 2.4 on x86-64")
@pytest.mark.parametrize("name, alg, mode", list(_ITERATE_DIGESTS))
def test_built_in_iterates_are_pinned(name, alg, mode):
    runner = run_blankenship_falk if alg == "bf" else run_qcad
    result = runner(get_problem(name), opts=DriverOptions(mode=mode))
    digest = hashlib.sha256()
    for rec in result.history:
        digest.update((" ".join(map(repr, rec.x.tolist())) + "\n").encode())
    assert digest.hexdigest() == _ITERATE_DIGESTS[name, alg, mode]
    # every lower-level maximizer of the built-ins is a KKT point
    assert all(sol.regularity.kkt_point
               for rec in result.history for sol in rec.lower_level)
