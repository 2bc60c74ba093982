import warnings
from dataclasses import replace

import numpy as np
import pytest

from sipsolve import (DriverOptions, driver, lower_level, run_blankenship_falk,
                      run_qcad)
from sipsolve.lower_level import (GRID_PER_DIM, TIE_TOL, LowerLevelError,
                                  FamilyProblem, index_set_box,
                                  KktSystem, index_set_rule,
                                  solve_all_lower_levels,
                                  solve_lower_level_global)
from sipsolve.model import ScalarField, SipProblem
from sipsolve.nlp import null_space
from sipsolve.problems import get_problem
from sipsolve.specfile import compile_spec, parse_spec

from helpers import (grid_nodes, interval_index_fields, narrow_peak_problem,
                     pinned_index_problem, reference_ascending,
                     reference_best_nodes, reference_index_set_rule,
                     reference_kkt_jacobian, reference_kkt_residual,
                     reference_regularity, three_peak_problem, tie_problem,
                     two_peak_problem)


def _kkt_residual(problem, sol):
    """Norm of the active-set KKT residual at a returned maximizer."""
    active = list(sol.active_set)
    return np.linalg.norm(reference_kkt_residual(
        problem, sol.index, sol.x, sol.y, active, sol.multipliers[active]))


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
        assert _kkt_residual(dc, sol) <= 1e-8
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

    def test_solve_all_matches_per_family(self, monkeypatch):
        # the families read their grid values off one shared array of the
        # points (x, y), with the bits of each family's own ``values``
        shared = []
        solve_family = lower_level._solve_family

        def recorded(family, grid, values, previous):
            shared.append(values)
            return solve_family(family, grid, values, previous)

        monkeypatch.setattr(lower_level, "_solve_family", recorded)
        for name in ("example1", "example2", "design_centering"):
            problem = get_problem(name)
            x = np.asarray(problem.start, dtype=float)
            grid = lower_level.index_grid(problem)
            shared.clear()
            sols = solve_all_lower_levels(problem, x, grid)
            assert [s.index for s in sols] == list(range(problem.n_si))
            assert len(shared) == problem.n_si
            for i, (s, values) in enumerate(zip(sols, list(shared))):
                own = FamilyProblem(problem, i, x, grid.box).values(grid.nodes)
                assert values.tobytes() == own.tobytes()
                single = solve_lower_level_global(problem, i, x, grid)
                assert s.y.tobytes() == single.y.tobytes()
                assert s.value == single.value

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
        assert _kkt_residual(dc, sol) <= 1e-8
        assert sol.regularity.all_ok
        nodes = lower_level.index_grid(dc).nodes
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

    @pytest.mark.parametrize("x, tied", [(0.0, True), (0.05, False)])
    def test_tie_tolerance_follows_the_scale(self, local_runs, x, tied):
        # scaled to 1e-9 the whole family varies by about 2e-9: an absolute
        # TIE_TOL would let every start ascend to the first maximum found
        # and tie all three
        sol = solve_lower_level_global(three_peak_problem(scale=1e-9), 0,
                                       np.array([x]))
        assert len(local_runs) == 3
        tops = sorted(y[0] for y, _ in sol.local_maxima)
        assert np.allclose(tops, [-2 / 3, 0.0, 2 / 3], atol=1e-3)
        assert sol.multiple_global == tied
        assert sol.y[0] < -0.5

    def test_polish_follows_the_scale(self):
        # scaled to 1e-9 the KKT residual at a local run's maximizer is
        # below an absolute stopping test before any Newton step; measured
        # relative to the family's scale, the polish reaches the maxima of
        # the unscaled family
        x = np.array([0.05])
        tops = [sorted(y[0] for y, _ in solve_lower_level_global(
            three_peak_problem(scale=scale), 0, x).local_maxima)
            for scale in (1.0, 1e-9)]
        assert len(tops[0]) == len(tops[1]) == 3
        assert np.abs(np.subtract(*tops)).max() <= 1e-14

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


def _assert_same_record(warm, cold):
    assert np.abs(warm.y - cold.y).max() <= 1e-10
    assert warm.active_set == cold.active_set
    assert warm.regularity == cold.regularity


class TestContinuation:
    """A solve given the record of an earlier x follows its maximizer by
    Newton steps on the KKT system; the result is the cold solve's."""

    @pytest.mark.parametrize("runner", [run_blankenship_falk, run_qcad])
    def test_driver_runs_no_local_sqp_after_the_first_iterate(
            self, dc, runner, local_runs, monkeypatch):
        runs_before = []
        solve_all = driver.solve_all_lower_levels

        def recorded(*args, **kwargs):
            runs_before.append(len(local_runs))
            return solve_all(*args, **kwargs)

        monkeypatch.setattr(driver, "solve_all_lower_levels", recorded)
        result = runner(dc, opts=DriverOptions(mode="known", tol_dist=1e-4))
        assert result.final_status == "tolerance_met"
        assert len(result.history) > 2
        assert runs_before[1] == len(local_runs) > 0
        for rec in result.history[1:]:
            for sol in rec.lower_level:
                _assert_same_record(
                    sol, solve_lower_level_global(dc, sol.index, rec.x))

    def test_maximizer_reaching_a_bound_with_zero_multiplier(self, ex2,
                                                             local_runs):
        # y* = x1^2 is interior at x1 = 0.99 and sits on y <= 1 with a zero
        # multiplier at x1 = 1; followed with no active constraint it would
        # pass as a strictly complementary maximizer
        previous = solve_lower_level_global(ex2, 0, np.array([0.99, 0.13]))
        assert previous.active_set == ()
        x = np.array([1.0, 0.13])
        cold = solve_lower_level_global(ex2, 0, x)
        local_runs.clear()
        warm = solve_lower_level_global(ex2, 0, x, previous=previous)
        assert local_runs
        _assert_same_record(warm, cold)
        assert warm.active_set == (0,)
        assert not warm.regularity.strict_complementarity

    @pytest.mark.parametrize("x_prev, x", [(0.1, -0.1), (-0.1, 0.1)])
    def test_global_maximizer_switches_peaks(self, x_prev, x):
        p = two_peak_problem()
        previous = solve_lower_level_global(p, 0, np.array([x_prev]))
        warm = solve_lower_level_global(p, 0, np.array([x]),
                                        previous=previous)
        _assert_same_record(warm, solve_lower_level_global(p, 0, np.array([x])))
        assert np.sign(warm.y[0]) == -np.sign(previous.y[0]) == np.sign(x)
        assert len(warm.local_maxima) == 2

    def test_start_above_the_followed_maximum_runs(self):
        # the peaks scaled to 1e-9 and the cliff beyond |y| = 1 keep the tie
        # tolerance at TIE_TOL, and g falls by less than that between any
        # two samples, so every start passes the ascent test to the followed
        # right peak; the best grid node lies above that peak and still runs
        p = three_peak_problem(scale=1e-9, radius=2.0)
        previous = solve_lower_level_global(p, 0, np.array([-0.05]))
        x = np.array([0.05])
        warm = solve_lower_level_global(p, 0, x, previous=previous)
        _assert_same_record(warm, solve_lower_level_global(p, 0, x))
        assert warm.y[0] < 0.0 < previous.y[0]

    def test_followed_local_minimizer_fails_sosc(self):
        # at x = 0, y = 0 is a KKT point of the lower level: the polish
        # converges there at once, but g has curvature +1 in y
        p = two_peak_problem()
        x = np.array([0.0])
        cold = solve_lower_level_global(p, 0, x)
        previous = replace(cold, y=np.array([0.0]), active_set=(),
                           multipliers=np.zeros(2))
        family = FamilyProblem(p, 0, x, index_set_box(p))
        assert lower_level._polish_kkt(family, previous.y, [],
                                       np.zeros(2), 1.0) is not None
        assert lower_level._followed(family, previous, 1.0) is None
        warm = solve_lower_level_global(p, 0, x, previous=previous)
        _assert_same_record(warm, cold)

    @pytest.mark.parametrize("name", ["example1", "example2",
                                      "design_centering"])
    def test_driver_records_dominate_the_fine_grid(self, name):
        # criterion 09's 640-per-axis grid, at every iterate of both drivers
        problem = get_problem(name)
        box = index_set_box(problem)
        nodes = grid_nodes(box, 10 * GRID_PER_DIM)
        for v in problem.index_constraints:
            nodes = nodes[v.value_batch(nodes) <= 1e-9]
        opts = DriverOptions(mode="known", tol_dist=1e-4)
        for runner in (run_blankenship_falk, run_qcad):
            result = runner(problem, opts=opts)
            assert result.final_status == "tolerance_met"
            for rec in result.history:
                z = np.column_stack(
                    [np.broadcast_to(rec.x, (len(nodes), problem.n)), nodes])
                for sol in rec.lower_level:
                    grid_best = problem.si_constraints[sol.index] \
                        .value_batch(z).max()
                    assert grid_best <= sol.value + 1e-9


class _Recorded:
    """A field over y that keeps the points of its last batch."""

    def __init__(self, fn):
        self.fn, self.pts = fn, None

    def value_batch(self, pts):
        self.pts = pts.copy()
        return self.fn(pts)


def _rule(vs):
    """``index_set_rule`` of the fields ``vs`` over an unbounded box."""
    return lambda pts: index_set_rule(vs, np.array([[-np.inf, np.inf]]), pts)


def _ascent_cases(rng):
    """(starts, y, step) triples: random segments, zero-width axes, starts
    equal to y, and segments whole numbers of grid steps long."""
    for trial in range(400):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, lower_level.N_STARTS))
        scale = 10.0 ** rng.uniform(-3, 1)
        y = rng.normal(size=m) * scale
        step = np.abs(rng.normal(size=m)) * 10.0 ** rng.uniform(-3, 0)
        if trial % 4 == 1:
            step[rng.integers(m)] = 0.0
        if trial % 4 == 2:
            starts = y - rng.integers(-6, 7, size=(k, m)) * step
        else:
            starts = rng.normal(size=(k, m)) * scale
        if trial % 3 == 0:
            starts[rng.integers(k)] = y
        yield starts, y, step


class TestScanMatchesReference:
    """The vectorized start selection and ascent test reproduce one argsort
    and one np.linspace per start bit for bit."""

    def test_start_selection(self):
        rng = np.random.default_rng(5)
        specials = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0])
        for trial in range(600):
            size = int(rng.integers(1, 3000 if trial % 10 == 0 else 40))
            values = rng.integers(-3, 3, size=size).astype(float)
            if trial % 2:
                values = rng.normal(size=size)
            mask = rng.random(size) < 0.3
            values[mask] = rng.choice(specials, size=mask.sum())
            for count in (1, 2, lower_level.N_STARTS):
                got = lower_level._best_nodes(values, count)
                want = reference_best_nodes(values, count)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (values, count)

    def test_fewer_nodes_than_starts(self):
        values = np.array([1.0, np.nan, 1.0, np.inf, -np.inf])
        got = lower_level._best_nodes(values, lower_level.N_STARTS)
        assert got.tolist() == [3, 0, 2, 4, 1]

    def test_all_nan(self):
        values = np.full(20, np.nan)
        got = lower_level._best_nodes(values, lower_level.N_STARTS)
        assert got.tolist() == list(range(lower_level.N_STARTS))

    def test_ascent_segments(self):
        rng = np.random.default_rng(7)
        for starts, y, step in _ascent_cases(rng):
            def wavy(pts):
                return np.cos(3.0 * pts).sum(axis=1) - (pts ** 2).sum(axis=1)

            def ring(pts):
                return (pts ** 2).sum(axis=1) - 2.0 * float(y @ y) - 0.5

            g_got, v_got = _Recorded(wavy), _Recorded(ring)
            g_want, v_want = _Recorded(wavy), _Recorded(ring)
            got = lower_level._ascending(g_got.value_batch, _rule([v_got]),
                                         starts, y, step, TIE_TOL)
            want = reference_ascending(g_want, [v_want], starts, y, step,
                                       TIE_TOL)
            assert got.tobytes() == want.tobytes()
            assert g_got.pts.shape == g_want.pts.shape
            assert g_got.pts.tobytes() == g_want.pts.tobytes()
            assert v_got.pts.tobytes() == g_want.pts.tobytes()

    @pytest.mark.parametrize("legs", [[3.0, 4.0], [5.0, 12.0], [2.0, 3.0, 6.0]])
    def test_segments_a_whole_number_of_steps_long(self, legs):
        # |delta / step| within a few ulps of an integer: a sum of squares
        # rounded otherwise than the per-row norm would change the count
        legs = np.array(legs)
        ulps = np.zeros(len(legs))
        starts = []
        for ulps[0] in range(-60, 61, 3):
            for ulps[1] in range(-60, 61, 3):
                starts.append(-(legs + ulps * np.spacing(legs)))
        starts = np.array(starts)
        y, step = np.zeros(len(legs)), np.ones(len(legs))
        g_got = _Recorded(lambda pts: -(pts ** 2).sum(axis=1))
        g_want = _Recorded(lambda pts: -(pts ** 2).sum(axis=1))
        got = lower_level._ascending(g_got.value_batch, _rule([]), starts, y,
                                     step, TIE_TOL)
        want = reference_ascending(g_want, [], starts, y, step, TIE_TOL)
        assert got.all() and want.all()
        assert g_got.pts.tobytes() == g_want.pts.tobytes()

    def test_start_at_the_maximizer_samples_its_two_ends(self):
        y = np.array([0.25, -0.5])
        g = _Recorded(lambda pts: -((pts - y) ** 2).sum(axis=1))
        ok = lower_level._ascending(g.value_batch, _rule([]),
                                    np.array([y, y + 0.1]), y,
                                    np.array([0.0, 0.05]), TIE_TOL)
        assert ok.tolist() == [True, True]
        # 0.1 over a zero-width axis and 0.1 / 0.05 = 2 steps: 2 + 2 samples
        assert len(g.pts) == 2 + 4
        assert g.pts[:2].tolist() == [y.tolist()] * 2


class TestKktMatrix:
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_stored_matrix_is_the_kkt_jacobian_at_the_solution(self, dc, i):
        x = np.asarray(dc.known_solution)
        sol = solve_lower_level_global(dc, i, x)
        active = list(sol.active_set)
        jac, d2_yx = reference_kkt_jacobian(dc, i, x, sol.y, active,
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


def _kkt_system_cases(problem, rng):
    """(i, x, y, active, mu_a) over the problem's families: x about its
    start, y in its index box, every subset of the index constraints
    active, and multipliers positive, negative and zero."""
    box = index_set_box(problem)
    n_index = len(problem.index_constraints)
    for trial in range(60):
        x = problem.start + 0.3 * rng.normal(size=problem.n)
        y = box[:, 0] + rng.random(problem.m) * (box[:, 1] - box[:, 0])
        size = int(rng.integers(0, min(n_index, problem.m) + 1))
        active = sorted(rng.choice(n_index, size=size, replace=False).tolist())
        mu_a = rng.normal(size=size)
        mu_a[rng.random(size) < 0.3] = 0.0
        yield trial % len(problem.si_constraints), x, y, active, mu_a


class TestKktSystem:
    """``KktSystem`` gives the bits of the residual and Jacobian built
    apart, each with its own (x, y) array and v_l gradients
    (``helpers.reference_kkt_residual`` and ``reference_kkt_jacobian``)."""

    @pytest.mark.parametrize("name", ["example1", "example2",
                                      "design_centering"])
    def test_same_bits_as_the_separate_builds(self, name):
        p = get_problem(name)
        for i, x, y, active, mu_a in _kkt_system_cases(
                p, np.random.default_rng(31)):
            system = KktSystem(p, i, x, y, active, mu_a)
            want = reference_kkt_residual(p, i, x, y, active, mu_a)
            assert system.residual.tobytes() == want.tobytes()
            jac, d2_yx = system.jacobian()
            want_jac, want_d2_yx = reference_kkt_jacobian(p, i, x, y, active,
                                                          mu_a)
            assert jac.tobytes() == want_jac.tobytes()
            assert d2_yx.tobytes() == want_d2_yx.tobytes()
            assert system.jacobian()[0] is jac      # built once
            clamped = np.maximum(mu_a, 0.0)
            jac, d2_yx = system.jacobian_at(clamped)
            want_jac, want_d2_yx = reference_kkt_jacobian(p, i, x, y, active,
                                                          clamped)
            assert jac.tobytes() == want_jac.tobytes()
            assert d2_yx.tobytes() == want_d2_yx.tobytes()

    def test_record_of_a_clamped_multiplier_builds_its_own_matrix(self, dc):
        # a polish that ends at a multiplier of -1e-12 keeps it as 0: the
        # record's matrix leaves out the disk's Hessian, 2 I, which the
        # system's own matrix holds times -1e-12
        x = np.asarray(dc.known_solution)
        sol = solve_lower_level_global(dc, 2, x)
        active = list(sol.active_set)
        family = FamilyProblem(dc, 2, x, index_set_box(dc))
        system = KktSystem(dc, 2, x, sol.y, active, np.full(len(active), -1e-12))
        mu = np.zeros(len(dc.index_constraints))
        record = lower_level._candidate(family, system, mu)
        want, _ = reference_kkt_jacobian(dc, 2, x, sol.y, active, mu[active])
        assert record.kkt_matrix.tobytes() == want.tobytes()
        assert record.kkt_matrix.tobytes() != system.jacobian()[0].tobytes()
        # unclamped, the record reads the system's own matrix
        system = KktSystem(dc, 2, x, sol.y, active, sol.multipliers[active])
        record = lower_level._candidate(family, system, sol.multipliers)
        assert record.kkt_matrix is system.jacobian()[0]
        assert record.value == sol.value


class TestIndexSetRule:
    """Y's rule: the batch form gives the point form's membership row by
    row, and both give the bits of the rule that stacks every bound in one
    array (``helpers.reference_index_set_rule``)."""

    @staticmethod
    def _assert_forms_agree(vs, box, ys):
        inside = index_set_rule(vs, box, ys)
        want, _ = reference_index_set_rule(vs, box, ys)
        assert inside.dtype == bool and inside.shape == (len(ys),)
        assert inside.tobytes() == want.tobytes()
        for y, row_inside in zip(ys, inside):
            got_inside, got_active = index_set_rule(vs, box, y)
            want_inside, want_active = reference_index_set_rule(vs, box, y)
            assert bool(got_inside) == bool(want_inside) == row_inside
            assert got_active.tobytes() == want_active.tobytes()
        return inside

    @pytest.mark.parametrize("name", ["example1", "example2",
                                      "design_centering", "cut_disk"])
    def test_grid_nodes_out_of_box_and_nan_rows(self, name):
        # the cut disk's declared box y1 <= 0.5 cuts Y, so its box rows
        # decide membership where the disk does not
        p = (compile_spec(parse_spec(CUT_DISK)) if name == "cut_disk"
             else get_problem(name))
        box = index_set_box(p)
        nodes = grid_nodes(box, 12)
        centre = box.mean(axis=1)
        outside = centre + 1.2 * (nodes - centre)
        # each face of the box, a whisker inside and outside the TOL_FEAS
        # slack
        faces = []
        for j, (lo, hi) in enumerate(box):
            for bound, slack in ((hi, 0.5), (hi, 2.0), (lo, -0.5), (lo, -2.0)):
                rows = nodes.copy()
                rows[:, j] = bound + slack * lower_level.TOL_FEAS
                faces.append(rows)
        faces = np.concatenate(faces)
        odd = np.array([np.nan, np.inf, -np.inf])[np.arange(len(nodes)) % 3]
        nan_rows = nodes.copy()
        nan_rows[:, -1] = odd
        ys = np.concatenate([nodes, outside, faces, nan_rows])
        inside = self._assert_forms_agree(p.index_constraints, box, ys)
        assert inside[:len(nodes)].any()
        assert not inside[-len(nodes):].any()

    def test_unbounded_box(self):
        # an interval over an infinite box: inf - inf is nan, not in Y
        vs = interval_index_fields()
        box = np.array([[-np.inf, np.inf]])
        ys = np.array([[0.0], [1.0], [1.0 + 2e-9], [-1.0 - 5e-10], [np.inf],
                       [-np.inf], [np.nan], [-0.0]])
        with np.errstate(invalid="ignore"):     # inf - inf, in both rules
            inside = self._assert_forms_agree(vs, box, ys)
        assert inside.tolist() == [True, True, False, True, False, False,
                                   False, True]


class TestSoscOneByOne:
    """A 1 x 1 projected Hessian's entry is what LAPACK's syevd returns as
    its eigenvalue, and ``_regularity`` reads its SOSC flag off it."""

    def test_entry_is_numpys_eigenvalue(self):
        rng = np.random.default_rng(37)
        entries = [0.0, -0.0, 1e-8, np.nextafter(1e-8, 0.0), -3.5, 1e300,
                   -1e-310, 5e-324, np.inf, -np.inf, np.nan]
        entries += (rng.normal(size=200) * 10.0 ** rng.uniform(-12, 6, 200)).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for entry in entries:
                a = np.array([[entry]])
                assert np.linalg.eigvalsh(a).tobytes() == a[0].tobytes()

    def test_flags_match_the_eigenvalue_test(self):
        # kkt matrices of m = 1..3 with 0..m active rows, the projected
        # Hessian's least eigenvalue about the cutoff
        rng = np.random.default_rng(41)
        cutoff = lower_level._SOSC_EIG_CUTOFF
        seen = set()
        for trial in range(600):
            m = 1 + trial % 3
            a = int(rng.integers(0, m + 1))
            hess = rng.normal(size=(m, m))
            hess = -(hess + hess.T) / 2
            va = rng.normal(size=(a, m))
            kkt = np.zeros((m + a, m + a))
            kkt[:m, :m] = hess
            kkt[:m, m:], kkt[m:, :m] = -va.T, va
            mu_a = rng.choice([0.0, 1e-7, 0.5, 2.0], size=a)
            basis = null_space(va[np.flatnonzero(mu_a > 1e-6)], m)
            projected = -(basis.T @ hess @ basis)
            if len(projected) == 1 and trial % 2:
                # put the entry at the cutoff, or an ulp either side
                shift = cutoff - projected[0, 0]
                hess -= shift * np.outer(basis[:, 0], basis[:, 0])
                kkt[:m, :m] = hess
                projected = -(basis.T @ hess @ basis)
            want = bool(not len(projected)
                        or np.linalg.eigvalsh(projected)[0] >= cutoff)
            flags = lower_level._regularity(kkt, mu_a, True)
            assert flags.sosc == want
            seen.add((len(projected), want))
        assert {(1, True), (1, False), (2, True), (2, False)} <= seen
        # m = 1, nothing active: the projection is -D2_yy g itself
        for entry in (cutoff, np.nextafter(cutoff, 0.0),
                      np.nextafter(cutoff, 1.0), 0.0, np.nan, np.inf):
            flags = lower_level._regularity(np.array([[-entry]]), np.zeros(0),
                                            True)
            assert flags.sosc == bool(entry >= cutoff)


def _kkt_with_rows(rng, m, va):
    """A KKT matrix [[H, -va^T], [va, 0]] with a random symmetric H."""
    hess = rng.normal(size=(m, m))
    a = len(va)
    kkt = np.zeros((m + a, m + a))
    kkt[:m, :m] = -(hess + hess.T) / 2
    kkt[:m, m:], kkt[m:, :m] = -va.T, va
    return kkt


class TestRegularityOneSvd:
    """With every active multiplier strong, ``_regularity`` reads LICQ's
    singular values and the null space off one SVD; its flags are those of
    ``helpers.reference_regularity``, which factors the rows twice."""

    def test_licq_at_the_cutoff(self):
        # 1- and 2-row active sets scaled so that the least singular value
        # is the cutoff, then nudged by up to 4 ulps either way
        rng = np.random.default_rng(43)
        cutoff = lower_level._LICQ_SVD_CUTOFF
        licq, straddled = set(), 0
        for trial in range(400):
            a = 1 + trial % 2
            m = a + (trial // 2) % 2
            va = rng.normal(size=(a, m))
            if a == 2 and trial % 8 < 4:    # nearly parallel rows
                va[1] = va[0] + rng.normal(size=m) * 10.0 ** rng.uniform(-9, -2)
            va *= cutoff / np.linalg.svd(va, compute_uv=False).min()
            for ulps in range(-4, 5):
                rows = va * (1.0 + ulps * 2.0 ** -52)
                kkt = _kkt_with_rows(rng, m, rows)
                mu_a = rng.uniform(0.5, 2.0, size=a)
                flags = lower_level._regularity(kkt, mu_a, True)
                assert flags == reference_regularity(kkt, mu_a, True)
                licq.add(flags.licq)
                # LAPACK's jobs 'N' and 'A' round the least singular value
                # to opposite sides of the cutoff
                straddled += ((np.linalg.svd(rows, compute_uv=False).min() >= cutoff)
                              != (np.linalg.svd(rows)[1].min() >= cutoff))
        assert licq == {True, False}
        assert straddled > 0

    def test_weak_multipliers_and_no_active_rows(self):
        rng = np.random.default_rng(47)
        shared = set()
        for trial in range(600):
            m = 1 + trial % 3
            a = int(rng.integers(0, m + 2))
            va = rng.normal(size=(a, m))
            if a >= 2 and trial % 3 == 0:   # a dependent row
                va[-1] = va[0] * rng.uniform(-2.0, 2.0)
            mu_a = rng.choice([0.0, 1e-7, 1e-6, 0.5, 2.0], size=a)
            kkt = _kkt_with_rows(rng, m, va)
            kkt_point = bool(trial % 5)
            assert lower_level._regularity(kkt, mu_a, kkt_point) == \
                reference_regularity(kkt, mu_a, kkt_point)
            shared.add(bool((mu_a > lower_level._STRICT_COMP_TOL).all()))
        assert shared == {True, False}


class TestPolish:
    def test_non_finite_newton_step_fails_at_once(self):
        # g = -(y - 1/4)^2 - x peaks at y = 1/4; its Hessian is nan at the
        # start, 1e-12 from the peak.  The first Newton step is nan: the
        # polish fails there, and does not keep the start as polished
        y0 = np.array([0.25 + 1e-12])
        hessians = []

        def hessian(z):
            hessians.append(z[1])
            h = np.array([[0.0, 0.0], [0.0, -2.0]])
            return h * np.nan if z[1] == y0[0] else h

        g = ScalarField(2, lambda z: -(z[1] - 0.25) ** 2 - z[0],
                        lambda z: np.array([-1.0, -2.0 * (z[1] - 0.25)]),
                        hessian=hessian)
        f = ScalarField(1, lambda x: x[0], lambda x: np.array([1.0]))
        p = SipProblem(n=1, m=1, objective=f, si_constraints=(g,),
                       index_constraints=interval_index_fields(),
                       x_bounds=np.array([[-2.0, 2.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            family = FamilyProblem(p, 0, np.array([0.0]), index_set_box(p))
            assert lower_level._polish_kkt(family, y0, [], np.zeros(2),
                                           1.0) is None
        assert hessians == [y0[0]]

    def test_singular_newton_step_fails_without_a_warning(self):
        # g = 1e-12 y - x is flat in y to second order: the KKT matrix is
        # [[0]], which LAPACK flags as singular
        g = ScalarField(2, lambda z: 1e-12 * z[1] - z[0],
                        lambda z: np.array([-1.0, 1e-12]),
                        hessian=lambda z: np.zeros((2, 2)))
        f = ScalarField(1, lambda x: x[0], lambda x: np.array([1.0]))
        p = SipProblem(n=1, m=1, objective=f, si_constraints=(g,),
                       index_constraints=interval_index_fields(),
                       x_bounds=np.array([[-2.0, 2.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            family = FamilyProblem(p, 0, np.array([0.0]), index_set_box(p))
            assert lower_level._polish_kkt(family, np.array([0.5]), [],
                                           np.zeros(2), 1.0) is None


class TestRegularity:
    def test_interior_maximizer_is_regular(self, ex1):
        sol = solve_lower_level_global(ex1, 0, np.array([0.5, 0.0]))
        flags = sol.regularity
        assert flags.licq and flags.strict_complementarity and flags.sosc

    def test_active_disk_with_positive_multiplier(self, dc):
        sol = solve_lower_level_global(dc, 2, np.asarray(dc.known_solution))
        assert sol.multipliers[sol.active_set[0]] > 1e-6
        flags = sol.regularity
        assert flags.licq and flags.strict_complementarity and flags.sosc

    def test_pinned_point_fails_licq(self):
        p = pinned_index_problem()
        sol = solve_lower_level_global(p, 0, np.array([0.0]))
        flags = sol.regularity
        assert not flags.licq
        assert not flags.strict_complementarity
        assert flags.sosc

    def test_degenerate_multiplier_fails_strict_complementarity(self, ex1):
        # at x1 = 1 the maximizer sits on y = 1 with multiplier exactly 0
        sol = solve_lower_level_global(ex1, 0, np.array([1.0, 0.0]))
        assert sol.y == pytest.approx([1.0], abs=1e-9)
        flags = sol.regularity
        assert not flags.strict_complementarity


    @pytest.mark.parametrize("m, mu_a", [(2, [1.0]), (2, [0.0]),
                                         (3, [1.0, 2.0]), (3, [1e-7])])
    def test_nan_matrix_fails_licq_and_sosc_without_raising(self, m, mu_a):
        # LAPACK does not converge on an all-nan matrix: numpy's svd raises
        # (and from size 3 its eigvalsh), nlp's gufunc calls give nan
        kkt = np.full((m + len(mu_a), m + len(mu_a)), np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flags = lower_level._regularity(kkt, np.array(mu_a), True)
        assert not flags.licq and not flags.sosc
        assert flags.kkt_point


class TestKeptGridArray:
    """The grid keeps one (N, n + m) array of the points (x, y) for the
    run, and each solve rewrites only its x columns."""

    def test_revisited_x_gives_its_records_bit_for_bit(self):
        for name in ("example1", "example2", "design_centering"):
            problem = get_problem(name)
            grid = lower_level.index_grid(problem)
            x1 = np.asarray(problem.start, dtype=float)
            x2 = np.asarray(problem.known_solution, dtype=float)
            first = solve_all_lower_levels(problem, x1, grid)
            points = grid.points_at(x1)
            solve_all_lower_levels(problem, x2, grid)
            assert grid.points_at(x2) is points
            again = solve_all_lower_levels(problem, x1, grid)
            fresh = solve_all_lower_levels(problem, x1)
            for sols in (again, fresh):
                assert [_record_bytes(s) for s in sols] == \
                    [_record_bytes(s) for s in first]

    def test_array_holds_the_nodes_and_the_last_x(self, dc):
        grid = lower_level.index_grid(dc)
        for x in (np.arange(5.0), np.full(5, -0.5), np.arange(5.0)):
            points = grid.points_at(x)
            assert points.tobytes() == np.hstack(
                [np.tile(x, (len(grid.nodes), 1)), grid.nodes]).tobytes()

    def test_family_poses_its_local_nlp_only_when_a_start_runs(
            self, dc, local_runs, monkeypatch):
        posed = []
        nlp_problem = lower_level.NlpProblem

        def counted(*args, **kwargs):
            posed.append(1)
            return nlp_problem(*args, **kwargs)

        monkeypatch.setattr(lower_level, "NlpProblem", counted)
        result = run_blankenship_falk(
            dc, opts=DriverOptions(mode="known", tol_dist=1e-4))
        assert result.final_status == "tolerance_met"
        # one NLP per family that runs a start, at the first iterate only
        assert 0 < len(posed) <= len(local_runs)
        assert len(posed) <= dc.n_si


def _record_bytes(sol):
    """What a lower-level record holds, its arrays as bytes."""
    return (sol.index, sol.value, sol.active_set, sol.regularity,
            sol.multiple_global, sol.x.tobytes(), sol.y.tobytes(),
            sol.multipliers.tobytes(), sol.kkt_matrix.tobytes(),
            sol.d2_yx.tobytes(),
            [(y.tobytes(), v) for y, v in sol.local_maxima])


class TestIndexSetBox:
    def test_interval_recognized_exactly(self, ex1):
        box = index_set_box(ex1)
        assert np.array_equal(box, [[-1.0, 1.0]])

    def test_declared_box_used_exactly(self, dc):
        # the disk's box is its spec's y_bounds, bit for bit
        assert np.array_equal(index_set_box(dc),
                              [[-1.03125, 1.03125], [-1.03125, 1.03125]])
        assert np.array_equal(lower_level.index_grid(dc).box, dc.y_bounds)
        # a declared box wins over interval-bound index constraints
        wide = replace(get_problem("example1"), y_bounds=[[-2.0, 3.0]])
        assert np.array_equal(index_set_box(wide), [[-2.0, 3.0]])

    def test_disk_without_a_box_fails_its_first_solve(self, dc):
        bare = replace(dc, y_bounds=None)
        with pytest.raises(LowerLevelError, match="y_bounds"):
            solve_lower_level_global(bare, 0, dc.start)
        r = run_qcad(bare, opts=DriverOptions(mode="known", tol_dist=1e-4))
        assert r.final_status == "subsolver_failure"
        assert not r.history
        assert len(r.warnings) == 1 and "y_bounds" in r.warnings[0]

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
        box = index_set_box(pinned_index_problem())
        assert box.shape == (1, 2)
        assert abs(box[0, 0]) == 0.0 and abs(box[0, 1]) == 0.0


CUT_DISK = """
n: 1
m: 2
objective: "x1"
si_constraints: ["y1 + 0.1*y2 - x1"]
index_constraints: ["y1^2 + y2^2 - 1"]
y_bounds: [[-1, 0.5], [-1, 1]]
x0: [2]
"""

# v is nan for |y1| < 0.1, so Y is two intervals; g rises all the way from
# the left one to its peak y1 = 0.12 on the right and falls steeply beyond
NAN_STRIP = """
n: 1
m: 1
objective: "x1"
si_constraints: ["y1 - exp(30*(y1 - 0.12))/30 - x1"]
index_constraints: ["log(y1^2 - 0.01) - 10"]
y_bounds: [[-1, 1]]
x0: [1]
"""


class TestDeclaredBoxHolds:
    """A declared box that cuts the disk: every lower-level path stays in
    Y = {y in y_bounds : v(y) <= 0}."""

    def test_maximizer_lies_in_the_box(self):
        # over the disk y1 + 0.1 y2 peaks at (0.995, 0.0995), beyond the face
        # y1 = 0.5; over Y it peaks at the corner (0.5, sqrt(0.75))
        p = compile_spec(parse_spec(CUT_DISK))
        sol = solve_lower_level_global(p, 0, np.zeros(1))
        box = index_set_box(p)
        assert np.all((box[:, 0] <= sol.y) & (sol.y <= box[:, 1]))
        assert abs(sol.value - (0.5 + 0.1 * np.sqrt(0.75))) <= 1e-12

    def test_polish_rejects_a_newton_point_outside_the_box(self):
        # from the corner, Newton on the disk's KKT system walks along the
        # circle to (0.995, 0.0995): accepted over the unit box, outside Y
        # over the declared one
        p = compile_spec(parse_spec(CUT_DISK))
        x, corner, mu = np.zeros(1), np.array([0.5, np.sqrt(0.75)]), np.ones(1)
        unit = FamilyProblem(p, 0, x, np.array([[-1.0, 1.0], [-1.0, 1.0]]))
        system, _, active = lower_level._polish_kkt(unit, corner, [0], mu, 1.0)
        assert np.allclose(system.y, np.array([1.0, 0.1]) / np.sqrt(1.01),
                           rtol=0.0, atol=1e-12)
        assert active == [0]
        declared = FamilyProblem(p, 0, x, index_set_box(p))
        assert lower_level._polish_kkt(declared, corner, [0], mu, 1.0) is None

    def test_face_maximizer_is_no_kkt_point(self):
        # the face y1 = 0.5 is no index constraint: no multiplier of the
        # disk alone solves the KKT system at the corner, so the record is
        # kept unpolished and flagged
        p = compile_spec(parse_spec(CUT_DISK))
        sol = solve_lower_level_global(p, 0, np.zeros(1))
        assert sol.active_set == (0,)
        assert _kkt_residual(p, sol) > 0.1
        assert not sol.regularity.kkt_point
        assert not sol.regularity.all_ok

    def test_segment_through_nan_leaves_y(self, local_runs):
        # the left starts' segments to the peak cross the nan strip: they
        # leave Y and do not show that those starts climb to the peak, so
        # the starts run (with nan counted inside Y, only the first did)
        p = compile_spec(parse_spec(NAN_STRIP))
        sol = solve_lower_level_global(p, 0, np.zeros(1))
        assert sol.y == pytest.approx([0.12], abs=1e-9)
        assert len(local_runs) > 1


class TestGridDominance:
    def test_returned_value_dominates_fine_grid(self, ex2):
        box = index_set_box(ex2)
        nodes = grid_nodes(box, 320)
        rng = np.random.default_rng(21)
        for _ in range(5):
            x = rng.uniform([0.0, -1.0], [1.0, 1.0])
            sol = solve_lower_level_global(ex2, 0, x)
            z = np.column_stack([np.broadcast_to(x, (len(nodes), 2)), nodes])
            grid_best = ex2.si_constraints[0].value_batch(z).max()
            assert grid_best <= sol.value + 1e-9
