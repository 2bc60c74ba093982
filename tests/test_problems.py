import re
from importlib.resources import files

import numpy as np
import pytest

from sipsolve import DriverOptions, run_blankenship_falk, run_qcad
from sipsolve.diagnostics import feasibility_measure, stationarity_residual
from sipsolve.lower_level import solve_all_lower_levels, solve_lower_level_global
from sipsolve.model import verify_derivatives, validate_problem
from sipsolve.problems import REGISTRY, get_problem, list_problems
from sipsolve.specfile import compile_spec, parse_spec


class TestRegistry:
    def test_contents_and_order(self):
        assert list(REGISTRY) == ["example1", "example2", "design_centering"]

    def test_get_problem(self):
        p = get_problem("example2")
        assert p.name == "example2"
        assert (p.n, p.m) == (2, 1)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError) as exc:
            get_problem("nosuch")
        assert ("unknown problem 'nosuch'; available: "
                "design_centering, example1, example2") in str(exc.value)

    def test_list_problems_sorted(self):
        assert list_problems() == ["design_centering", "example1", "example2"]

    def test_fresh_instances(self):
        assert get_problem("example1") is not get_problem("example1")


def _random_points(problem, arity, count, rng):
    lo = problem.x_bounds[:, 0]
    hi = problem.x_bounds[:, 1]
    pts = []
    for _ in range(count):
        x = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        if arity == problem.n:
            pts.append(x)
        elif arity == problem.m:
            pts.append(rng.uniform(-0.95, 0.95, size=problem.m))
        else:
            y = rng.uniform(-0.95, 0.95, size=problem.m)
            pts.append(np.concatenate([x, y]))
    return pts


@pytest.mark.parametrize("name", ["example1", "example2", "design_centering"])
class TestEveryProblem:
    def test_validates(self, name):
        report = validate_problem(get_problem(name))
        assert report.valid, report.issues

    def test_all_derivatives_match_finite_differences(self, name):
        problem = get_problem(name)
        rng = np.random.default_rng(123)
        fields = ((problem.objective,) + problem.si_constraints
                  + problem.index_constraints + problem.finite_constraints)
        for fieldobj in fields:
            pts = _random_points(problem, fieldobj.arity, 100, rng)
            assert verify_derivatives(fieldobj, pts, h=1e-5) <= 1e-5, \
                fieldobj.name

    def test_batch_evaluation_matches_scalar(self, name):
        problem = get_problem(name)
        rng = np.random.default_rng(7)
        for fieldobj in (problem.objective,) + problem.si_constraints:
            pts = np.array(_random_points(problem, fieldobj.arity, 20, rng))
            batch = fieldobj.value_batch(pts)
            assert np.allclose(batch, [fieldobj.value(row) for row in pts],
                               atol=1e-12)

    def test_known_point_is_feasible_and_stationary(self, name):
        problem = get_problem(name)
        x = np.asarray(problem.known_solution)
        ll = solve_all_lower_levels(problem, x)
        assert feasibility_measure(ll) <= 1e-8
        assert stationarity_residual(problem, x, ll) <= 1e-5
        assert problem.objective.value(x) == pytest.approx(
            problem.known_objective, abs=1e-9)

    def test_start_inside_bounds(self, name):
        problem = get_problem(name)
        x0 = np.asarray(problem.start)
        assert np.all(problem.x_bounds[:, 0] <= x0)
        assert np.all(x0 <= problem.x_bounds[:, 1])


class TestKnownValues:
    def test_parabolic_problem_solution(self, ex1):
        assert np.allclose(ex1.known_solution, [1.0 / 3.0, 1.0 / 9.0])
        assert ex1.known_objective == pytest.approx(-1.0 / 6.0)
        # the active lower-level point at the solution is y = 1/3
        z = np.concatenate([ex1.known_solution, [1.0 / 3.0]])
        assert abs(ex1.si_constraints[0].value(z)) <= 1e-12

    def test_parabolic_semi_infinite_margin(self, ex1):
        # max_y g((0.5, 0.5), y) = -0.25, attained at y = 0.5
        assert feasibility_measure(solve_all_lower_levels(
            ex1, np.array([0.5, 0.5]))) == pytest.approx(-0.25, abs=1e-9)

    def test_squared_variant_solution(self, ex2):
        assert np.allclose(ex2.known_solution, [0.57735, 0.111111],
                           atol=5e-6)
        assert ex2.known_objective == pytest.approx(-1.0 / 6.0)

    def test_ellipse_area_at_solution(self, dc):
        root3 = np.sqrt(3.0)
        expect = -np.pi * (4.0 * root3 / 3.0) * (2.0 / 3.0)
        assert dc.known_objective == pytest.approx(expect, abs=1e-12)
        assert dc.known_objective == pytest.approx(-4.8368, abs=1e-4)

    def test_ellipse_start_margin(self, dc):
        # at the start the slanted side reduces to 0.25 y1 + y2 - 0.75
        sol = solve_lower_level_global(dc, 2, np.asarray(dc.start))
        assert sol.value == pytest.approx(np.sqrt(17.0) / 4.0 - 0.75,
                                          abs=1e-9)


def _disk_of_radius(r: float) -> str:
    """design_centering's spec text with y measured in units of 1/r: Y is
    the disk of radius r, g reads y/r, and y_bounds scale by r."""
    text = (files("sipsolve") / "data" / "design_centering.yaml").read_text()
    si = text[text.index("si_constraints:"):text.index("index_constraints:")]
    text = text.replace(si, re.sub(r"y(\d)", rf"(y\1/{r!r})", si))
    text = text.replace('"y1^2 + y2^2 - 1"', f'"y1^2 + y2^2 - {r * r!r}"')
    return text.replace("[-1.03125, 1.03125]", f"[{-1.03125 * r!r}, {1.03125 * r!r}]")


class TestIndexRescaling:
    @pytest.mark.parametrize("runner", [run_blankenship_falk, run_qcad])
    def test_small_disk_keeps_status_and_k(self, runner):
        # the declared box scales with Y; a box searched for over a fixed
        # region does not
        opts = DriverOptions(mode="known", tol_dist=1e-4)
        small = compile_spec(parse_spec(_disk_of_radius(0.01)))
        base = runner(get_problem("design_centering"), opts=opts)
        scaled = runner(small, opts=opts)
        assert base.final_status == scaled.final_status == "tolerance_met"
        assert scaled.final.k == base.final.k
