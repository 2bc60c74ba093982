"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line with the measured quantities and
then asserts, so a full run gives a compact scoreboard under ``pytest -s``
or in the captured output of failing tests.
"""
import numpy as np
import pytest

from sipsolve.cli import main
from sipsolve.diagnostics import estimate_order
from sipsolve.lower_level import (GRID_PER_DIM, index_set_box,
                                  solve_lower_level_global)
from sipsolve.model import grid_nodes
from sipsolve.problems import get_problem
from sipsolve.sensitivity import (SensitivityError, compute_sensitivity,
                                  linearized_value_and_gradient)

from helpers import fd_maximizer_jacobian, linearization_gaps


def _report(number, label, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion-{number:02d} {label}: {detail}")
    assert ok, f"criterion-{number:02d} {label}: {detail}"


def test_criterion_01_table1_iterate_pattern(ex2_qcad_known):
    run, seconds = ex2_qcad_known
    h = run.history
    ok = run.final_status == "tolerance_met" and len(h) >= 5
    d1 = d2 = d4 = np.inf
    if ok:
        assert np.array_equal(h[0].x, [1.0, -1.0])
        d1 = np.linalg.norm(h[1].x - np.array([0.0, -1.0]))
        d2 = np.linalg.norm(h[2].x - np.array([0.707107, 0.0]))
        d4 = np.linalg.norm(h[4].x - np.array([0.57735, 0.111111]))
        ok = d1 <= 1e-8 and d2 <= 1e-3 and d4 <= 1e-4 and seconds < 1.0
    _report(1, "table-1 iterate pattern", ok,
            f"|x1-(0,-1)|={d1:.2e} (<=1e-8), "
            f"|x2-(0.707107,0)|={d2:.2e} (<=1e-3), "
            f"|x4-(0.57735,0.111111)|={d4:.2e} (<=1e-4), "
            f"runtime={seconds:.2f}s (<1s)")


def test_criterion_02_bf_linear_rate(ex1_bf_20):
    run, seconds = ex1_bf_20
    errors = [rec.dist_to_known for rec in run.history]
    final = errors[-1]
    ratios = [errors[k + 1] / errors[k] for k in range(5, len(errors) - 1)]
    ok = (len(errors) == 21 and 1e-7 < final <= 1e-4
          and all(0.2 <= r <= 0.9 for r in ratios) and seconds < 2.0)
    _report(2, "classical-loop linear rate", ok,
            f"error after 20 iterations={final:.3e} (in (1e-7, 1e-4]), "
            f"tail ratios in [{min(ratios):.3f}, {max(ratios):.3f}] "
            f"(within [0.2, 0.9]), runtime={seconds:.2f}s (<2s)")


def test_criterion_03_table2_iteration_counts(dc_qcad_known, dc_bf_known):
    qcad, q_sec = dc_qcad_known
    bf, b_sec = dc_bf_known
    q_k = qcad.final.k
    b_k = bf.final.k
    err3 = (qcad.history[3].dist_to_known if len(qcad.history) > 3
            else qcad.final.dist_to_known)
    total = q_sec + b_sec
    ok = (qcad.final_status == "tolerance_met" and q_k <= 6
          and bf.final_status == "tolerance_met" and b_k >= 9
          and err3 <= 1e-3 and total < 10.0)
    _report(3, "table-2 iteration counts", ok,
            f"qcad={q_k} iterations (<=6), bf={b_k} (>=9), "
            f"qcad error at k=3 {err3:.3e} (<=1e-3), "
            f"runtime={total:.2f}s (<10s)")


def test_criterion_04_empirical_orders(ex2_qcad_known, dc_qcad_known,
                                       ex1_bf_20):
    ex2_order = estimate_order(
        [r.dist_to_known for r in ex2_qcad_known.result.history]).order
    dc_order = estimate_order(
        [r.dist_to_known for r in dc_qcad_known.result.history]).order
    bf_order = estimate_order(
        [r.dist_to_known for r in ex1_bf_20.result.history]).order
    ok = ex2_order >= 1.7 and dc_order >= 1.7 and bf_order <= 1.2
    _report(4, "empirical convergence orders", ok,
            f"qcad orders {ex2_order:.2f}, {dc_order:.2f} (>=1.7); "
            f"classical order {bf_order:.3f} (<=1.2)")


def test_criterion_05_base_point_identities(ex2_qcad_known, dc_qcad_known,
                                            qcad_practical):
    runs = [(get_problem("example2"), ex2_qcad_known.result),
            (get_problem("design_centering"), dc_qcad_known.result)]
    runs += [(get_problem(name), run) for name, run in qcad_practical.items()]
    checked = 0
    worst_val = 0.0
    worst_grad = 0.0
    for problem, run in runs:
        for rec in run.history:
            for i, lc in rec.linearizations.items():
                value, grad = linearized_value_and_gradient(lc, problem,
                                                            lc.x_base)
                z = np.concatenate([lc.x_base, lc.y_base])
                g = problem.si_constraints[i]
                worst_val = max(worst_val, abs(value - g.value(z)))
                worst_grad = max(worst_grad, np.abs(
                    grad - g.gradient(z)[:problem.n]).max())
                checked += 1
    ok = checked > 0 and worst_val <= 1e-10 and worst_grad <= 1e-10
    _report(5, "base-point tangency identities", ok,
            f"{checked} linearizations checked, worst value gap "
            f"{worst_val:.2e}, worst gradient gap {worst_grad:.2e} "
            "(both <=1e-10)")


def test_criterion_06_sensitivity_vs_finite_differences():
    rng = np.random.default_rng(42)
    overall = 0.0
    counts = {}
    for name in ("example1", "example2", "design_centering"):
        problem = get_problem(name)
        lo = problem.x_bounds[:, 0]
        span = problem.x_bounds[:, 1] - lo
        found = 0
        attempts = 0
        worst = 0.0
        while found < 10 and attempts < 60:
            x = lo + span * (0.05 + 0.9 * rng.random(problem.n))
            i = attempts % problem.n_si
            attempts += 1
            sol = solve_lower_level_global(problem, i, x)
            if not (sol.regularity.licq and sol.regularity.sosc
                    and sol.regularity.strict_complementarity):
                continue
            try:
                lc = compute_sensitivity(problem, sol)
            except SensitivityError:
                continue
            fd = fd_maximizer_jacobian(problem, i, x)
            rel = np.abs(lc.dy_dx - fd).max() / max(1.0, np.abs(fd).max())
            worst = max(worst, rel)
            found += 1
        counts[name] = found
        overall = max(overall, worst)
    ok = all(c == 10 for c in counts.values()) and overall <= 1e-4
    _report(6, "maximizer sensitivities vs finite differences", ok,
            f"regular points per problem {counts}, worst relative error "
            f"{overall:.2e} (<=1e-4)")


def test_criterion_07_linearization_gap_bounds(ex2_qcad_known, ex1,
                                               qcad_practical):
    ex2 = get_problem("example2")
    h = ex2_qcad_known.result.history
    pairs = 0
    worst_v = 0.0
    worst_g = 0.0
    for k in range(len(h) - 1):
        lc = h[k].linearizations.get(0)
        if lc is None:
            continue
        gaps = linearization_gaps(ex2, 0, h[k].x, h[k + 1].x, lc)
        if gaps.step4 == 0.0:
            continue
        worst_v = max(worst_v, gaps.value_gap / gaps.step4)
        worst_g = max(worst_g, gaps.gradient_gap / gaps.step2)
        pairs += 1

    # affine lower-level map: the surrogate is exact off the base point too
    h1 = qcad_practical["example1"].history
    lin_gap = np.inf
    for k in range(len(h1) - 1):
        lc = h1[k].linearizations.get(0)
        if lc is None:
            continue
        gaps = linearization_gaps(ex1, 0, h1[k].x, h1[k + 1].x, lc)
        lin_gap = gaps.value_gap
        break

    ok = pairs >= 2 and worst_v <= 1e3 and worst_g <= 1e2 and lin_gap <= 1e-12
    _report(7, "surrogate error bounds along the run", ok,
            f"{pairs} iterate pairs, value_gap/step^4 <= {worst_v:.2e} "
            f"(<=1e3), gradient_gap/step^2 <= {worst_g:.2e} (<=1e2), "
            f"affine-case value gap {lin_gap:.2e} (<=1e-12)")


def test_criterion_08_stationarity_of_limits(qcad_practical):
    details = []
    ok = True
    for name, run in qcad_practical.items():
        final = run.final
        ok = (ok and run.final_status == "tolerance_met"
              and final.stationarity_residual <= 1e-5
              and final.feasibility <= 1e-6)
        details.append(f"{name}: stat={final.stationarity_residual:.2e}, "
                       f"feas={final.feasibility:.2e}")
    _report(8, "final iterates are stationary", ok,
            "; ".join(details) + " (stat<=1e-5, feas<=1e-6)")


def test_criterion_09_global_dominance_over_fine_grid():
    rng = np.random.default_rng(7)
    worst = -np.inf
    per_dim = 10 * GRID_PER_DIM
    for name in ("example1", "example2", "design_centering"):
        problem = get_problem(name)
        box, _ = index_set_box(problem)
        nodes = grid_nodes(box, per_dim)
        mask = np.ones(len(nodes), dtype=bool)
        for v in problem.index_constraints:
            mask &= v.value_batch(nodes) <= 1e-9
        feas = nodes[mask]
        lo = problem.x_bounds[:, 0]
        hi = problem.x_bounds[:, 1]
        for _ in range(20):
            x = rng.uniform(lo, hi)
            for i in range(problem.n_si):
                sol = solve_lower_level_global(problem, i, x)
                z = np.column_stack([
                    np.broadcast_to(x, (len(feas), problem.n)), feas])
                grid_best = problem.si_constraints[i].value_batch(z).max()
                worst = max(worst, grid_best - sol.value)
    ok = worst <= 1e-9
    _report(9, "returned maximum dominates refined grid", ok,
            f"20 points x all families per problem, worst "
            f"(grid - returned) = {worst:.2e} (<=1e-9)")


def test_criterion_10_csv_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["run", "--problem", "example2", "--alg", "qcad",
            "--mode", "known"]
    code_a = main(argv + ["--csv", str(a)])
    code_b = main(argv + ["--csv", str(b)])
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    _report(10, "repeated runs give identical CSV", ok,
            f"exit codes {code_a}/{code_b}, byte-identical={identical}")
