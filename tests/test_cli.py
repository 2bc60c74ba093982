import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sipsolve
from sipsolve import DriverOptions, lower_level
from sipsolve.cli import build_parser, main, run_options
from sipsolve.lower_level import index_grid

MINIMAL_SPEC = ("n: 1\nm: 1\nobjective: x1\nsi_constraints:\n"
                "  - -y1^2 - x1\nindex_constraints:\n  - y1^2 - 1\n"
                "y_bounds: [[-1, 1]]\nx_bounds:\n  - [-2, 2]\nx0: [1]\n")

# log(x1) is undefined for x1 <= 0, inside the box; the problem is unbounded
# below as x1 -> 0+
LOG_SPEC = ("n: 2\nm: 1\nobjective: log(x1) + x2\nsi_constraints:\n"
            "  - -y1^2 + 2*y1*x1 - x2\nindex_constraints:\n  - y1 - 1\n"
            "  - -y1 - 1\nx_bounds: [[-1, 2], [-1, 1]]\n")

# a disk index set with no y_bounds: its box cannot be read off
DISK_SPEC = ("n: 1\nm: 2\nobjective: x1\nsi_constraints:\n  - y1 - x1\n"
             "index_constraints:\n  - y1^2 + y2^2 - 1\nx0: [2]\n")

# design_centering with every g_i scaled by 1e-3: its lower-level polish
# meets singular Newton steps
MILLI_SPEC = Path(__file__).with_name("data") / "design_centering_milli.yaml"
QUARTER_DISK = Path(__file__).with_name("data") / "quarter_disk.yaml"
GRADIENT_FAILS = Path(__file__).with_name("data") / "gradient_fails_at_answer.yaml"

EXPECTED_HEADER = ("k,x_1,x_2,objective,feasibility,stationarity_residual,"
                   "dist_to_known,step_norm,beta_norm,alpha_max,"
                   "n_master_constraints,wall_time_ms")


class TestList:
    def test_registry_listing(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["example1 (n=2, m=1)", "example2 (n=2, m=1)",
                       "design_centering (n=5, m=2)"]

    def test_spec_dir_appended(self, tmp_path, capsys):
        (tmp_path / "mini.yaml").write_text(MINIMAL_SPEC)
        assert main(["list", "--spec-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4
        assert out[3].endswith("mini.yaml (n=1, m=1)")

    def test_empty_spec_dir(self, tmp_path, capsys):
        assert main(["list", "--spec-dir", str(tmp_path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_spec_without_a_box_noted(self, tmp_path, capsys):
        (tmp_path / "disk.yaml").write_text(DISK_SPEC)
        assert main(["list", "--spec-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "unreadable" in out[3] and "y_bounds" in out[3]

    def test_unreadable_spec_noted(self, tmp_path, capsys):
        (tmp_path / "broken.yaml").write_text("n: 0\n")
        assert main(["list", "--spec-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "unreadable" in out[3]


class TestSourceSelection:
    def test_unknown_problem_exits_2(self, capsys):
        assert main(["run", "--problem", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown problem 'nosuch'" in err
        assert "design_centering, example1, example2" in err

    def test_neither_source_exits_2(self, capsys):
        assert main(["run"]) == 2
        assert "exactly one of --problem or --spec" in capsys.readouterr().err

    def test_both_sources_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "mini.yaml"
        spec.write_text(MINIMAL_SPEC)
        assert main(["run", "--problem", "example1",
                     "--spec", str(spec)]) == 2

    def test_missing_spec_file_exits_2(self, capsys):
        assert main(["run", "--spec", "/nonexistent/x.yaml"]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_index_set_without_a_box_exits_2(self, tmp_path, capsys, command):
        spec = tmp_path / "disk.yaml"
        spec.write_text(DISK_SPEC)
        assert main([command, "--spec", str(spec)]) == 2
        assert "y_bounds" in capsys.readouterr().err
        spec.write_text(DISK_SPEC + "y_bounds: [[-1, 1], [-1, 1]]\n")
        assert main([command, "--spec", str(spec)]) == 0

    def test_verify_passes_on_a_box_that_cuts_the_disk(self, capsys):
        # feasibility at the known solution reads the lower level, which
        # must stay inside the declared box
        assert main(["verify", "--spec", str(QUARTER_DISK)]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_spec_file_works_as_source(self, tmp_path, capsys):
        spec = tmp_path / "mini.yaml"
        spec.write_text(MINIMAL_SPEC)
        assert main(["run", "--spec", str(spec), "--max-iter", "5"]) == 0
        assert "tolerance_met" in capsys.readouterr().out


class TestRun:
    def test_known_mode_run_with_outputs(self, tmp_path, capsys):
        csv = tmp_path / "hist.csv"
        summary = tmp_path / "summary.json"
        code = main(["run", "--problem", "example2", "--alg", "qcad",
                     "--mode", "known", "--csv", str(csv),
                     "--summary", str(summary)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[qcad] example2: tolerance_met" in out

        lines = csv.read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER
        n_rows = len(lines) - 1

        doc = json.loads(summary.read_text())
        assert doc["problem"] == "example2"
        assert doc["mode"] == "known"
        run = doc["runs"]["qcad"]
        assert run["algorithm"] == "qcad"
        assert run["final_status"] == "tolerance_met"
        assert run["iterations"] == n_rows - 1
        assert run["final"]["dist_to_known"] <= 1e-4
        assert set(run["final"]) == {"x", "objective", "feasibility",
                                     "stationarity_residual", "dist_to_known"}
        assert run["n_discretization_points"] >= 1
        assert run["estimated_order"] is not None
        assert isinstance(run["warnings"], list)

    def test_csv_row_per_iterate(self, tmp_path):
        csv = tmp_path / "hist.csv"
        main(["run", "--problem", "example2", "--alg", "qcad",
              "--mode", "known", "--csv", str(csv)])
        rows = csv.read_text().splitlines()[1:]
        ks = [int(r.split(",")[0]) for r in rows]
        assert ks == list(range(len(rows)))

    def test_wall_time_column_empty_without_timings(self, tmp_path):
        csv = tmp_path / "hist.csv"
        main(["run", "--problem", "example1", "--alg", "bf",
              "--mode", "known", "--csv", str(csv)])
        for row in csv.read_text().splitlines()[1:]:
            assert row.endswith(",")

    def test_wall_time_column_filled_with_timings(self, tmp_path):
        csv = tmp_path / "hist.csv"
        main(["run", "--problem", "example1", "--alg", "bf",
              "--mode", "known", "--csv", str(csv), "--timings"])
        filled = [row for row in csv.read_text().splitlines()[1:]
                  if not row.endswith(",")]
        assert filled
        last = filled[-1].split(",")[-1]
        assert float(last) >= 0.0

    def test_both_algorithms_compared(self, tmp_path, capsys):
        csv = tmp_path / "hist.csv"
        summary = tmp_path / "summary.json"
        code = main(["run", "--problem", "example1", "--alg", "both",
                     "--mode", "known", "--tol-dist", "1e-3",
                     "--csv", str(csv), "--summary", str(summary)])
        assert code == 0
        out = capsys.readouterr().out
        assert "comparison: qcad" in out and "vs bf" in out
        assert (tmp_path / "hist_bf.csv").exists()
        assert (tmp_path / "hist_qcad.csv").exists()
        assert not csv.exists()

        doc = json.loads(summary.read_text())
        assert set(doc["runs"]) == {"bf", "qcad"}
        comp = doc["comparison"]
        assert comp["bf_iterations"] == doc["runs"]["bf"]["iterations"]
        assert comp["qcad_iterations"] == doc["runs"]["qcad"]["iterations"]

    def test_known_mode_needs_reference(self, tmp_path, capsys):
        spec = tmp_path / "mini.yaml"
        spec.write_text(MINIMAL_SPEC)
        assert main(["run", "--spec", str(spec), "--mode", "known"]) == 2
        assert "no known solution" in capsys.readouterr().err

    def test_known_mode_check_comes_before_the_start_check(self, tmp_path,
                                                           capsys):
        spec = tmp_path / "bare.yaml"
        spec.write_text(MINIMAL_SPEC.replace("x0: [1]\n", ""))
        assert main(["run", "--spec", str(spec), "--mode", "known"]) == 2
        assert capsys.readouterr().err == (
            "error: problem 'bare' has no known solution; use --mode "
            "practical\n")

    @pytest.mark.parametrize("x0", ["[0.1, 0.9]", "[2, 1]"])
    def test_nonfinite_objective_ends_in_subsolver_failure(self, tmp_path,
                                                           capsys, x0):
        spec = tmp_path / "log.yaml"
        spec.write_text(LOG_SPEC + f"x0: {x0}\n")
        assert main(["run", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert "subsolver_failure" in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("mode, code", [("practical", 1), ("known", 0)])
    def test_diagnostics_that_raise_are_written_as_inf(self, tmp_path, capsys,
                                                      mode, code):
        # the objective's gradient raises at iterate 1: practical mode fails
        # there, known mode stops there, and the CSV and summary read that
        # record's diagnostics after the run
        csv, summary = tmp_path / "h.csv", tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--spec", str(GRADIENT_FAILS), "--alg", "both",
                         "--mode", mode, "--csv", str(csv),
                         "--summary", str(summary)]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        runs = json.loads(summary.read_text())["runs"]
        for alg in ("bf", "qcad"):
            header, *rows = (tmp_path / f"h_{alg}.csv").read_text().splitlines()
            last = dict(zip(header.split(","), rows[-1].split(",")))
            assert last["k"] == "1"
            assert [last[c] for c in ("stationarity_residual", "beta_norm",
                                      "alpha_max")] == ["inf"] * 3
            assert runs[alg]["final"]["stationarity_residual"] == np.inf

    def test_half_power_of_negative_constant_ends_in_subsolver_failure(
            self, tmp_path, capsys):
        # (0 - 2)^0.5 is nan, never a complex number whose imaginary part a
        # grid scan would drop
        spec = tmp_path / "sqrt.yaml"
        spec.write_text(MINIMAL_SPEC.replace("- -y1^2 - x1",
                                             "- -y1^2 - x1 + (0 - 2)^0.5"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--spec", str(spec)]) == 1
        assert "subsolver_failure" in capsys.readouterr().out
        assert not [w for w in caught
                    if w.category.__name__ == "ComplexWarning"]

    def test_constant_division_by_zero_ends_in_subsolver_failure(
            self, tmp_path, capsys):
        # 2 / 0.0 between two constants is inf in the value, and the
        # gradient's domain check raises DomainError
        spec = tmp_path / "div.yaml"
        spec.write_text(MINIMAL_SPEC.replace("- -y1^2 - x1",
                                             "- -y1^2 - x1 + 2 / 0.0"))
        assert main(["run", "--spec", str(spec), "--max-iter", "3"]) == 1
        captured = capsys.readouterr()
        assert "field evaluation failed: division by zero" in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("old, new", [
        ("x0: [1]", "x0: [abc]"),
        ("x0: [1]", "x0: [.nan]"),
        ("x0: [1]", "x0: [.inf]"),
        ("[-2, 2]", "[a, 2]"),
        ("[-2, 2]", "[.nan, 2]"),
        ("x0: [1]", "x0: [1]\nknown_solution: [[1]]"),
        ("x0: [1]", "x0: [1]\nknown_objective: foo")])
    def test_malformed_number_is_a_configuration_error(self, tmp_path, capsys,
                                                       old, new):
        spec = tmp_path / "bad.yaml"
        spec.write_text(MINIMAL_SPEC.replace(old, new))
        assert main(["run", "--spec", str(spec)]) == 2
        assert main(["verify", "--spec", str(spec)]) == 2
        assert main(["list", "--spec-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "unreadable: " in captured.out.splitlines()[-1]
        assert captured.err.count("invalid spec file") == 2

    @pytest.mark.parametrize("pair", ["[.inf, .inf]", "[-.inf, -.inf]"])
    def test_bound_without_a_finite_point_is_a_configuration_error(
            self, tmp_path, capsys, pair):
        spec = tmp_path / "bad.yaml"
        spec.write_text(MINIMAL_SPEC.replace("[-2, 2]", pair))
        assert main(["run", "--spec", str(spec)]) == 2
        assert "x_bounds[0]: " in capsys.readouterr().err

    def test_bounds_beyond_the_default_box_are_solved_in(self, tmp_path,
                                                         capsys):
        # min x1 s.t. x1 >= 0 in the box [2000, 3000]: the answer is the
        # lower bound, one master step from x0
        spec = tmp_path / "far.yaml"
        spec.write_text(MINIMAL_SPEC.replace("[-2, 2]", "[2000, 3000]")
                        .replace("x0: [1]", "x0: [2001]"))
        csv = tmp_path / "far.csv"
        assert main(["run", "--spec", str(spec), "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "tolerance_met after 1 iterations" in out
        assert "qp_failure" not in out
        last = csv.read_text().splitlines()[-1].split(",")
        assert float(last[1]) == 2000.0

    def test_start_outside_the_box_is_a_configuration_error(self, tmp_path,
                                                            capsys):
        spec = tmp_path / "outside.yaml"
        spec.write_text(MINIMAL_SPEC.replace("[-2, 2]", "[2000, 3000]"))
        assert main(["run", "--spec", str(spec), "--alg", "both"]) == 2
        captured = capsys.readouterr()
        assert ("error: problem outside: x0 [1.0] lies outside x_bounds"
                in captured.err)
        assert "tolerance_met" not in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_defaults_are_the_driver_defaults(self):
        args = build_parser().parse_args(["run", "--problem", "example1"])
        assert run_options(args) == DriverOptions()

    def test_csv_identical_across_runs(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["run", "--problem", "example2", "--alg", "qcad",
                "--mode", "known"]
        main(argv + ["--csv", str(a)])
        main(argv + ["--csv", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_registry_problem_passes(self, capsys):
        assert main(["verify", "--problem", "example1"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "derivatives objective" in out
        assert "known solution: feasibility" in out

    @pytest.mark.parametrize("name", ["example1", "example2",
                                      "design_centering"])
    def test_grid_built_once(self, name, monkeypatch):
        # the validation's grid is the one the known solution is checked on
        built = []

        def counted(problem):
            built.append(problem.name)
            return index_grid(problem)

        monkeypatch.setattr(lower_level, "index_grid", counted)
        assert main(["verify", "--problem", name]) == 0
        assert built == [name]

    def test_structurally_broken_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.yaml"
        spec.write_text(MINIMAL_SPEC.replace("n: 1", "n: 0"))
        assert main(["verify", "--spec", str(spec)]) == 2
        assert "n must be an integer >= 1" in capsys.readouterr().err

    def test_spec_without_start_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "nostart.yaml"
        spec.write_text(MINIMAL_SPEC.replace("x0: [1]\n", ""))
        assert main(["run", "--spec", str(spec)]) == 2
        assert ("error: problem nostart has no start point (x0)"
                in capsys.readouterr().err)

    def test_field_evaluation_failure_fails_verification(self, tmp_path,
                                                         capsys):
        spec = tmp_path / "log.yaml"
        spec.write_text(LOG_SPEC)
        assert main(["verify", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert "derivatives objective: evaluation failure" in captured.out
        assert "FAIL: evaluation failed in objective" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_parse_error_spec_exits_2_with_position(self, tmp_path, capsys):
        spec = tmp_path / "bad.yaml"
        spec.write_text(MINIMAL_SPEC.replace("objective: x1",
                                             "objective: x1 + ("))
        assert main(["verify", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "column 6" in err and "objective" in err

    def test_bad_known_solution_fails_verification(self, tmp_path, capsys):
        spec = tmp_path / "lies.yaml"
        spec.write_text(MINIMAL_SPEC + "known_solution: [-1.0]\n")
        assert main(["verify", "--spec", str(spec)]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("old, new", [
        # the index set is empty: the lower level cannot start
        ("  - y1^2 - 1\n", "  - y1^2 + 1\n"),
        # a constant division by zero: the derivatives' domain check raises
        ("- -y1^2 - x1\n", "- -y1^2 - x1 + (2 / 0.0)^0.5\n")])
    def test_unevaluable_known_solution_fails_verification(self, tmp_path,
                                                           capsys, old, new):
        spec = tmp_path / "broken.yaml"
        spec.write_text(MINIMAL_SPEC.replace(old, new)
                        + "known_solution: [0.0]\n")
        assert main(["verify", "--spec", str(spec)]) == 1
        assert ("FAIL: known solution cannot be evaluated"
                in capsys.readouterr().out)

    def test_verify_spec_file_passes(self, tmp_path, capsys):
        spec = tmp_path / "mini.yaml"
        spec.write_text(MINIMAL_SPEC + "known_solution: [0.0]\n"
                        "known_objective: 0.0\n")
        assert main(["verify", "--spec", str(spec)]) == 0
        assert "all checks passed" in capsys.readouterr().out


class TestWarningsAsErrors:
    """A floating-point warning that leaks out of a solve ends a run under
    ``python -W error`` in a traceback."""

    def test_singular_polish_steps_leak_no_warning(self):
        src = str(Path(sipsolve.__file__).parents[1])
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "sipsolve.cli", "run",
             "--spec", str(MILLI_SPEC), "--alg", "both"],
            capture_output=True, text=True, env=env, timeout=600)
        assert "Traceback" not in proc.stderr, proc.stderr
        # a run that ends in subsolver_failure exits 1
        assert proc.returncode in (0, 1)

    def test_the_spec_meets_singular_polish_steps(self, monkeypatch):
        # without them the run above would check nothing
        singular = []

        def counted(a, b):
            x = solve_linear(a, b)
            singular.append(x is None)
            return x

        solve_linear = lower_level.solve_linear
        monkeypatch.setattr(lower_level, "solve_linear", counted)
        problem = sipsolve.load_problem(MILLI_SPEC)
        sipsolve.run_qcad(problem, problem.start)
        assert sum(singular) > 0
