"""Command-line interface.

Subcommands:

* ``run``: solve a registry or spec-file problem with the classical
  discretization loop (``bf``), the linearization-augmented loop
  (``qcad``), or both; write an iterate-history CSV and a JSON summary.
* ``verify``: validate a problem definition (dimensions, derivative
  consistency, known-solution quality).
* ``list``: show available problems.

Exit codes: 0 success, 1 solver failure or failed verification,
2 configuration error (bad flags, unknown problem, malformed spec file).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .diagnostics import estimate_order, feasibility_measure, stationarity_residual
from .driver import (DriverOptions, RunResult, check_start,
                     run_blankenship_falk, run_qcad)
from .model import (FieldEvaluationError, SipProblem, validate_problem,
                    verify_derivatives)
from .expressions import SpecParseError
from .lower_level import LowerLevelError, solve_all_lower_levels
from .problems import REGISTRY, get_problem
from .specfile import SpecFileError, load_problem

CSV_BASE_COLUMNS = ["objective", "feasibility", "stationarity_residual",
                    "dist_to_known", "step_norm", "beta_norm", "alpha_max",
                    "n_master_constraints", "wall_time_ms"]


class ConfigError(Exception):
    pass


def _load(args) -> SipProblem:
    if bool(args.problem) == bool(args.spec):
        raise ConfigError("give exactly one of --problem or --spec")
    if args.problem:
        try:
            return get_problem(args.problem)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
    path = Path(args.spec)
    if not path.exists():
        raise ConfigError(f"spec file not found: {path}")
    try:
        return load_problem(path)
    except (SpecFileError, SpecParseError) as exc:
        raise ConfigError(f"invalid spec file {path}: {exc}") from None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, problem: SipProblem, result: RunResult,
               timings: bool) -> None:
    header = ["k"] + [f"x_{j + 1}" for j in range(problem.n)] + CSV_BASE_COLUMNS
    lines = [",".join(header)]
    for rec in result.history:
        row = [str(rec.k)]
        row += [repr(float(v)) for v in rec.x]
        row += [_fmt(rec.objective), _fmt(rec.feasibility),
                _fmt(rec.stationarity_residual), _fmt(rec.dist_to_known),
                _fmt(rec.step_norm), _fmt(rec.beta_norm), _fmt(rec.alpha_max),
                _fmt(rec.n_constraints_in_master),
                _fmt(rec.wall_time_ms) if timings else ""]
        lines.append(",".join(row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _order_estimate(result: RunResult):
    errors = [r.dist_to_known for r in result.history]
    if any(e is None for e in errors) or len(errors) < 3 \
            or any(e <= 0.0 for e in errors):
        return None
    est = estimate_order(errors)
    return {"order": est.order, "monotone_tail": est.monotone_tail,
            "pairs_used": est.pairs_used}


def _iterations(result: RunResult) -> int:
    """Index of the last recorded iterate; 0 when a run failed before any."""
    return result.final.k if result.history else 0


def _finite_or_null(doc):
    """``doc`` with each non-finite float, at any depth of its dicts and
    lists, replaced by None (JSON null): strict JSON has no inf or nan."""
    if isinstance(doc, dict):
        return {key: _finite_or_null(v) for key, v in doc.items()}
    if isinstance(doc, list):
        return [_finite_or_null(v) for v in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    return doc


def _summarize(result: RunResult) -> dict:
    final = result.final if result.history else None
    return _finite_or_null({
        "algorithm": result.algorithm,
        "final_status": result.final_status,
        "iterations": _iterations(result),
        "final": None if final is None else {
            "x": [float(v) for v in final.x],
            "objective": final.objective,
            "feasibility": final.feasibility,
            "stationarity_residual": final.stationarity_residual,
            "dist_to_known": final.dist_to_known,
        },
        "n_discretization_points": result.final_discretization.total_points(),
        "estimated_order": _order_estimate(result),
        "warnings": list(result.warnings),
    })


def _print_history(result: RunResult) -> None:
    print(f"[{result.algorithm}] {result.problem_name}: "
          f"{result.final_status} after {_iterations(result)} iterations")
    head = f"{'k':>3} {'objective':>16} {'feasibility':>13} {'stationarity':>13}"
    if result.history and result.history[0].dist_to_known is not None:
        head += f" {'dist':>13}"
    print(head)
    for rec in result.history:
        line = (f"{rec.k:>3} {rec.objective:>16.8e} {rec.feasibility:>13.4e} "
                f"{rec.stationarity_residual:>13.4e}")
        if rec.dist_to_known is not None:
            line += f" {rec.dist_to_known:>13.4e}"
        print(line)
    for w in result.warnings:
        print(f"  warning: {w}")


def _csv_path_for(base: Path, algorithm: str, both: bool) -> Path:
    if not both:
        return base
    return base.with_name(f"{base.stem}_{algorithm}{base.suffix or '.csv'}")


def run_options(args) -> DriverOptions:
    """The driver options of parsed ``run`` arguments (same field names)."""
    return DriverOptions(**{f.name: getattr(args, f.name)
                            for f in fields(DriverOptions)})


def cmd_run(args) -> int:
    problem = _load(args)
    opts = run_options(args)
    try:
        check_start(problem, None, opts.mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    algorithms = ["bf", "qcad"] if args.alg == "both" else [args.alg]
    results = {}
    for alg in algorithms:
        runner = run_blankenship_falk if alg == "bf" else run_qcad
        results[alg] = runner(problem, opts=opts)

    for alg in algorithms:
        _print_history(results[alg])
    if args.alg == "both":
        bf_k = _iterations(results["bf"])
        q_k = _iterations(results["qcad"])
        print(f"comparison: qcad {q_k} vs bf {bf_k} iterations")

    if args.csv:
        base = Path(args.csv)
        for alg in algorithms:
            path = _csv_path_for(base, alg, args.alg == "both")
            _write_csv(path, problem, results[alg], args.timings)
            print(f"wrote {path}")
    if args.summary:
        doc = {"problem": problem.name, "mode": args.mode,
               "runs": {alg: _summarize(results[alg]) for alg in algorithms}}
        if args.alg == "both":
            doc["comparison"] = {
                "bf_iterations": bf_k,
                "qcad_iterations": q_k,
            }
        path = Path(args.summary)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")
        print(f"wrote {path}")

    if any(results[a].final_status == "subsolver_failure" for a in algorithms):
        return 1
    return 0


def cmd_verify(args) -> int:
    problem = _load(args)
    failures = []
    report = validate_problem(problem)
    for issue in report.issues:
        print(f"validation: {issue}")
    if not report.valid:
        failures.append("problem validation failed")

    rng = np.random.default_rng(0)
    all_fields = [("objective", problem.objective, problem.n)]
    all_fields += [(f"si_constraint[{i}]", g, problem.n + problem.m)
                   for i, g in enumerate(problem.si_constraints)]
    all_fields += [(f"index_constraint[{l}]", v, problem.m)
                   for l, v in enumerate(problem.index_constraints)]
    all_fields += [(f"finite_constraint[{j}]", c, problem.n)
                   for j, c in enumerate(problem.finite_constraints)]
    for label, fld, arity in all_fields:
        pts = [rng.uniform(-0.9, 0.9, arity) for _ in range(4)]
        try:
            err = verify_derivatives(fld, pts)
        except FieldEvaluationError as exc:
            print(f"derivatives {label}: {exc} [FAIL]")
            failures.append(f"evaluation failed in {label}")
            continue
        status = "ok" if err <= 1e-5 else "MISMATCH"
        print(f"derivatives {label}: max FD error {err:.3e} [{status}]")
        if err > 1e-5:
            failures.append(f"derivative mismatch in {label}")

    if problem.known_solution is not None:
        x_star = problem.known_solution
        try:
            ll = solve_all_lower_levels(problem, x_star, report.grid)
            feas = feasibility_measure(ll)
            stat = stationarity_residual(problem, x_star, ll)
        except (ArithmeticError, FieldEvaluationError, LowerLevelError) as exc:
            print(f"known solution: {exc}")
            failures.append("known solution cannot be evaluated")
        else:
            print(f"known solution: feasibility {feas:.3e}, "
                  f"stationarity residual {stat:.3e}")
            if feas > 1e-6:
                failures.append("known solution violates feasibility (> 1e-6)")
            if stat > 1e-5:
                failures.append("known solution fails stationarity (> 1e-5)")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("all checks passed")
    return 0


def cmd_list(args) -> int:
    for name in REGISTRY:
        p = get_problem(name)
        print(f"{name} (n={p.n}, m={p.m})")
    if args.spec_dir:
        spec_dir = Path(args.spec_dir)
        if spec_dir.is_dir():
            for path in sorted(spec_dir.glob("*.yaml")):
                try:
                    p = load_problem(path)
                    print(f"{path} (n={p.n}, m={p.m})")
                except (SpecFileError, SpecParseError) as exc:
                    print(f"{path} (unreadable: {exc})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sipsolve",
        description="Adaptive discretization solvers for semi-infinite programs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--problem", help="registry problem name")
        p.add_argument("--spec", help="path to a problem spec file (YAML)")

    run_p = sub.add_parser("run", help="solve a problem")
    add_source(run_p)
    defaults = DriverOptions()
    run_p.add_argument("--alg", choices=["bf", "qcad", "both"], default="qcad")
    run_p.add_argument("--mode", choices=["practical", "known"],
                       default=defaults.mode)
    run_p.add_argument("--tol-dist", type=float, default=defaults.tol_dist,
                       help="known mode: stop at this distance (default %(default)s)")
    run_p.add_argument("--tol-feas", type=float, default=defaults.tol_feas,
                       help="practical mode: feasibility tolerance")
    run_p.add_argument("--tol-stat", type=float, default=defaults.tol_stat,
                       help="practical mode: stationarity tolerance")
    run_p.add_argument("--max-iter", type=int, default=defaults.max_iter)
    run_p.add_argument("--trust-radius", type=float, default=defaults.trust_radius,
                       help="sup-norm cap on each master step")
    run_p.add_argument("--csv", help="iterate history CSV output path")
    run_p.add_argument("--summary", help="JSON summary output path")
    run_p.add_argument("--timings", action="store_true",
                       help="fill the wall_time_ms CSV column")
    run_p.set_defaults(func=cmd_run)

    verify_p = sub.add_parser("verify", help="validate a problem definition")
    add_source(verify_p)
    verify_p.set_defaults(func=cmd_verify)

    list_p = sub.add_parser("list", help="list available problems")
    list_p.add_argument("--spec-dir", help="also scan a directory of spec files")
    list_p.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
