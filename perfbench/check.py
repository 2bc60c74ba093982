"""Checks on the benchmark itself, each run as fresh run.py processes.

    python3 perfbench/check.py table --seed 1009 [--trace 1]
    python3 perfbench/check.py spread --workload disk-index --seeds 1 2 3 4 5
    python3 perfbench/check.py determinism --workload spec-ad --seed 1
    python3 perfbench/check.py findings
    python3 perfbench/check.py pool [--workload box-exchange]

``table`` runs every workload of workloads.py once (box-exchange too) and
prints each metric by name and unit, with the failed fraction.  ``spread``
runs one workload at several seeds and prints, per end-to-end metric, the
median and the quartile spread (Q3 - Q1 over the median, the quartiles of
``statistics.quantiles(values, n=4)``) next to the metric's bound.  ``determinism`` runs the traced benchmark twice with one seed and
requires identical exact counters and iterate digests.  ``findings``
traces single canonical solves and prints the seed-state findings that
README.md documents.  ``pool`` solves every pool start with every driver
that a workload runs on seeded starts, so that no seed can draw a failing
start.  Exit code 1 when a check fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """One run.py process; returns (result line, details dict)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"check.py: {' '.join(cmd[1:])} exited "
                         f"{done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads((ROOT / ".bench_out" /
                          f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, details


def cmd_table(args) -> int:
    from workloads import WORKLOADS
    metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS)
    results, details = {}, {}
    for name in names:
        results[name], details[name] = run_once(name, args.seed,
                                                SPEC["run_seconds"], args.trace)
    print(f"seed {args.seed}, trace {args.trace}, run_seconds "
          f"{SPEC['run_seconds']}")
    print(f"  {'metric':32s} {'unit':6s}" + "".join(f"{n:>14s}" for n in names))
    rows = [(m["name"], m["unit"],
             [results[n]["metrics"][m["name"]]["value"] for n in names])
            for m in metrics]
    rows.append(("failed_frac", "frac",
                 [results[n]["failed"] / results[n]["attempted"]
                  for n in names]))
    for name, unit, values in rows:
        print(f"  {name:32s} {unit:6s}" + "".join(f"{v:14.6g}" for v in values))
    if args.trace:
        print("  largest layer share: " + ", ".join(
            f"{n} {details[n]['largest_layer']}" for n in names))
    return 0


def cmd_spread(args) -> int:
    seconds = SPEC["run_seconds"]
    rows = {m["name"]: [] for m in SPEC["end_to_end"]}
    for seed in args.seeds:
        t0 = time.perf_counter()
        result, _ = run_once(args.workload, seed, seconds, 0)
        for name in rows:
            rows[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {time.perf_counter() - t0:.0f} s wall, "
              + ", ".join(f"{n} {v[-1]:.5g}" for n, v in rows.items()),
              flush=True)
    ok = True
    print(f"{args.workload}: {len(args.seeds)} seeds, run_seconds {seconds}")
    for m in SPEC["end_to_end"]:
        values = rows[m["name"]]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        steady = spread < m["bound"] / 3
        ok &= spread <= m["bound"]
        print(f"  {m['name']:16s} median {median:12.5g} {m['unit']:5s} "
              f"spread {spread:7.2%}  bound {m['bound']:.0%}  "
              f"{'steady' if steady else 'NOT below a third of the bound'}")
    return 0 if ok else 1


def cmd_determinism(args) -> int:
    exact = []
    for _ in range(2):
        _, details = run_once(args.workload, args.seed, SPEC["run_seconds"], 1)
        exact.append(details["exact"])
    for key in exact[0]:
        same = exact[0][key] == exact[1][key]
        print(f"  {key:28s} {exact[0][key]!s:>20.20} "
              f"{'same' if same else 'DIFFERS: ' + str(exact[1][key])}")
    if exact[0] != exact[1]:
        print("benchmark error: two runs with one seed disagree",
              file=sys.stderr)
        return 1
    return 0


def cmd_findings(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import sipsolve
    from tracing import Tracer

    opts = sipsolve.DriverOptions(mode="known", tol_dist=1e-4)
    data = ROOT / "src" / "sipsolve" / "data"

    def traced(problem, fn):
        with Tracer() as tracer:
            result = tracer.solve_span(0, problem.start, fn, problem,
                                       problem.start, opts=opts)
        return result, tracer

    print("useful_start_ratio on the canonical qcad solves:")
    for name in ("example1", "example2", "design_centering"):
        _, tr = traced(sipsolve.get_problem(name), sipsolve.run_qcad)
        m = tr.layer_metrics()
        print(f"  {name:18s} {m['lower_level.distinct_maxima']}/"
              f"{m['lower_level.local_sqp_runs']}")
        if name == "example2":
            print(f"  example2 qcad: {m['nlp.master_max_iter']} of "
                  f"{m['nlp.master_calls']} master solves hit max_iter "
                  f"({m['nlp.master_max_iter_s'] * 1e3:.0f} ms); master time "
                  f"{m['nlp.master_warm_s'] * 1e3:.0f} ms warm, "
                  f"{m['nlp.master_cold_s'] * 1e3:.0f} ms cold")

    result_b, tr_b = traced(sipsolve.get_problem("example2"), sipsolve.run_qcad)
    result_s, tr_s = traced(sipsolve.load_problem(data / "example2.yaml"),
                            sipsolve.run_qcad)
    gap = float(np.linalg.norm(result_b.x - result_s.x))
    print("example2 qcad, built-in vs spec-loaded:")
    print(f"  ScalarField.value calls {tr_b.counts['model.value_calls']} vs "
          f"{tr_s.counts['model.value_calls']}; master SQP iterations "
          f"{tr_b.counts['nlp.master_sqp_iters']} vs "
          f"{tr_s.counts['nlp.master_sqp_iters']}; final iterates "
          f"{gap:.1e} apart")
    return 0


def cmd_pool(args) -> int:
    import run
    from workloads import WORKLOADS, construct, start_pool
    sipsolve = run.load_sipsolve()
    opts = sipsolve.DriverOptions(mode="known", tol_dist=run.TOL_DIST)
    drivers = {"bf": sipsolve.run_blankenship_falk, "qcad": sipsolve.run_qcad}
    checked = failed = 0
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        problems, _ = construct(workload, ROOT)
        for problem in problems:
            for driver in workload.drivers_on_pool(problem.name):
                for i, x0 in enumerate(start_pool(problem)):
                    checked += 1
                    try:
                        result = drivers[driver](problem, x0, opts=opts)
                        reason = run.failure_reason(result, problem,
                                                    run.TOL_DIST)
                    except Exception as exc:  # noqa: BLE001 - reported
                        reason = f"raised {exc!r}"
                    if reason is not None:
                        failed += 1
                        print(f"{name} {problem.name}/{driver}/pool{i} "
                              f"x0={[float(v) for v in x0]}: {reason}",
                              flush=True)
    print(f"{checked} pool solves, {failed} failed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("table")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p = sub.add_parser("determinism")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    sub.add_parser("findings")
    p = sub.add_parser("pool")
    p.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    return {"table": cmd_table, "spread": cmd_spread, "determinism": cmd_determinism,
            "findings": cmd_findings, "pool": cmd_pool}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
