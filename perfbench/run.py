"""sipsolve benchmark: one workload, one seed, one closed-loop process.

    python3 perfbench/run.py --workload disk-index --seed 1 --seconds 55 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  One solve at
a time, BLAS pinned to one thread.  The run goes through the workload's
seeded sequence of solves (see workloads.py) for ``--seconds``; every solve
is checked against the problem's known solution, and a solve repeated within
the run must reproduce its iterates exactly.  Solve and set-up times are
scaled to a reference host speed by a kernel timed next to them (speed.py).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` solves the
workload's prefix once untraced and once under the tracer and reports the
per-layer metrics plus the tracing overhead.  Metric names and units come
from BENCHMARK.json.  The last line of stdout is the JSON result; details
(exact counters, iterate digest, environment, and for traced runs the spans)
go to ``.bench_out/``.
Exit codes: 0 success, 1 a solve failed or a repeat diverged, 2 no sources.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from speed import REFERENCE_S, kernel_s  # noqa: E402
from workloads import TOL_DIST, WORKLOADS, build_sequence, construct  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh-interpreter set-up measurements per run; the median is reported.
SETUP_PROBES = 11
#: solve_ms_tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: A solve is scaled by the median kernel time of the solves this many
#: places before and after it, itself included.
SPEED_WINDOW = 2


def load_sipsolve():
    """Import sipsolve from this checkout's src/, or exit with code 2."""
    package = SRC / "sipsolve"
    if not (package / "__init__.py").is_file():
        print(f"run.py: no sipsolve sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import sipsolve
    if Path(sipsolve.__file__).resolve().parent != package.resolve():
        print(f"run.py: imported sipsolve from {sipsolve.__file__}, "
              f"not from {package}", file=sys.stderr)
        sys.exit(2)
    return sipsolve


@dataclass
class PassResult:
    """What one call of run_pass measured, solve by solve."""

    times_ms: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)     # after each solve
    failures: list = field(default_factory=list)     # (label, x0, reason)
    digests: list = field(default_factory=list)      # (label, iterate digest)
    iterations: int = 0
    disc_points: int = 0
    wall_s: float = 0.0

    @property
    def digest(self) -> str:
        """One digest over the solves of the pass, in order."""
        joined = "".join(digest for _, digest in self.digests)
        return hashlib.sha256(joined.encode()).hexdigest()


def failure_reason(result, problem, tol_dist):
    if result.final_status != "tolerance_met":
        return f"final status {result.final_status}"
    dist = float(np.linalg.norm(result.x - problem.known_solution))
    if not dist <= tol_dist:
        return f"final iterate {dist:.3e} from known_solution"
    return None


def iterate_digest(label: str, result) -> str:
    """SHA-256 over the repr of every coordinate of every iterate x^k."""
    digest = hashlib.sha256()
    for rec in result.history:
        coords = ",".join(repr(float(v)) for v in rec.x)
        digest.update(f"{label}|{rec.k}|{coords}\n".encode())
    return digest.hexdigest()


def run_pass(solves, sipsolve, tracer=None, deadline=None) -> PassResult:
    """Solve in order, until ``deadline`` if given; time, check and
    fingerprint every solve, and time the host-speed kernel after each."""
    opts = sipsolve.DriverOptions(mode="known", tol_dist=TOL_DIST)
    drivers = {"bf": sipsolve.run_blankenship_falk, "qcad": sipsolve.run_qcad}
    out = PassResult()
    t_pass = time.perf_counter()
    for solve_id, s in enumerate(solves):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        fn = drivers[s.driver]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = fn(s.problem, s.x0, opts=opts)
            else:
                result = tracer.solve_span(solve_id, s.x0, fn, s.problem,
                                           s.x0, opts=opts)
        except Exception as exc:  # noqa: BLE001 - a failed solve is reported
            out.times_ms.append(1e3 * (time.perf_counter() - t0))
            out.kernel_s.append(kernel_s())
            out.failures.append((s.label, s.x0, f"raised {exc!r}"))
            out.digests.append((s.label, "raised"))
            continue
        out.times_ms.append(1e3 * (time.perf_counter() - t0))
        out.kernel_s.append(kernel_s())
        reason = failure_reason(result, s.problem, TOL_DIST)
        if reason is not None:
            out.failures.append((s.label, s.x0, reason))
        out.iterations += result.final.k
        out.disc_points += result.final_discretization.total_points()
        out.digests.append((s.label, iterate_digest(s.label, result)))
    out.wall_s = time.perf_counter() - t_pass
    return out


def diverged(passes) -> list:
    """Labels of solves whose repeat moved the iterates of their first solve."""
    first, moved = {}, set()
    for p in passes:
        for label, digest in p.digests:
            if first.setdefault(label, digest) != digest:
                moved.add(label)
    return sorted(moved)


def measure_setup(workload_name: str) -> list:
    """(seconds of import plus problem construction, kernel seconds right
    after), each pair from a fresh process."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        setup_s, kernel = done.stdout.split()[-2:]
        samples.append((float(setup_s), float(kernel)))
    return samples


def scaled_times(times_ms, kernels) -> list:
    """Each time scaled to the reference host speed by the median kernel
    time around it (speed.py)."""
    out = []
    for i, t in enumerate(times_ms):
        near = kernels[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out


def tail(times_ms):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no tail of {TAIL_BEYOND}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timed_run(args, workload, sequence, sipsolve):
    """Solve the prefix, then go on through the sequence (from its start
    again if it runs out) until --seconds have passed."""
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    passes = [run_pass(sequence[:workload.prefix], sipsolve)]
    rest = sequence[workload.prefix:]
    while time.perf_counter() < deadline and not passes[0].failures:
        passes.append(run_pass(rest, sipsolve, deadline=deadline))
        rest = sequence
    elapsed = time.perf_counter() - t_start
    wall = [t for p in passes for t in p.times_ms]
    kernels = [k for p in passes for k in p.kernel_s]
    times = scaled_times(wall, kernels)
    solved = len(times) - sum(len(p.failures) for p in passes)
    tail_ms, tail_pct = tail(times)
    prefix = passes[0]
    setup = measure_setup(workload.name)
    metrics = {
        "solves_per_s": solved / (1e-3 * sum(times)),
        "solve_ms_p50": statistics.median(times),
        "solve_ms_tail": tail_ms,
        "iterations": prefix.iterations,
        "setup_s": statistics.median(s * REFERENCE_S / k for s, k in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "measured_s": elapsed,
        "tail_percentile": tail_pct, "tail_samples": len(times),
        "unscaled": {
            "solves_per_s": solved / elapsed,
            "solve_ms_p50": statistics.median(wall),
            "solve_ms_tail": tail(wall)[0],
            "setup_s": statistics.median(s for s, _ in setup),
            "kernel_ms_p50": 1e3 * statistics.median(kernels),
        },
        "setup_samples_s": setup,
        "scaled_solve_ms": times,
        "exact": {"iterations": prefix.iterations, "digest": prefix.digest},
        "diverged": diverged(passes),
    }
    return passes, metrics, details


def traced_run(args, workload, sequence, sipsolve, load_s):
    """Solve the prefix untraced, then traced."""
    from tracing import Tracer
    prefix = sequence[:workload.prefix]
    base = run_pass(prefix, sipsolve)
    with Tracer() as tracer:
        traced = run_pass(prefix, sipsolve, tracer)
    metrics = tracer.layer_metrics()
    metrics["driver.disc_points"] = traced.disc_points
    metrics["specfile.load_s"] = load_s
    base_s, traced_s = (sum(scaled_times(p.times_ms, p.kernel_s))
                        for p in (base, traced))
    metrics["trace.overhead_frac"] = traced_s / base_s - 1.0
    solve_s = tracer.span_totals()["driver.solve"][1]
    shares = {
        "lower_level": metrics["lower_level.busy_s"] / solve_s,
        "nlp.master": (metrics["nlp.master_warm_s"]
                       + metrics["nlp.master_cold_s"]) / solve_s,
        "sensitivity": metrics["sensitivity.busy_s"] / solve_s,
        "diagnostics": metrics["diagnostics.busy_s"] / solve_s,
    }
    exact = {"iterations": traced.iterations, "digest": traced.digest}
    exact.update({k: metrics[k] for k in (
        "lower_level.local_sqp_runs", "nlp.qp_solves", "model.value_calls",
        "model.gradient_calls", "model.hessian_calls", "model.batch_calls")})
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{args.seed}.spans.json.gz"
    tracer.write(spans_path)
    details = {
        "untraced_s": base.wall_s, "traced_s": traced.wall_s,
        "untraced_scaled_s": 1e-3 * base_s, "traced_scaled_s": 1e-3 * traced_s,
        "layer_shares": shares,
        "largest_layer": max(shares, key=shares.get),
        "span_totals": {name: {"count": c, "total_s": tot, "self_s": self_s}
                        for name, (c, tot, self_s)
                        in tracer.span_totals().items()},
        "exact": exact,
        "diverged": diverged([base, traced]),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return [base, traced], metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sipsolve = load_sipsolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    problems, load_s = construct(workload, ROOT)
    sequence = build_sequence(workload, problems, args.seed)
    run_pass(sequence[:1], sipsolve)    # warm-up, not measured

    if args.trace:
        passes, values, details = traced_run(args, workload, sequence,
                                             sipsolve, load_s)
    else:
        passes, values, details = timed_run(args, workload, sequence,
                                            sipsolve)

    attempted = sum(len(p.times_ms) for p in passes)
    failures = [f for p in passes for f in p.failures]
    details.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "prefix": workload.prefix, "attempted": attempted,
        "failed": len(failures), "failed_frac": len(failures) / attempted,
        "failures": [{"solve": label, "x0": [float(v) for v in x0],
                      "reason": reason} for label, x0, reason in failures],
        "metrics": values,
        "solve_ms": [[s.label, t] for s, t in zip(sequence,
                                                   passes[0].times_ms)],
        "env": {"python": platform.python_version(),
                "numpy": np.__version__,
                "nproc": len(os.sched_getaffinity(0)),
                "machine": platform.machine()},
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(details, indent=1))

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} solves, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:g})")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:14.6g} {unit}")
    if args.trace:
        print(f"  largest layer share: {details['largest_layer']} "
              + ", ".join(f"{k} {v:.1%}"
                          for k, v in details["layer_shares"].items()))
    else:
        print(f"  solve_ms_tail is p{details['tail_percentile']:.1f} of "
              f"{details['tail_samples']} solves in {details['measured_s']:.1f} "
              f"s; setup_s is the median of "
              f"{len(details['setup_samples_s'])} fresh processes")
        print("  times above are scaled to the reference host speed "
              "(speed.py); unscaled: " + ", ".join(
                  f"{k} {v:.6g}" for k, v in details["unscaled"].items()))
    print(f"  iterates digest {details['exact']['digest'][:16]}, "
          f"python {details['env']['python']}, numpy {details['env']['numpy']}, "
          f"nproc {details['env']['nproc']}")

    for label, x0, reason in failures:
        print(f"FAILED {workload.name} {label} x0={[float(v) for v in x0]}: "
              f"{reason}", file=sys.stderr)
    for label in details["diverged"]:
        print(f"benchmark error: repeating {workload.name} {label} moved its "
              "iterates", file=sys.stderr)
    ok = not failures and not details["diverged"]
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
