"""Workloads: which problems, drivers and start points a run solves.

A run works through a sequence of solves made from the seed alone.  Per
(problem, driver) cell it holds the canonical start ``problem.start`` first,
then every start of the problem's pool in an order shuffled by the seed; a
cell that runs no pool starts repeats the canonical start as often instead.
The cells are interleaved so that every prefix of the sequence holds them in
equal numbers.  The first ``prefix``
solves give the exact counters and the trace; a timed run goes on through
the sequence until its deadline, so it times as many distinct starts as fit
(a few costly starts sway a run less when it holds many).  Every solve runs
in known mode; the program receives only the problem and ``x0``.
"""
from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Known mode stops once ||x^k - known_solution|| <= TOL_DIST.
TOL_DIST = 1e-4

DRIVERS = ("bf", "qcad")

#: Each problem's start pool: POOL_SIZE Latin-hypercube points of its start
#: box, from a generator keyed by the problem name only, so a spec-loaded
#: problem shares the pool of its built-in twin.  The box is x_bounds, or
#: +-START_RADIUS around the canonical start within x_bounds.  A finite
#: pool, rather than fresh points per seed, is what lets ``check.py pool``
#: show that no seed draws a start the solver fails from.  The seed orders
#: the pool, and a run reaches only the first few hundred starts of that
#: order, so two seeds time mostly different starts.
POOL_SIZE = 1024
START_RADIUS = {"design_centering": 0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple     # built-in names, or stems of src/sipsolve/data/*.yaml
    from_spec: bool     # load through load_problem instead of get_problem
    prefix: int         # solves behind the exact counters and the trace
    #: Per problem, the drivers that solve pool starts, if not both; the
    #: others repeat the canonical start.
    pool_drivers: tuple = ()

    def drivers_on_pool(self, problem_name: str) -> tuple:
        return dict(self.pool_drivers).get(problem_name, DRIVERS)


# Why each workload exists is in BENCHMARK.json and README.md.  A prefix
# takes 12 to 20 s on a 2-core x86-64 host: enough starts to keep the exact
# counters alike from seed to seed, short enough to leave most of a 55 s run
# to distinct starts.
#
# bf on design_centering ends in subsolver_failure (a master QP failure a few
# 1e-4 from the solution) from about one start in 30, so it repeats the
# canonical start until that is fixed.  In spec-ad, qcad on design_centering
# repeats the canonical start too: about one pool start in ten runs into
# master solves that hit max_iter and, with every derivative through AD,
# takes 2 to 3.5 s; the few dozen such solves a run holds would make its
# throughput swing by a fifth from seed to seed.  disk-index times those
# starts on the built-in problem.
WORKLOADS = {
    w.name: w for w in (
        Workload("box-exchange", ("example1", "example2"), False, 128),
        Workload("disk-index", ("design_centering",), False, 60,
                 (("design_centering", ("qcad",)),)),
        Workload("spec-ad", ("example1", "example2", "design_centering"),
                 True, 72, (("design_centering", ()),)),
    )
}


@dataclass(frozen=True)
class Solve:
    problem: object     # sipsolve.SipProblem
    driver: str         # "bf" or "qcad"
    start: str          # "canonical" or "pool<index>"
    x0: np.ndarray

    @property
    def label(self) -> str:
        return f"{self.problem.name}/{self.driver}/{self.start}"


def construct(workload: Workload, root: Path):
    """Build the workload's problems; returns (problems, seconds in load_problem)."""
    import sipsolve
    problems = []
    load_s = 0.0
    for name in workload.problems:
        if workload.from_spec:
            t0 = time.perf_counter()
            problems.append(sipsolve.load_problem(
                root / "src" / "sipsolve" / "data" / f"{name}.yaml"))
            load_s += time.perf_counter() - t0
        else:
            problems.append(sipsolve.get_problem(name))
    return problems, load_s


def start_pool(problem) -> np.ndarray:
    """The problem's POOL_SIZE candidate starts, the same for every seed."""
    rng = np.random.default_rng(zlib.crc32(problem.name.encode()))
    lo, hi = problem.x_bounds[:, 0], problem.x_bounds[:, 1]
    radius = START_RADIUS.get(problem.name)
    if radius is not None:
        lo = np.maximum(lo, problem.start - radius)
        hi = np.minimum(hi, problem.start + radius)
    n = problem.n
    strata = np.stack([rng.permutation(POOL_SIZE) for _ in range(n)], axis=1)
    return lo + (strata + rng.random((POOL_SIZE, n))) / POOL_SIZE * (hi - lo)


def build_sequence(workload: Workload, problems, seed: int) -> list:
    """Every solve of the workload, ordered so that each prefix holds the
    (problem, driver) cells in equal numbers, canonical starts first."""
    keyed = []
    for problem in problems:
        pool = start_pool(problem)
        rng = np.random.default_rng([seed, zlib.crc32(problem.name.encode())])
        order = rng.permutation(POOL_SIZE)
        for driver in DRIVERS:
            cell = [Solve(problem, driver, "canonical", problem.start.copy())]
            if driver in workload.drivers_on_pool(problem.name):
                cell += [Solve(problem, driver, f"pool{i}", pool[i].copy())
                         for i in order]
            else:
                cell *= 1 + POOL_SIZE
            keyed += [(i / len(cell), len(keyed), solve)
                      for i, solve in enumerate(cell)]
    return [solve for *_, solve in sorted(keyed, key=lambda k: k[:2])]
