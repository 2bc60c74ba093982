"""Session fixtures: the benchmark problems and the solver runs reused by
several test modules.  Runs are timed so the acceptance checks can assert
wall-clock budgets without re-solving."""
import time
from collections import namedtuple

import pytest

from sipsolve import DriverOptions, run_blankenship_falk, run_qcad
from sipsolve.problems import get_problem

TimedRun = namedtuple("TimedRun", "result seconds")


def _timed(runner, problem, opts):
    t0 = time.perf_counter()
    result = runner(problem, opts=opts)
    return TimedRun(result, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def ex1():
    return get_problem("example1")


@pytest.fixture(scope="session")
def ex2():
    return get_problem("example2")


@pytest.fixture(scope="session")
def dc():
    return get_problem("design_centering")


@pytest.fixture(scope="session")
def ex2_qcad_known(ex2):
    return _timed(run_qcad, ex2, DriverOptions(mode="known", tol_dist=1e-4))


@pytest.fixture(scope="session")
def ex1_bf_20(ex1):
    # tol_dist far below reach so the run uses all 20 iterations
    return _timed(run_blankenship_falk, ex1,
                  DriverOptions(mode="known", tol_dist=1e-9, max_iter=20))


@pytest.fixture(scope="session")
def dc_qcad_known(dc):
    return _timed(run_qcad, dc, DriverOptions(mode="known", tol_dist=1e-4))


@pytest.fixture(scope="session")
def dc_bf_known(dc):
    return _timed(run_blankenship_falk, dc,
                  DriverOptions(mode="known", tol_dist=1e-4))


@pytest.fixture(scope="session")
def qcad_practical(ex1, ex2, dc):
    """Practical-mode runs of the augmented loop on all three problems."""
    opts = DriverOptions(mode="practical")
    return {p.name: run_qcad(p, opts=opts) for p in (ex1, ex2, dc)}
