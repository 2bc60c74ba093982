"""Semi-infinite programming by adaptive discretization.

Solvers for problems of the form

    min f(x)  s.t.  g_i(x, y) <= 0 for all y in Y,  i = 1..p,

with Y = {y : v(y) <= 0} compact.  Two drivers are provided: the classical
exchange loop (solve the discretized problem, add the worst index, repeat)
and a variant that additionally carries first-order models of the
lower-level solution maps, which restores local quadratic convergence.

The package exports the documented API below; everything else stays
importable from its own module.
"""
from .driver import (DriverOptions, IterateRecord, RunResult,
                     run_blankenship_falk, run_qcad)
from .expressions import SpecParseError
from .model import ScalarField, SipProblem
from .problems import get_problem, list_problems
from .specfile import SpecFileError, load_problem

__version__ = "0.1.0"

__all__ = [
    "DriverOptions", "IterateRecord", "RunResult", "ScalarField",
    "SipProblem", "SpecFileError", "SpecParseError", "get_problem",
    "list_problems", "load_problem", "run_blankenship_falk", "run_qcad",
]
