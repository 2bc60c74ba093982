"""The package surface matches the README: every export and every option
field is documented, so neither can grow back unnoticed."""
import dataclasses
import inspect

import sipsolve
from sipsolve import DriverOptions

EXPORTS = ["DriverOptions", "IterateRecord", "RunResult", "ScalarField",
           "SipProblem", "SpecFileError", "SpecParseError", "get_problem",
           "list_problems", "load_problem", "run_blankenship_falk",
           "run_qcad"]

# one field per `sipsolve run` flag
CLI_OPTIONS = ["mode", "tol_dist", "tol_feas", "tol_stat", "max_iter",
               "trust_radius"]


def test_exports_are_the_documented_api():
    assert sorted(sipsolve.__all__) == EXPORTS
    for name in EXPORTS:
        assert hasattr(sipsolve, name)


def test_driver_signatures():
    for runner in (sipsolve.run_blankenship_falk, sipsolve.run_qcad):
        params = inspect.signature(runner).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            ("problem", inspect.Parameter.empty), ("x0", None), ("opts", None)]


def test_driver_options_are_the_cli_flags():
    assert [f.name for f in dataclasses.fields(DriverOptions)] == CLI_OPTIONS
