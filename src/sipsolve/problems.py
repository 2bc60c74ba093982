"""Built-in benchmark problems: the spec files shipped in ``sipsolve/data``.

Three problems are registered:

* ``example1``: linear objective against a parabolic constraint family;
  the adaptive discretization loop behaves like a bisection on x1 and
  converges linearly.
* ``example2``: the same geometry with x1 squared, making the lower-level
  maximizer a smooth function of x; linearized lower-level information
  restores quadratic convergence.
* ``design_centering``: largest ellipse (parametrized by center, axes and
  shear) inscribed in a triangle; classic semi-infinite benchmark with a
  two-dimensional index set.

Each loads like any other spec file: exact gradients and Hessians, batch
evaluation, and no finite differencing anywhere in the solve path.
"""
from __future__ import annotations

from pathlib import Path

from .model import SipProblem
from .specfile import load_problem

#: The built-in problems, in the order ``sipsolve list`` prints them.
REGISTRY = ("example1", "example2", "design_centering")
_DATA = Path(__file__).with_name("data")


def get_problem(name: str) -> SipProblem:
    """Load a built-in problem by name (a fresh instance on every call)."""
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown problem {name!r}; available: {known}")
    return load_problem(_DATA / f"{name}.yaml")


def list_problems() -> list:
    return sorted(REGISTRY)
