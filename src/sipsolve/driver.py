"""Adaptive discretization loops for semi-infinite programs.

Two drivers share one iteration skeleton:

* ``run_blankenship_falk``: solve the discretized master, then add the
  global lower-level maximizers to the discretization and repeat.  A
  maximizer that is not a KKT point of its active set is added as found,
  with a warning.
* ``run_qcad``: additionally linearize the lower-level primal-dual solution
  map at the current iterate (for every constraint family whose maximizer
  is regular) and put the resulting linearized Lagrangian constraint into
  the master.  The linearizations are rebuilt from scratch each iteration;
  stale ones are dropped.

Each master row block of a semi-infinite family evaluates its values and
x-gradients with one ``value_and_gradient_batch`` call of g_i over the
family's points (``_family_rows``).  Each master is solved once, from the
current iterate.  A converged master
is checked for negative curvature of its Lagrangian on the critical cone
(the second-order necessary condition); when the check finds some, the
master steps along it and is solved again from there (``_solve_master``).

Iterate bookkeeping: ``history[0]`` is the input point.  Each iteration
solves the lower levels at x^k (following the maximizers found at x^{k-1},
see ``lower_level``), records the iterate, checks termination, extends the
discretization and solves the master for x^{k+1}.  The record for iterate
k therefore carries the multipliers of the master that produced x^k (none
for k = 0).  Each warning of iteration k is written once, to that record;
``RunResult.warnings`` is the records' warnings in order, then the message
of the failure that stopped the run, if one did.  ``check_start`` holds
the checks of the start point, which ``sipsolve run`` makes too.

A record's stationarity residual, beta norm and alpha max are computed on
their first read and then kept (``IterateRecord``'s cached properties).  A
known-mode run computes none of them unless a record is read, and
practical mode's termination test computes the residual only at an
iterate whose feasibility meets ``tol_feas``, assigning it to the record
itself so that a field that raises there still ends the run.  A record's ``wall_time_ms`` thus holds no diagnostic that nobody
read, and a read after the run gives inf where a field raises.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .diagnostics import (feasibility_measure, perturbation_params,
                          stationarity_residual)
from .lower_level import LowerLevelError, index_grid, solve_all_lower_levels
from .model import FieldEvaluationError, ScalarField, SipProblem
from .nlp import (LS_MAX, NlpProblem, Rows, field_rows, negative_curvature,
                  norm, solve_nlp)
from .sensitivity import (SensitivityError, compute_sensitivity,
                          linearization_field)

Array = np.ndarray

_DEDUP_TOL = 1e-12
_STAGNATION_LIMIT = 3
_MAX_ESCAPES = 3        # negative-curvature escapes per master


@dataclass
class DriverOptions:
    mode: str = "practical"             # "practical" or "known"
    tol_dist: float = 1e-4              # known-solution mode
    tol_feas: float = 1e-6              # practical mode: SIP feasibility
    tol_stat: float = 1e-6              # practical mode: stationarity residual
    max_iter: int = 50
    trust_radius: float = 2.0           # sup-norm cap on each master step


@dataclass
class DiscretizationState:
    """Per-family point lists; grows by set union, never shrinks."""

    points: list

    @classmethod
    def empty(cls, n_families: int) -> "DiscretizationState":
        return cls(points=[[] for _ in range(n_families)])

    def add(self, i: int, y) -> bool:
        """Add y to family i unless a copy is already present."""
        y = np.asarray(y, dtype=float).reshape(-1)
        for existing in self.points[i]:
            if norm(existing - y) <= _DEDUP_TOL:
                return False
        self.points[i].append(y.copy())
        return True

    def total_points(self) -> int:
        return sum(len(fam) for fam in self.points)


@dataclass
class IterateRecord:
    """One iterate.  Its stationarity residual, beta norm and alpha max are
    computed on their first read and then kept, from the record's ``x``,
    ``lower_level`` and ``lambda_bar`` through ``stationarity_residual``
    and ``perturbation_params`` (beta and alpha from one call, None while
    ``lambda_bar`` is None); a field that raises there makes the values
    inf.  A residual assigned to the record is kept as given."""

    k: int
    x: Array
    objective: float
    feasibility: float
    dist_to_known: Optional[float]
    step_norm: Optional[float]
    n_constraints_in_master: Optional[int]
    wall_time_ms: Optional[float]
    lower_level: list = field(default_factory=list)
    linearizations: dict = field(default_factory=dict)
    lambda_bar: Optional[Array] = None
    warnings: list = field(default_factory=list)
    problem: Optional[SipProblem] = field(default=None, repr=False,
                                          compare=False)

    @cached_property
    def stationarity_residual(self) -> float:
        try:
            return stationarity_residual(self.problem, self.x, self.lower_level)
        except (ArithmeticError, FieldEvaluationError):
            return np.inf

    @cached_property
    def _perturbation(self) -> tuple:
        if self.lambda_bar is None:
            return None, None
        try:
            params = perturbation_params(self.problem, self.x,
                                         self.lower_level, self.lambda_bar)
        except (ArithmeticError, FieldEvaluationError):
            return np.inf, np.inf
        return params.beta_norm, params.alpha_max

    beta_norm = property(lambda self: self._perturbation[0])
    alpha_max = property(lambda self: self._perturbation[1])


@dataclass
class RunResult:
    history: list
    final_status: str                   # tolerance_met | max_iter | subsolver_failure
    final_discretization: DiscretizationState
    warnings: list
    algorithm: str = ""
    problem_name: str = ""

    @property
    def final(self) -> IterateRecord:
        return self.history[-1]

    @property
    def x(self) -> Array:
        return self.history[-1].x


def check_termination(history, opts: DriverOptions) -> Optional[str]:
    """Status string when the run should stop, else None."""
    rec = history[-1]
    if opts.mode == "known":
        if rec.dist_to_known is not None and rec.dist_to_known <= opts.tol_dist:
            return "tolerance_met"
    else:
        if rec.feasibility <= opts.tol_feas \
                and rec.stationarity_residual <= opts.tol_stat:
            return "tolerance_met"
    if rec.k >= opts.max_iter:
        return "max_iter"
    return None


def _family_rows(g: ScalarField, n: int, points) -> tuple:
    """Row block x -> g(x, y_j) over one family's points: one
    ``value_and_gradient_batch`` for the values and the Jacobian (its
    gradients sliced to x), and per-point Hessians sliced to x for the
    points with a nonzero weight."""
    z = np.hstack([np.zeros((len(points), n)), np.array(points)])  # x refilled per call

    def evaluate(x):
        z[:, :n] = x
        values, grads = g.value_and_gradient_batch(z)
        return values, grads[:, :n]

    def hessian(x, w):
        z[:, :n] = x
        return sum((wj * g.hessian(row)[:n, :n] for wj, row in zip(w, z) if wj),
                   np.zeros((n, n)))
    return len(z), evaluate, hessian


def _master_problem(problem: SipProblem, disc: DiscretizationState,
                    lin_rows, center: Array, trust_radius: float) -> tuple:
    """Discretized NLP and, per row, the family whose multiplier sum the
    row enters (``n_si`` for the finite constraints, which enter none).

    Row blocks: one per semi-infinite family (its discretization points),
    the one-row linearized constraints ``lin_rows``, the finite constraints.
    The linearized constraints are local models, valid near the iterate
    they were built at; the master is therefore solved inside a sup-norm
    trust box around the current iterate (intersected with the variable
    bounds).  Near convergence the box is inactive.
    """
    blocks = [_family_rows(g, problem.n, points) for g, points
              in zip(problem.si_constraints, disc.points) if points]
    blocks += lin_rows.values()
    finite = field_rows(problem.finite_constraints).blocks
    families = ([i for i, points in enumerate(disc.points) for _ in points]
                + list(lin_rows) + [problem.n_si] * len(finite))
    lower = np.maximum(problem.x_bounds[:, 0], center - trust_radius)
    upper = np.minimum(problem.x_bounds[:, 1], center + trust_radius)
    nlp = NlpProblem(
        dim=problem.n,
        objective=problem.objective,
        constraints=Rows(*blocks, *finite),
        lower=lower,
        upper=upper)
    return nlp, families


def _l1_merit(sol, f, c):
    """The l1 merit f + sigma * sum max(c, 0) of objective and row values
    about the master's solution ``sol``, sigma = 1.1 * its largest
    multiplier + 1e-4."""
    sigma = 1.1 * sol.multipliers.max(initial=0.0) + 1e-4
    return f + sigma * np.maximum(c, 0.0).sum()


def _snap_to_bounds(nlp: NlpProblem, sol, snap_tol: float = 1e-4):
    """Project near-bound coordinates exactly onto their bound.

    Degenerate masters (a constraint row parallel to an active bound)
    converge with a coordinate a few 1e-5 off the bound: the row value
    scales quadratically with the offset and meets the feasibility
    tolerance early.  The projection is kept unless it raises the l1 merit.
    """
    z = sol.z.copy()
    near_lo = (0.0 < z - nlp.lower) & (z - nlp.lower <= snap_tol)
    near_hi = ~near_lo & (0.0 < nlp.upper - z) & (nlp.upper - z <= snap_tol)
    if not (near_lo.any() or near_hi.any()):
        return sol
    z[near_lo], z[near_hi] = nlp.lower[near_lo], nlp.upper[near_hi]
    f_new = nlp.objective.value(z)
    c_new, jac_new = nlp.constraints(z)
    merit_old = _l1_merit(sol, sol.objective_value, sol.constraint_values)
    if _l1_merit(sol, f_new, c_new) <= merit_old + 1e-12 * (1.0 + abs(merit_old)):
        return replace(sol, z=z, objective_value=f_new, constraint_values=c_new,
                       constraint_jacobian=jac_new,
                       max_violation=max(c_new.tolist(), default=0.0))
    return sol


def _escape_point(nlp: NlpProblem, sol, direction: Array, curvature: float):
    """A point along a direction of negative curvature from the master's KKT
    point ``sol``, clipped to the trust box; None when no step passes.

    The step halves, at most ``LS_MAX`` times, until the l1 merit falls by
    the predicted second-order decrease (Moré & Sorensen, 1979).
    """
    merit0 = _l1_merit(sol, sol.objective_value, sol.constraint_values)
    alpha = 1.0
    for _ in range(LS_MAX):
        z = np.clip(sol.z + alpha * direction, nlp.lower, nlp.upper)
        try:
            merit_z = _l1_merit(sol, nlp.objective.value(z),
                                nlp.constraints(z)[0])
        except ArithmeticError:     # a row's derivative is undefined there
            merit_z = np.nan
        if np.isfinite(merit_z) and merit_z <= merit0 + 0.5e-4 * alpha ** 2 * curvature:
            return z
        alpha *= 0.5
    return None


def _solve_master(nlp: NlpProblem, x: Array):
    """Solve the master from the current iterate.

    The master is nonconvex in general, and a KKT point it converges to
    can fail the second-order necessary condition.  Each converged solve
    is checked on the critical cone (``nlp.negative_curvature``); on
    negative curvature the master steps along it and is solved again from
    there, at most ``_MAX_ESCAPES`` times.
    """
    sol = solve_nlp(nlp, x)
    for _ in range(_MAX_ESCAPES):
        if not sol.converged:
            break
        found = negative_curvature(nlp, sol)
        z = _escape_point(nlp, sol, *found) if found is not None else None
        if z is None:
            break
        sol = solve_nlp(nlp, z)
    return _snap_to_bounds(nlp, sol)


def check_start(problem: SipProblem, x0, mode: str) -> Array:
    """The start point of a run as a float copy: ``x0``, or the problem's
    own start when None.  Raises ValueError when known-solution ``mode``
    has no known solution, or when there is no start, it has the wrong
    shape, is not finite or lies outside ``x_bounds``."""
    if mode == "known" and problem.known_solution is None:
        raise ValueError(f"problem {problem.name!r} has no known solution; "
                         "use --mode practical")
    if x0 is None:
        x0 = problem.start
    if x0 is None:
        raise ValueError(f"problem {problem.name} has no start point (x0)")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.n,):
        raise ValueError(f"x0 must have shape ({problem.n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if np.any(x < problem.x_bounds[:, 0]) or np.any(x > problem.x_bounds[:, 1]):
        raise ValueError(f"problem {problem.name}: x0 {x.tolist()} "
                         "lies outside x_bounds")
    return x


def _run(problem: SipProblem, x0, opts: DriverOptions,
         use_linearization: bool, algorithm: str) -> RunResult:
    x = check_start(problem, x0, opts.mode)
    disc = DiscretizationState.empty(problem.n_si)
    history = []
    failure = None      # the message of a run that stops on a failure
    prev_x = None
    prev_lambda_bar = None
    prev_n_master = None
    best_feasibility = np.inf
    stagnant = 0
    status = "max_iter"
    grid = None         # the lower-level grid, built at the first iteration
    ll = None           # the lower-level solutions at the previous iterate

    try:
        for k in range(opts.max_iter + 1):
            t0 = time.perf_counter()
            try:
                if grid is None:
                    grid = index_grid(problem)
                ll = solve_all_lower_levels(problem, x, grid, ll)
            except LowerLevelError as exc:
                failure = f"iteration {k}: lower-level solve failed: {exc}"
                break

            feasibility = feasibility_measure(ll)
            dist = None
            if problem.known_solution is not None:
                dist = norm(x - problem.known_solution)

            rec = IterateRecord(
                k=k, x=x.copy(),
                objective=problem.objective.value(x),
                feasibility=feasibility,
                dist_to_known=dist,
                step_norm=(norm(x - prev_x)
                           if prev_x is not None else None),
                n_constraints_in_master=prev_n_master,
                wall_time_ms=None,
                lower_level=ll,
                lambda_bar=prev_lambda_bar,
                warnings=[f"iteration {k}: constraint {sol.index} has multiple "
                          "global lower-level maximizers"
                          for sol in ll if sol.multiple_global],
                problem=problem)
            history.append(rec)
            if opts.mode != "known" and feasibility <= opts.tol_feas:
                # the termination test reads the residual: a field that
                # raises there ends the run
                rec.stationarity_residual = stationarity_residual(problem, x, ll)

            decided = check_termination(history, opts)
            if decided is not None:
                status = decided
                rec.wall_time_ms = 1e3 * (time.perf_counter() - t0)
                break

            # refinement step: add this iteration's maximizers; qcad names
            # a non-KKT maximizer in its regularity warning below
            added_any = False
            for sol in ll:
                if disc.add(sol.index, sol.y):
                    added_any = True
                    if not (use_linearization or sol.regularity.kkt_point):
                        rec.warnings.append(
                            f"iteration {k}: the lower-level maximizer of "
                            f"constraint {sol.index} is not a KKT point of "
                            "its active set; added to the discretization "
                            "as found")

            improved = feasibility < best_feasibility - 1e-12
            best_feasibility = min(best_feasibility, feasibility)
            # a master step that reached its trust box is still descending
            full_step = prev_x is not None and bool(np.any(
                (x >= prev_x + opts.trust_radius)
                | (x <= prev_x - opts.trust_radius)))
            if not added_any and not improved and not full_step:
                stagnant += 1
                if stagnant >= _STAGNATION_LIMIT:
                    failure = (f"iteration {k}: no new discretization points "
                               "and no feasibility progress for "
                               f"{_STAGNATION_LIMIT} iterations")
                    rec.wall_time_ms = 1e3 * (time.perf_counter() - t0)
                    break
            else:
                stagnant = 0

            lin_rows = {}
            if use_linearization:
                for i, sol in enumerate(ll):
                    if not sol.regularity.all_ok:
                        flags = sol.regularity
                        # no sensitivity exists off a KKT point
                        why = ("" if flags.kkt_point else
                               "not a KKT point of its active set, ")
                        rec.warnings.append(
                            f"iteration {k}: regularity failed for "
                            f"constraint {i} ({why}licq={flags.licq}, "
                            "strict_complementarity="
                            f"{flags.strict_complementarity}, "
                            f"sosc={flags.sosc}); no linearization this "
                            "iteration")
                        continue
                    try:
                        lc = compute_sensitivity(problem, sol)
                    except SensitivityError as exc:
                        rec.warnings.append(
                            f"iteration {k}: sensitivity failed for "
                            f"constraint {i}: {exc}")
                        continue
                    rec.linearizations[i] = lc
                    lin_rows[i] = linearization_field(lc, problem)

            nlp, families = _master_problem(problem, disc, lin_rows, x,
                                            opts.trust_radius)
            master = _solve_master(nlp, x)
            if master.status == "qp_failure":
                failure = f"iteration {k}: master NLP failed ({master.status})"
                rec.wall_time_ms = 1e3 * (time.perf_counter() - t0)
                break
            if master.status == "max_iter":
                rec.warnings.append(
                    f"iteration {k}: master NLP hit its iteration limit "
                    f"(kkt residual {master.kkt_residual:.3e})")

            prev_x = x
            x = master.z.copy()
            # master multipliers summed over each semi-infinite family
            prev_lambda_bar = np.bincount(families, master.multipliers,
                                          problem.n_si + 1)[:problem.n_si]
            prev_n_master = len(nlp.constraints)
            rec.wall_time_ms = 1e3 * (time.perf_counter() - t0)
    except (ArithmeticError, FieldEvaluationError) as exc:
        failure = f"iteration {k}: field evaluation failed: {exc}"

    warnings = [w for rec in history for w in rec.warnings]
    if failure is not None:
        warnings.append(failure)
        status = "subsolver_failure"
    return RunResult(history=history, final_status=status,
                     final_discretization=disc, warnings=warnings,
                     algorithm=algorithm, problem_name=problem.name)


def run_blankenship_falk(problem: SipProblem, x0=None,
                         opts: Optional[DriverOptions] = None) -> RunResult:
    """Classical adaptive discretization: discretize, solve, refine."""
    opts = opts or DriverOptions()
    return _run(problem, x0, opts, use_linearization=False,
                algorithm="blankenship_falk")


def run_qcad(problem: SipProblem, x0=None,
             opts: Optional[DriverOptions] = None) -> RunResult:
    """Adaptive discretization with linearized lower-level information.

    Per iteration, every regular constraint family contributes a
    linearized Lagrangian constraint to the master in addition to its
    discretization rows, which restores local quadratic convergence.
    """
    opts = opts or DriverOptions()
    return _run(problem, x0, opts, use_linearization=True,
                algorithm="qcad")
