"""Solution-quality measures for the semi-infinite problem itself.

Everything here is evaluated at the SIP level (not the discretized master):
the feasibility measure max_i max_{y in Y} g_i(x, y), a stationarity
residual based on nonnegative multipliers over the active indices,
constraint-qualification margins, the perturbation parameters that drive
the convergence analysis, and empirical convergence-order estimates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lower_level import LowerLevelError, solve_all_lower_levels
from .model import SipProblem
from .sensitivity import LinearizedConstraint, linearized_value_and_gradient
from .nlp import solve_qp

Array = np.ndarray

TOL_ACT = 1e-6      # a maximum, constraint or bound counts as active within this


@dataclass
class StationarityReport:
    """Residual of the SIP KKT conditions with nonnegative multipliers.

    active_indices[i] lists (y, g_i(x, y)) for the near-active lower-level
    maxima of family i; multipliers are ordered like the stacked columns
    (semi-infinite first, then finite constraints, then active bounds).
    """

    residual: float
    active_indices: list
    multipliers: Array
    emfcq_margin: Optional[float] = None
    elicq: Optional[bool] = None
    column_labels: list = field(default_factory=list)


@dataclass(frozen=True)
class PerturbationParams:
    """Perturbation vector beta and per-family alpha at one iterate."""

    beta: Array
    alpha: Array

    @property
    def beta_norm(self) -> float:
        return float(np.linalg.norm(self.beta))

    @property
    def alpha_max(self) -> float:
        return float(np.abs(self.alpha).max()) if self.alpha.size else 0.0


@dataclass(frozen=True)
class OrderEstimate:
    """Least-squares convergence order from an error sequence tail."""

    order: float
    monotone_tail: bool
    pairs_used: int


@dataclass(frozen=True)
class LinearizationGaps:
    """Accuracy of one linearized constraint against the true value function."""

    value_gap: float
    gradient_gap: float
    step2: float
    step4: float


def feasibility_measure(problem: SipProblem, x, ll_solutions=None) -> float:
    """max_i phi_i(x) with phi_i the optimal lower-level value.

    Negative values mean strict feasibility of every semi-infinite
    constraint.  Pass precomputed lower-level solutions to avoid re-solving.
    """
    if ll_solutions is None:
        ll_solutions = solve_all_lower_levels(problem, x)
    return max(s.value for s in ll_solutions)


def _active_columns(problem: SipProblem, x, ll_solutions):
    """Gradient columns of all near-active constraints at x."""
    x = np.asarray(x, dtype=float)
    n = problem.n
    columns = []
    labels = []
    active_indices = []
    for i, sol in enumerate(ll_solutions):
        entries = []
        seen = []
        for y_loc, value in sol.local_maxima:
            if value < -TOL_ACT:
                continue
            if any(np.linalg.norm(y_loc - s) < 1e-8 for s in seen):
                continue
            seen.append(y_loc)
            entries.append((np.asarray(y_loc, dtype=float), float(value)))
            grad = problem.si_constraints[i].gradient(np.concatenate([x, y_loc]))
            columns.append(grad[:n])
            labels.append(("si", i, tuple(np.round(y_loc, 12))))
        active_indices.append(entries)
    for j, c in enumerate(problem.finite_constraints):
        if c.value(x) >= -TOL_ACT:
            columns.append(c.gradient(x))
            labels.append(("finite", j, None))
    for j in range(n):
        lo, hi = problem.x_bounds[j]
        if np.isfinite(lo) and x[j] - lo <= TOL_ACT:
            e = np.zeros(n)
            e[j] = -1.0
            columns.append(e)
            labels.append(("lower_bound", j, None))
        if np.isfinite(hi) and hi - x[j] <= TOL_ACT:
            e = np.zeros(n)
            e[j] = 1.0
            columns.append(e)
            labels.append(("upper_bound", j, None))
    return columns, labels, active_indices


def stationarity_residual(problem: SipProblem, x,
                          ll_solutions=None) -> StationarityReport:
    """Nonnegative least-squares fit of -grad f by active constraint gradients.

    residual = min_{lambda >= 0} || grad f(x) + sum_c lambda_c grad c(x) ||
    over the active semi-infinite indices, active finite constraints and
    active bounds.  Zero residual at a KKT point of the SIP.
    """
    x = np.asarray(x, dtype=float)
    if ll_solutions is None:
        ll_solutions = solve_all_lower_levels(problem, x)
    fgrad = problem.objective.gradient(x)
    columns, labels, active_indices = _active_columns(problem, x, ll_solutions)

    if not columns:
        return StationarityReport(
            residual=float(np.linalg.norm(fgrad)),
            active_indices=active_indices,
            multipliers=np.zeros(0),
            emfcq_margin=None, elicq=None, column_labels=[])

    c_mat = np.stack(columns, axis=1)
    k = c_mat.shape[1]
    # min_{lam>=0} ||fgrad + C lam||^2 as a box-constrained QP
    h = 2.0 * (c_mat.T @ c_mat) + 1e-12 * np.eye(k)
    g_lin = 2.0 * (c_mat.T @ fgrad)
    qp = solve_qp(h, g_lin, np.zeros((0, k)), np.zeros(0),
                  np.zeros(k), np.full(k, np.inf))
    lam = np.maximum(qp.step, 0.0)
    residual = float(np.linalg.norm(fgrad + c_mat @ lam))

    emfcq = _emfcq_margin(c_mat)
    svals = np.linalg.svd(c_mat, compute_uv=False)
    elicq = bool(k <= problem.n
                 and svals.min(initial=np.inf) >= 1e-8 * max(svals.max(initial=1.0), 1.0))
    return StationarityReport(
        residual=residual, active_indices=active_indices, multipliers=lam,
        emfcq_margin=emfcq, elicq=elicq, column_labels=labels)


def _emfcq_margin(c_mat: Array) -> float:
    """max t s.t. c^T xi <= -t for all active columns c, ||xi||_inf <= 1.

    Positive margin certifies an inward direction (extended MFCQ).  Solved
    as a lightly regularized QP, accurate to ~1e-6.
    """
    n, k = c_mat.shape
    dim = n + 1
    h = 1e-6 * np.eye(dim)
    g = np.zeros(dim)
    g[n] = -1.0
    rows = np.zeros((k, dim))
    rows[:, :n] = c_mat.T
    rows[:, n] = 1.0
    lower = np.concatenate([-np.ones(n), [-100.0]])
    upper = np.concatenate([np.ones(n), [100.0]])
    qp = solve_qp(h, g, rows, np.zeros(k), lower, upper)
    if qp.status != "optimal":
        return float("nan")
    return float(qp.step[n])


def perturbation_params(problem: SipProblem, x, ll_solutions,
                        lambda_bar) -> PerturbationParams:
    """beta and alpha from aggregated master multipliers.

    beta = grad f(x) + sum_i lambda_bar_i D1 g_i(x, y_i) with y_i the global
    lower-level maximizer; alpha_i = g_i(x, y_i) when lambda_bar_i > 0, else
    max(0, g_i(x, y_i)).  At an exact SIP KKT point both vanish.
    """
    x = np.asarray(x, dtype=float)
    lambda_bar = np.asarray(lambda_bar, dtype=float)
    n = problem.n
    beta = problem.objective.gradient(x).copy()
    alpha = np.zeros(len(ll_solutions))
    for i, sol in enumerate(ll_solutions):
        grad = problem.si_constraints[i].gradient(np.concatenate([x, sol.y]))
        beta += lambda_bar[i] * grad[:n]
        if lambda_bar[i] > 0.0:
            alpha[i] = sol.value
        else:
            alpha[i] = max(0.0, sol.value)
    return PerturbationParams(beta=beta, alpha=alpha)


def estimate_order(errors) -> OrderEstimate:
    """Convergence order as the LS slope of log e_{k+1} against log e_k.

    Uses the last min(4, len-1) consecutive pairs.  Scale-invariant; a
    non-monotone tail is flagged but the slope is still reported.
    """
    errors = [float(e) for e in errors]
    if len(errors) < 3:
        raise ValueError("need at least 3 error values")
    if any(e <= 0.0 for e in errors):
        raise ValueError("errors must be positive")
    n_pairs = min(4, len(errors) - 1)
    tail = errors[-(n_pairs + 1):]
    monotone = all(tail[j + 1] < tail[j] for j in range(len(tail) - 1))
    u = np.log(np.array(tail[:-1]))
    w = np.log(np.array(tail[1:]))
    du = u - u.mean()
    if np.abs(du).max() < 1e-14:
        order = float("nan")
    else:
        order = float(du @ (w - w.mean()) / (du @ du))
    return OrderEstimate(order=order, monotone_tail=monotone, pairs_used=n_pairs)


def linearization_gaps(problem: SipProblem, i: int, x_prev, x_curr,
                       lc: LinearizedConstraint) -> LinearizationGaps:
    """Gap between the linearized constraint at x_curr and the true values.

    value_gap should scale like ||step||^4 and gradient_gap like ||step||^2
    near a regular maximizer; step powers are returned for such checks.
    """
    from .lower_level import solve_lower_level_global

    x_prev = np.asarray(x_prev, dtype=float)
    x_curr = np.asarray(x_curr, dtype=float)
    sol = solve_lower_level_global(problem, i, x_curr)
    if not sol.regularity.all_ok:
        raise LowerLevelError(
            f"lower level {i} is not regular at the evaluation point")
    n = problem.n
    value, grad = linearized_value_and_gradient(lc, problem, x_curr)
    true_grad = problem.si_constraints[i].gradient(
        np.concatenate([x_curr, sol.y]))[:n]
    step = float(np.linalg.norm(x_curr - x_prev))
    return LinearizationGaps(
        value_gap=abs(sol.value - value),
        gradient_gap=float(np.linalg.norm(true_grad - grad)),
        step2=step ** 2, step4=step ** 4)
