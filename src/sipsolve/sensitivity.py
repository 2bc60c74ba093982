"""First-order sensitivities of lower-level solutions and their linearization.

At a regular lower-level maximizer (LICQ, strict complementarity, second
order sufficiency) the implicit function theorem applies to the active-set
KKT system, yielding derivatives Dy(x) and Dmu(x) of the maximizer and its
multipliers with respect to the upper-level variables.  The KKT matrix is
the one the lower-level solve stored on its solution, the same matrix that
certified its regularity; nothing is assembled here.  ``compute_sensitivity``
turns a lower-level solution into one :class:`LinearizedConstraint`, the
data of the linearized Lagrangian constraint

    x  ->  g_i(x, yhat(x)) - sum_l muhat_l(x) * v_l(yhat(x))

with yhat, muhat the first-order predictions.  At the base point this
constraint reproduces g_i(x_base, y_base) and its x-gradient exactly, and
away from it the error in approximating max_y g_i(x, y) is second order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lower_level import LowerLevelSolution
from .model import SipProblem

Array = np.ndarray

_RESIDUAL_TOL = 1e-8


class SensitivityError(RuntimeError):
    """KKT differentiation system is singular or badly inconsistent."""


@dataclass(frozen=True)
class LinearizedConstraint:
    """Linearization data for one semi-infinite constraint family: the
    lower-level primal-dual solution at ``x_base`` and its derivatives in x.

    dy_dx is (m, n); dmu_dx is (q, n) with rows of inactive constraints
    identically zero (the active set is locally constant under strict
    complementarity, so those multipliers stay at zero).
    """

    index: int
    x_base: Array
    y_base: Array
    mu_base: Array
    dy_dx: Array
    dmu_dx: Array

    def predicted_maximizer(self, x) -> Array:
        dx = np.asarray(x, dtype=float) - self.x_base
        return self.y_base + self.dy_dx @ dx

    def predicted_multipliers(self, x) -> Array:
        dx = np.asarray(x, dtype=float) - self.x_base
        return self.mu_base + self.dmu_dx @ dx


def compute_sensitivity(problem: SipProblem,
                        sol: LowerLevelSolution) -> LinearizedConstraint:
    """Linearize the lower-level solution ``sol`` of family ``sol.index``
    at the point ``sol.x`` it was solved at.

    With A the active set, differentiating {grad_y L = 0, v_A(y) = 0} in x
    gives, with the matrix of ``lower_level.KktSystem.jacobian`` that
    ``sol`` carries as ``kkt_matrix`` and ``d2_yx``,

        [ D2_yy L   -Dv_A^T ] [ Dy   ]   [ -D2_yx g_i ]
        [ Dv_A         0    ] [ Dmu_A] = [      0     ]

    Raises SensitivityError when the matrix is singular or the solve does
    not reproduce the right-hand side to 1e-8 relative accuracy.
    """
    n, m, i = problem.n, problem.m, sol.index
    active = list(sol.active_set)
    kkt = sol.kkt_matrix
    rhs = np.zeros((m + len(active), n))
    rhs[:m] = -sol.d2_yx

    try:
        sol_mat = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise SensitivityError(
            f"singular KKT differentiation system for constraint {i} "
            f"(condition estimate {np.linalg.cond(kkt):.3e})") from exc
    residual = np.linalg.norm(kkt @ sol_mat - rhs)
    if residual > _RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs)):
        raise SensitivityError(
            f"KKT differentiation residual {residual:.3e} too large for "
            f"constraint {i} (condition estimate {np.linalg.cond(kkt):.3e})")

    dmu_dx = np.zeros((len(problem.index_constraints), n))
    dmu_dx[active] = sol_mat[m:]
    return LinearizedConstraint(
        index=i, x_base=sol.x.copy(), y_base=sol.y.copy(),
        mu_base=sol.multipliers.copy(), dy_dx=sol_mat[:m], dmu_dx=dmu_dx)


def linearized_value_and_gradient(lc: LinearizedConstraint,
                                  problem: SipProblem, x):
    """Value and x-gradient of the linearized Lagrangian constraint.

    value = g_i(x, yhat) - sum_l muhat_l v_l(yhat)
    grad  = D1 g_i + Dy^T D2 g_i - sum_l [muhat_l Dy^T grad v_l + v_l dmu_l]

    At x = x_base this reduces to g_i(x_base, y_base) and D1 g_i exactly:
    complementarity kills the mu*v terms and KKT stationarity kills the
    Dy^T(...) terms.
    """
    x = np.asarray(x, dtype=float)
    n = problem.n
    g = problem.si_constraints[lc.index]
    dy = lc.dy_dx
    dmu = lc.dmu_dx

    y_hat = lc.predicted_maximizer(x)
    mu_hat = lc.predicted_multipliers(x)
    z = np.concatenate([x, y_hat])
    value = g.value(z)
    g_grad = g.gradient(z)
    grad = g_grad[:n] + dy.T @ g_grad[n:]
    for l, v in enumerate(problem.index_constraints):
        v_val = v.value(y_hat)
        value -= mu_hat[l] * v_val
        if mu_hat[l] != 0.0 or dmu[l].any():
            grad = grad - mu_hat[l] * (dy.T @ v.gradient(y_hat)) - v_val * dmu[l]
    return float(value), grad


def linearized_hessian(lc: LinearizedConstraint, problem: SipProblem, x) -> Array:
    """x-Hessian of the linearized Lagrangian constraint.

    yhat and muhat are affine in x, so with P = [I; Dy]

        hess = P^T D2 g_i P - sum_l [muhat_l Dy^T D2 v_l Dy
                                     + dmu_l (Dy^T grad v_l)^T
                                     + (Dy^T grad v_l) dmu_l^T]
    """
    x = np.asarray(x, dtype=float)
    g = problem.si_constraints[lc.index]
    dy = lc.dy_dx
    dmu = lc.dmu_dx

    y_hat = lc.predicted_maximizer(x)
    mu_hat = lc.predicted_multipliers(x)
    P = np.vstack([np.eye(problem.n), dy])
    hess = P.T @ g.hessian(np.concatenate([x, y_hat])) @ P
    for l, v in enumerate(problem.index_constraints):
        if mu_hat[l] != 0.0 or dmu[l].any():
            dv = dy.T @ v.gradient(y_hat)
            hess -= (mu_hat[l] * (dy.T @ v.hessian(y_hat) @ dy)
                     + np.outer(dmu[l], dv) + np.outer(dv, dmu[l]))
    return hess


def linearization_field(lc: LinearizedConstraint, problem: SipProblem) -> tuple:
    """The linearized constraint as a one-row block of master rows."""
    def evaluate(x):
        value, grad = linearized_value_and_gradient(lc, problem, x)
        return [value], [grad]

    def hessian(x, w):
        return w[0] * linearized_hessian(lc, problem, x)
    return 1, evaluate, hessian
