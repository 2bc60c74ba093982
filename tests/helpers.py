"""Small synthetic problems and oracles shared across the test modules."""
from dataclasses import dataclass

import numpy as np

from sipsolve.expressions import Call, Expression, Neg, Num, Var
from sipsolve.lower_level import LowerLevelError, solve_lower_level_global
from sipsolve.model import ScalarField, SipProblem
from sipsolve.sensitivity import LinearizedConstraint, linearized_value_and_gradient


def interval_index_fields(radius=1.0):
    """Index constraints describing Y = [-radius, radius] in one dimension."""
    upper = ScalarField(
        1, lambda y: y[0] - radius, lambda y: np.array([1.0]),
        hessian=lambda y: np.zeros((1, 1)),
        value_batch=lambda pts: pts[:, 0] - radius, name="y_hi")
    lower = ScalarField(
        1, lambda y: -y[0] - radius, lambda y: np.array([-1.0]),
        hessian=lambda y: np.zeros((1, 1)),
        value_batch=lambda pts: -pts[:, 0] - radius, name="y_lo")
    return (upper, lower)


def onestep_problem():
    """min x1 s.t. -y^2 - x1 <= 0 on [-1,1]; the maximizer y=0 never moves.

    The linearized constraint built at any base point is exact, so the
    augmented loop jumps to the solution x=0 in a single step.
    """
    f = ScalarField(1, lambda x: x[0], lambda x: np.array([1.0]),
                    hessian=lambda x: np.zeros((1, 1)), name="f_onestep")
    g = ScalarField(
        2, lambda z: -z[1] * z[1] - z[0],
        lambda z: np.array([-1.0, -2.0 * z[1]]),
        hessian=lambda z: np.array([[0.0, 0.0], [0.0, -2.0]]),
        value_batch=lambda pts: -pts[:, 1] ** 2 - pts[:, 0], name="g_onestep")
    return SipProblem(n=1, m=1, objective=f, si_constraints=(g,),
                      index_constraints=interval_index_fields(),
                      x_bounds=np.array([[-2.0, 2.0]]),
                      start=np.array([1.0]), known_solution=np.array([0.0]),
                      known_objective=0.0, name="onestep")


def always_violated_problem():
    """g(x, y) = -y^2 + 1 has value 1 at y=0 whatever x is; no feasible x."""
    f = ScalarField(1, lambda x: x[0], lambda x: np.array([1.0]),
                    hessian=lambda x: np.zeros((1, 1)), name="f_violated")
    g = ScalarField(
        2, lambda z: -z[1] * z[1] + 1.0,
        lambda z: np.array([0.0, -2.0 * z[1]]),
        hessian=lambda z: np.array([[0.0, 0.0], [0.0, -2.0]]),
        value_batch=lambda pts: -pts[:, 1] ** 2 + 1.0, name="g_violated")
    return SipProblem(n=1, m=1, objective=f, si_constraints=(g,),
                      index_constraints=interval_index_fields(),
                      x_bounds=np.array([[-1.0, 1.0]]),
                      start=np.array([0.0]), name="always_violated")


def tie_problem():
    """g(x, y) = y^2 - 2 on [-1,1] is maximized at both y = -1 and y = +1."""
    f = ScalarField(1, lambda x: x[0] * x[0], lambda x: np.array([2.0 * x[0]]),
                    hessian=lambda x: 2.0 * np.eye(1), name="f_tie")
    g = ScalarField(
        2, lambda z: z[1] * z[1] - 2.0,
        lambda z: np.array([0.0, 2.0 * z[1]]),
        hessian=lambda z: np.array([[0.0, 0.0], [0.0, 2.0]]),
        value_batch=lambda pts: pts[:, 1] ** 2 - 2.0, name="g_tie")
    return SipProblem(n=1, m=1, objective=f, si_constraints=(g,),
                      index_constraints=interval_index_fields(),
                      x_bounds=np.array([[-1.0, 1.0]]),
                      start=np.array([0.5]), name="tie")


def three_peak_problem():
    """g(x, y) = cos(3 pi y) - x y on [-1,1]: local maxima near -2/3, 0, 2/3.

    At x = 0 the three tie at value 1; x > 0 tilts the left one to the top.
    """
    w = 3.0 * np.pi
    f = ScalarField(1, lambda x: x[0], lambda x: np.array([1.0]),
                    hessian=lambda x: np.zeros((1, 1)), name="f_peaks")
    g = ScalarField(
        2, lambda z: np.cos(w * z[1]) - z[0] * z[1],
        lambda z: np.array([-z[1], -w * np.sin(w * z[1]) - z[0]]),
        hessian=lambda z: np.array([[0.0, -1.0],
                                    [-1.0, -w * w * np.cos(w * z[1])]]),
        value_batch=lambda pts: np.cos(w * pts[:, 1]) - pts[:, 0] * pts[:, 1],
        name="g_peaks")
    return SipProblem(n=1, m=1, objective=f, si_constraints=(g,),
                      index_constraints=interval_index_fields(),
                      x_bounds=np.array([[-1.0, 1.0]]), name="three_peaks")


def pinned_index_problem():
    """Y = {0} written as y <= 0 and -y <= 0: dependent active gradients."""
    f = ScalarField(1, lambda x: x[0], lambda x: np.array([1.0]),
                    hessian=lambda x: np.zeros((1, 1)), name="f_pinned")
    g = ScalarField(
        2, lambda z: z[1], lambda z: np.array([0.0, 1.0]),
        hessian=lambda z: np.zeros((2, 2)),
        value_batch=lambda pts: pts[:, 1], name="g_pinned")
    v1 = ScalarField(1, lambda y: y[0], lambda y: np.array([1.0]),
                     hessian=lambda y: np.zeros((1, 1)),
                     value_batch=lambda pts: pts[:, 0], name="v_plus")
    v2 = ScalarField(1, lambda y: -y[0], lambda y: np.array([-1.0]),
                     hessian=lambda y: np.zeros((1, 1)),
                     value_batch=lambda pts: -pts[:, 0], name="v_minus")
    return SipProblem(n=1, m=1, objective=f, si_constraints=(g,),
                      index_constraints=(v1, v2),
                      x_bounds=np.array([[-1.0, 1.0]]), name="pinned")


def fd_maximizer_jacobian(problem, i, x, h=1e-5):
    """Jacobian of the lower-level maximizer map by central differences.

    Re-solves the lower level globally at x +/- h e_j; the result is the
    reference for the implicit-function-theorem sensitivities.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(problem.n):
        e = np.zeros(problem.n)
        e[j] = h
        sp = solve_lower_level_global(problem, i, x + e)
        sm = solve_lower_level_global(problem, i, x - e)
        cols.append((sp.y - sm.y) / (2.0 * h))
    return np.stack(cols, axis=1)


def fd_block_hessian(block, z, w, h=1e-6):
    """sum_j w_j * Hessian of row j of a row block ``(size, evaluate,
    hessian)``, by central differences of its Jacobian."""
    _, evaluate, _ = block
    z = np.asarray(z, dtype=float)
    cols = []
    for j in range(len(z)):
        e = np.zeros(len(z))
        e[j] = h
        up = np.asarray(evaluate(z + e)[1])
        dn = np.asarray(evaluate(z - e)[1])
        cols.append(w @ (up - dn) / (2.0 * h))
    fd = np.stack(cols, axis=1)
    return 0.5 * (fd + fd.T)


def narrow_peak_problem(width=0.01):
    """``three_peak_problem`` squeezed onto Y = [0, width]: with u = 2 y /
    width - 1, g(x, y) = cos(3 pi u) - x u peaks near u = -2/3, 0, 2/3.
    The lower level's grid step is width / 63."""
    w = 3.0 * np.pi
    s = 2.0 / width
    f = ScalarField(1, lambda x: x[0], lambda x: np.array([1.0]),
                    hessian=lambda x: np.zeros((1, 1)), name="f_narrow")
    g = ScalarField(
        2, lambda z: np.cos(w * (s * z[1] - 1.0)) - z[0] * (s * z[1] - 1.0),
        lambda z: np.array([-(s * z[1] - 1.0),
                            -s * (w * np.sin(w * (s * z[1] - 1.0)) + z[0])]),
        hessian=lambda z: np.array(
            [[0.0, -s], [-s, -(s * w) ** 2 * np.cos(w * (s * z[1] - 1.0))]]),
        value_batch=lambda pts: (np.cos(w * (s * pts[:, 1] - 1.0))
                                 - pts[:, 0] * (s * pts[:, 1] - 1.0)),
        name="g_narrow")
    upper = ScalarField(
        1, lambda y: y[0] - width, lambda y: np.array([1.0]),
        hessian=lambda y: np.zeros((1, 1)),
        value_batch=lambda pts: pts[:, 0] - width, name="y_hi")
    lower = ScalarField(
        1, lambda y: -y[0], lambda y: np.array([-1.0]),
        hessian=lambda y: np.zeros((1, 1)),
        value_batch=lambda pts: -pts[:, 0], name="y_lo")
    return SipProblem(n=1, m=1, objective=f, si_constraints=(g,),
                      index_constraints=(upper, lower),
                      x_bounds=np.array([[-1.0, 1.0]]), name="narrow_peaks")


@dataclass(frozen=True)
class LinearizationGaps:
    """Accuracy of one linearized constraint against the true value function."""

    value_gap: float
    gradient_gap: float
    step2: float
    step4: float


def linearization_gaps(problem: SipProblem, i: int, x_prev, x_curr,
                       lc: LinearizedConstraint) -> LinearizationGaps:
    """Gap between the linearized constraint at x_curr and the true values.

    value_gap should scale like ||step||^4 and gradient_gap like ||step||^2
    near a regular maximizer; step powers are returned for such checks.
    """
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


# Printing: the text parses back to an identical AST

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _print(node: Expression, parent_prec: int, right_side: bool) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"{node.kind}{node.index}"
    if isinstance(node, Call):
        return f"{node.fn}({_print(node.arg, 0, False)})"
    if isinstance(node, Neg):
        inner = _print(node.arg, _PREC["neg"], False)
        text = f"-{inner}"
        if parent_prec > _PREC["neg"] or (right_side and parent_prec == _PREC["neg"]):
            return f"({text})"
        return text
    prec = _PREC[node.op]
    # the parser groups left to right and takes only a literal exponent, so
    # a same-precedence right operand and a power as a base need parentheses
    left = _print(node.left, prec, node.op == "^")
    right = _print(node.right, prec, True)
    text = f"{left} {node.op} {right}" if node.op != "^" else f"{left}^{right}"
    if prec < parent_prec or (right_side and prec == parent_prec):
        return f"({text})"
    return text


def to_string(expr: Expression) -> str:
    """Spec-file text of an expression."""
    return _print(expr, 0, False)
