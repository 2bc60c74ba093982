"""Small synthetic problems and oracles shared across the test modules."""
import numpy as np

from sipsolve.lower_level import solve_lower_level_global
from sipsolve.model import ScalarField, SipProblem


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
