"""Small synthetic problems and oracles shared across the test modules."""
from dataclasses import dataclass

import numpy as np

from sipsolve.expressions import Call, Expression, Neg, Num, Var
from sipsolve.lower_level import (TOL_ACT, TOL_FEAS, LowerLevelError, FamilyProblem,
                                 solve_lower_level_global)
from sipsolve.model import ScalarField, SipProblem
from sipsolve.nlp import _QP_DEPENDENT, _QP_FEAS_TOL, QpResult, _stack_rows
from sipsolve.sensitivity import LinearizedConstraint, linearized_value_and_gradient


def grid_nodes(box, per_dim: int) -> np.ndarray:
    """Tensor grid with ``per_dim`` nodes per axis over an ``(m, 2)`` box,
    in C order (last coordinate fastest), like ``lower_level.index_grid``."""
    axes = np.meshgrid(*(np.linspace(lo, hi, per_dim) for lo, hi in box),
                       indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


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


def three_peak_problem(scale=1.0, radius=1.0):
    """g(x, y) = scale (cos(3 pi y) - x y) on [-1,1]: local maxima near
    -2/3, 0, 2/3.

    At x = 0 the three tie at value scale; x > 0 tilts the left one to the
    top.  A radius above 1 widens the index set to [-radius, radius] and
    adds the cliff -10 max(0, |y| - 1)^3 beyond |y| = 1, which spreads the
    family's values over more than 1 whatever the scale.
    """
    w = 3.0 * np.pi
    c = 10.0 if radius > 1.0 else 0.0

    def cliff(y, power):
        return np.maximum(np.abs(y) - 1.0, 0.0) ** power

    f = ScalarField(1, lambda x: x[0], lambda x: np.array([1.0]),
                    hessian=lambda x: np.zeros((1, 1)), name="f_peaks")
    g = ScalarField(
        2, lambda z: scale * (np.cos(w * z[1]) - z[0] * z[1])
        - c * cliff(z[1], 3),
        lambda z: scale * np.array([-z[1], -w * np.sin(w * z[1]) - z[0]])
        - [0.0, 3.0 * c * np.sign(z[1]) * cliff(z[1], 2)],
        hessian=lambda z: scale * np.array([[0.0, -1.0],
                                            [-1.0, -w * w * np.cos(w * z[1])]])
        - [[0.0, 0.0], [0.0, 6.0 * c * cliff(z[1], 1)]],
        value_batch=lambda pts: scale * (np.cos(w * pts[:, 1])
                                         - pts[:, 0] * pts[:, 1])
        - c * cliff(pts[:, 1], 3),
        name="g_peaks")
    return SipProblem(n=1, m=1, objective=f, si_constraints=(g,),
                      index_constraints=interval_index_fields(radius),
                      x_bounds=np.array([[-1.0, 1.0]]), name="three_peaks")


def two_peak_problem():
    """g(x, y) = -(y^2 - 1/4)^2 + x y on [-1,1]: local maxima near -1/2 and
    1/2, a local minimum at y = 0 when x = 0.  The right peak is the global
    one for x > 0, the left one for x < 0."""
    f = ScalarField(1, lambda x: x[0], lambda x: np.array([1.0]),
                    hessian=lambda x: np.zeros((1, 1)), name="f_two_peaks")
    g = ScalarField(
        2, lambda z: -(z[1] ** 2 - 0.25) ** 2 + z[0] * z[1],
        lambda z: np.array([z[1], -4.0 * z[1] * (z[1] ** 2 - 0.25) + z[0]]),
        hessian=lambda z: np.array([[0.0, 1.0],
                                    [1.0, 1.0 - 12.0 * z[1] ** 2]]),
        value_batch=lambda pts: (-(pts[:, 1] ** 2 - 0.25) ** 2
                                 + pts[:, 0] * pts[:, 1]),
        name="g_two_peaks")
    return SipProblem(n=1, m=1, objective=f, si_constraints=(g,),
                      index_constraints=interval_index_fields(),
                      x_bounds=np.array([[-1.0, 1.0]]), name="two_peaks")


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


# Reference constructions: the lower-level scan and the QP bound rows as they
# were first written (one argsort, one np.linspace per start, np.eye per QP);
# the vectorized versions in src must match them bit for bit

def reference_best_nodes(values, count):
    """Indices of the ``count`` best grid values, best first, ties in grid
    order."""
    return np.argsort(-values, kind="stable")[:count]


def reference_ascending(g_y, vs, starts, y, step, tol):
    """``lower_level._ascending`` with one ``np.linspace`` per start."""
    segments = []
    for start in starts:
        delta = y - start
        in_steps = np.divide(delta, step, out=np.zeros_like(delta), where=step > 0)
        t = np.linspace(0.0, 1.0, int(np.ceil(np.linalg.norm(in_steps))) + 2)
        segments.append(start + t[:, None] * delta)
    pts = np.concatenate(segments)
    first = np.cumsum([0] + [len(seg) for seg in segments[:-1]])
    ok = np.diff(g_y.value_batch(pts), prepend=np.inf) >= -tol
    ok[first] = True
    for v in vs:
        ok &= v.value_batch(pts) <= TOL_FEAS
    return np.logical_and.reduceat(ok, first)


def reference_stack_rows(A, b, lower, upper):
    """``nlp._stack_rows`` building the identity and bound rows per call."""
    eye = np.eye(len(lower))
    lo_idx = np.flatnonzero(np.isfinite(lower))
    up_idx = np.flatnonzero(np.isfinite(upper))
    C = np.vstack([A, -eye[lo_idx], eye[up_idx]])
    e = np.concatenate([b, -lower[lo_idx], upper[up_idx]])
    return C, e, lo_idx, up_idx


# Reference copies of the lower level's KKT system and Y's rule as they were
# before ``lower_level.KktSystem``: the residual and the Jacobian each
# concatenate (x, y) and take the active v_l's gradients, and the rule
# stacks every bound of a batch into one array; the versions in src must
# match them bit for bit

def reference_kkt_residual(problem, i, x, y, active, mu_a):
    """[grad_y g_i - sum_{l in A} mu_l grad v_l ; v_A(y)]."""
    n = problem.n
    vs = problem.index_constraints
    grad_y = problem.si_constraints[i].gradient(np.concatenate([x, y]))[n:]
    for l, mul in zip(active, mu_a):
        grad_y = grad_y - mul * vs[l].gradient(y)
    return np.concatenate([grad_y, [vs[l].value(y) for l in active]])


def reference_kkt_jacobian(problem, i, x, y, active, mu_a):
    """``(jac, D2_yx g_i)``, jac = [[D2_yy L, -Dv_A^T], [Dv_A, 0]]."""
    n, m = problem.n, problem.m
    vs = problem.index_constraints
    h = problem.si_constraints[i].hessian(np.concatenate([x, y]))
    a = len(active)
    jac = np.zeros((m + a, m + a))
    jac[:m, :m] = h[n:, n:]
    for l, mul in zip(active, mu_a):
        if mul != 0.0:
            jac[:m, :m] -= mul * vs[l].hessian(y)
    if a:
        va = np.stack([vs[l].gradient(y) for l in active])
        jac[:m, m:] = -va.T
        jac[m:, :m] = va
    return jac, h[n:, :n]


def reference_index_set_rule(vs, box, y):
    """``(in Y, active)`` at a point or at each row of an array."""
    values = [v.value(y) if y.ndim == 1 else v.value_batch(y) for v in vs]
    bounds = np.array(values + [b for (lo, hi), y_j in zip(box.tolist(), y.T)
                                for b in (lo - y_j, y_j - hi)])
    return (bounds <= TOL_FEAS).all(axis=0), bounds[:len(vs)] >= -TOL_ACT


# Reference copies of the QP's dense solves as they were before
# ``nlp.solve_linear``: np.linalg.solve per solve, numpy arrays for the
# blocking test, the row tolerance per check; ``nlp.solve_qp`` must match
# them bit for bit

def reference_kkt_solve(H, N, top, bottom):
    """Solve [[H, N], [N', 0]] [u; v] = [top; bottom]; None when singular."""
    d, k = N.shape
    kkt = np.zeros((d + k, d + k))
    kkt[:d, :d] = H
    kkt[:d, d:] = N
    kkt[d:, :d] = N.T
    try:
        sol = np.linalg.solve(kkt, np.concatenate([top, bottom]))
    except np.linalg.LinAlgError:
        return None
    return sol[:d], sol[d:]


def reference_equality_optimum(H, g, C, e, work):
    """``nlp._equality_optimum`` with the row tolerance computed here."""
    sol = reference_kkt_solve(H, C[work].T, -g, e[work])
    if sol is None:
        return None
    x, lam_w = sol
    if not ((lam_w >= 0.0).all()
            and (C @ x - e <= _QP_FEAS_TOL * (1.0 + np.abs(e))).all()):
        return None
    lam = np.zeros(len(e))
    lam[work] = lam_w
    return x, lam, work, "optimal"


def reference_blocking(lam_w, r):
    """``nlp._blocking`` by np.argmin over the ratios."""
    positive = r > 1e-12
    if not positive.any():
        return -1, np.inf
    ratios = np.where(positive, np.array(lam_w) / np.where(positive, r, 1.0), np.inf)
    drop = int(np.argmin(ratios))
    return drop, float(ratios[drop])


def reference_dual_active_set(H, g, C, e):
    """``nlp._dual_active_set`` with np.linalg.solve and numpy multipliers."""
    d = H.shape[0]
    n_rows = C.shape[0]
    if not all(np.isfinite(M).all() for M in (H, g, C, e)):
        return np.zeros(d), np.zeros(n_rows), [], "nonfinite"
    try:
        x = -np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        return np.zeros(d), np.zeros(n_rows), [], "singular"
    lam = np.zeros(n_rows)
    work: list = []
    lam_w: list = []

    for _ in range(4 * (n_rows + d) + 16):
        s = C @ x - e
        s[work] = 0.0
        p = int(np.argmax(s)) if n_rows else 0
        if n_rows == 0 or s[p] <= _QP_FEAS_TOL * (1.0 + abs(e[p])):
            polished = reference_equality_optimum(H, g, C, e, work) if work else None
            if polished is not None:
                return polished
            lam[work] = np.maximum(lam_w, 0.0)
            return x, lam, work, "optimal"

        normal = C[p]
        if np.abs(normal).max() == 0.0:
            return x, lam, work, "infeasible"
        h_normal = np.linalg.solve(H, normal)
        n_h_n = float(normal @ h_normal)
        lam_p = 0.0
        for _inner in range(n_rows + d + 8):
            k = len(work)
            if k:
                sol = reference_kkt_solve(H, C[work].T, -normal, np.zeros(k))
                if sol is None:
                    return x, lam, work, "max_iter"
                z, r = sol[0], -sol[1]
            else:
                z = -h_normal
                r = np.zeros(0)

            s_p = float(normal @ x - e[p])
            if k == d or (k and -float(normal @ z) <= _QP_DEPENDENT * n_h_n):
                drop, t = reference_blocking(lam_w, r)
                if drop < 0:
                    return x, lam, work, "infeasible"
                lam_w = [lw - t * rj for lw, rj in zip(lam_w, r)]
                lam_p += t
                work.pop(drop)
                lam_w.pop(drop)
                continue

            dsp = float(normal @ z)
            if dsp == 0.0:
                return x, lam, work, "infeasible"
            t_full = -s_p / dsp
            drop, t_part = reference_blocking(lam_w, r)
            t = min(t_full, t_part)
            x = x + t * z
            lam_w = [max(lw - t * rj, 0.0) for lw, rj in zip(lam_w, r)]
            lam_p += t
            if t_full <= t_part:
                work.append(p)
                lam_w.append(lam_p)
                break
            work.pop(drop)
            lam_w.pop(drop)
        else:
            return x, lam, work, "max_iter"

    return x, lam, work, "max_iter"


def reference_solve_qp(H, g, A, b, lower=None, upper=None, active=()):
    """``nlp.solve_qp`` on the reference dual method and equality solve."""
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    d = len(g)
    A = np.asarray(A, dtype=float).reshape(-1, d) if np.size(A) else np.zeros((0, d))
    b = np.asarray(b, dtype=float).reshape(-1) if np.size(b) else np.zeros(0)
    lower = np.full(d, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(d, np.inf) if upper is None else np.asarray(upper, dtype=float)

    C, e, lo_idx, up_idx = _stack_rows(A, b, lower, upper)
    hint = list(dict.fromkeys(active))
    hot = reference_equality_optimum(H, g, C, e, hint) if 0 < len(hint) <= d else None
    x, lam, work, status = hot or reference_dual_active_set(H, g, C, e)

    n_rows, n_lo = A.shape[0], len(lo_idx)
    lo_mult = np.zeros(d)
    up_mult = np.zeros(d)
    lo_mult[lo_idx] = lam[n_rows:n_rows + n_lo]
    up_mult[up_idx] = lam[n_rows + n_lo:]
    if status == "optimal" and len(e) > n_rows:
        x = np.clip(x, lower, upper)
    return QpResult(x, lam[:n_rows], lo_mult, up_mult, status, active=tuple(work))


def reference_damped_bfgs(B, s, y):
    """``nlp._damped_bfgs`` with ``np.outer`` for the rank-one terms."""
    Bs = B @ s
    sBs = float(s @ Bs)
    if sBs <= 1e-16:
        return B
    sy = float(s @ y)
    if sy < 0.2 * sBs:
        theta = 0.8 * sBs / (sBs - sy)
        y = theta * y + (1.0 - theta) * Bs
        sy = float(s @ y)
    if sy <= 1e-14:
        return B
    B = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
    return 0.5 * (B + B.T)


def family_of(g, n, x):
    """``lower_level.FamilyProblem`` of g(x, y), with n variables x, as
    the only family of a problem without index constraints, over the box
    [-1, 1]^m."""
    m = g.arity - n
    f = ScalarField(n, lambda x: 0.0, lambda x: np.zeros(n))
    problem = SipProblem(n=n, m=m, objective=f, si_constraints=(g,),
                         index_constraints=())
    return FamilyProblem(problem, 0, np.asarray(x, dtype=float),
                          np.array([[-1.0, 1.0]] * m))


def reference_restricted_batch(field, n, x, Y):
    """``family_of(field, n, x).values(Y)`` by np.tile and np.hstack."""
    X = np.tile(np.asarray(x, dtype=float), (Y.shape[0], 1))
    return field.value_batch(np.hstack([X, Y]))


# Reference copies of the two checks as they were before they shared work:
# the lower level's regularity flags with LICQ's singular values from their
# own SVD (no vectors), and the second-order check building the full
# Lagrangian Hessian before it factors the strongly active rows; the
# versions in src must match them bit for bit

def reference_null_space(A, d):
    """``nlp.null_space`` through ``np.linalg.svd``'s wrapper."""
    from sipsolve.nlp import _SOC_TOL
    if not len(A):
        return np.eye(d)
    _, s, vt = np.linalg.svd(A)
    return vt[int((s > _SOC_TOL * s[0]).sum()):].T


def reference_regularity(kkt_matrix, mu_a, kkt_point):
    """``lower_level._regularity`` with ``np.linalg.svd(va,
    compute_uv=False)`` for LICQ and ``reference_null_space`` for SOSC."""
    from sipsolve.lower_level import (_LICQ_SVD_CUTOFF, _SOSC_EIG_CUTOFF,
                                      _STRICT_COMP_TOL, RegularityFlags)
    m = len(kkt_matrix) - len(mu_a)
    va = kkt_matrix[m:, :m]
    licq = True
    if len(mu_a):
        svals = np.linalg.svd(va, compute_uv=False)
        licq = bool(len(mu_a) <= m and svals.min(initial=np.inf) >= _LICQ_SVD_CUTOFF)
    strict = bool((mu_a >= _STRICT_COMP_TOL).all())
    null_basis = reference_null_space(va[mu_a > _STRICT_COMP_TOL], m)
    projected = -(null_basis.T @ kkt_matrix[:m, :m] @ null_basis)
    if len(projected) > 1:
        sosc = bool(np.linalg.eigvalsh(projected)[0] >= _SOSC_EIG_CUTOFF)
    else:
        sosc = bool(not len(projected) or projected[0, 0] >= _SOSC_EIG_CUTOFF)
    return RegularityFlags(kkt_point, licq, strict, sosc)


def reference_negative_curvature(problem, sol):
    """``nlp.negative_curvature`` with the Hessian, the weak rows' norms and
    the threshold built before the strongly active null space."""
    import itertools

    from sipsolve.nlp import _SOC_TOL, eigh, eigvalsh
    z, d = sol.z, problem.dim
    cvals, jac = sol.constraint_values, sol.constraint_jacobian
    H = problem.objective.hessian(z) + problem.constraints.hessian(z, sol.multipliers)
    eye = np.eye(d)
    values = np.concatenate([cvals, problem.lower - z, z - problem.upper])
    normals = np.vstack([jac, -eye, eye])
    mults = np.concatenate([sol.multipliers, sol.lower_multipliers,
                            sol.upper_multipliers])
    active = values >= -_SOC_TOL
    weakly = mults <= _SOC_TOL * (1.0 + mults.max(initial=0.0))
    strong, weak = normals[active & ~weakly], normals[active & weakly]
    inside = _SOC_TOL * np.linalg.norm(weak, axis=1)
    threshold = -_SOC_TOL * max(1.0, float(np.abs(H).max()))
    Z = reference_null_space(strong, d)
    with np.errstate(all="ignore"):
        if not Z.shape[1] or not eigvalsh(Z.T @ H @ Z)[0] < threshold:
            return None
        best = None
        for size in range(min(len(weak), Z.shape[1]) + 1):
            for face in itertools.combinations(range(len(weak)), size):
                Zf = reference_null_space(np.vstack([strong, weak[list(face)]]), d)
                if not Zf.shape[1]:
                    continue
                eigvals, eigvecs = eigh(Zf.T @ H @ Zf)
                for curvature, v in zip(eigvals, eigvecs.T):
                    if not curvature < threshold:
                        break
                    u = Zf @ v
                    for direction in (u, -u):
                        if (weak @ direction <= inside).all():
                            if best is None or curvature < best[1]:
                                best = (direction, float(curvature))
                            break
    return best
