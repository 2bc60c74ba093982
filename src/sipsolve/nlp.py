"""Dense SQP solver for small smooth nonlinear programs.

Solves  min f(z)  s.t.  c_j(z) <= 0,  lo <= z <= hi.
The constraints are one :class:`Rows` object, evaluated block by block
(values and Jacobian together) once per line-search trial point.

The QP subproblems are handled by a dual active-set method (start at the
unconstrained minimum, add the most violated constraint, take mixed
primal/dual steps, drop blocking constraints) which needs nothing beyond
dense linear solves and detects infeasible subproblems exactly.  Each SQP
step hot-starts its QP from the previous step's working set: one KKT solve
on those rows, kept when its multipliers are nonnegative and every row
holds, which makes it the optimum; otherwise the dual method runs from the
start, and the same check of one KKT solve on its final working set
refines its result.  The outer loop is damped-BFGS SQP with an l1 merit
line search; infeasible QPs fall back to an elastic reformulation with a
penalized slack.  A solution carries the rows' values and Jacobian at its
point, the ones the SQP already evaluated there.  ``negative_curvature``
tests the second-order necessary condition at a KKT point, with the exact
Lagrangian Hessian on the critical cone and the solution's rows; it
factors the strongly active rows first and, when they leave no free
direction, ends without the rows' Hessians.

Every dense solve of the QP, and the Newton steps of the lower level's KKT
polish, go through ``solve_linear``: the LAPACK ``gesv`` gufunc that
``np.linalg.solve`` runs, called without that wrapper's argument checks and
per-call error state, so with the same bits.  At size 10 or less the
wrapper costs about three times the solve (numpy 2.4: 11 us a call against
3 us for the gufunc).  Each QP and each polish sets the error state once.
The dual method writes the KKT matrices of its steps into one buffer per
call, a row at a time as its working set changes, and solves their leading
blocks; its final KKT solve on the working set reads the same buffer, and
only the hot start builds a matrix of its own (``_kkt_matrix``).  It reads
the row tolerances, right-hand sides and zero-row test as Python values
once per QP.  ``norm`` is ``np.linalg.norm``'s own formula sqrt(v.v) for a
contiguous vector, so with its bits, at 0.5 us a call against 1.3 (size 5,
numpy 2.4); the SQP, the lower level, the drivers and the diagnostics take
the norms of the vectors they compute through it.

The SQP step's reset test and ``negative_curvature`` take eigenvalues the
same way: ``eigvalsh`` and ``eigh`` are the LAPACK ``syevd`` gufuncs
(``eigvalsh_lo``, ``eigh_lo``) that ``np.linalg.eigvalsh`` and ``eigh``
run, same bits, 0.9 and 1.2 us a call against 4.3 and 5.3 for the
wrappers (size 1, numpy 2.4, 2-vCPU x86-64 Xeon), plus 1.2 us for the
error state their callers set.  Where LAPACK does not converge (an all-nan
matrix of size 3 or more) a wrapper raises ``LinAlgError`` and the gufunc
returns nan: the SQP then resets its matrix to the identity, and
``negative_curvature`` finds no direction.  ``svd`` does the same for
``np.linalg.svd`` (``svd_null_space``, and the lower level's LICQ test):
the LAPACK ``gesdd`` gufuncs ``svd_f`` and ``svd`` where numpy 2 has them,
same bits, 2.9 against 8.3 us a call for 1-3 rows; numpy 1.x names them
otherwise, and there the wrapper runs, its ``LinAlgError`` turned into
nan.  A QP's rows are stacked with one ``np.concatenate`` and its step
clipped to the bounds with the array's own ``clip``, the call ``np.clip``
forwards to.

Everything is deterministic: no randomness, fixed tie-breaking by lowest
constraint index.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .model import ScalarField

Array = np.ndarray

TOL_KKT = 1e-9          # converged: Lagrangian gradient norm ...
TOL_FEAS = 1e-9         # ... constraint violation ...
TOL_COMP = 1e-9         # ... and complementarity at most these
ELASTIC_RHO = 1e4       # initial slack penalty of the elastic QP
LS_MAX = 50             # step halvings per line search

_QP_FEAS_TOL = 1e-11
_QP_DEPENDENT = 1e-10   # a new row depends on the working set when the part
                        # of its normal off the set's span keeps at most this
                        # share of the normal's squared H^-1 norm
_SOC_TOL = 1e-8         # second-order check, scale-relative: a row or bound
                        # is active when c >= -_SOC_TOL, weakly so when its
                        # multiplier is <= _SOC_TOL * (1 + the largest), and
                        # curvature is negative below -_SOC_TOL * max(1, max|H|)


class Rows:
    """Constraint rows c(z) <= 0 in blocks: ``rows(z)`` returns the values of
    all rows and their Jacobian, ``rows.hessian(z, w)`` the weighted sum
    ``sum_j w_j * Hessian of c_j`` at z, and ``len(rows)`` counts the rows.
    A block is ``(size, evaluate, hessian)``: ``evaluate(z)`` gives its
    ``size`` values and gradient rows, ``hessian(z, w)`` its share of the
    weighted sum for its ``size`` weights."""

    def __init__(self, *blocks):
        self.blocks = blocks
        self.size = sum(size for size, _, _ in blocks)

    def __len__(self) -> int:
        return self.size

    def __call__(self, z):
        values, jac = np.empty(self.size), np.empty((self.size, len(z)))
        start = 0
        for size, evaluate, _ in self.blocks:
            values[start:start + size], jac[start:start + size] = evaluate(z)
            start += size
        return values, jac

    def hessian(self, z, weights) -> Array:
        total = np.zeros((len(z), len(z)))
        start = 0
        for size, _, hessian in self.blocks:
            total += hessian(z, weights[start:start + size])
            start += size
        return total


def field_rows(fields) -> Rows:
    """One one-row block per scalar field."""
    return Rows(*((1, lambda z, f=f: ([f.value(z)], [f.gradient(z)]),
                   lambda z, w, f=f: w[0] * f.hessian(z))
                  for f in fields))


@dataclass(frozen=True)
class NlpProblem:
    """min objective(z) s.t. constraints(z) <= 0 and lower <= z <= upper."""

    dim: int
    objective: ScalarField
    constraints: Rows = Rows()
    lower: Optional[Array] = None
    upper: Optional[Array] = None

    def __post_init__(self):
        lo = self.lower if self.lower is not None else np.full(self.dim, -np.inf)
        hi = self.upper if self.upper is not None else np.full(self.dim, np.inf)
        object.__setattr__(self, "lower", np.asarray(lo, dtype=float).reshape(self.dim))
        object.__setattr__(self, "upper", np.asarray(hi, dtype=float).reshape(self.dim))


@dataclass
class NlpSolution:
    z: Array
    multipliers: Array          # one per inequality constraint, >= 0
    lower_multipliers: Array    # active lower-bound duals, >= 0
    upper_multipliers: Array
    kkt_residual: float
    max_violation: float
    status: str                 # 'converged' | 'max_iter' | 'qp_failure'
    iterations: int
    objective_value: float
    constraint_values: Array    # the constraint rows at z ...
    constraint_jacobian: Array  # ... and their Jacobian there

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass
class QpResult:
    step: Array
    multipliers: Array          # duals of the A-rows
    lower_multipliers: Array
    upper_multipliers: Array
    status: str     # 'optimal' | 'infeasible' | 'max_iter' | 'nonfinite' | 'singular'
    active: tuple = ()          # working set at return, stacked-row indices


# ---------------------------------------------------------------------------
# QP: dual active-set method for strictly convex problems
# ---------------------------------------------------------------------------

def solve_linear(a: Array, b: Array) -> Optional[Array]:
    """x with a x = b, for a square float matrix a and a float vector b;
    None when a is singular or x is not finite (an inf in a can still give
    a finite x, as in ``np.linalg.solve``).  The same LAPACK ``gesv`` as
    ``np.linalg.solve``, so the same bits.  Call it under
    ``np.errstate(all="ignore")``: a singular a sets numpy's invalid flag,
    which ``np.linalg.solve`` turns into ``LinAlgError``."""
    x = _umath_linalg.solve1(a, b, signature="dd->d")
    # x.x is finite when x is, unless the square overflows
    return x if math.isfinite(x.dot(x)) or np.isfinite(x).all() else None


def eigvalsh(a: Array) -> Array:
    """``np.linalg.eigvalsh(a)`` of a symmetric float matrix: the LAPACK
    ``syevd`` gufunc it runs, so the same bits, but nan where that wrapper
    raises ``LinAlgError`` (no convergence).  Call it under
    ``np.errstate(all="ignore")``: that failure sets numpy's invalid flag."""
    return _umath_linalg.eigvalsh_lo(a, signature="d->d")


def eigh(a: Array) -> tuple:
    """``np.linalg.eigh(a)`` as ``(eigenvalues, eigenvectors)``, on the
    terms of ``eigvalsh``."""
    return _umath_linalg.eigh_lo(a, signature="d->dd")


# numpy 2's SVD gufuncs, full matrices (LAPACK job 'A') and values only
# (job 'N'); numpy 1.x names its own by the matrix's shape
_SVD_F = getattr(_umath_linalg, "svd_f", None)
_SVD_N = getattr(_umath_linalg, "svd", None)


def svd(a: Array, compute_uv: bool = True):
    """``np.linalg.svd(a, compute_uv=compute_uv)`` of a float matrix:
    ``(u, s, vt)``, full matrices, or ``s``.  The LAPACK gufunc that wrapper
    runs, so the same bits, but nan where it raises ``LinAlgError`` (no
    convergence, as for an all-nan matrix).  Call it under
    ``np.errstate(all="ignore")``: that failure sets numpy's invalid flag."""
    if _SVD_F is not None:
        return (_SVD_F(a, signature="d->ddd") if compute_uv
                else _SVD_N(a, signature="d->d"))
    try:
        return np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        rows, cols = a.shape
        s = np.full(min(rows, cols), np.nan)
        return ((np.full((rows, rows), np.nan), s, np.full((cols, cols), np.nan))
                if compute_uv else s)


def norm(v: Array) -> float:
    """``np.linalg.norm(v)`` of a contiguous float vector, by numpy's own
    formula sqrt(v.v), as a Python float."""
    return math.sqrt(v.dot(v))


def _kkt_matrix(H: Array, N: Array) -> Array:
    """The KKT matrix [[H, N'], [N, 0]] of the equality QP on the rows N."""
    d, k = H.shape[0], len(N)
    kkt = np.zeros((d + k, d + k))
    kkt[:d, :d] = H
    kkt[:d, d:] = N.T
    kkt[d:, :d] = N
    return kkt


def _equality_optimum(kkt: Array, g: Array, C: Array, e: Array, tol: Array,
                      work: list):
    """Solve the equality QP on the rows ``work``, its KKT system ``kkt``
    [x; lam] = [-g; e_work] with ``kkt`` = [[H, N'], [N, 0]], N = C[work]
    (``_kkt_matrix``), and return it as the QP's optimum (x, lam, work,
    'optimal'); None when a multiplier is negative, a row is violated by
    more than its ``tol``, or the KKT matrix is singular.  H is positive
    definite, so a point that passes is the unique optimum."""
    d = len(g)
    sol = solve_linear(kkt, np.concatenate([-g, e[work]]))
    if sol is None:
        return None
    x, lam_w = sol[:d], sol[d:]
    if not ((lam_w >= 0.0).all() and (C @ x - e <= tol).all()):
        return None
    lam = np.zeros(len(e))
    lam[work] = lam_w
    return x, lam, work, "optimal"


def _blocking(lam_w: list, r: list) -> tuple:
    """The working-set row whose multiplier ``lam_w - t r`` reaches zero
    first as t grows, and that t: ``(-1, inf)`` when no ``r`` is positive.
    The row is np.argmin's over the ratios, inf where r is not positive:
    ties go to the lowest index, the first nan wins, and all inf is row 0."""
    drop, t, positive = -1, math.inf, False
    for j, (lw, rj) in enumerate(zip(lam_w, r)):
        if rj > 1e-12:
            positive = True
            ratio = lw / rj
            if ratio != ratio:
                return j, ratio
            if ratio < t:
                drop, t = j, ratio
    return (0, t) if positive and drop < 0 else (drop, t)


def _drop_row(kkt: Array, d: int, j: int, k: int) -> None:
    """Remove working-set row j from the leading d + k block of a KKT
    matrix: the later rows and columns move up by one."""
    kkt[d + j:d + k - 1, :d] = kkt[d + j + 1:d + k, :d]
    kkt[:d, d + j:d + k - 1] = kkt[:d, d + j + 1:d + k]


def _dual_active_set(H: Array, g: Array, C: Array, e: Array, tol: Array):
    """min 1/2 x'Hx + g'x  s.t.  C x <= e  with H positive definite; row j
    holds when violated by at most ``tol[j]``.

    Returns (x, lam, work, status), ``work`` the working set at return.
    Ties in the most-violated selection and in the dual blocking test are
    broken toward the lowest row index.
    """
    d = H.shape[0]
    n_rows = C.shape[0]
    if not all(np.isfinite(M).all() for M in (H, g, C, e)):
        return np.zeros(d), np.zeros(n_rows), [], "nonfinite"
    x = solve_linear(H, g)
    if x is None:
        return np.zeros(d), np.zeros(n_rows), [], "singular"
    x = -x
    lam = np.zeros(n_rows)
    work: list = []     # active row indices, in order of addition
    lam_w: list = []
    # the KKT system of a step: [[H, N'], [N, 0]] with the working set's
    # rows N, in order, in the leading d + len(work) block, and [-normal; 0]
    kkt = np.zeros((2 * d, 2 * d))
    kkt[:d, :d] = H
    rhs = np.zeros(2 * d)
    tol_list, e_list, nonzero = tol.tolist(), e.tolist(), C.any(axis=1).tolist()

    for _ in range(4 * (n_rows + d) + 16):
        s = C @ x - e
        for j in work:
            s[j] = 0.0
        p = int(s.argmax()) if n_rows else 0
        if n_rows == 0 or s[p] <= tol_list[p]:
            # a dual step on a nearly dependent row keeps stationarity only
            # up to the row's distance from the span; one KKT solve on the
            # final working set (the buffer's leading block) restores it
            k = len(work)
            polished = (_equality_optimum(kkt[:d + k, :d + k], g, C, e, tol,
                                          work) if k else None)
            if polished is not None:
                return polished
            lam[work] = np.maximum(lam_w, 0.0)
            return x, lam, work, "optimal"

        if not nonzero[p]:
            return x, lam, work, "infeasible"   # 0'x <= e_p with e_p < 0
        normal = C[p]
        h_normal = solve_linear(H, normal)
        if h_normal is None:    # H solved above: the solution overflowed
            return x, lam, work, "singular"
        n_h_n = float(normal @ h_normal)
        rhs[:d] = -normal
        lam_p = 0.0
        for _inner in range(n_rows + d + 8):
            k = len(work)
            if k:
                sol = solve_linear(kkt[:d + k, :d + k], rhs[:d + k])
                if sol is None:
                    return x, lam, work, "max_iter"
                z, r = sol[:d], [-v for v in sol[d:].tolist()]
            else:
                z = -h_normal
                r = []

            dsp = float(normal @ z)
            if k == d or (k and -dsp <= _QP_DEPENDENT * n_h_n):
                # the normal lies in the span of the working set (a full
                # set spans everything, an empty one nothing): take a pure
                # dual step that drops a row
                drop, t = _blocking(lam_w, r)
                if drop < 0:
                    return x, lam, work, "infeasible"
                lam_w = [lw - t * rj for lw, rj in zip(lam_w, r)]
                lam_p += t
                work.pop(drop)
                lam_w.pop(drop)
                _drop_row(kkt, d, drop, k)
                continue

            # dsp < 0 by the test above, unless n_h_n underflows to 0
            if dsp == 0.0:
                return x, lam, work, "infeasible"
            t_full = -(float(normal @ x) - e_list[p]) / dsp
            drop, t_part = _blocking(lam_w, r)
            if drop < 0 and t_full != t_full:
                # x has overflowed: no step length and no row to drop
                return x, lam, work, "max_iter"
            t = min(t_full, t_part)
            x = x + t * z
            lam_w = [max(lw - t * rj, 0.0) for lw, rj in zip(lam_w, r)]
            lam_p += t
            if t_full <= t_part:
                kkt[d + k, :d] = kkt[:d, d + k] = normal
                work.append(p)
                lam_w.append(lam_p)
                break
            work.pop(drop)
            lam_w.pop(drop)
            _drop_row(kkt, d, drop, k)
        else:
            return x, lam, work, "max_iter"

    return x, lam, work, "max_iter"


@functools.lru_cache(maxsize=256)
def _bound_rows(lo_finite: bytes, up_finite: bytes):
    """The rows -e_i of the finite lower bounds, then +e_i of the finite
    upper ones, and both index arrays; keyed by the finiteness masks as
    bytes, built once per pattern and read-only."""
    eye = np.eye(len(lo_finite))
    lo_idx = np.flatnonzero(np.frombuffer(lo_finite, dtype=bool))
    up_idx = np.flatnonzero(np.frombuffer(up_finite, dtype=bool))
    rows = np.vstack([-eye[lo_idx], eye[up_idx]])
    for array in (rows, lo_idx, up_idx):
        array.flags.writeable = False
    return rows, lo_idx, up_idx


def _stack_rows(A: Array, b: Array, lower: Array, upper: Array):
    """Rows of A first, then finite lower bounds (-e_i), then upper (+e_i)."""
    rows, lo_idx, up_idx = _bound_rows(np.isfinite(lower).tobytes(),
                                       np.isfinite(upper).tobytes())
    C = np.concatenate([A, rows])
    e = np.concatenate([b, -lower[lo_idx], upper[up_idx]])
    return C, e, lo_idx, up_idx


def solve_qp(H: Array, g: Array, A: Array, b: Array,
             lower: Optional[Array] = None, upper: Optional[Array] = None,
             active=()) -> QpResult:
    """min 1/2 d'Hd + g'd  s.t.  A d <= b,  lower <= d <= upper.

    ``H`` must be symmetric positive definite.  Returns the step, duals of
    the A-rows and the bound rows, the working set at the solution, and a
    status of 'optimal', 'infeasible' (inconsistent constraints),
    'max_iter', 'nonfinite' (the dual method was given inf or nan data; the
    step and duals are then zero) or 'singular' (H is singular to working
    precision, or a solve with it overflows).  Rows are indexed as
    stacked: the A-rows, then the finite lower bounds, then the finite
    upper bounds.
    ``active`` is a hint in that indexing, usually the previous QP's
    ``active``: the equality QP on those rows is solved first and kept if
    it is the optimum; otherwise the dual active-set method starts from
    the unconstrained minimum.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    d = len(g)
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float).reshape(-1)
    A = A.reshape(-1, d) if A.size else np.zeros((0, d))
    lower = np.full(d, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(d, np.inf) if upper is None else np.asarray(upper, dtype=float)

    C, e, lo_idx, up_idx = _stack_rows(A, b, lower, upper)
    tol = _QP_FEAS_TOL * (1.0 + np.abs(e))
    hint = list(dict.fromkeys(active))
    with np.errstate(all="ignore"):     # for solve_linear
        hot = (_equality_optimum(_kkt_matrix(H, C[hint]), g, C, e, tol, hint)
               if 0 < len(hint) <= d else None)
        x, lam, work, status = hot or _dual_active_set(H, g, C, e, tol)

    n_rows, n_lo = A.shape[0], len(lo_idx)
    lo_mult = np.zeros(d)
    up_mult = np.zeros(d)
    lo_mult[lo_idx] = lam[n_rows:n_rows + n_lo]
    up_mult[up_idx] = lam[n_rows + n_lo:]
    if status == "optimal" and len(e) > n_rows:
        x = x.clip(lower, upper)        # remove <=1e-11 roundoff drift
    return QpResult(x, lam[:n_rows], lo_mult, up_mult, status, active=tuple(work))


def _solve_qp_elastic(H, g, A, b, lower, upper, rho: float) -> QpResult:
    """Relax A d <= b + s with one penalized slack s >= 0; always feasible."""
    d = len(g)
    n_rows = A.shape[0]
    scale = max(1.0, float(np.trace(H)) / max(d, 1))
    H_ext = np.zeros((d + 1, d + 1))
    H_ext[:d, :d] = H
    H_ext[d, d] = 1e-8 * scale
    g_ext = np.concatenate([g, [rho]])
    A_ext = np.hstack([A, -np.ones((n_rows, 1))]) if n_rows else np.zeros((0, d + 1))
    lo_ext = np.concatenate([lower, [0.0]])
    hi_ext = np.concatenate([upper, [np.inf]])
    res = solve_qp(H_ext, g_ext, A_ext, b, lo_ext, hi_ext)
    # no working set: the slack's rows are laid out differently, so it is no
    # hint for the next QP
    return QpResult(res.step[:d], res.multipliers,
                    res.lower_multipliers[:d], res.upper_multipliers[:d],
                    res.status)


# ---------------------------------------------------------------------------
# SQP outer loop
# ---------------------------------------------------------------------------

def _damped_bfgs(B: Array, s: Array, y: Array) -> Array:
    """Powell-damped BFGS update; keeps B positive definite."""
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
    B = B - Bs[:, None] * Bs / sBs + y[:, None] * y / sy
    return 0.5 * (B + B.T)


def _state(*parts) -> list:
    """The bytes of each part of an SQP state: equal lists, equal bits."""
    return [np.asarray(part).tobytes() for part in parts]


def _rank(viol: float, fval: float) -> tuple:
    """Best-iterate key: feasible points (within TOL_FEAS) by objective, the
    others by violation after them."""
    return (0, fval) if viol <= TOL_FEAS else (1, viol, fval)


def solve_nlp(problem: NlpProblem, z0, max_iter: int = 200) -> NlpSolution:
    """Damped-BFGS SQP with an l1 merit line search.

    Returns status 'converged' when the KKT residual, feasibility, and
    complementarity all meet their tolerances; 'max_iter' with the best
    iterate otherwise; 'qp_failure' if even the elastic QP cannot be
    solved, or a QP's data are not finite or its Hessian singular.  A
    Hessian approximation whose smallest eigenvalue falls to 1e-12 of its
    largest is reset to the identity.
    """
    d = problem.dim
    lo, hi = problem.lower, problem.upper
    z = np.clip(np.asarray(z0, dtype=float).reshape(d), lo, hi)

    B = np.eye(d)
    sigma = 1.0
    rho = ELASTIC_RHO
    fgrad = problem.objective.gradient(z)
    fval = problem.objective.value(z)
    cvals, jac = problem.constraints(z)
    best = None
    ls_failures = 0
    iterations = 0
    active: tuple = ()      # the previous QP's working set, the next one's hint

    def snapshot(status, qp):
        """The solution at z with the duals of ``qp``, or with zero duals
        and an infinite KKT residual when ``qp`` failed."""
        if qp.status == "optimal":
            lam, lo_mult, up_mult = (qp.multipliers, qp.lower_multipliers,
                                     qp.upper_multipliers)
            kkt = norm(fgrad + jac.T @ lam - lo_mult + up_mult)
        else:
            lam, lo_mult, up_mult, kkt = (np.zeros(len(problem.constraints)),
                                          np.zeros(d), np.zeros(d), np.inf)
        return NlpSolution(z.copy(), lam.copy(), lo_mult.copy(), up_mult.copy(),
                           float(kkt), float(max(0.0, cvals.max(initial=0.0))),
                           status, iterations, float(fval), cvals.copy(),
                           jac.copy())

    for iterations in range(1, max_iter + 1):
        # z and B are rebound, never written: the state's bytes can wait
        # for the test at the end of the step
        state, best_before = (z, B, sigma, rho, active, ls_failures), best
        qp = solve_qp(B, fgrad, jac, -cvals, lo - z, hi - z, active)
        if qp.status == "infeasible":
            qp = _solve_qp_elastic(B, fgrad, jac, -cvals, lo - z, hi - z, rho)
            rho *= 2.0
        if qp.status != "optimal":
            return snapshot("qp_failure", qp)
        active = qp.active

        lam = qp.multipliers
        kkt = norm(fgrad + jac.T @ lam - qp.lower_multipliers + qp.upper_multipliers)
        viol = max(0.0, cvals.max(initial=0.0))
        comp = np.abs(lam * cvals).max(initial=0.0)
        if kkt <= TOL_KKT and viol <= TOL_FEAS and comp <= TOL_COMP:
            return snapshot("converged", qp)

        key = _rank(viol, fval)
        if best is None or key < best[0]:
            best = (key, z.copy(), fval, fgrad, cvals, jac)

        step = qp.step
        accepted = False
        # a tiny step restarts like a failed line search
        if not norm(step) <= 1e-13 * (1.0 + norm(z)):
            sigma = max(sigma, 1.1 * lam.max(initial=0.0) + 1e-4)
            viol_l1 = np.maximum(cvals, 0.0).sum()
            lin_after = np.maximum(cvals + jac @ step, 0.0).sum()
            merit0 = fval + sigma * viol_l1
            descent = float(fgrad @ step) - sigma * (viol_l1 - lin_after)
            if descent > -1e-14:
                descent = -1e-14

            alpha = 1.0
            for _ in range(LS_MAX):
                z_new = (z + alpha * step).clip(lo, hi)
                f_new = problem.objective.value(z_new)
                # a trial point with non-finite values, or where a row's
                # derivative is undefined, is a rejected step
                try:
                    c_new, jac_new = problem.constraints(z_new)
                except ArithmeticError:
                    alpha *= 0.5
                    continue
                merit_new = f_new + sigma * np.maximum(c_new, 0.0).sum()
                if math.isfinite(merit_new) \
                        and merit_new <= merit0 + 1e-4 * alpha * descent:
                    accepted = True
                    break
                alpha *= 0.5
        if not accepted:
            ls_failures += 1
            if ls_failures >= 2:
                break
            B = np.eye(d)
            continue
        ls_failures = 0

        grad_old = fgrad + jac.T @ lam
        fgrad_new = problem.objective.gradient(z_new)
        grad_new = fgrad_new + jac_new.T @ lam
        s = z_new - z
        B = _damped_bfgs(B, s, grad_new - grad_old)

        z = z_new
        fval, fgrad = f_new, fgrad_new
        cvals, jac = c_new, jac_new
        # The damped update is positive definite in exact arithmetic, but
        # rounding can leave it singular to working precision or worse
        # (steep curvature along one direction, or unbounded curvature near
        # a log or 1/x singularity).  Restart from the identity, as after a
        # failed line search; also when LAPACK does not converge (nan).
        with np.errstate(all="ignore"):     # for eigvalsh
            eigs = eigvalsh(B)
        if not eigs[0] > 1e-12 * eigs[-1]:
            B = np.eye(d)
        # z plus the accepted step rounded to z and nothing else moved (the
        # values are functions of z): each later step would repeat this one
        if best is best_before and _state(*state) == _state(
                z, B, sigma, rho, active, ls_failures):
            iterations = max_iter
            break

    # not converged: report honest residuals at the best iterate found
    if best is not None and tuple(best[1]) != tuple(z):
        if best[0] < _rank(max(0.0, cvals.max(initial=0.0)), fval):
            _, z, fval, fgrad, cvals, jac = best
    qp = solve_qp(B, fgrad, jac, -cvals, lo - z, hi - z)
    if qp.status != "optimal":
        qp = _solve_qp_elastic(B, fgrad, jac, -cvals, lo - z, hi - z, rho)
    return snapshot("max_iter", qp)


# ---------------------------------------------------------------------------
# Second-order check at a KKT point
# ---------------------------------------------------------------------------

def svd_null_space(A: Array, d: int) -> tuple:
    """A's singular values, largest first, and orthonormal columns spanning
    {u : A u = 0}, from one full ``svd``; singular values at most _SOC_TOL
    of the largest count as zero.  Call it under ``np.errstate(all=
    "ignore")``; a nan A gives nan values and nan columns."""
    if not len(A):
        return np.zeros(0), np.eye(d)
    _, s, vt = svd(A)
    return s, vt[int((s > _SOC_TOL * s[0]).sum()):].T


def null_space(A: Array, d: int) -> Array:
    """Orthonormal columns spanning {u : A u = 0} (``svd_null_space``)."""
    return svd_null_space(A, d)[1]


def negative_curvature(problem: NlpProblem, sol: NlpSolution):
    """A unit direction of negative curvature of the Lagrangian on the
    critical cone at the KKT point ``sol``, as ``(direction, curvature)``;
    None when the second-order necessary condition holds there.

    The Lagrangian Hessian is the objective's plus ``constraints.hessian``
    weighted by the multipliers.  Active rows and bounds with a positive
    multiplier are equalities on the cone; weakly active ones (multiplier
    about zero) may move only to their feasible side.  On each face of the
    cone (some weakly active constraints held at zero) the eigenvectors of
    the reduced Hessian Z'HZ with negative eigenvalues are candidates, and
    +-v is accepted when it stays inside the cone.  The most negative
    curvature over the cone lies in the relative interior of some face and
    is an eigenvector there, so the test is exact.  Faces are spanned by
    at most as many weakly active constraints as the strongly active ones
    leave free dimensions, which bounds the enumeration.

    The strongly active rows are factored before anything else is built:
    when they leave no free direction the cone is {0} and the check ends
    there, without the rows' Hessians (``constraints.hessian`` evaluates
    one per weighted point).  The objective's Hessian is evaluated first
    all the same, so a field without one fails at every converged master.
    """
    z, d = sol.z, problem.dim
    cvals, jac = sol.constraint_values, sol.constraint_jacobian
    H = problem.objective.hessian(z)
    eye = np.eye(d)
    values = np.concatenate([cvals, problem.lower - z, z - problem.upper])
    normals = np.vstack([jac, -eye, eye])
    mults = np.concatenate([sol.multipliers, sol.lower_multipliers,
                            sol.upper_multipliers])
    active = values >= -_SOC_TOL
    weakly = mults <= _SOC_TOL * (1.0 + mults.max(initial=0.0))
    strong = normals[active & ~weakly]
    with np.errstate(all="ignore"):     # for svd
        Z = null_space(strong, d)
    if not Z.shape[1]:
        return None
    H = H + problem.constraints.hessian(z, sol.multipliers)
    weak = normals[active & weakly]
    inside = _SOC_TOL * np.linalg.norm(weak, axis=1)
    threshold = -_SOC_TOL * max(1.0, float(np.abs(H).max()))

    with np.errstate(all="ignore"):     # for svd, eigvalsh and eigh
        # a face is a subspace of the strongly active null space: without
        # negative curvature there, no face has any
        if not eigvalsh(Z.T @ H @ Z)[0] < threshold:
            return None
        best = None
        for size in range(min(len(weak), Z.shape[1]) + 1):
            for face in itertools.combinations(range(len(weak)), size):
                Zf = null_space(np.vstack([strong, weak[list(face)]]), d)
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
