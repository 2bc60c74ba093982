"""Global solution of the lower-level problems max_y g_i(x, y) over Y.

Y = {y in box : v(y) <= 0}.  ``FamilyProblem`` poses family i's problem at
x, the local runs' NLP over exactly the grid's box included, and evaluates
g_i(x, .) with one call of g_i; every path reads Y's one membership and
active-set rule, ``index_set_rule``.

Strategy: evaluate g_i on a uniform grid over the box, refine the best
nodes in Y with the local SQP solver, then polish each local solution with
Newton steps on the active-set KKT system (exact second derivatives are
available, so the polished point carries KKT residuals near machine
precision -- the sensitivity computations downstream need that); its
stationarity residual and multiplier signs are measured relative to the
scale of the tie tolerance (below), and the polished point must be in Y.
A local solution whose polish fails is kept unpolished, with the
multipliers of its inactive constraints zeroed, and is a KKT point only if
it passes the polish's residual test (a maximizer on a face of the box
does not: the box has no multipliers).  Each candidate maximizer is one
record (``_candidate``): value, point, multipliers, active set, the
``kkt_jacobian`` matrix at the point and the regularity flags that
``_regularity`` reads off that matrix.  The KKT system is built only by
``kkt_residual`` and ``kkt_jacobian``: once per Newton step of the polish,
and once per record.  The solution is the winning record;
``compute_sensitivity`` reads its matrix.

Continuation: at a regular maximizer the solution map y*(x) is smooth, so
the maximizer of the previous iterate is a few Newton steps from the new
one.  Given the family's solution at an earlier x, the solver first
polishes from its point, active set and multipliers at the new x
(``_followed``) and keeps the record as a maximizer already found when the
polish converges, the constraints active at the new point are the same
set, and the record passes the SOSC test; every start is then checked
against it like against any other maximizer (the local reduction view of
SIP, Hettich & Kortanek, SIAM Review 35, 1993).

One local run per basin: a start is skipped when the straight segment from
it to a maximizer already found, sampled one grid step apart, stays in Y
and never lets g_i fall by more than the tie tolerance -- the local run
would climb to that maximizer again (the second rule of
multi-level single linkage, Rinnooy Kan & Timmer, Math. Programming 39,
1987).  The tie tolerance is ``TIE_TOL`` times min(1, spread of the finite
grid values of g_i(x, .)): relative for a family that varies by less than
1, so the lower level does not depend on the scale of g_i there.  Each new
maximizer is checked against all remaining starts at once: their segments
are built in one vectorized pass and evaluated in one ``value_batch`` per
field.  The starts are the ``N_STARTS`` best grid nodes in Y, best first
and ties in grid order; ``np.partition`` cuts the grid values at the
``N_STARTS``-th best and only the nodes above the cut are sorted.  Distinct
nodes are at least one grid step apart.  The best start runs unless the
followed maximum is at least its grid value; either way the returned value
still dominates the grid.

The box is ``model.index_set_box``: ``y_bounds`` when declared, else read
off interval-bound index constraints; without either, the first solve
raises ``LowerLevelError``.  The box and the grid nodes in Y depend on the
problem only (``index_grid``); the drivers build them once per run.  At each
x, ``solve_all_lower_levels`` fills one array of the points (x, y), y the
grid nodes, and every family reads its grid values off it with one
``value_batch`` of g_i.

Deterministic by construction: fixed grid order, ties broken toward the
lexicographically smallest maximizer.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from .model import ScalarField, SipProblem, index_set_box
from .nlp import (NlpProblem, field_rows, norm, null_space, solve_linear,
                  solve_nlp)

Array = np.ndarray

GRID_PER_DIM = 64           # grid nodes per index dimension
N_STARTS = 8                # best grid nodes tried as local SQP starts
LOCAL_MAX_ITER = 60         # SQP iteration cap of one local run
TOL_FEAS = 1e-9             # a point is in Y to this (index_set_rule)
TOL_ACT = 1e-7              # index constraint counted active above -TOL_ACT
TIE_TOL = 1e-9              # tie tolerance relative to min(1, grid spread)

_LICQ_SVD_CUTOFF = 1e-8
_SOSC_EIG_CUTOFF = 1e-8
_STRICT_COMP_TOL = 1e-6


class LowerLevelError(RuntimeError):
    """The lower-level problem could not be solved (e.g. empty index set)."""


@dataclass(frozen=True)
class RegularityFlags:
    kkt_point: bool     # the point solves its active-set KKT system
    licq: bool
    strict_complementarity: bool
    sosc: bool

    @property
    def all_ok(self) -> bool:
        return all(vars(self).values())


@dataclass
class LowerLevelSolution:
    """A KKT point of g_i(x, .) over the index set, with its KKT data; the
    solver returns the record of the global maximizer."""

    index: int
    x: Array
    y: Array
    multipliers: Array
    value: float
    active_set: tuple
    kkt_matrix: Array           # kkt_jacobian at (x, y), the matrix itself ...
    d2_yx: Array                # ... and its D2_yx g_i block
    regularity: RegularityFlags
    # set on the returned record: [(y, value)] of the distinct local
    # solutions, and whether distinct maxima tie in value
    local_maxima: list = field(default_factory=list)
    multiple_global: bool = False


@dataclass(frozen=True)
class IndexGrid:
    """The lower-level grid of one problem: its box, the nodes in Y in grid
    order, and the node spacing per axis."""

    box: Array
    nodes: Array
    step: Array


def index_set_rule(vs, box: Array, y: Array):
    """Y's rule at a point y, or at each row of an (N, m) array y: ``(in Y,
    active)``.  In Y: every v_l and every bound of ``box`` holds to
    ``TOL_FEAS`` (nan does not); v_l active where v_l >= -``TOL_ACT``.  A
    point goes through ``value``, an array through one ``value_batch``."""
    values = [v.value(y) if y.ndim == 1 else v.value_batch(y) for v in vs]
    bounds = np.array(values + [b for (lo, hi), y_j in zip(box.tolist(), y.T)
                                for b in (lo - y_j, y_j - hi)])
    return (bounds <= TOL_FEAS).all(axis=0), bounds[:len(vs)] >= -TOL_ACT


def index_grid(problem: SipProblem) -> IndexGrid:
    """The ``GRID_PER_DIM``-per-axis grid over ``index_set_box``: its nodes
    in Y, in grid order (C order, last coordinate fastest)."""
    try:
        box = index_set_box(problem)
    except ValueError as exc:
        raise LowerLevelError(str(exc)) from None
    axes = np.meshgrid(*(np.linspace(lo, hi, GRID_PER_DIM) for lo, hi in box),
                       indexing="ij")
    nodes = np.stack([a.ravel() for a in axes], axis=1)
    feasible, _ = index_set_rule(problem.index_constraints, box, nodes)
    if not feasible.any():
        raise LowerLevelError(
            "no feasible grid node (empty or degenerate index set)")
    return IndexGrid(box, nodes[feasible],
                     (box[:, 1] - box[:, 0]) / (GRID_PER_DIM - 1))


class FamilyProblem:
    """Family i's lower-level problem at x: maximize g_i(x, .) over
    Y = {y in box : v(y) <= 0}.  ``value``/``values`` give g_i(x, .) at a
    point or at the rows of an array, one call of g_i each.  ``nlp`` poses
    the problem for the local runs: minimize -g_i(x, .) over the box s.t.
    v(y) <= 0, one call of g_i per evaluation.  ``rule`` is
    ``index_set_rule`` over the box."""

    def __init__(self, problem: SipProblem, i: int, x: Array, box: Array):
        n, m, g = problem.n, problem.m, problem.si_constraints[i]
        self.problem, self.i, self.x = problem, i, x

        def value(y):
            return g.value(np.concatenate([x, y]))

        def values(ys):
            return g.value_batch(_at_x(x, ys))
        objective = ScalarField(
            m, lambda y: -value(y),
            lambda y: -g.gradient(np.concatenate([x, y]))[n:],
            lambda y: -g.hessian(np.concatenate([x, y]))[n:, n:],
            lambda ys: -values(ys))
        self.nlp = NlpProblem(m, objective, field_rows(problem.index_constraints),
                              box[:, 0], box[:, 1])
        self.value, self.values = value, values
        self.rule = partial(index_set_rule, problem.index_constraints, box)


def _at_x(x: Array, ys: Array) -> Array:
    """The (N, n + m) array of the points (x, y) for the N rows y of
    ``ys``: the argument of g_i's ``value_batch``."""
    z = np.empty((len(ys), len(x) + ys.shape[1]))
    z[:, :len(x)], z[:, len(x):] = x, ys
    return z


def kkt_residual(problem: SipProblem, i: int, x: Array, y: Array, active,
                 mu_a: Array) -> Array:
    """Residual [grad_y g_i - sum_{l in A} mu_l grad v_l ; v_A(y)] of the
    active-set KKT system; ``mu_a`` holds the multipliers of ``active`` only.
    """
    n = problem.n
    vs = problem.index_constraints
    grad_y = problem.si_constraints[i].gradient(np.concatenate([x, y]))[n:]
    for l, mul in zip(active, mu_a):
        grad_y = grad_y - mul * vs[l].gradient(y)
    return np.concatenate([grad_y, [vs[l].value(y) for l in active]])


def kkt_jacobian(problem: SipProblem, i: int, x: Array, y: Array, active,
                 mu_a: Array):
    """``(jac, D2_yx g_i)``: jac = [[D2_yy L, -Dv_A^T], [Dv_A, 0]] is the
    Jacobian of ``kkt_residual`` in (y, mu_A), L = g_i - sum_A mu_l v_l."""
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


def _polish_kkt(family: FamilyProblem, y: Array, active: list, mu: Array,
                scale: float):
    """Newton iterations on the active-set KKT system from (y, mu), ``mu``
    the full multiplier vector: ``(y, mu, active set at y)`` polished,
    inactive multipliers zero, or None, also as soon as a Newton step is
    singular or not finite, and when the point is not in Y.  Stationarity
    rows and multiplier signs are measured relative to ``scale``."""
    problem, i, x, m = family.problem, family.i, family.x, family.problem.m
    mu_a = mu[active]
    weight = np.concatenate([np.full(m, scale), np.ones(len(active))])
    res = kkt_residual(problem, i, x, y, active, mu_a)
    res_norm = norm(res / weight)
    best = (res_norm, y, mu_a)
    with np.errstate(all="ignore"):     # for solve_linear
        for _ in range(8):
            if res_norm <= 1e-13 * (1.0 + res_norm):
                break
            jac, _ = kkt_jacobian(problem, i, x, y, active, mu_a)
            delta = solve_linear(jac, -res)
            if delta is None:
                return None
            y = y + delta[:m]
            mu_a = mu_a + delta[m:]
            res = kkt_residual(problem, i, x, y, active, mu_a)
            res_norm = norm(res / weight)
            if res_norm < best[0]:
                best = (res_norm, y, mu_a)
    res_norm, y, mu_a = best
    if res_norm > 1e-10 or any(mu_a < -1e-10 * scale):
        return None
    inside, now_active = family.rule(y)
    if not inside:
        return None
    mu = np.zeros(len(now_active))
    mu[active] = np.maximum(mu_a, 0.0)
    return y, mu, np.flatnonzero(now_active).tolist()


def _regularity(kkt_matrix: Array, mu_a: Array,
                kkt_point: bool) -> RegularityFlags:
    """``kkt_point`` (the point solves its active-set KKT system) with LICQ,
    strict complementarity, and second-order sufficiency, read off the
    point's ``kkt_jacobian`` matrix; ``mu_a`` holds the active multipliers.

    SOSC is tested for the maximization: the Lagrangian Hessian projected
    onto the null space of the strongly active constraint gradients
    (``nlp.null_space``, the rule of ``nlp.negative_curvature``) must be
    negative definite (min eigenvalue of the sign-flipped projection >= 1e-8).
    """
    m = len(kkt_matrix) - len(mu_a)
    va = kkt_matrix[m:, :m]

    licq = True
    if len(mu_a):
        svals = np.linalg.svd(va, compute_uv=False)
        licq = bool(len(mu_a) <= m and svals.min(initial=np.inf) >= _LICQ_SVD_CUTOFF)

    strict = bool(np.all(mu_a >= _STRICT_COMP_TOL))
    null_basis = null_space(va[np.flatnonzero(mu_a > _STRICT_COMP_TOL)], m)
    projected = -(null_basis.T @ kkt_matrix[:m, :m] @ null_basis)
    sosc = bool(not len(projected)
                or np.linalg.eigvalsh(projected)[0] >= _SOSC_EIG_CUTOFF)
    return RegularityFlags(kkt_point, licq, strict, sosc)


def _candidate(family: FamilyProblem, y: Array, active: list, mu: Array,
               kkt_point: bool = True) -> LowerLevelSolution:
    """The record of the family's point y with active set ``active`` and
    full multiplier vector ``mu``: its value, the ``kkt_jacobian`` matrix
    and D2_yx block built there, and the regularity flags read off it."""
    mu_a = mu[active]
    kkt_matrix, d2_yx = kkt_jacobian(family.problem, family.i, family.x, y,
                                     active, mu_a)
    return LowerLevelSolution(
        index=family.i, x=family.x, y=y, multipliers=mu,
        value=family.value(y), active_set=tuple(active),
        kkt_matrix=kkt_matrix, d2_yx=d2_yx,
        regularity=_regularity(kkt_matrix, mu_a, kkt_point))


def _best_nodes(values: Array, count: int) -> Array:
    """Indices of the ``count`` largest values, best first, ties in grid
    order and nan last: ``np.argsort(-values, kind="stable")[:count]``,
    stable-sorting only the nodes that ``np.partition`` puts at or above
    the ``count``-th best value."""
    keys = -values
    if len(keys) > count:
        kth = np.partition(keys, count - 1)[count - 1]
        if not np.isnan(kth):
            picked = np.flatnonzero(keys <= kth)
            return picked[np.argsort(keys[picked], kind="stable")[:count]]
    return np.argsort(keys, kind="stable")[:count]


def _ascending(values, rule, starts: Array, y: Array, step: Array,
               tol: float) -> Array:
    """Per start, whether g (batch ``values``) never falls by more than
    ``tol`` along the segment from it to ``y``, which stays in Y (``rule``).
    A segment is sampled as
    ``np.linspace(0, 1, ceil(|delta / step|) + 2)`` would sample it (a
    zero-width axis counts no steps), so samples are about one grid step
    apart.  All segments are built in one pass and go through one batch of
    ``values`` and of ``rule``."""
    delta = y - starts
    in_steps = np.divide(delta, step, out=np.zeros_like(delta), where=step > 0)
    norms = np.sqrt(np.einsum("ij,ij->i", in_steps, in_steps))
    # the count is the ceiling of the per-row np.linalg.norm, whose dot
    # product rounds otherwise than this sum: recompute per row the norms
    # that may round to the other side of an integer, and any inf or nan
    near = ~(np.abs(norms - np.round(norms)) > 1e-9 * np.maximum(norms, 1.0))
    counts = np.ceil(np.where(near, 0.0, norms)).astype(int) + 2
    for k in np.flatnonzero(near):
        counts[k] = int(np.ceil(np.linalg.norm(in_steps[k]))) + 2
    ends = np.cumsum(counts)
    first = ends - counts
    # linspace's samples: j * (1 / (count - 1)), and exactly 1 at the end
    j = np.arange(ends[-1]) - np.repeat(first, counts)
    t = j * np.repeat(1.0 / (counts - 1), counts)
    t[ends - 1] = 1.0
    pts = np.repeat(starts, counts, axis=0) \
        + t[:, None] * np.repeat(delta, counts, axis=0)
    v = values(pts)
    ok = np.empty(len(v), dtype=bool)
    ok[1:] = v[1:] - v[:-1] >= -tol
    ok[first] = True    # no step leads into a segment's first point
    ok &= rule(pts)[0]
    return np.logical_and.reduceat(ok, first)


def _followed(family, previous: LowerLevelSolution, scale: float):
    """The maximizer of ``previous`` (the family at an earlier x) followed
    to x: the record of the polish from its point, active set and
    multipliers, or None unless the polish converges with that same set
    active and the record passes the SOSC test."""
    active = list(previous.active_set)
    polished = _polish_kkt(family, previous.y, active, previous.multipliers,
                           scale)
    if polished is None or polished[2] != active:
        return None
    record = _candidate(family, polished[0], active, polished[1])
    return record if record.regularity.sosc else None


def solve_lower_level_global(
        problem: SipProblem, i: int, x,
        grid: Optional[IndexGrid] = None,
        previous: Optional[LowerLevelSolution] = None) -> LowerLevelSolution:
    """Grid multistart with local refinement; value dominates the grid.

    Guarantee: the returned value is >= the best value over the feasible
    grid nodes (up to 1e-12).  Value ties within the tie tolerance among
    distinct local maxima are flagged via ``multiple_global``.  ``grid`` is
    ``index_grid(problem)``, built here when not given.  ``previous`` is
    this family's solution at an earlier x, whose maximizer is followed to
    x before any start runs (``_followed``); without it every start is
    cold.
    """
    x = np.array(x, dtype=float)
    if grid is None:
        grid = index_grid(problem)
    family = FamilyProblem(problem, i, x, grid.box)
    return _solve_family(family, grid, family.values(grid.nodes), previous)


def _solve_family(family: FamilyProblem, grid: IndexGrid, values: Array,
                  previous: Optional[LowerLevelSolution]) -> LowerLevelSolution:
    """``solve_lower_level_global`` for ``family`` on ``grid``, given its
    ``values`` at the grid nodes."""
    problem, i, x = family.problem, family.i, family.x
    picked = _best_nodes(values, N_STARTS)
    starts = grid.nodes[picked]
    grid_best = float(values.max())
    spread = grid_best - float(values.min())
    if not np.isfinite(spread):     # some node's value is inf or nan
        finite = values[np.isfinite(values)]
        spread = np.ptp(finite) if len(finite) else 0.0
    scale = min(1.0, float(spread))
    tie_tol = TIE_TOL * scale
    scale = scale or 1.0            # a constant family: absolute polish

    candidates = []
    skipped = np.zeros(len(starts), dtype=bool)
    followed = (_followed(family, previous, scale)
                if previous is not None else None)
    if followed is not None:
        candidates.append(followed)
        # a start above the followed maximum cannot climb to it
        skipped = (_ascending(family.values, family.rule, starts, followed.y,
                              grid.step, tie_tol)
                   & (values[picked] <= followed.value + 1e-12))
    for k, start in enumerate(starts):
        if skipped[k]:
            continue
        sol = solve_nlp(family.nlp, start, max_iter=LOCAL_MAX_ITER)
        y_loc, mu = sol.z, sol.multipliers
        inside, is_active = family.rule(y_loc)
        if not inside:
            continue
        active = np.flatnonzero(is_active).tolist()
        polished = _polish_kkt(family, y_loc, active, mu, scale)
        kkt_point = polished is not None
        if kkt_point:
            y_loc, mu, _ = polished
        else:   # kept unpolished: a KKT point if it passes the polish's test
            mu = np.where(is_active, mu, 0.0)
            res = kkt_residual(problem, i, x, y_loc, active, mu[active])
            res[:problem.m] /= scale
            kkt_point = norm(res) <= 1e-10
        candidates.append(_candidate(family, y_loc, active, mu, kkt_point))
        # a later start on an ascent path to this maximizer would climb to it
        later = k + 1 + np.flatnonzero(~skipped[k + 1:])
        if len(later):
            skipped[later] = _ascending(family.values, family.rule,
                                        starts[later], y_loc, grid.step,
                                        tie_tol)

    if not candidates:
        raise LowerLevelError(
            f"lower level {i}: all local refinements failed from the grid starts")

    # cluster distinct maxima (keep the best value per cluster)
    candidates.sort(key=lambda c: (-c.value, tuple(c.y)))
    clusters = []
    for c in candidates:
        if all(norm(c.y - kept.y) >= 1e-6 for kept in clusters):
            clusters.append(c)

    best_value = clusters[0].value
    if best_value < grid_best - 1e-12:
        raise LowerLevelError(
            f"lower level {i}: refinement lost the grid optimum "
            f"({best_value} < {grid_best})")
    tied = [c for c in clusters if c.value >= best_value - tie_tol]
    return replace(min(tied, key=lambda c: tuple(c.y)),
                   local_maxima=[(c.y, c.value) for c in clusters],
                   multiple_global=len(tied) > 1)


def solve_all_lower_levels(problem: SipProblem, x,
                           grid: Optional[IndexGrid] = None,
                           previous: Optional[list] = None) -> list:
    """One global lower-level solve per semi-infinite constraint;
    ``previous`` is the list this returned at an earlier x, if any.  The
    families read their grid values off one array of the points (x, y),
    y the grid nodes."""
    x = np.array(x, dtype=float)
    if grid is None:
        grid = index_grid(problem)
    points = _at_x(x, grid.nodes)
    return [_solve_family(FamilyProblem(problem, i, x, grid.box), grid,
                          g.value_batch(points),
                          previous[i] if previous else None)
            for i, g in enumerate(problem.si_constraints)]
