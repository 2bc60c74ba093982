"""Global solution of the lower-level problems max_y g_i(x, y) over Y.

Y = {y in box : v(y) <= 0}.  ``FamilyProblem`` poses family i's problem at
x, the local runs' NLP over exactly the grid's box included (posed on
first use), and evaluates g_i(x, .) with one call of g_i; it is the one
object that the polish, ``KktSystem`` and the records read g_i, i and x
from.  Every path reads Y's one membership and active-set rule,
``index_set_rule``.

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
record (``_candidate``): value, point, multipliers, active set, the KKT
matrix at the point and the regularity flags that ``_regularity`` reads
off that matrix.  The KKT system is evaluated only by ``KktSystem``, once
per point: at the polish's start and after each Newton step (residual,
then the matrix for the next step), and at a point kept unpolished.  It
reads one array (x, y) and one gradient per active v_l for the residual
and the matrix, and a record takes its value and matrix from the system
of its point, the matrix built at most once (anew only where the polish
clamped a negative multiplier to zero).  The solution is the winning
record; ``compute_sensitivity`` reads its matrix.  A 1 x 1 projected
Hessian's SOSC eigenvalue is its entry, which is what LAPACK's ``syevd``
returns for it.

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
problem only (``index_grid``); the drivers build them once per run, with
the grid's array of the points (x, y), y the nodes (``IndexGrid.points``).
At each x, ``solve_all_lower_levels`` writes x into that array, and every
family reads its grid values off it with one ``value_batch`` of g_i; so
concurrent solves must not share a grid.  A family poses the
local runs' NLP only when a start runs, and the winning record, made in
this solve, is given the distinct maxima and the tie flag in place.

Deterministic by construction: fixed grid order, ties broken toward the
lexicographically smallest maximizer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .model import ScalarField, SipProblem, index_set_box
from .nlp import (NlpProblem, eigvalsh, field_rows, norm, null_space,
                  solve_linear, solve_nlp, svd)

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
    order, the node spacing per axis, and the (N, n + m) array of the
    points (x, y), y the nodes, whose x columns each solve rewrites: it
    holds the last solve's x, so concurrent solves must not share a grid."""

    box: Array
    nodes: Array
    step: Array
    points: Array


def index_set_rule(vs, box: Array, y: Array):
    """Y's rule.  At a point y: ``(in Y, active)``, in Y when every v_l and
    every bound of ``box`` holds to ``TOL_FEAS`` (nan does not), v_l active
    where v_l >= -``TOL_ACT``; the v_l go through ``value``.  At each row
    of an (N, m) array y: in Y only, the v_l through one ``value_batch``
    each."""
    if y.ndim == 1:
        values = np.array([v.value(y) for v in vs])
        bounds = np.concatenate([values, box[:, 0] - y, y - box[:, 1]])
        return (bounds <= TOL_FEAS).all(), values >= -TOL_ACT
    inside = ((box[:, 0] - y <= TOL_FEAS) & (y - box[:, 1] <= TOL_FEAS)).all(axis=1)
    for v in vs:
        inside &= v.value_batch(y) <= TOL_FEAS
    return inside


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
    nodes = nodes[index_set_rule(problem.index_constraints, box, nodes)]
    if not len(nodes):
        raise LowerLevelError(
            "no feasible grid node (empty or degenerate index set)")
    return IndexGrid(box, nodes, (box[:, 1] - box[:, 0]) / (GRID_PER_DIM - 1),
                     _at_x(np.zeros(problem.n), nodes))


class FamilyProblem:
    """Family i's lower-level problem at x: maximize g_i(x, .) over
    Y = {y in box : v(y) <= 0}.  ``value``/``values`` give g_i(x, .) at a
    point or at the rows of an array, one call of g_i each.  ``nlp`` poses
    the problem for the local runs, on first use: minimize -g_i(x, .) over
    the box s.t. v(y) <= 0, one call of g_i per evaluation.  ``rule`` is
    ``index_set_rule`` over the box; ``g`` is g_i."""

    def __init__(self, problem: SipProblem, i: int, x: Array, box: Array):
        self.g = g = problem.si_constraints[i]
        self.problem, self.i, self.x, self.box = problem, i, x, box

        def value(y):
            return g.value(np.concatenate([x, y]))

        def values(ys):
            return g.value_batch(_at_x(x, ys))
        self.value, self.values = value, values
        self.rule = partial(index_set_rule, problem.index_constraints, box)

    @cached_property
    def nlp(self) -> NlpProblem:
        problem, x, g, value = self.problem, self.x, self.g, self.value
        n, m = problem.n, problem.m
        objective = ScalarField(
            m, lambda y: -value(y),
            lambda y: -g.gradient(np.concatenate([x, y]))[n:],
            lambda y: -g.hessian(np.concatenate([x, y]))[n:, n:])
        return NlpProblem(m, objective, field_rows(problem.index_constraints),
                          self.box[:, 0], self.box[:, 1])


def _at_x(x: Array, ys: Array) -> Array:
    """The (N, n + m) array of the points (x, y) for the N rows y of
    ``ys``: the argument of g_i's ``value_batch``."""
    z = np.empty((len(ys), len(x) + ys.shape[1]))
    z[:, :len(x)], z[:, len(x):] = x, ys
    return z


class KktSystem:
    """The active-set KKT system of ``family`` (g_i at its x) at y, for the
    index constraints ``active`` and their multipliers ``mu_a``.  ``residual`` is
    [grad_y g_i - sum_{l in A} mu_l grad v_l ; v_A(y)]; ``jacobian`` is
    ``(jac, D2_yx g_i)``, jac = [[D2_yy L, -Dv_A^T], [Dv_A, 0]] the
    Jacobian of the residual in (y, mu_A), L = g_i - sum_A mu_l v_l, built
    on the first read.  Both read one array z = (x, y) and one gradient of
    each active v_l, taken with the residual."""

    def __init__(self, family: FamilyProblem, y: Array, active: list,
                 mu_a: Array):
        n, m = family.problem.n, family.problem.m
        vs = family.problem.index_constraints
        self.family, self.y, self.active, self.mu_a = family, y, active, mu_a
        self.z = np.concatenate([family.x, y])
        grad_y = family.g.gradient(self.z)[n:]
        self.va = np.empty((len(active), m))     # Dv_A, a row per v_l
        for j, (l, mul) in enumerate(zip(active, mu_a)):
            self.va[j] = vs[l].gradient(y)
            grad_y = grad_y - mul * self.va[j]
        self.residual = np.concatenate([grad_y, [vs[l].value(y) for l in active]])

    @cached_property
    def jacobian(self) -> tuple:
        return self.jacobian_at(self.mu_a)

    def jacobian_at(self, mu_a: Array) -> tuple:
        """``jacobian`` at other multipliers ``mu_a`` of the same set."""
        problem, m = self.family.problem, self.family.problem.m
        n, vs, a = problem.n, problem.index_constraints, len(self.active)
        h = self.family.g.hessian(self.z)
        jac = np.zeros((m + a, m + a))
        jac[:m, :m] = h[n:, n:]
        for l, mul in zip(self.active, mu_a):
            if mul != 0.0:
                jac[:m, :m] -= mul * vs[l].hessian(self.y)
        if a:
            jac[:m, m:] = -self.va.T
            jac[m:, :m] = self.va
        return jac, h[n:, :n]


def _polish_kkt(family: FamilyProblem, y: Array, active: list, mu: Array,
                scale: float):
    """Newton iterations on the active-set KKT system from (y, mu), ``mu``
    the full multiplier vector: ``(system, mu, active set at y)`` at the
    polished point, ``system`` its ``KktSystem``, inactive multipliers
    zero, or None, also as soon as a Newton step is singular or not
    finite, and when the point is not in Y.  Stationarity rows and
    multiplier signs are measured relative to ``scale``."""
    m = family.problem.m
    weight = np.ones(m + len(active))
    weight[:m] = scale
    system = KktSystem(family, y, active, mu[active])
    res_norm = norm(system.residual / weight)
    best = (res_norm, system)
    with np.errstate(all="ignore"):     # for solve_linear
        for _ in range(8):
            if res_norm <= 1e-13 * (1.0 + res_norm):
                break
            delta = solve_linear(system.jacobian[0], -system.residual)
            if delta is None:
                return None
            system = KktSystem(family, system.y + delta[:m], active,
                               system.mu_a + delta[m:])
            res_norm = norm(system.residual / weight)
            if res_norm < best[0]:
                best = (res_norm, system)
    res_norm, system = best
    if res_norm > 1e-10 or (system.mu_a < -1e-10 * scale).any():
        return None
    inside, now_active = family.rule(system.y)
    if not inside:
        return None
    mu = np.zeros(len(now_active))
    mu[active] = np.maximum(system.mu_a, 0.0)
    return system, mu, now_active.nonzero()[0].tolist()


def _regularity(kkt_matrix: Array, mu_a: Array,
                kkt_point: bool) -> RegularityFlags:
    """``kkt_point`` (the point solves its active-set KKT system) with LICQ,
    strict complementarity, and second-order sufficiency, read off the
    point's ``kkt_jacobian`` matrix; ``mu_a`` holds the active multipliers.

    SOSC is tested for the maximization: the Lagrangian Hessian projected
    onto the null space of the strongly active constraint gradients
    (``nlp.null_space``, the rule of ``nlp.negative_curvature``) must be
    negative definite (min eigenvalue of the sign-flipped projection >= 1e-8).
    LICQ reads the singular values of the active rows from a values-only
    SVD (LAPACK job 'N'), and the null space comes from the full SVD of
    the strongly active rows, also where those are all the active rows:
    the two jobs' singular values differ by a few ulps, so one
    factorization for both could move a matrix across the LICQ cutoff.
    The factorizations are ``nlp.svd`` and ``nlp.eigvalsh``, which give nan
    where LAPACK does not converge: a nan matrix fails LICQ and SOSC.
    """
    m = len(kkt_matrix) - len(mu_a)
    va = kkt_matrix[m:, :m]
    with np.errstate(all="ignore"):     # for svd and eigvalsh
        svals = svd(va, compute_uv=False)
        null_basis = null_space(va[mu_a > _STRICT_COMP_TOL], m)
        projected = -(null_basis.T @ kkt_matrix[:m, :m] @ null_basis)
        # LAPACK's syevd returns a 1 x 1 matrix's entry as its eigenvalue
        lowest = (eigvalsh(projected)[0] if len(projected) > 1
                  else projected[0, 0] if len(projected) else np.inf)
    licq = bool(len(mu_a) <= m and svals.min(initial=np.inf) >= _LICQ_SVD_CUTOFF)
    strict = bool((mu_a >= _STRICT_COMP_TOL).all())
    sosc = bool(lowest >= _SOSC_EIG_CUTOFF)
    return RegularityFlags(kkt_point, licq, strict, sosc)


def _candidate(family: FamilyProblem, system: KktSystem, mu: Array,
               kkt_point: bool = True) -> LowerLevelSolution:
    """The record of the family's KKT system ``system`` with the full
    multiplier vector ``mu``: its value, point, active set, matrix and
    D2_yx block, and the regularity flags read off the matrix.  The matrix
    is the system's own, unless the polish clamped a negative multiplier
    to zero: then it is built at ``mu``."""
    mu_a = mu[system.active]
    kkt_matrix, d2_yx = (system.jacobian if (system.mu_a == mu_a).all()
                         else system.jacobian_at(mu_a))
    return LowerLevelSolution(
        index=family.i, x=family.x, y=system.y, multipliers=mu,
        value=family.g.value(system.z),
        active_set=tuple(system.active), kkt_matrix=kkt_matrix, d2_yx=d2_yx,
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
    ok &= rule(pts)
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
    record = _candidate(family, polished[0], polished[1])
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
    grid = grid or index_grid(problem)
    grid.points[:, :len(x)] = x
    return _solve_family(FamilyProblem(problem, i, x, grid.box), grid, previous)


def _solve_family(family: FamilyProblem, grid: IndexGrid,
                  previous: Optional[LowerLevelSolution]) -> LowerLevelSolution:
    """``solve_lower_level_global`` for ``family`` on ``grid``, whose
    points hold the family's x."""
    values = family.g.value_batch(grid.points)
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
        active = is_active.nonzero()[0].tolist()
        polished = _polish_kkt(family, y_loc, active, mu, scale)
        kkt_point = polished is not None
        if kkt_point:
            system, mu, _ = polished
        else:   # kept unpolished: a KKT point if it passes the polish's test
            mu = np.where(is_active, mu, 0.0)
            system = KktSystem(family, y_loc, active, mu[active])
            res = system.residual.copy()
            res[:family.problem.m] /= scale
            kkt_point = norm(res) <= 1e-10
        record = _candidate(family, system, mu, kkt_point)
        candidates.append(record)
        # a later start on an ascent path to this maximizer would climb to it
        later = k + 1 + np.flatnonzero(~skipped[k + 1:])
        if len(later):
            skipped[later] = _ascending(family.values, family.rule,
                                        starts[later], record.y, grid.step,
                                        tie_tol)

    if not candidates:
        raise LowerLevelError(
            f"lower level {family.i}: all local refinements failed from the grid starts")

    # cluster distinct maxima (keep the best value per cluster)
    candidates.sort(key=lambda c: (-c.value, tuple(c.y)))
    clusters = []
    for c in candidates:
        if all(norm(c.y - kept.y) >= 1e-6 for kept in clusters):
            clusters.append(c)

    best_value = clusters[0].value
    if best_value < grid_best - 1e-12:
        raise LowerLevelError(
            f"lower level {family.i}: refinement lost the grid optimum "
            f"({best_value} < {grid_best})")
    tied = [c for c in clusters if c.value >= best_value - tie_tol]
    best = min(tied, key=lambda c: tuple(c.y))     # a record of this call
    best.local_maxima = [(c.y, c.value) for c in clusters]
    best.multiple_global = len(tied) > 1
    return best


def solve_all_lower_levels(problem: SipProblem, x,
                           grid: Optional[IndexGrid] = None,
                           previous: Optional[list] = None) -> list:
    """One global lower-level solve per semi-infinite constraint;
    ``previous`` is the list this returned at an earlier x, if any.  The
    families read their grid values off the grid's one array of the
    points (x, y), y the grid nodes (``IndexGrid.points``)."""
    x = np.array(x, dtype=float)
    grid = grid or index_grid(problem)
    grid.points[:, :len(x)] = x
    return [_solve_family(FamilyProblem(problem, i, x, grid.box), grid,
                          previous[i] if previous else None)
            for i in range(problem.n_si)]
