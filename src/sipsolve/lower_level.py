"""Global solution of the lower-level problems max_y g_i(x, y) s.t. v(y) <= 0.

Strategy: evaluate g_i on a uniform grid over a bounding box of the index
set, refine the best feasible nodes with the local SQP solver, then polish
each local solution with Newton steps on the active-set KKT system (exact
second derivatives are available, so the polished point carries KKT
residuals near machine precision -- the sensitivity computations downstream
need that).  A local solution whose polish fails is kept unpolished, with the
multipliers of its inactive constraints zeroed.  That KKT system is built
only by ``kkt_residual`` and ``kkt_jacobian``; the polish, ``check_regularity``
and ``sensitivity.compute_sensitivity`` share them.

One local run per basin: a start is skipped when the straight segment from
it to a maximizer already found, sampled one grid step apart, stays in the
index set and never lets g_i fall by more than ``TIE_TOL`` -- the local run
would climb to that maximizer again (the second rule of multi-level single
linkage, Rinnooy Kan & Timmer, Math. Programming 39, 1987).  Each new
maximizer is checked against all remaining starts in one batch.  The best
start always runs, so the returned value still dominates the grid.

The bounding box is read off the index constraints when they are recognized
as interval bounds (affine with a +/- unit-vector gradient); otherwise a
coarse scan of a large box locates the feasible hull, which is then padded.
The box and the feasible grid nodes depend on the problem only
(``index_grid``); the drivers build them once per run.

Deterministic by construction: fixed grid order, ties broken toward the
lexicographically smallest maximizer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import SipProblem, index_set_nodes, negated, restrict_to_y
from .nlp import NlpProblem, field_rows, solve_nlp

Array = np.ndarray

GRID_PER_DIM = 64           # grid nodes per index dimension
N_STARTS = 8                # best distinct grid nodes tried as local SQP starts
DEDUP_SPACING = 1e-3        # minimum distance between two starts
LOCAL_MAX_ITER = 60         # SQP iteration cap of one local run
TOL_FEAS = 1e-9             # index-set feasibility of grid nodes and maxima
TOL_ACT = 1e-7              # index constraint counted active above -TOL_ACT
TIE_TOL = 1e-9              # value gap under which two maxima tie
SCAN_PER_DIM = 129          # hull scan of an unrecognized index set ...
SCAN_HALF_WIDTH = 10.0      # ... over [-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH]^m

_LICQ_SVD_CUTOFF = 1e-8
_SOSC_EIG_CUTOFF = 1e-8
_STRICT_COMP_TOL = 1e-6


class LowerLevelError(RuntimeError):
    """The lower-level problem could not be solved (e.g. empty index set)."""


@dataclass(frozen=True)
class RegularityFlags:
    licq: bool
    strict_complementarity: bool
    sosc: bool

    @property
    def all_ok(self) -> bool:
        return self.licq and self.strict_complementarity and self.sosc


@dataclass
class LowerLevelSolution:
    """Global maximizer of g_i(x, .) over the index set, with KKT data."""

    index: int
    x: Array
    y: Array
    multipliers: Array
    value: float
    active_set: tuple
    kkt_residual: float
    regularity: RegularityFlags
    local_maxima: list          # [(y, value)] of distinct local solutions
    multiple_global: bool       # value tie within TIE_TOL among distinct maxima


@dataclass(frozen=True)
class IndexGrid:
    """The lower-level grid of one problem: its box, the feasible nodes in
    grid order, and the node spacing per axis."""

    box: Array
    nodes: Array
    step: Array


def index_grid(problem: SipProblem) -> IndexGrid:
    """Feasible ``GRID_PER_DIM``-per-axis grid over the index-set box."""
    box, _ = index_set_box(problem)
    nodes = index_set_nodes(problem, box, GRID_PER_DIM, TOL_FEAS)
    if not len(nodes):
        raise LowerLevelError(
            "no feasible grid node (empty or degenerate index set)")
    return IndexGrid(box, nodes, (box[:, 1] - box[:, 0]) / (GRID_PER_DIM - 1))


def index_set_box(problem: SipProblem):
    """Bounding box of the index set: (box (m, 2), recognized_exact flag)."""
    m = problem.m
    lo = np.full(m, -np.inf)
    hi = np.full(m, np.inf)
    recognized = True
    probes = [np.zeros(m), np.full(m, 0.37)]
    for v in problem.index_constraints:
        grads = [v.gradient(p) for p in probes]
        hess = v.hessian(probes[0])
        affine = (np.abs(hess).max() <= 1e-12
                  and np.abs(grads[0] - grads[1]).max() <= 1e-12)
        grad = grads[0]
        nonzero = np.flatnonzero(np.abs(grad) > 1e-12)
        if not (affine and len(nonzero) == 1):
            recognized = False
            break
        j = int(nonzero[0])
        a = grad[j]
        c = v.value(probes[0]) - a * probes[0][j]
        if a > 0:
            hi[j] = min(hi[j], -c / a)
        else:
            lo[j] = max(lo[j], -c / a)
    if recognized and np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) \
            and np.all(lo <= hi):
        return np.stack([lo, hi], axis=1), True

    # scan a large box for the feasible hull
    width = SCAN_HALF_WIDTH
    pts = index_set_nodes(problem, [[-width, width]] * m, SCAN_PER_DIM, TOL_FEAS)
    if not len(pts):
        raise LowerLevelError(
            "no feasible point of the index set in the scan box "
            f"[-{width}, {width}]^{m}")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = np.maximum(0.05 * (hi - lo), 1e-6)
    lo = np.maximum(lo - pad, -width)
    hi = np.minimum(hi + pad, width)
    return np.stack([lo, hi], axis=1), False


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


def _polish_kkt(problem: SipProblem, i: int, x: Array, y: Array, active: list,
                mu_a: Array):
    """Newton iterations on the active-set KKT system: (y, mu_A) or None."""
    m = problem.m
    vs = problem.index_constraints
    res = kkt_residual(problem, i, x, y, active, mu_a)
    best = (np.linalg.norm(res), y, mu_a)
    for _ in range(8):
        if np.linalg.norm(res) <= 1e-13 * (1.0 + np.linalg.norm(res)):
            break
        jac, _ = kkt_jacobian(problem, i, x, y, active, mu_a)
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None
        y = y + delta[:m]
        mu_a = mu_a + delta[m:]
        res = kkt_residual(problem, i, x, y, active, mu_a)
        norm = np.linalg.norm(res)
        if norm < best[0]:
            best = (norm, y, mu_a)
        if norm <= 1e-13:
            break
    norm, y, mu_a = best
    if norm > 1e-10:
        return None
    if any(mu_a < -1e-10):
        return None
    # the polished point must still satisfy the inactive constraints
    for l, v in enumerate(vs):
        if l not in active and v.value(y) > TOL_FEAS:
            return None
    return y, np.maximum(mu_a, 0.0)


def check_regularity(problem: SipProblem, i: int,
                     sol: "LowerLevelSolution") -> RegularityFlags:
    """LICQ, strict complementarity, and second-order sufficiency at sol.

    SOSC is tested for the maximization: the Lagrangian Hessian projected
    onto the null space of the strongly active constraint gradients must be
    negative definite (min eigenvalue of the sign-flipped projection >= 1e-8).
    """
    y, mu = sol.y, sol.multipliers
    m = len(y)
    active = list(sol.active_set)
    jac, _ = kkt_jacobian(problem, i, sol.x, y, active, mu[active])
    va = jac[m:, :m]

    licq = True
    if active:
        svals = np.linalg.svd(va, compute_uv=False)
        licq = bool(len(active) <= m and svals.min(initial=np.inf) >= _LICQ_SVD_CUTOFF)

    strict = all(mu[l] >= _STRICT_COMP_TOL for l in active)

    strong = [row for row, l in enumerate(active) if mu[l] > _STRICT_COMP_TOL]
    if strong:
        _, svals, vt = np.linalg.svd(va[strong])
        rank = int((svals >= _LICQ_SVD_CUTOFF * max(svals.max(), 1.0)).sum())
        null_basis = vt[rank:].T
    else:
        null_basis = np.eye(m)
    if null_basis.shape[1] == 0:
        sosc = True
    else:
        projected = -(null_basis.T @ jac[:m, :m] @ null_basis)
        sosc = bool(np.linalg.eigvalsh(projected)[0] >= _SOSC_EIG_CUTOFF)
    return RegularityFlags(licq, strict, sosc)


def _ascending(g_y, vs, starts: Array, y: Array, step: Array) -> Array:
    """Per start, whether g_y never falls by more than ``TIE_TOL`` along the
    feasible segment from it to ``y``, sampled about one grid step apart.
    All segments go through one ``value_batch`` per field."""
    segments = []
    for start in starts:
        delta = y - start
        in_steps = np.divide(delta, step, out=np.zeros_like(delta), where=step > 0)
        t = np.linspace(0.0, 1.0, int(np.ceil(np.linalg.norm(in_steps))) + 2)
        segments.append(start + t[:, None] * delta)
    pts = np.concatenate(segments)
    first = np.cumsum([0] + [len(seg) for seg in segments[:-1]])
    ok = np.diff(g_y.value_batch(pts), prepend=np.inf) >= -TIE_TOL
    ok[first] = True    # no step leads into a segment's first point
    for v in vs:
        ok &= ~(v.value_batch(pts) > TOL_FEAS)
    return np.logical_and.reduceat(ok, first)


def solve_lower_level_global(
        problem: SipProblem, i: int, x,
        grid: Optional[IndexGrid] = None) -> LowerLevelSolution:
    """Grid multistart with local refinement; value dominates the grid.

    Guarantee: the returned value is >= the best value over the feasible
    grid nodes (up to 1e-12).  Value ties within ``TIE_TOL`` among distinct
    local maxima are flagged via ``multiple_global``.  ``grid`` is
    ``index_grid(problem)``, built here when not given.
    """
    x = np.asarray(x, dtype=float)
    n, m = problem.n, problem.m
    g = problem.si_constraints[i]
    vs = problem.index_constraints
    if grid is None:
        grid = index_grid(problem)

    nodes = grid.nodes
    g_y = restrict_to_y(g, n, x)
    values = g_y.value_batch(nodes)

    order = np.argsort(-values, kind="stable")   # by value desc, then grid order
    starts = []
    for k in order:
        node = nodes[k]
        if all(np.linalg.norm(node - s) >= DEDUP_SPACING for s in starts):
            starts.append(node)
        if len(starts) >= N_STARTS:
            break
    grid_best = float(values.max())

    box = grid.box
    width = box[:, 1] - box[:, 0]
    nlp_lo = box[:, 0] - 0.05 * width
    nlp_hi = box[:, 1] + 0.05 * width
    local = NlpProblem(m, negated(g_y), field_rows(vs), nlp_lo, nlp_hi)

    candidates = []   # (value, y, mu)
    starts = np.array(starts)
    skipped = np.zeros(len(starts), dtype=bool)
    for k, start in enumerate(starts):
        if skipped[k]:
            continue
        sol = solve_nlp(local, start, max_iter=LOCAL_MAX_ITER)
        y_loc, mu = sol.z, sol.multipliers
        v_loc = np.array([v.value(y_loc) for v in vs])
        if max(v_loc, default=0.0) > 10 * TOL_FEAS:
            continue
        active = [l for l in range(len(vs)) if v_loc[l] >= -TOL_ACT]
        polished = _polish_kkt(problem, i, x, y_loc, active, mu[active])
        if polished is not None:
            y_loc, mu_a = polished
            mu = np.zeros(len(vs))
            mu[active] = mu_a
        else:
            mu = np.where(v_loc >= -TOL_ACT, mu, 0.0)
        candidates.append((float(g_y.value(y_loc)), y_loc, mu))
        # a later start on an ascent path to this maximizer would climb to it
        later = k + 1 + np.flatnonzero(~skipped[k + 1:])
        if len(later):
            skipped[later] = _ascending(g_y, vs, starts[later], y_loc, grid.step)

    if not candidates:
        raise LowerLevelError(
            f"lower level {i}: all local refinements failed from the grid starts")

    # cluster distinct maxima (keep the best value per cluster)
    candidates.sort(key=lambda c: (-c[0], tuple(c[1])))
    clusters = []
    for value, y_loc, mu in candidates:
        if all(np.linalg.norm(y_loc - c[1]) >= 1e-6 for c in clusters):
            clusters.append((value, y_loc, mu))

    best_value = clusters[0][0]
    if best_value < grid_best - 1e-12:
        raise LowerLevelError(
            f"lower level {i}: refinement lost the grid optimum "
            f"({best_value} < {grid_best})")
    tied = [c for c in clusters if c[0] >= best_value - TIE_TOL]
    winner = min(tied, key=lambda c: tuple(c[1]))
    value, y_star, mu = winner

    active = tuple(l for l, v in enumerate(vs) if v.value(y_star) >= -TOL_ACT)
    mu = np.array([mu[l] if l in active else 0.0 for l in range(len(vs))])
    sol = LowerLevelSolution(
        index=i, x=x.copy(), y=y_star, multipliers=mu, value=value,
        active_set=active,
        kkt_residual=float(np.linalg.norm(
            kkt_residual(problem, i, x, y_star, active, mu[list(active)]))),
        regularity=RegularityFlags(False, False, False),
        local_maxima=[(c[1], c[0]) for c in clusters],
        multiple_global=len(tied) > 1,
    )
    sol.regularity = check_regularity(problem, i, sol)
    return sol


def solve_all_lower_levels(problem: SipProblem, x,
                           grid: Optional[IndexGrid] = None) -> list:
    """One global lower-level solve per semi-infinite constraint."""
    if grid is None:
        grid = index_grid(problem)
    return [solve_lower_level_global(problem, i, x, grid)
            for i in range(problem.n_si)]
