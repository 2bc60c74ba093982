"""Core problem data: scalar fields with derivatives and SIP instances.

A semi-infinite program (SIP) minimizes ``f(x)`` over ``x`` in a box, subject
to ``g_i(x, y) <= 0`` for every ``y`` in the index set
``Y = {y in y_bounds : v_l(y) <= 0 for all l}`` (:func:`index_set_box`)
and to finitely many upper-level constraints ``c_j(x) <= 0``.

All functions are carried as :class:`ScalarField` objects: plain callables
bundled with their exact gradient and Hessian.  Every field of a problem
must supply a Hessian: the lower level and its sensitivities need those of
``g_i`` and ``v_l``, and the master's second-order check those of the
objective and the finite constraints ``c_j`` as well.  A field may also
carry batch evaluations over the rows of an array: ``value_batch``, and
``value_and_gradient_batch``, the values and gradients of one call, which
the master's row blocks evaluate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray

#: Half-width of the default bounding box placed on x when a problem does not
#: declare one.  The master subproblems always need finite bounds.
DEFAULT_BOUND = 1.0e3


class FieldEvaluationError(RuntimeError):
    """A scalar field could not be evaluated at a probe point."""


def _as_point(z, arity: int) -> Array:
    z = np.asarray(z, dtype=float)
    if z.shape != (arity,):
        raise ValueError(f"expected point of length {arity}, got shape {z.shape}")
    return z


class ScalarField:
    """Twice-differentiable scalar function of ``arity`` real variables.

    Parameters
    ----------
    arity:
        Number of input variables.
    value, gradient:
        Callables on 1-d arrays of length ``arity``.
    hessian:
        Callable returning the symmetric ``(arity, arity)`` Hessian.  Every
        field of a :class:`SipProblem` needs one (see
        :func:`validate_problem`); a field without one raises
        :class:`FieldEvaluationError` when its Hessian is asked for.
    value_batch, value_and_gradient_batch:
        Optional vectorized evaluations of an ``(N, arity)`` array of
        points: the ``N`` values, and ``(values, gradients)`` in one call,
        the ``(N, arity)`` gradients with row k that of ``gradient`` at row
        k.  Without ``value_batch`` the values are taken row by row;
        without ``value_and_gradient_batch``, from ``value_batch`` and
        ``gradient`` row by row.
    """

    __slots__ = ("arity", "name", "_value", "_gradient", "_hessian", "_batch",
                 "_value_and_gradient_batch")

    def __init__(self, arity, value, gradient, hessian=None, value_batch=None,
                 name="", value_and_gradient_batch=None):
        self.arity = int(arity)
        self.name = name
        self._value = value
        self._gradient = gradient
        self._hessian = hessian
        self._batch = value_batch
        self._value_and_gradient_batch = value_and_gradient_batch

    def __repr__(self):  # pragma: no cover - debugging aid
        label = self.name or "<anonymous>"
        return f"ScalarField({label}, arity={self.arity})"

    @property
    def has_hessian(self) -> bool:
        return self._hessian is not None

    def value(self, z) -> float:
        z = _as_point(z, self.arity)
        return float(self._value(z))

    def gradient(self, z) -> Array:
        z = _as_point(z, self.arity)
        g = np.asarray(self._gradient(z), dtype=float)
        if g.shape != (self.arity,):
            raise FieldEvaluationError(
                f"gradient of {self.name or 'field'} has shape {g.shape}, "
                f"expected ({self.arity},)")
        return g

    def hessian(self, z) -> Array:
        if self._hessian is None:
            raise FieldEvaluationError(
                f"field {self.name or '<anonymous>'} does not define a Hessian")
        z = _as_point(z, self.arity)
        h = np.asarray(self._hessian(z), dtype=float)
        if h.shape != (self.arity, self.arity):
            raise FieldEvaluationError(
                f"Hessian of {self.name or 'field'} has shape {h.shape}, "
                f"expected ({self.arity}, {self.arity})")
        return h

    def _as_points(self, points) -> Array:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.arity:
            raise ValueError(f"expected (N, {self.arity}) array, got {points.shape}")
        return points

    def value_batch(self, points) -> Array:
        """Values at every row of an ``(N, arity)`` array."""
        points = self._as_points(points)
        if self._batch is not None:
            out = np.asarray(self._batch(points), dtype=float)
            return out.reshape(points.shape[0])
        return np.array([self._value(row) for row in points], dtype=float)

    def value_and_gradient_batch(self, points) -> tuple:
        """``(values, gradients)`` at every row of an ``(N, arity)`` array:
        the ``N`` values of ``value_batch`` and one gradient per row, from
        one call of the field's own batch; without one, ``value_batch``
        and then ``gradient`` row by row."""
        points = self._as_points(points)
        if self._value_and_gradient_batch is None:
            return self.value_batch(points), np.array(
                [self.gradient(row) for row in points],
                dtype=float).reshape(points.shape)
        values, grads = self._value_and_gradient_batch(points)
        grads = np.asarray(grads, dtype=float)
        if grads.shape != points.shape:
            raise FieldEvaluationError(
                f"value_and_gradient_batch of {self.name or 'field'} gives "
                f"gradients of shape {grads.shape}, expected {points.shape}")
        return np.asarray(values, dtype=float).reshape(points.shape[0]), grads


@dataclass(frozen=True)
class SipProblem:
    """A semi-infinite program.

    ``objective`` is a field over x (arity n).  Each entry of
    ``si_constraints`` is a field over the concatenated point ``(x, y)``
    (arity n+m), each ``index_constraints`` entry over y (arity m), and each
    ``finite_constraints`` entry over x.  ``x_bounds`` is an (n, 2) array of
    per-coordinate intervals; a -inf lower or +inf upper entry is replaced
    by the default box's, and every other entry is kept.  ``y_bounds``, an
    optional (m, 2) array of finite intervals, holds the index set.
    ``known_solution``/``known_objective`` are optional reference data,
    ``start`` an optional canonical initial point.
    """

    n: int
    m: int
    objective: ScalarField
    si_constraints: tuple
    index_constraints: tuple
    finite_constraints: tuple = ()
    x_bounds: Optional[Array] = None
    y_bounds: Optional[Array] = None
    known_solution: Optional[Array] = None
    known_objective: Optional[float] = None
    start: Optional[Array] = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "si_constraints", tuple(self.si_constraints))
        object.__setattr__(self, "index_constraints", tuple(self.index_constraints))
        object.__setattr__(self, "finite_constraints", tuple(self.finite_constraints))
        bounds = self.x_bounds
        if bounds is None:
            bounds = np.array([[-DEFAULT_BOUND, DEFAULT_BOUND]] * self.n)
        bounds = np.asarray(bounds, dtype=float).reshape(self.n, 2).copy()
        # master solves need a finite box: -inf lower and +inf upper bounds
        # stand for the default box, finite ones are kept as declared
        bounds[bounds[:, 0] == -np.inf, 0] = -DEFAULT_BOUND
        bounds[bounds[:, 1] == np.inf, 1] = DEFAULT_BOUND
        object.__setattr__(self, "x_bounds", bounds)
        if self.y_bounds is not None:
            object.__setattr__(self, "y_bounds", np.asarray(
                self.y_bounds, dtype=float).reshape(self.m, 2))
        if self.known_solution is not None:
            object.__setattr__(self, "known_solution",
                               np.asarray(self.known_solution, dtype=float))
        if self.start is not None:
            object.__setattr__(self, "start", np.asarray(self.start, dtype=float))

    @property
    def n_si(self) -> int:
        return len(self.si_constraints)


def index_set_box(problem: SipProblem) -> Array:
    """The (m, 2) box around the index set: ``y_bounds`` when declared,
    else the box of the index constraints when each is affine in one y_j
    (an interval bound) or constant, read off at two probe points.
    ValueError, naming ``y_bounds``, when neither gives a finite box."""
    if problem.y_bounds is not None:
        box = problem.y_bounds
        if not (np.isfinite(box).all() and (box[:, 0] <= box[:, 1]).all()):
            raise ValueError(f"y_bounds {box.tolist()}: expected finite "
                             "[lo, hi] pairs with lo <= hi")
        return box
    lo, hi = np.full(problem.m, -np.inf), np.full(problem.m, np.inf)
    zero = np.zeros(problem.m)
    for l, v in enumerate(problem.index_constraints):
        grad = v.gradient(zero)
        affine = (np.abs(grad - v.gradient(zero + 0.37)).max() <= 1e-12
                  and np.abs(v.hessian(zero)).max() <= 1e-12)
        (axes,) = np.nonzero(np.abs(grad) > 1e-12)
        if not affine or len(axes) > 1:
            raise ValueError(
                f"index_constraints[{l}] is not an interval bound on one y_j, "
                "so the index set may be empty or unbounded: declare y_bounds")
        for j in axes:      # none when v is constant: it bounds nothing
            end = -v.value(zero) / grad[j]
            if grad[j] > 0:
                hi[j] = min(hi[j], end)
            else:
                lo[j] = max(lo[j], end)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("unbounded index set: some y_j lacks a lower or an "
                         "upper interval bound; declare y_bounds")
    return np.stack([lo, hi], axis=1)


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_problem`; never raises on bad data.
    ``grid`` is the lower-level grid (``lower_level.index_grid``) built to
    check the index set, None when none could be built."""

    valid: bool
    issues: list
    grid: object = None

    def __str__(self):
        if self.valid:
            return "valid"
        return "; ".join(self.issues)


def _probe_field(field: ScalarField, z, label: str, issues: list) -> None:
    try:
        field.value(z)
    except Exception as exc:  # noqa: BLE001 - report, never raise
        issues.append(f"{label}: evaluation failed at probe point ({exc})")
        return
    try:
        field.gradient(z)
    except Exception as exc:  # noqa: BLE001
        issues.append(f"{label}: dimension mismatch or missing gradient ({exc})")
        return
    if not field.has_hessian:
        issues.append(f"{label}: missing Hessian")
        return
    try:
        h = field.hessian(z)
    except Exception as exc:  # noqa: BLE001
        issues.append(f"{label}: dimension mismatch in Hessian ({exc})")
        return
    scale = max(1.0, float(np.abs(h).max()))
    if float(np.abs(h - h.T).max()) > 1e-12 * scale:
        issues.append(f"{label}: Hessian not symmetric")


def validate_problem(problem: SipProblem) -> ValidationReport:
    """Structural checks: dimensions, derivative availability, index set.

    Only reports problems; solver entry points assume a valid instance.
    The report keeps the lower-level grid built for the index-set check,
    for a caller that goes on to solve the lower levels.
    """
    issues: list = []
    n, m = problem.n, problem.m
    if n < 1 or m < 1:
        issues.append(f"dimension mismatch: need n >= 1 and m >= 1, got n={n}, m={m}")
        return ValidationReport(False, issues)
    if not problem.si_constraints:
        issues.append("no semi-infinite constraints declared")
    if not problem.index_constraints:
        issues.append("no index-set constraints declared")

    bounds = problem.x_bounds
    if np.any(bounds[:, 0] > bounds[:, 1]):
        issues.append("dimension mismatch: x_bounds has lower > upper")
    x_probe = np.clip(np.zeros(n), bounds[:, 0], bounds[:, 1])
    if not np.isfinite(bounds).all():
        issues.append("x_bounds: a bound is nan, a +inf lower or a -inf upper")
        x_probe[~np.isfinite(x_probe)] = 0.0
    y_probe = np.zeros(m)
    z_probe = np.concatenate([x_probe, y_probe])

    groups = [("objective", [problem.objective], x_probe),
              ("si_constraints", problem.si_constraints, z_probe),
              ("index_constraints", problem.index_constraints, y_probe),
              ("finite_constraints", problem.finite_constraints, x_probe)]
    for key, group, probe in groups:
        for k, f in enumerate(group):
            label = key if key == "objective" else f"{key}[{k}]"
            if f.arity != len(probe):
                issues.append(f"{label}: dimension mismatch (arity {f.arity}, expected {len(probe)})")
            else:
                _probe_field(f, probe, label, issues)

    if problem.known_solution is not None and problem.known_solution.shape != (n,):
        issues.append("known_solution: dimension mismatch")
    if problem.start is not None and problem.start.shape != (n,):
        issues.append("start: dimension mismatch")

    from .lower_level import index_grid     # lower_level imports this module
    grid = None
    try:    # the index set has a box, and the grid over it a feasible node
        grid = index_grid(problem)
    except Exception as exc:  # noqa: BLE001
        issues.append(f"index set: {exc}")

    return ValidationReport(not issues, issues, grid)


def verify_derivatives(field: ScalarField, points: Sequence, h: float = 1e-6) -> float:
    """Max relative error of the declared derivatives against central differences.

    Gradients are checked against central differences of the value; Hessians
    (when present) against central differences of the gradient.  Evaluation
    failures at probe points propagate as :class:`FieldEvaluationError`.
    """
    worst = 0.0
    d = field.arity
    for point in points:
        z = _as_point(point, d)
        try:
            grad = field.gradient(z)
            fd_grad = np.empty(d)
            cols = []
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd_grad[j] = (field.value(z + e) - field.value(z - e)) / (2 * h)
                if field.has_hessian:
                    cols.append((field.gradient(z + e) - field.gradient(z - e)) / (2 * h))
        except FieldEvaluationError:
            raise
        except Exception as exc:  # noqa: BLE001
            raise FieldEvaluationError(
                f"evaluation failure at probe point {z}: {exc}") from exc
        err = np.abs(grad - fd_grad).max() / max(1.0, np.abs(fd_grad).max())
        worst = max(worst, float(err))
        if field.has_hessian:
            hess = field.hessian(z)
            fd_hess = np.stack(cols, axis=1)
            fd_hess = 0.5 * (fd_hess + fd_hess.T)
            err = np.abs(hess - fd_hess).max() / max(1.0, np.abs(fd_hess).max())
            worst = max(worst, float(err))
    return worst
