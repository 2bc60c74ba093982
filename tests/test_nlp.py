import itertools
import warnings

import numpy as np
import pytest

from sipsolve import nlp
from sipsolve.model import ScalarField
from sipsolve.nlp import NlpProblem, NlpSolution, field_rows, solve_nlp, solve_qp

from helpers import (reference_blocking, reference_damped_bfgs,
                     reference_solve_qp, reference_stack_rows)


# ---------------------------------------------------------------------------
# Quadratic subproblems
# ---------------------------------------------------------------------------

class TestSolveQp:
    def test_unconstrained_minimum(self):
        r = solve_qp(np.eye(2), np.array([-1.0, 0.0]), np.zeros((0, 2)),
                     np.zeros(0))
        assert r.status == "optimal"
        assert np.allclose(r.step, [1.0, 0.0], atol=1e-12)

    def test_single_active_row(self):
        # min 0.5 d'd - 2 d1 s.t. d1 <= 0.5
        r = solve_qp(np.eye(2), np.array([-2.0, 0.0]),
                     np.array([[1.0, 0.0]]), np.array([0.5]))
        assert r.status == "optimal"
        assert np.allclose(r.step, [0.5, 0.0], atol=1e-12)
        assert r.multipliers == pytest.approx([1.5], abs=1e-12)

    def test_inconsistent_rows(self):
        r = solve_qp(np.eye(2), np.zeros(2),
                     np.array([[1.0, 0.0], [-1.0, 0.0]]),
                     np.array([-1.0, -1.0]))
        assert r.status == "infeasible"

    def test_row_whose_normal_underflows_is_infeasible(self):
        # 1e-170 * d <= -1 needs d = -1e170, but n'H^-1 n underflows to 0
        r = solve_qp(np.eye(1), np.zeros(1), np.array([[1e-170]]),
                     np.array([-1.0]))
        assert r.status == "infeasible"

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    @pytest.mark.parametrize("which", ["H", "g", "A", "b"])
    def test_nonfinite_data(self, entry, which):
        data = {"H": np.eye(2), "g": np.array([1.0, 0.0]),
                "A": np.array([[1.0, 1.0]]), "b": np.array([1.0])}
        data[which].flat[0] = entry
        r = solve_qp(*data.values())
        assert r.status == "nonfinite"
        assert not r.step.any() and not r.multipliers.any()

    @pytest.mark.parametrize("rows", [0, 1])
    def test_singular_hessian_is_a_status(self, rows):
        # [[1, 1], [1, 1]] has no inverse: a status, not a LinAlgError
        r = solve_qp(np.ones((2, 2)), np.array([1.0, 0.0]),
                     np.array([[1.0, 0.0]])[:rows], np.array([-1.0])[:rows])
        assert r.status == "singular"
        assert not r.step.any() and not r.multipliers.any()

    def test_bounds_become_active(self):
        r = solve_qp(np.eye(1), np.array([-3.0]), np.zeros((0, 1)),
                     np.zeros(0), lower=np.array([-1.0]), upper=np.array([1.0]))
        assert r.status == "optimal"
        assert r.step == pytest.approx([1.0])
        assert r.upper_multipliers == pytest.approx([2.0])

    def test_inactive_rows_get_zero_multiplier(self):
        r = solve_qp(np.eye(2), np.array([-1.0, 0.0]),
                     np.array([[1.0, 0.0]]), np.array([5.0]))
        assert r.status == "optimal"
        assert r.multipliers == pytest.approx([0.0])

    def test_active_rows_in_stacked_order(self):
        # stacked rows: A-row 0, lower bound of d1 (1), upper bounds of d2
        # (2) and d3 (3); infinite bounds get no row
        r = solve_qp(np.eye(3), np.array([3.0, -3.0, 0.0]),
                     np.array([[0.0, 0.0, 1.0]]), np.array([5.0]),
                     lower=np.array([-1.0, -np.inf, -np.inf]),
                     upper=np.array([np.inf, 1.0, 2.0]))
        assert r.status == "optimal"
        assert sorted(r.active) == [1, 2]
        assert r.lower_multipliers == pytest.approx([2.0, 0.0, 0.0])
        assert r.upper_multipliers == pytest.approx([0.0, 2.0, 0.0])

    def test_duplicate_and_near_duplicate_rows(self):
        # rows 0 and 1 are equal and row 2 differs from them by 1e-10, as
        # discretization rows do once their points converge
        H, d = np.eye(2), 2
        g = np.array([1.6974710955680838, -1.5189403413824896])
        A = np.array([[0.008369518090183818, 0.7991067617711469],
                      [0.008369518090183818, 0.7991067617711469],
                      [0.00836951801416071, 0.7991067615946736],
                      [0.5166682283361024, -1.4366607663049735],
                      [1.208369573042763, -0.5218933612277183]])
        b = np.array([0.14099891970310413, 0.14099891970310413,
                      0.1409989196099154, 0.5363766715220737,
                      -0.20185118854431372])
        lower, upper = -3.0 * np.ones(d), 3.0 * np.ones(d)
        r = solve_qp(H, g, A, b, lower, upper)
        assert r.status == "optimal"
        stationarity = (H @ r.step + g + A.T @ r.multipliers
                        - r.lower_multipliers + r.upper_multipliers)
        assert np.abs(stationarity).max() <= 1e-12
        assert (A @ r.step - b).max() <= 1e-12
        assert r.multipliers.min() >= 0.0
        assert np.abs(r.multipliers * (A @ r.step - b)).max() <= 1e-12
        assert len(r.active) <= d


def _same_qp(a, b) -> bool:
    """Two QpResults hold the same bits."""
    arrays = ("step", "multipliers", "lower_multipliers", "upper_multipliers")
    return (all(getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in arrays)
            and (a.status, a.active) == (b.status, b.active))


def _bound_row_cases(rng):
    """QPs whose bounds are absent, partly infinite or all finite, in
    alternating dimensions; zero is feasible."""
    for trial in range(120):
        d = (1, 2, 3, 5)[trial % 4]
        M = rng.normal(size=(d, d))
        H = M @ M.T + 0.5 * np.eye(d)
        g = rng.normal(size=d) * 3.0
        A = rng.normal(size=(int(rng.integers(0, 4)), d))
        b = rng.uniform(0.0, 1.0, size=len(A))
        lower = -rng.uniform(0.1, 1.0, size=d)
        upper = rng.uniform(0.1, 1.0, size=d)
        lower[rng.random(d) < 0.4] = -np.inf
        upper[rng.random(d) < 0.4] = np.inf
        bounds = ((None, None), (lower, None), (None, upper), (lower, upper))
        yield (H, g, A, b) + bounds[trial % 3 if trial % 5 else 3]


class TestBoundRows:
    """The bound rows are built once per (dimension, finite pattern); every
    QP returns the bits of the rows built per call."""

    def test_interleaved_calls_match_the_per_call_rows(self, monkeypatch):
        rng = np.random.default_rng(3)
        for case in _bound_row_cases(rng):
            # a cold solve, then a hot start from its working set
            cold = solve_qp(*case)
            hot = solve_qp(*case, cold.active)
            with monkeypatch.context() as patched:
                patched.setattr(nlp, "_stack_rows", reference_stack_rows)
                assert _same_qp(cold, solve_qp(*case))
                assert _same_qp(hot, solve_qp(*case, cold.active))
            assert cold.status == hot.status == "optimal"

    def test_elastic_layout_matches_the_per_call_rows(self, monkeypatch):
        rng = np.random.default_rng(4)
        for H, g, A, b, lower, upper in _bound_row_cases(rng):
            d = len(g)
            lower = np.full(d, -np.inf) if lower is None else lower
            upper = np.full(d, np.inf) if upper is None else upper
            # two opposite rows that no point satisfies
            A = np.vstack([A, np.eye(d)[:1], -np.eye(d)[:1]])
            b = np.concatenate([b, [-0.5, -0.5]])
            got = nlp._solve_qp_elastic(H, g, A, b, lower, upper, 1e4)
            with monkeypatch.context() as patched:
                patched.setattr(nlp, "_stack_rows", reference_stack_rows)
                want = nlp._solve_qp_elastic(H, g, A, b, lower, upper, 1e4)
            assert _same_qp(got, want)
            assert got.status == "optimal"

    def test_cached_rows_are_read_only(self):
        lower = np.array([-1.0, -np.inf, -2.0])
        upper = np.array([np.inf, 1.0, 3.0])
        C, _, lo_idx, up_idx = nlp._stack_rows(np.zeros((0, 3)), np.zeros(0),
                                               lower, upper)
        rows, cached_lo, cached_up = nlp._bound_rows(
            np.isfinite(lower).tobytes(), np.isfinite(upper).tobytes())
        assert lo_idx is cached_lo and up_idx is cached_up
        assert C.tobytes() == rows.tobytes()
        for array in (rows, cached_lo, cached_up):
            with pytest.raises(ValueError):
                array[0] = 7


class TestSolveLinear:
    """``nlp.solve_linear`` is numpy's LAPACK gufunc without the wrapper of
    ``np.linalg.solve``; this also pins the private gufunc it calls."""

    @staticmethod
    def _systems(rng):
        for n in range(1, 13):
            yield rng.normal(size=(n, n)), rng.normal(size=n)
            # singular values from 1 down to 1e-15
            u, _ = np.linalg.qr(rng.normal(size=(n, n)))
            v, _ = np.linalg.qr(rng.normal(size=(n, n)))
            yield (u * np.logspace(0.0, -15.0, n)) @ v.T, rng.normal(size=n)
            hilbert = 1.0 / (np.arange(n)[:, None] + np.arange(n) + 1.0)
            yield hilbert, rng.normal(size=n)

    def test_same_bits_as_numpy(self):
        rng = np.random.default_rng(11)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            for a, b in self._systems(rng):
                got = nlp.solve_linear(a, b)
                assert got.tobytes() == np.linalg.solve(a, b).tobytes()

    def test_square_overflow_is_still_finite(self):
        # x @ x overflows, x does not
        a, b = np.eye(2), np.array([1e200, -1e200])
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            got = nlp.solve_linear(a, b)
        assert got.tobytes() == b.tobytes()

    @pytest.mark.parametrize("a, b", [
        ([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0]),       # singular
        ([[0.0]], [1.0]),
        ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        ([[1.0, np.inf], [1.0, 1.0]], [1.0, 2.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 1.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, -np.inf]),
        ([[1e-300, 0.0], [0.0, 1.0]], [1e300, 1.0]),   # x overflows
    ])
    def test_none_where_numpy_raises_or_is_not_finite(self, a, b):
        a, b = np.array(a), np.array(b)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            assert nlp.solve_linear(a, b) is None
            try:
                x = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                return
        assert not np.isfinite(x).all()

    def test_inf_with_a_finite_solution_is_numpys(self):
        # LAPACK divides by the inf pivot: x = [1 / inf, 1], as numpy has it
        a, b = np.array([[np.inf, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0])
        with np.errstate(all="ignore"):
            got = nlp.solve_linear(a, b)
        assert got.tobytes() == np.linalg.solve(a, b).tobytes()
        assert got.tolist() == [0.0, 1.0]

    def test_qp_sets_its_own_error_state(self):
        # a singular Hessian, and a hint whose KKT matrix is singular: the
        # gufunc flags both, and solve_qp lets no warning out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = solve_qp(np.ones((2, 2)), np.array([1.0, 0.0]),
                         np.zeros((0, 2)), np.zeros(0))
            assert r.status == "singular"
            A = np.array([[1.0, 0.0], [1.0, 0.0]])
            r = solve_qp(np.eye(2), np.array([-1.0, 0.0]), A,
                         np.array([0.5, 0.5]), active=(0, 1))
            assert r.status == "optimal" and r.active == (0,)


def _same_bits_cases(rng):
    """Strictly convex QPs with d = 1..6: duplicate, scaled and nearly
    dependent rows, small-integer data whose ratio tests tie, infeasible
    rows, and bounds absent, one-sided, two-sided or partly infinite."""
    for trial in range(900):
        d = 1 + trial % 6
        integer = trial % 3 == 0
        if integer and trial % 2:
            # every upper bound x_i <= 0 becomes active with the same
            # multiplier, then the row sum(x) / 8 <= -1 / 8: the pure dual
            # step's ratios tie d ways
            yield np.eye(d), -float(rng.integers(1, 3)) * np.ones(d), \
                np.full((1, d), 0.125), np.array([-0.125]), None, np.zeros(d)
            continue
        if integer:
            # symmetric data: rows +-e_i, +-(e_i + e_j) and +-1 over the
            # unit Hessian, so multipliers and ratios come out equal
            H = np.eye(d)
            g = -float(rng.integers(1, 3)) * np.ones(d)
            eye = np.eye(d)
            pool = np.vstack([eye, -eye, np.ones((1, d)), -np.ones((1, d)),
                              eye + np.roll(eye, 1, axis=1)])
            A = pool[rng.integers(0, len(pool), size=int(rng.integers(0, 2 * d + 3)))]
            b = rng.integers(-1, 2, size=len(A)).astype(float)
        else:
            M = rng.normal(size=(d, d))
            H = M @ M.T + 0.1 * np.eye(d)
            g = rng.normal(size=d) * 3.0
            A = rng.normal(size=(int(rng.integers(0, 2 * d + 3)), d))
            b = rng.uniform(-0.5, 1.0, size=len(A))
        if len(A) >= 2:
            i, j = rng.choice(len(A), size=2, replace=False)
            kind = trial % 4
            if kind == 1:
                A[j], b[j] = A[i], b[i]                 # duplicate
            elif kind == 2:
                A[j], b[j] = 2.0 * A[i], 2.0 * b[i]     # scaled copy
            elif kind == 3:
                A[j] = A[i] + 1e-10 * rng.normal(size=d)  # nearly dependent
                b[j] = b[i]
        pattern = rng.integers(0, 4, size=d)            # none, lo, up, both
        lower = np.where(pattern % 2 == 1, -rng.uniform(0.1, 2.0, size=d), -np.inf)
        upper = np.where(pattern >= 2, rng.uniform(0.1, 2.0, size=d), np.inf)
        if integer:
            lower, upper = np.round(lower), np.round(upper)
        which = trial % 5
        yield (H, g, A, b) + ((None, None), (lower, None), (None, upper),
                              (lower, upper), (lower, upper))[which]


def _outcome(call, a):
    """``call(a)`` as its output arrays' bytes, or its exception's type and
    message, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(a)
        except Exception as exc:    # noqa: BLE001 - compared, not handled
            return type(exc), str(exc)
    return [np.asarray(o).tobytes() for o in
            (out if isinstance(out, tuple) else (out,))]


class TestNorm:
    """``nlp.norm`` gives ``np.linalg.norm``'s bits, and its warnings."""

    def test_same_bits_as_numpy(self):
        rng = np.random.default_rng(29)
        for n in range(1, 9):
            for scale in (1.0, 1e-160, 1e150, 1e-310):
                v = rng.normal(size=n) * scale
                assert (np.array(nlp.norm(v)).tobytes()
                        == np.linalg.norm(v).tobytes())
        for v in ([np.nan, 1.0], [np.inf, -np.inf], [1e200, 1e200], [-0.0]):
            # the square overflows: numpy's warning, as an error here
            v = np.array(v)
            assert _outcome(nlp.norm, v) == _outcome(np.linalg.norm, v)


class TestEigenGufuncs:
    """``nlp.eigvalsh`` and ``nlp.eigh`` are numpy's LAPACK gufuncs without
    the wrappers of ``np.linalg.eigvalsh`` and ``eigh``; this also pins the
    private gufuncs they call."""

    @staticmethod
    def _bfgs_matrices():
        """Damped BFGS updates of the Hessians of ``_same_bits_cases``,
        each checked against the ``np.outer`` update."""
        rng = np.random.default_rng(43)
        for H, g, *_ in _same_bits_cases(np.random.default_rng(22)):
            B = H
            yield B
            for _ in range(3):
                s, y = rng.normal(size=len(g)), rng.normal(size=len(g))
                B_next = nlp._damped_bfgs(B, s, y)
                assert B_next.tobytes() == reference_damped_bfgs(B, s, y).tobytes()
                B = B_next
                yield B

    def test_same_bits_as_numpy(self):
        count = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for B in self._bfgs_matrices():
                with np.errstate(all="ignore"):
                    got = nlp.eigvalsh(B)
                    values, vectors = nlp.eigh(B)
                assert got.tobytes() == np.linalg.eigvalsh(B).tobytes()
                want = np.linalg.eigh(B)
                assert values.tobytes() == want.eigenvalues.tobytes()
                assert vectors.tobytes() == want.eigenvectors.tobytes()
                count += 1
        assert count == 4 * 900

    @pytest.mark.parametrize("a", [
        [[np.nan]], [[np.inf]], [[-np.inf]],
        [[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]], [[np.inf, 1.0], [1.0, np.inf]],
        [[1e308, 1e308], [1e308, 1e308]],
    ])
    def test_nonfinite_input_is_numpys_without_a_warning(self, a):
        # numpy's wrappers return these too (LAPACK converges, on nan);
        # under the error state the gufuncs raise and warn nothing
        a = np.array(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                got = nlp.eigvalsh(a)
                values, vectors = nlp.eigh(a)
            assert got.tobytes() == np.linalg.eigvalsh(a).tobytes()
            want = np.linalg.eigh(a)
        assert values.tobytes() == want.eigenvalues.tobytes()
        assert vectors.tobytes() == want.eigenvectors.tobytes()

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_no_convergence_is_nan_where_numpy_raises(self, entry):
        # from size 3, LAPACK does not converge on these: numpy raises, and
        # the gufuncs return nan and warn nothing
        a = np.full((3, 3), entry)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvalsh(a)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                got = nlp.eigvalsh(a)
                values, vectors = nlp.eigh(a)
        assert np.isnan(got).all() and np.isnan(values).all()
        assert vectors.shape == (3, 3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_nan_bfgs_matrix_is_reset_without_a_warning(self, monkeypatch, d):
        # an update that is nan has nan eigenvalues (from d = 3 numpy's
        # eigvalsh raises on it): the next QP gets the identity, as after
        # an ill-conditioned update
        hessians = []
        solve = nlp.solve_qp

        def recorded(H, *args):
            hessians.append(H)
            return solve(H, *args)

        monkeypatch.setattr(nlp, "solve_qp", recorded)
        monkeypatch.setattr(nlp, "_damped_bfgs",
                            lambda B, s, y: np.full((d, d), np.nan))
        objective = ScalarField(d, lambda x: x @ x, lambda x: 2.0 * x,
                                hessian=lambda x: 2.0 * np.eye(d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_nlp(NlpProblem(d, objective), np.arange(3.0, 3.0 + d),
                      max_iter=2)
        assert len(hessians) >= 2
        assert all(np.array_equal(H, np.eye(d)) for H in hessians)

    def test_nan_hessian_has_no_negative_curvature(self):
        # the reduced Hessian's eigenvalues are nan: no direction is
        # offered, and nothing warns
        base = _saddle_problem()
        obj = ScalarField(2, base.objective.value, base.objective.gradient,
                          hessian=lambda x: np.full((2, 2), np.nan))
        p = NlpProblem(2, obj, base.constraints, base.lower, base.upper)
        sol = solve_nlp(base, np.array([0.0, 0.5]))
        assert sol.converged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nlp.negative_curvature(p, sol) is None


class TestSameBitsAsNumpySolve:
    """``solve_qp`` on ``solve_linear``, Python-float ratio tests and per-QP
    row tolerances returns the bits of the np.linalg.solve version
    (``helpers.reference_solve_qp``)."""

    def test_cold_and_hinted_solves(self, monkeypatch):
        rng = np.random.default_rng(22)
        blocked, tied, statuses = [], [], set()
        blocking = nlp._blocking

        def recorded(lam_w, r):
            out = blocking(lam_w, r)
            assert out == reference_blocking(lam_w, np.array(r))
            ratios = [lw / rj for lw, rj in zip(lam_w, r) if rj > 1e-12]
            blocked.append(out[0] >= 0)
            tied.append(bool(ratios) and ratios.count(min(ratios)) > 1)
            return out

        monkeypatch.setattr(nlp, "_blocking", recorded)
        for H, g, A, b, lower, upper in _same_bits_cases(rng):
            cold = solve_qp(H, g, A, b, lower, upper)
            assert _same_qp(cold, reference_solve_qp(H, g, A, b, lower, upper))
            statuses.add(cold.status)
            n_stacked = len(A) + sum(np.isfinite(bound).sum()
                                     for bound in (lower, upper)
                                     if bound is not None)
            bad = tuple(rng.integers(0, max(n_stacked, 1),
                                     size=int(rng.integers(1, 8))))
            for hint in (cold.active, cold.active[::-1], bad):
                if n_stacked == 0:
                    break
                got = solve_qp(H, g, A, b, lower, upper, hint)
                want = reference_solve_qp(H, g, A, b, lower, upper, hint)
                assert _same_qp(got, want)
        # the cases reach the dual method's branches and its ratio ties
        assert {"optimal", "infeasible"} <= statuses
        assert sum(blocked) >= 1000 and sum(tied) >= 100

    def test_overflowed_step_ends_the_dual_method(self, monkeypatch):
        # the full step onto a row with a tiny normal overflows x; on the
        # next row the step length is nan and no working row can drop
        blocked = []
        blocking = nlp._blocking
        monkeypatch.setattr(nlp, "_blocking",
                            lambda lam_w, r: blocked.append(blocking(lam_w, r))
                            or blocked[-1])
        A = np.array([[1e-160, 0.0], [0.0, 1.0]])
        res = solve_qp(np.eye(2), np.zeros(2), A, np.array([-1e-10, 0.0]),
                       None, None)
        assert res.status == "max_iter" and res.active == (0,)
        assert blocked[-1] == (-1, np.inf)

    @pytest.mark.parametrize("lam_w, r", [
        ([1.0, 2.0, 0.5], [1.0, 2.0, 0.5]),             # a three-way tie
        ([0.0, 0.0], [1.0, 1.0]),
        ([1.0, 2.0], [-1.0, 0.0]),                      # none positive
        ([], []),
        ([1.0, 2.0], [1e-13, 1.0]),                     # at the cutoff
        ([np.inf, np.inf], [-1.0, 2.0]),                # all ratios inf
        ([1.0, np.nan, np.nan], [1.0, 1.0, 1.0]),       # first nan wins
        ([-np.inf, 1.0], [1.0, 1.0]),
        ([1e300, 1.0], [1e-11, 1.0]),
    ])
    def test_blocking_edge_cases(self, lam_w, r):
        got = nlp._blocking(lam_w, r)
        with np.errstate(all="ignore"):
            want = reference_blocking(lam_w, np.array(r, dtype=float))
        assert got[0] == want[0]
        assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()


def _qp_oracle(H, g, A, b, lower, upper):
    """Enumerate active sets of a strictly convex QP with bound rows folded in.

    Returns (d, feasible). Small dimensions only.
    """
    d = len(g)
    rows = [A[k] for k in range(len(b))]
    rhs = list(b)
    for j in range(d):
        e = np.zeros(d)
        e[j] = -1.0
        rows.append(e)
        rhs.append(-lower[j])
        rows.append(-e)
        rhs.append(upper[j])
    rows = np.array(rows)
    rhs = np.array(rhs)
    nrows = len(rhs)

    best = None
    for size in range(d + 1):
        for combo in itertools.combinations(range(nrows), size):
            Aw = rows[list(combo)]
            kkt = np.block([[H, Aw.T], [Aw, np.zeros((size, size))]])
            rhs_w = np.concatenate([-g, rhs[list(combo)]])
            try:
                sol = np.linalg.solve(kkt, rhs_w)
            except np.linalg.LinAlgError:
                continue
            step, mult = sol[:d], sol[d:]
            if np.any(mult < -1e-10):
                continue
            if np.any(rows @ step - rhs > 1e-9):
                continue
            val = 0.5 * step @ H @ step + g @ step
            if best is None or val < best[1] - 1e-12:
                best = (step, val)
    if best is None:
        return None, False
    return best[0], True


class TestDualPolishFromItsBuffer:
    """The dual method's final KKT solve reads the leading block of its own
    step buffer, which holds [[H, N'], [N, 0]] for the working set in
    order: its result has the bits of ``_equality_optimum`` on a freshly
    built matrix for the final working set."""

    def test_random_strictly_convex_qps(self):
        polished = 0
        for H, g, A, b, lower, upper in _same_bits_cases(np.random.default_rng(25)):
            d = len(g)
            lower = np.full(d, -np.inf) if lower is None else lower
            upper = np.full(d, np.inf) if upper is None else upper
            C, e, _, _ = nlp._stack_rows(A, b, lower, upper)
            tol = nlp._QP_FEAS_TOL * (1.0 + np.abs(e))
            with np.errstate(all="ignore"):
                x, lam, work, status = nlp._dual_active_set(H, g, C, e, tol)
                fresh = (nlp._equality_optimum(nlp._kkt_matrix(H, C[work]), g,
                                               C, e, tol, list(work))
                         if status == "optimal" and work else None)
            if fresh is None:
                continue
            polished += 1
            assert x.tobytes() == fresh[0].tobytes()
            assert lam.tobytes() == fresh[1].tobytes()
            assert work == fresh[2]
        assert polished >= 300


class TestQpAgainstEnumeration:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_strictly_convex_qps(self, dim):
        rng = np.random.default_rng(5 + dim)
        for trial in range(40):
            M = rng.normal(size=(dim, dim))
            H = M @ M.T + dim * np.eye(dim)
            g = rng.normal(size=dim)
            nrows = rng.integers(0, 4)
            A = rng.normal(size=(nrows, dim))
            b = rng.normal(size=nrows)
            lower = -2.0 * np.ones(dim)
            upper = 2.0 * np.ones(dim)

            expect, feasible = _qp_oracle(H, g, A, b, lower, upper)
            r = solve_qp(H, g, A, b, lower=lower, upper=upper)
            # own generator: the QPs drawn stay those of the cold-only test
            self._check_hints(np.random.default_rng([dim, trial]),
                              H, g, A, b, lower, upper, r, trial)
            if not feasible:
                assert r.status == "infeasible", trial
                continue
            assert r.status == "optimal", (trial, r.status)
            val = 0.5 * r.step @ H @ r.step + g @ r.step
            val_ref = 0.5 * expect @ H @ expect + g @ expect
            assert val <= val_ref + 1e-8, trial
            assert np.allclose(r.step, expect, atol=1e-6), trial

    @staticmethod
    def _check_hints(rng, H, g, A, b, lower, upper, cold, trial):
        """A hint changes the work done, never the answer."""
        dim = len(g)
        n_stacked = len(b) + 2 * dim    # A-rows, then both finite bounds
        subset = rng.choice(n_stacked, size=rng.integers(1, dim + 1),
                            replace=False)
        hints = [cold.active, tuple(int(j) for j in subset),
                 tuple(range(n_stacked)),
                 cold.active + cold.active[:1] if cold.active else (0, 0)]
        for hint in hints:
            r = solve_qp(H, g, A, b, lower=lower, upper=upper, active=hint)
            assert r.status == cold.status, (trial, hint)
            if cold.status != "optimal":
                continue
            assert np.abs(r.step - cold.step).max() <= 1e-10, (trial, hint)
            for mult in (r.multipliers, r.lower_multipliers, r.upper_multipliers):
                assert mult.min(initial=0.0) >= 0.0, (trial, hint)

    def test_oracle_detects_infeasible(self):
        _, feasible = _qp_oracle(np.eye(1), np.zeros(1),
                                 np.array([[1.0]]), np.array([-5.0]),
                                 np.array([-2.0]), np.array([2.0]))
        assert not feasible


# ---------------------------------------------------------------------------
# Nonlinear subsolver
# ---------------------------------------------------------------------------

def _linear_objective():
    return ScalarField(2, lambda x: -x[0] + 1.5 * x[1],
                       lambda x: np.array([-1.0, 1.5]),
                       hessian=lambda x: np.zeros((2, 2)))


def _quadratic_objective():
    return ScalarField(2, lambda x: x[0] ** 2 + x[1] ** 2,
                       lambda x: 2.0 * x, hessian=lambda x: 2.0 * np.eye(2))


class TestSolveNlp:
    def test_box_lp(self):
        p = NlpProblem(2, _linear_objective(),
                       lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]))
        sol = solve_nlp(p, np.zeros(2))
        assert sol.converged
        assert np.allclose(sol.z, [1.0, -1.0], atol=1e-9)

    def test_unconstrained_quadratic(self):
        p = NlpProblem(2, _quadratic_objective())
        sol = solve_nlp(p, np.array([3.0, 4.0]))
        assert sol.converged
        assert np.allclose(sol.z, [0.0, 0.0], atol=1e-9)
        assert sol.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_single_nonbinding_direction(self):
        # -1 + 2 x1 - x2 <= 0 pushes the LP optimum to (0, -1)
        row = ScalarField(2, lambda x: -1.0 + 2.0 * x[0] - x[1],
                          lambda x: np.array([2.0, -1.0]),
                          hessian=lambda x: np.zeros((2, 2)))
        p = NlpProblem(2, _linear_objective(), constraints=field_rows([row]),
                       lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]))
        sol = solve_nlp(p, np.zeros(2))
        assert sol.converged
        assert np.allclose(sol.z, [0.0, -1.0], atol=1e-8)

    def test_kkt_invariants_recomputed(self):
        row = ScalarField(2, lambda x: -1.0 + 2.0 * x[0] - x[1],
                          lambda x: np.array([2.0, -1.0]),
                          hessian=lambda x: np.zeros((2, 2)))
        p = NlpProblem(2, _linear_objective(), constraints=field_rows([row]),
                       lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]))
        sol = solve_nlp(p, np.zeros(2))
        assert sol.converged

        lag = p.objective.gradient(sol.z).copy()
        lag += sol.multipliers[0] * row.gradient(sol.z)
        lag -= sol.lower_multipliers
        lag += sol.upper_multipliers
        assert np.abs(lag).max() <= 1e-8

        # primal feasibility and complementarity from returned data
        assert row.value(sol.z) <= 1e-9
        assert sol.multipliers.min() >= -1e-12
        assert abs(sol.multipliers[0] * row.value(sol.z)) <= 1e-8
        assert np.all(sol.lower_multipliers * (sol.z - p.lower) <= 1e-8)
        assert np.all(sol.upper_multipliers * (p.upper - sol.z) <= 1e-8)
        assert sol.kkt_residual <= 1e-9
        assert sol.max_violation <= 1e-9

    def test_start_outside_box_is_clipped(self):
        p = NlpProblem(2, _quadratic_objective(),
                       lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]))
        sol = solve_nlp(p, np.array([50.0, -50.0]))
        assert sol.converged
        assert np.allclose(sol.z, [0.0, 0.0], atol=1e-9)

    def test_deterministic(self):
        row = ScalarField(2, lambda x: x[0] ** 2 + x[1] ** 2 - 0.5,
                          lambda x: 2.0 * x, hessian=lambda x: 2.0 * np.eye(2))
        p = NlpProblem(2, _linear_objective(), constraints=field_rows([row]),
                       lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]))
        a = solve_nlp(p, np.array([0.1, 0.1]))
        b = solve_nlp(p, np.array([0.1, 0.1]))
        assert np.array_equal(a.z, b.z)
        assert a.iterations == b.iterations

    def test_infeasible_rows_yield_elastic_compromise(self):
        left = ScalarField(1, lambda x: x[0] + 1.0, lambda x: np.ones(1),
                           hessian=lambda x: np.zeros((1, 1)))
        right = ScalarField(1, lambda x: 1.0 - x[0], lambda x: -np.ones(1),
                            hessian=lambda x: np.zeros((1, 1)))
        obj = ScalarField(1, lambda x: x[0] ** 2, lambda x: 2.0 * x,
                          hessian=lambda x: 2.0 * np.eye(1))
        p = NlpProblem(1, obj, constraints=field_rows([left, right]),
                       lower=np.array([-2.0]), upper=np.array([2.0]))
        sol = solve_nlp(p, np.zeros(1))
        assert not sol.converged
        assert sol.max_violation > 0.5

    def test_nonlinear_constraint_curvature(self):
        # min -x1 + 1.5 x2 on the disk x1^2 + x2^2 <= 0.5
        row = ScalarField(2, lambda x: x[0] ** 2 + x[1] ** 2 - 0.5,
                          lambda x: 2.0 * x, hessian=lambda x: 2.0 * np.eye(2))
        p = NlpProblem(2, _linear_objective(), constraints=field_rows([row]))
        sol = solve_nlp(p, np.array([0.1, 0.1]))
        assert sol.converged
        r = np.sqrt(0.5)
        direction = np.array([-1.0, 1.5]) / np.sqrt(1.0 + 1.5 ** 2)
        assert np.allclose(sol.z, -r * direction, atol=1e-7)

    def test_later_steps_start_from_the_previous_working_set(self, monkeypatch):
        # every QP whose hint (the previous step's working set) is not empty
        # is solved by one KKT solve on it, without a cold dual method run
        hints, cold_runs = [], []
        solve, cold = nlp.solve_qp, nlp._dual_active_set

        def hinted(H, g, A, b, lower=None, upper=None, active=()):
            hints.append(active)
            return solve(H, g, A, b, lower, upper, active)

        def counted(*args):
            cold_runs.append(1)
            return cold(*args)

        monkeypatch.setattr(nlp, "solve_qp", hinted)
        monkeypatch.setattr(nlp, "_dual_active_set", counted)
        row = ScalarField(2, lambda x: x[0] ** 2 + x[1] ** 2 - 0.5,
                          lambda x: 2.0 * x)
        p = NlpProblem(2, _linear_objective(), constraints=field_rows([row]))
        sol = solve_nlp(p, np.array([0.1, 0.1]))
        assert sol.converged
        assert sum(1 for hint in hints if hint) >= 5
        assert len(cold_runs) == sum(1 for hint in hints if not hint)

    def test_step_that_changes_nothing_ends_the_loop(self, monkeypatch):
        # the value is flat where the gradient is not: at z = 1e10 the trial
        # point z + alpha * step rounds to z before the Armijo bound rounds
        # to the merit, so from the second step on each accepted step leaves
        # the state bit for bit as it found it.  The loop stops there with
        # the result of running every step up to max_iter.
        obj = ScalarField(1, lambda z: 1.0, lambda z: np.array([1.0]))
        p = NlpProblem(1, obj)
        qps = []
        solve = nlp.solve_qp

        def counted(*args, **kwargs):
            qps.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(nlp, "solve_qp", counted)
        short = solve_nlp(p, np.array([1e10]), max_iter=50)
        short_qps = len(qps)
        monkeypatch.setattr(nlp, "_state", lambda *parts: [object()])
        qps.clear()
        full = solve_nlp(p, np.array([1e10]), max_iter=50)
        assert full.status == "max_iter" and full.iterations == 50
        for name in NlpSolution.__dataclass_fields__:
            a, b = np.asarray(getattr(short, name)), np.asarray(getattr(full, name))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (short_qps, len(qps)) == (3, 51)

    def test_singular_qp_ends_in_qp_failure(self, monkeypatch):
        singular = nlp.QpResult(np.zeros(2), np.zeros(0), np.zeros(2),
                                np.zeros(2), "singular")
        monkeypatch.setattr(nlp, "solve_qp", lambda *args: singular)
        sol = solve_nlp(NlpProblem(2, _quadratic_objective()),
                        np.array([3.0, 4.0]))
        assert sol.status == "qp_failure" and sol.iterations == 1

    def test_ill_conditioned_bfgs_matrix_is_reset(self, monkeypatch):
        # an update whose smallest eigenvalue is 1e-14 of its largest is
        # positive definite but singular to working precision: the next QP
        # gets the identity instead
        hessians = []
        solve = nlp.solve_qp

        def recorded(H, *args):
            hessians.append(H)
            return solve(H, *args)

        monkeypatch.setattr(nlp, "solve_qp", recorded)
        monkeypatch.setattr(nlp, "_damped_bfgs",
                            lambda B, s, y: np.diag([1e-14, 1.0]))
        solve_nlp(NlpProblem(2, _quadratic_objective()), np.array([3.0, 4.0]),
                  max_iter=2)
        assert len(hessians) >= 2
        assert all(np.array_equal(H, np.eye(2)) for H in hessians)

    def test_respects_iteration_budget(self):
        p = NlpProblem(2, _quadratic_objective())
        sol = solve_nlp(p, np.array([3.0, 4.0]), max_iter=1)
        assert sol.iterations <= 1

    def test_nonfinite_trial_point_is_rejected(self):
        # log(z) is -inf at the lower bound, where the first full step lands
        obj = ScalarField(1, lambda z: np.log(z[0]) if z[0] > 0 else -np.inf,
                          lambda z: np.array([1.0 / z[0]]))
        p = NlpProblem(1, obj, lower=np.array([0.0]), upper=np.array([2.0]))
        sol = solve_nlp(p, np.array([1.0]))
        assert sol.z[0] > 0.0
        assert np.isfinite(sol.objective_value)

    def test_rows_evaluated_once_per_trial_point(self):
        # the line search evaluates the objective value once per trial; the
        # rows (values and Jacobian together) must follow it exactly, with
        # no second evaluation at the accepted point
        calls = {"objective": 0, "row_value": 0, "row_gradient": 0}

        def counted(key, fn):
            def wrapper(z):
                calls[key] += 1
                return fn(z)
            return wrapper

        obj = ScalarField(2, counted("objective", lambda x: -x[0] + 1.5 * x[1]),
                          lambda x: np.array([-1.0, 1.5]))
        row = ScalarField(2, counted("row_value", lambda x: x[0] ** 2 + x[1] ** 2 - 0.5),
                          counted("row_gradient", lambda x: 2.0 * x))
        p = NlpProblem(2, obj, constraints=field_rows([row]))
        sol = solve_nlp(p, np.array([0.1, 0.1]))
        assert sol.converged
        assert sol.iterations >= 4      # three steps or more, then the KKT test
        assert calls["row_value"] == calls["objective"]
        assert calls["row_gradient"] == calls["objective"]

    def test_best_iterate_ranks_feasible_points_by_objective(self):
        # the lower-level local run of design_centering family 0 at this x,
        # from grid node y0: the fourth iterate is feasible within TOL_FEAS
        # (violation 4e-10) with objective -3.1e-4, far below the start's
        # +0.0619 (violation exactly 0); cut off after five iterations, the
        # run must return the better of the two
        from sipsolve.lower_level import FamilyProblem, index_set_box
        from sipsolve.problems import get_problem

        dc = get_problem("design_centering")
        x = np.array([1.6647114202107154, -0.3334434839090681, 2.3100340905999035,
                      0.6665565160909319, -1.328949451599116])
        y0 = np.array([-0.8348214285714286, 0.5074404761904763])
        p = FamilyProblem(dc, 0, x, index_set_box(dc)).nlp
        start = p.objective.value(y0)
        sol = solve_nlp(p, y0, max_iter=5)
        assert sol.status == "max_iter"
        assert sol.max_violation <= nlp.TOL_FEAS
        assert sol.objective_value < start - 0.06

    def test_row_outside_its_domain_rejects_the_trial_point(self):
        # -log(x1) - 2 <= 0 from a spec file: the first full step lands on
        # x1 = 0, where the value is inf and the gradient raises DomainError
        from sipsolve.expressions import parse_expression
        from sipsolve.specfile import _compile_field

        row = _compile_field(parse_expression("-log(x1) - 2"), 1, 0, "x", "c1")
        obj = ScalarField(1, lambda x: x[0], lambda x: np.ones(1))
        p = NlpProblem(1, obj, constraints=field_rows([row]),
                       lower=np.array([-2.0]), upper=np.array([2.0]))
        sol = solve_nlp(p, np.array([1.0]))
        assert sol.converged
        assert sol.z[0] == pytest.approx(np.exp(-2.0), abs=1e-9)


# ---------------------------------------------------------------------------
# Row Hessians and the second-order check
# ---------------------------------------------------------------------------

def test_field_rows_hessian_matches_differences():
    from helpers import fd_block_hessian

    fields = [ScalarField(2, lambda x: x[0] ** 2 * x[1] - np.sin(x[1]),
                          lambda x: np.array([2.0 * x[0] * x[1],
                                              x[0] ** 2 - np.cos(x[1])]),
                          hessian=lambda x: np.array([[2.0 * x[1], 2.0 * x[0]],
                                                      [2.0 * x[0], np.sin(x[1])]])),
              ScalarField(2, lambda x: np.exp(x[0] - x[1]),
                          lambda x: np.exp(x[0] - x[1]) * np.array([1.0, -1.0]),
                          hessian=lambda x: np.exp(x[0] - x[1])
                          * np.array([[1.0, -1.0], [-1.0, 1.0]]))]
    rows = field_rows(fields)
    z, w = np.array([0.4, -0.7]), np.array([1.5, -0.25])
    total = np.zeros((2, 2))
    for block, wj in zip(rows.blocks, w):
        hess = block[2](z, [wj])
        assert np.abs(hess - fd_block_hessian(block, z, np.array([wj]))).max() <= 1e-6
        total += hess
    assert np.allclose(rows.hessian(z, w), total, rtol=0.0, atol=1e-15)


def _saddle_problem():
    """min -x1^2 + 1.5 x2  s.t.  -x2 <= 0,  x in [0, 1] x [-1, 1].

    At (0, 0) the row holds the whole multiplier (1.5) and the bound
    x1 >= 0 is active with multiplier 0: a KKT point whose Lagrangian has
    curvature -2 along +x1, which the cone allows.
    """
    obj = ScalarField(2, lambda x: -x[0] ** 2 + 1.5 * x[1],
                      lambda x: np.array([-2.0 * x[0], 1.5]),
                      hessian=lambda x: np.diag([-2.0, 0.0]))
    row = ScalarField(2, lambda x: -x[1], lambda x: np.array([0.0, -1.0]),
                      hessian=lambda x: np.zeros((2, 2)))
    return NlpProblem(2, obj, constraints=field_rows([row]),
                      lower=np.array([0.0, -1.0]), upper=np.array([1.0, 1.0]))


class TestNegativeCurvature:
    def test_saddle_on_the_critical_cone(self):
        p = _saddle_problem()
        sol = solve_nlp(p, np.array([0.0, 0.5]))
        assert sol.converged
        assert np.allclose(sol.z, [0.0, 0.0], atol=1e-12)
        direction, curvature = nlp.negative_curvature(p, sol)
        assert np.allclose(direction, [1.0, 0.0], atol=1e-12)
        assert curvature == pytest.approx(-2.0, abs=1e-12)

    def test_nothing_at_a_strict_minimizer(self):
        # from (0.5, 0.5) the SQP reaches the global minimizer (1, 0)
        p = _saddle_problem()
        sol = solve_nlp(p, np.array([0.5, 0.5]))
        assert sol.converged
        assert np.allclose(sol.z, [1.0, 0.0], atol=1e-9)
        assert nlp.negative_curvature(p, sol) is None
        # no active constraint: the cone is the whole space
        p = NlpProblem(2, _quadratic_objective())
        sol = solve_nlp(p, np.array([3.0, 4.0]))
        assert sol.converged
        assert nlp.negative_curvature(p, sol) is None

    def test_direction_leaving_the_cone_is_refused(self):
        # mirror the box: at (0, 0) with x1 <= 0 active and multiplier 0,
        # -e1 is the escape and +e1 would leave the box
        base = _saddle_problem()
        p = NlpProblem(2, base.objective, base.constraints,
                       lower=np.array([-1.0, -1.0]), upper=np.array([0.0, 1.0]))
        sol = solve_nlp(p, np.array([0.0, 0.5]))
        assert sol.converged
        direction, curvature = nlp.negative_curvature(p, sol)
        assert np.allclose(direction, [-1.0, 0.0], atol=1e-12)
        assert curvature == pytest.approx(-2.0, abs=1e-12)

    def test_strongly_active_constraints_pin_the_cone(self):
        # with x1 <= 0 given a positive multiplier (objective -x1^2 + x1),
        # the cone is {d1 = 0, d2 = 0}: no direction to test
        obj = ScalarField(2, lambda x: -x[0] ** 2 - x[0] + 1.5 * x[1],
                          lambda x: np.array([-2.0 * x[0] - 1.0, 1.5]),
                          hessian=lambda x: np.diag([-2.0, 0.0]))
        base = _saddle_problem()
        p = NlpProblem(2, obj, base.constraints,
                       lower=np.array([-1.0, -1.0]), upper=np.array([0.0, 1.0]))
        sol = solve_nlp(p, np.array([-0.1, 0.5]))
        assert sol.converged
        assert np.allclose(sol.z, [0.0, 0.0], atol=1e-9)
        assert sol.upper_multipliers[0] > 0.5
        assert nlp.negative_curvature(p, sol) is None


class TestCarriedJacobian:
    """``NlpSolution`` carries the rows' values and Jacobian at its z, bit
    for bit, and ``negative_curvature`` reads them instead of evaluating
    the rows again."""

    @staticmethod
    def _assert_rows_at_z(p, sol):
        values, jac = p.constraints(sol.z)
        assert sol.constraint_values.tobytes() == values.tobytes()
        assert sol.constraint_jacobian.tobytes() == jac.tobytes()

    def test_converged_master(self):
        from sipsolve import driver
        from sipsolve.lower_level import solve_all_lower_levels
        from sipsolve.problems import get_problem

        dc = get_problem("design_centering")
        x = np.asarray(dc.start, dtype=float)
        disc = driver.DiscretizationState.empty(dc.n_si)
        for sol in solve_all_lower_levels(dc, x):
            disc.add(sol.index, sol.y)
        p, _ = driver._master_problem(dc, disc, {}, x, 2.0)
        sol = solve_nlp(p, x)
        assert sol.converged
        assert sol.constraint_jacobian.shape == (len(p.constraints), dc.n)
        self._assert_rows_at_z(p, sol)

    def test_best_iterate_at_max_iter(self):
        # the run of test_best_iterate_ranks_feasible_points_by_objective:
        # it returns an earlier iterate than its last
        from sipsolve.lower_level import FamilyProblem, index_set_box
        from sipsolve.problems import get_problem

        dc = get_problem("design_centering")
        x = np.array([1.6647114202107154, -0.3334434839090681, 2.3100340905999035,
                      0.6665565160909319, -1.328949451599116])
        y0 = np.array([-0.8348214285714286, 0.5074404761904763])
        family = FamilyProblem(dc, 0, x, index_set_box(dc)).nlp
        points = []

        def recorded(evaluate):
            return lambda z: points.append(z.copy()) or evaluate(z)

        p = NlpProblem(family.dim, family.objective,
                       nlp.Rows(*((size, recorded(evaluate), hessian) for size,
                                  evaluate, hessian in family.constraints.blocks)),
                       family.lower, family.upper)
        sol = solve_nlp(p, y0, max_iter=5)
        assert sol.status == "max_iter"
        assert sol.z.tobytes() != points[-1].tobytes()
        self._assert_rows_at_z(family, sol)

    def test_negative_curvature_reads_the_carried_rows(self):
        p = _saddle_problem()
        sol = solve_nlp(p, np.array([0.0, 0.5]))
        assert sol.converged

        def evaluated_again(z):
            raise AssertionError("rows evaluated again")

        guarded = NlpProblem(p.dim, p.objective,
                             nlp.Rows(*((size, evaluated_again, hessian)
                                        for size, _, hessian in p.constraints.blocks)),
                             p.lower, p.upper)
        direction, curvature = nlp.negative_curvature(guarded, sol)
        assert np.allclose(direction, [1.0, 0.0], atol=1e-12)
        assert curvature == pytest.approx(-2.0, abs=1e-12)
