"""Per-layer tracing of sipsolve, done from outside the package.

``Tracer`` replaces module attributes that sipsolve looks up at call time
with wrappers that record spans, and restores the originals on exit:

* ``sipsolve.driver``: solve_all_lower_levels, solve_nlp (the masters),
  compute_sensitivity, linearization_field, stationarity_residual,
  perturbation_params;
* ``sipsolve.lower_level``: solve_nlp (the local SQP runs), index_set_box;
* ``sipsolve.nlp.solve_qp``;
* ``sipsolve.specfile``: eval_taylor2, eval_value;
* the ``ScalarField`` evaluation methods (``eval`` only calls these).

A span is ``[id, parent id, solve id, name, start, end]``.  Field and
expression evaluations run 10^4 to 10^5 times per solve, so they are counted
and timed in aggregate instead of getting a span each; the time of the
outermost field call is charged to the enclosing span as covered time, so a
span's self time is its duration minus its child spans and the field calls
made directly inside it.  Everything stays in memory until ``write``.
"""
from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict

import numpy as np

_perf = time.perf_counter

_FIELD_METHODS = {"value": "model.value_calls",
                  "gradient": "model.gradient_calls",
                  "hessian": "model.hessian_calls",
                  "value_batch": "model.batch_calls"}


class Tracer:
    def __init__(self):
        self.spans = []         # [id, parent, solve, name, t0, t1]
        self.covered = []       # per span: seconds covered by children
        self.stack = []
        self.solve = -1
        self.x0 = None          # start of the solve in progress
        self._master_nlp = None  # master problem whose rows were counted last
        self.counts = Counter()
        self.times = defaultdict(float)
        self._field_depth = 0
        self._patches = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, self.solve, name, _perf(), None])
        self.covered.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> float:
        span = self.spans[sid]
        span[5] = _perf()
        self.stack.pop()
        dur = span[5] - span[4]
        if span[1] >= 0:
            self.covered[span[1]] += dur
        return dur

    def solve_span(self, solve_id: int, x0, fn, *args, **kwargs):
        """Run one driver call as the root span of solve ``solve_id``."""
        self.solve = solve_id
        self.x0 = np.asarray(x0, dtype=float)
        sid = self._open("driver.solve")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def _span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid)
                self.counts[name + ".raised"] += 1
                raise
            dur = self._close(sid)
            if after is not None:
                after(dur, result, *args, **kwargs)
            return result
        return wrapper

    # -- aggregated leaves ---------------------------------------------------
    def _field_method(self, key: str, fn):
        counts, times, covered, stack = (self.counts, self.times,
                                         self.covered, self.stack)

        def wrapper(field, arg):
            counts[key] += 1
            if self._field_depth:
                return fn(field, arg)
            self._field_depth = 1
            t0 = _perf()
            try:
                return fn(field, arg)
            finally:
                dt = _perf() - t0
                self._field_depth = 0
                times["model.eval_s"] += dt
                if stack:
                    covered[stack[-1]] += dt
        return wrapper

    def _timed(self, key: str, fn):
        counts, times = self.counts, self.times

        def wrapper(*args, **kwargs):
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                times[key] += _perf() - t0
                counts[key] += 1
        return wrapper

    # -- hooks on results ----------------------------------------------------
    def _after_lower_levels(self, dur, solutions, *args, **kwargs):
        c = self.counts
        for sol in solutions:
            c["lower_level.solutions"] += 1
            c["lower_level.distinct_maxima"] += len(sol.local_maxima)
            c["lower_level.regular"] += bool(sol.regularity.all_ok)

    def _after_local(self, dur, sol, *args, **kwargs):
        self.counts["nlp.local_sqp_iters"] += sol.iterations

    def _after_master(self, dur, sol, nlp, z0, *args, **kwargs):
        cold = np.array_equal(np.asarray(z0, dtype=float), self.x0)
        self.times["nlp.master_cold_s" if cold else "nlp.master_warm_s"] += dur
        self.counts["nlp.master_sqp_iters"] += sol.iterations
        # _solve_master solves one master problem from the warm start and
        # again from x0; its rows are counted once.  Holding the object keeps
        # its identity from being reused.
        if nlp is not self._master_nlp:
            self._master_nlp = nlp
            self.counts["driver.master_rows"] += len(nlp.constraints)
        if sol.status == "max_iter":
            self.counts["nlp.master_max_iter"] += 1
            self.times["nlp.master_max_iter_s"] += dur

    # -- install / restore ---------------------------------------------------
    def _patch(self, owner, attr: str, wrapper_of):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def __enter__(self):
        import sipsolve.driver as driver
        import sipsolve.lower_level as lower_level
        import sipsolve.nlp as nlp
        import sipsolve.specfile as specfile
        from sipsolve.model import ScalarField

        span = self._span
        self._patch(driver, "solve_all_lower_levels",
                    lambda f: span("lower_level.solve_all", f,
                                   self._after_lower_levels))
        self._patch(driver, "solve_nlp",
                    lambda f: span("nlp.master", f, self._after_master))
        self._patch(driver, "compute_sensitivity",
                    lambda f: span("sensitivity.compute", f))
        self._patch(driver, "linearization_field",
                    lambda f: span("sensitivity.linearization_field", f))
        self._patch(driver, "stationarity_residual",
                    lambda f: span("diagnostics.stationarity_residual", f))
        self._patch(driver, "perturbation_params",
                    lambda f: span("diagnostics.perturbation_params", f))
        self._patch(lower_level, "solve_nlp",
                    lambda f: span("lower_level.local_sqp", f,
                                   self._after_local))
        self._patch(lower_level, "index_set_box",
                    lambda f: span("lower_level.index_set_box", f))
        self._patch(nlp, "solve_qp", lambda f: span("nlp.qp", f))
        self._patch(specfile, "eval_taylor2",
                    lambda f: self._timed("expressions.taylor", f))
        self._patch(specfile, "eval_value",
                    lambda f: self._timed("expressions.value", f))
        for method, key in _FIELD_METHODS.items():
            self._patch(ScalarField, method,
                        lambda f, key=key: self._field_method(key, f))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- results -------------------------------------------------------------
    def span_totals(self):
        """Per span name: (count, total seconds, self seconds)."""
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for (_id, _parent, _solve, name, t0, t1), cov in zip(self.spans,
                                                             self.covered):
            entry = totals[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - cov
        return dict(totals)

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json (without the
        driver.disc_points, specfile.load_s and trace.overhead_frac entries,
        which the caller measures)."""
        spans = self.span_totals()
        c, t = self.counts, self.times

        def count(name):
            return spans.get(name, (0, 0.0, 0.0))[0]

        def busy(name):
            return spans.get(name, (0, 0.0, 0.0))[1]

        local_runs = count("lower_level.local_sqp")
        solutions = c["lower_level.solutions"]
        return {
            "lower_level.calls": count("lower_level.solve_all"),
            "lower_level.busy_s": busy("lower_level.solve_all"),
            "lower_level.self_s": spans.get("lower_level.solve_all",
                                            (0, 0.0, 0.0))[2],
            "lower_level.local_sqp_runs": local_runs,
            "lower_level.distinct_maxima": c["lower_level.distinct_maxima"],
            "lower_level.useful_start_ratio": (
                c["lower_level.distinct_maxima"] / local_runs
                if local_runs else 0.0),
            "lower_level.box_s": busy("lower_level.index_set_box"),
            "lower_level.regular_frac": (c["lower_level.regular"] / solutions
                                         if solutions else 0.0),
            "nlp.master_calls": count("nlp.master"),
            "nlp.master_warm_s": t["nlp.master_warm_s"],
            "nlp.master_cold_s": t["nlp.master_cold_s"],
            "nlp.master_sqp_iters": c["nlp.master_sqp_iters"],
            "nlp.master_max_iter": c["nlp.master_max_iter"],
            "nlp.master_max_iter_s": t["nlp.master_max_iter_s"],
            "nlp.local_sqp_iters": c["nlp.local_sqp_iters"],
            "nlp.local_s": busy("lower_level.local_sqp"),
            "nlp.qp_solves": count("nlp.qp"),
            "nlp.qp_s": busy("nlp.qp"),
            "driver.master_rows": c["driver.master_rows"],
            "sensitivity.calls": count("sensitivity.compute"),
            "sensitivity.busy_s": busy("sensitivity.compute"),
            "sensitivity.failures": c["sensitivity.compute.raised"],
            "sensitivity.linearizations": count(
                "sensitivity.linearization_field"),
            "diagnostics.calls": (count("diagnostics.stationarity_residual")
                                  + count("diagnostics.perturbation_params")),
            "diagnostics.busy_s": (busy("diagnostics.stationarity_residual")
                                   + busy("diagnostics.perturbation_params")),
            "model.value_calls": c["model.value_calls"],
            "model.gradient_calls": c["model.gradient_calls"],
            "model.hessian_calls": c["model.hessian_calls"],
            "model.batch_calls": c["model.batch_calls"],
            "model.eval_s": t["model.eval_s"],
            "expressions.taylor_evals": c["expressions.taylor"],
            "expressions.taylor_s": t["expressions.taylor"],
            "expressions.value_evals": c["expressions.value"],
            "expressions.value_s": t["expressions.value"],
        }

    def write(self, path) -> None:
        """Write every span, gzipped JSON, once the run is over."""
        doc = {"fields": ["id", "parent", "solve", "name", "start", "end"],
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle)
