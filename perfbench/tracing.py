"""Spans recorded from outside the package, and the per-layer metrics built on them.

The tracer never edits the package.  For a traced pass it swaps the public
callables of each layer in the module where their caller looks them up, and
wraps the derivative closures of every problem the CLI builds through
``dataclasses.replace``.  Every wrapped call records one span
``(name, start, end, parent, run_id)`` in memory; :meth:`Tracer.write` saves
them once, when the benchmark ends.

A span's name is ``<layer>.<callable>``, where the layer is the module that
does the work (``context``, ``coefficients``, ``jets``, ``problems``,
``integrator``, ``stability``, ``cli``).  Self time is a span's duration minus
the durations of its direct children; spans nest on one thread, so children
never overlap.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
import time
from contextlib import contextmanager

from obrechkoff import cli, context, integrator, stability

# the package re-exports the function coefficients() under the module's name
coefficients = importlib.import_module("obrechkoff.coefficients")

CLOSURE_ORDERS = (2, 3, 4, 5, 6, 7)
CLOSURES = tuple(f"problems.f{k}" for k in CLOSURE_ORDERS)
CLOSED_FORMS = ("coefficients.plprime_closed", "coefficients.pldoubleprime_closed")

LAYER_UNITS = {
    **{f"{name}_calls_per_step": "calls/step" for name in CLOSURES},
    "problems.closure_self_s": "s",
    "problems.closure_share": "ratio",
    "integrator.iters_per_step": "iters/step",
    "integrator.max_step_iters": "iters",
    "integrator.solve_self_s": "s",
    "integrator.step_us.p50": "us",
    "integrator.step_us.p99": "us",
    "integrator.startup_s": "s",
    "jets.ode_series_calls": "count",
    "jets.ode_series_s": "s",
    "coefficients.calls": "count",
    "coefficients.series_calls": "count",
    "coefficients.closed_calls": "count",
    "coefficients.self_s": "s",
    "coefficients.us_per_call": "us",
    "context.contexts_created": "count",
    "context.init_s": "s",
    "stability.sweep_self_s": "s",
    "stability.phase_lag_calls": "count",
    "stability.periodicity_s": "s",
    "stability.periodicity_samples": "count",
    "cli.run_experiment_self_s": "s",
    "cli.emit_s": "s",
    "trace.overhead": "ratio",
}

# (module, attribute, span name): each module is the one the caller reads
# the attribute from, so the swap reaches every call of that layer.
WRAPPED = (
    (cli, "run_experiment", "cli.run_experiment"),
    (cli, "emit", "cli.emit"),
    (integrator, "startup", "integrator.startup"),
    (integrator, "step", "integrator.step"),
    (integrator, "ode_series", "jets.ode_series"),
    (integrator, "coefficients", "coefficients.coefficients"),
    (stability, "coefficients", "coefficients.coefficients"),
    (coefficients, "taylor_fallback", "coefficients.taylor_fallback"),
    (coefficients, "plprime_closed", "coefficients.plprime_closed"),
    (coefficients, "pldoubleprime_closed", "coefficients.pldoubleprime_closed"),
    (stability, "stability_sweep", "stability.stability_sweep"),
    (stability, "phase_lag", "stability.phase_lag"),
    (stability, "periodicity_interval", "stability.periodicity_interval"),
)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1, run id)
        self.results = {}      # integrate span index -> IntegrationResult
        self._stack = []
        self._run_id = -1

    def wrap(self, name, fn, keep_result=False):
        spans, stack, results, clock = self.spans, self._stack, self.results, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)           # reserve the slot: parents precede children
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._run_id)
            if keep_result:
                results[index] = out
            return out

        return traced

    def _traced_problem(self, get_problem):
        wrap = self.wrap

        def traced_get_problem(name, ctx):
            problem = get_problem(name, ctx)
            closures = {f"f{k}": wrap(f"problems.f{k}", getattr(problem, f"f{k}"))
                        for k in CLOSURE_ORDERS if getattr(problem, f"f{k}") is not None}
            return dataclasses.replace(problem, **closures)

        return self.wrap("problems.get_problem", traced_get_problem)

    def _traced_context_class(self):
        base = context.Context
        init = self.wrap("context.Context", base.__init__)

        class TracedContext(base):
            __init__ = init

        return TracedContext

    @contextmanager
    def run(self, run_id):
        """Trace every layer for the duration of the block, as run ``run_id``."""
        swaps = [(m, attr, self.wrap(name, getattr(m, attr))) for m, attr, name in WRAPPED]
        swaps += [
            (cli, "integrate", self.wrap("integrator.integrate", cli.integrate, keep_result=True)),
            (cli, "get_problem", self._traced_problem(cli.get_problem)),
            (context, "Context", self._traced_context_class()),
        ]
        saved = [(m, attr, getattr(m, attr)) for m, attr, _ in swaps]
        self._run_id = run_id
        try:
            for m, attr, fn in swaps:
                setattr(m, attr, fn)
            yield
        finally:
            for m, attr, fn in saved:
                setattr(m, attr, fn)
            self._run_id = -1

    def write(self, path):
        """Write every span as one tab-separated line (times in ns)."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\trun_id\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{int(start * 1e9)}\t{int(end * 1e9)}\t{parent}\t{run_id}\n")

    # -- analysis ------------------------------------------------------

    def run_spans(self, run_id):
        """Indices of the spans recorded in run ``run_id``."""
        return [i for i, s in enumerate(self.spans) if s[4] == run_id]

    def self_times(self, indices):
        """Self time of each span in ``indices`` (which must hold whole trees)."""
        spans = self.spans
        own = {i: spans[i][2] - spans[i][1] for i in indices}
        for i in indices:
            parent = spans[i][3]
            if parent >= 0:
                own[parent] -= spans[i][2] - spans[i][1]
        return own

    def cells(self, indices):
        """Per integrate span: its result and the closure calls made inside it."""
        spans = self.spans
        cell_of = {}
        calls = {}
        for i in indices:                  # parents come before their children
            name, parent = spans[i][0], spans[i][3]
            if name == "integrator.integrate":
                cell_of[i] = i
                calls[i] = dict.fromkeys(CLOSURES, 0)
            else:
                cell_of[i] = cell_of.get(parent)
                if name in CLOSURES and cell_of[i] is not None:
                    calls[cell_of[i]][name] += 1
        return [(self.results[i], calls[i]) for i in calls]


def reconciles(result, calls):
    """f6 calls = solver iterations + one predictor per step + the initial pair."""
    return calls["problems.f6"] == result.total_iterations + calls["problems.f7"] + 2


def layer_metrics(tracer, run_id, periodicity_samples):
    """Per-layer metrics of one traced pass (see BENCHMARK.json for units)."""
    spans = tracer.spans
    indices = tracer.run_spans(run_id)
    own = tracer.self_times(indices)

    def named(*names):
        return [i for i in indices if spans[i][0] in names]

    def total(ids):
        return sum(spans[i][2] - spans[i][1] for i in ids)

    def self_of(ids):
        return sum(own[i] for i in ids)

    cells = tracer.cells(indices)
    steps = named("integrator.step")
    step_ids = set(steps)
    closures = named(*CLOSURES)
    n_steps = len(steps)
    per_step = (lambda x: x / n_steps) if n_steps else (lambda x: 0.0)
    step_us = sorted((spans[i][2] - spans[i][1]) * 1e6 for i in steps)
    step_time = total(steps)
    coeff_calls = named("coefficients.coefficients")

    m = {}
    for name in CLOSURES:
        m[f"{name}_calls_per_step"] = per_step(len(named(name)))
    m["problems.closure_self_s"] = self_of(closures)
    m["problems.closure_share"] = (
        total([i for i in closures if spans[i][3] in step_ids]) / step_time if step_time else 0.0)
    m["integrator.iters_per_step"] = per_step(sum(r.total_iterations for r, _ in cells))
    m["integrator.max_step_iters"] = max((r.max_step_iterations for r, _ in cells), default=0)
    m["integrator.solve_self_s"] = self_of(steps)
    m["integrator.step_us.p50"] = percentile(step_us, 50)
    m["integrator.step_us.p99"] = percentile(step_us, 99)
    m["integrator.startup_s"] = total(named("integrator.startup"))
    m["jets.ode_series_calls"] = len(named("jets.ode_series"))
    m["jets.ode_series_s"] = total(named("jets.ode_series"))
    m["coefficients.calls"] = len(coeff_calls)
    m["coefficients.series_calls"] = len(named("coefficients.taylor_fallback"))
    m["coefficients.closed_calls"] = len(named(*CLOSED_FORMS))
    m["coefficients.self_s"] = self_of(
        [i for i in indices if spans[i][0].startswith("coefficients.")])
    m["coefficients.us_per_call"] = (
        total(coeff_calls) / len(coeff_calls) * 1e6 if coeff_calls else 0.0)
    m["context.contexts_created"] = len(named("context.Context"))
    m["context.init_s"] = total(named("context.Context"))
    m["stability.sweep_self_s"] = self_of(named("stability.stability_sweep", "stability.phase_lag"))
    m["stability.phase_lag_calls"] = len(named("stability.phase_lag"))
    m["stability.periodicity_s"] = total(named("stability.periodicity_interval"))
    m["stability.periodicity_samples"] = periodicity_samples
    m["cli.run_experiment_self_s"] = self_of(named("cli.run_experiment"))
    m["cli.emit_s"] = total(named("cli.emit"))
    return m, cells


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def median_metrics(per_pass):
    """Median of each metric over a list of per-pass metric dicts."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
