"""The benchmark workloads: set-up, one timed pass, and the checks on its outputs.

Every call into the package goes through a public function, read from its
module at call time (``cli.run_experiment``, ``stability.stability_sweep``,
...), so that a traced pass reaches the same calls through the tracer's
wrappers.  All work runs serially in this process: on a shared two-core
machine a worker pool would measure the scheduler, not the integrator.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from obrechkoff import cli, stability
from obrechkoff.coefficients import (
    MethodId,
    classical_coefficients,
    coefficient_sweep,
    pldoubleprime_closed,
    plprime_closed,
)
from obrechkoff.context import make_context
from obrechkoff.problems import get_problem

FITTED = (MethodId.PL_PRIME, MethodId.PL_DOUBLE_PRIME)
REFERENCE_FORMS = {MethodId.PL_PRIME: plprime_closed,
                   MethodId.PL_DOUBLE_PRIME: pldoubleprime_closed}


@dataclass
class PassResult:
    """What one timed pass produced, and what its checks found."""

    wall_s: float
    steps: int                 # integration steps, or v points on stability-scan
    points: int                # v points, or solution nodes on integration workloads
    attempted: int = 0
    failed: int = 0
    err_digits: float = math.inf
    failures: list = field(default_factory=list)
    periodicity_samples: int = 0
    layers: dict = field(default_factory=dict)   # per-layer metrics of a traced pass

    def gate(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def digits_of(err, digits):
    """-log10 of an error, capped at twice the working digits for an exact 0."""
    err = abs(float(err)) if err else 0.0
    return min(-math.log10(err), 2.0 * digits) if err > 0 else 2.0 * digits


def coefficient_digits(method, v_values, ctx):
    """Min over v of -log10 of the relative error of ``coefficients()``.

    The reference is the classical fraction set or the closed form of the
    fitted method, evaluated at twice the working digits.
    """
    ref_ctx = make_context(2 * ctx.digits)
    worst = 2.0 * ctx.digits
    for row in coefficient_sweep(method, v_values, ctx):
        v, betas, status = row[0], row[1:7], row[7]
        if status != "ok":
            return 0.0
        if method is MethodId.CLASSICAL:
            ref = classical_coefficients(ref_ctx).as_tuple()
        else:
            ref = REFERENCE_FORMS[method](ref_ctx.mpf(v), ref_ctx).as_tuple()
        rel = max(abs((ref_ctx.mpf(b) - r) / r) for b, r in zip(betas, ref))
        worst = min(worst, digits_of(rel, ctx.digits))
    return worst


class IntegrationWorkload:
    """``run_experiment`` + ``emit`` over a fixed method x divisor matrix.

    The cells follow the paper's fixed layouts, so the seed is recorded and
    not used.
    """

    def __init__(self, problem, methods, divisors, digits, startup, ceiling):
        self.problem = problem
        self.methods = [m.value for m in methods]
        self.divisors = list(divisors)
        self.digits = digits
        self.startup = startup
        self.ceiling = ceiling        # every cell's end error must stay below this

    def setup(self, seed):
        ctx = make_context(self.digits)
        spec = cli.ExperimentSpec(problem=self.problem, methods=self.methods,
                                  step_divisors=self.divisors, digits=self.digits,
                                  startup=self.startup)
        spec.validate()
        return {"ctx": ctx, "problem": get_problem(self.problem, ctx), "spec": spec}

    def run_pass(self, state):
        start = time.perf_counter()
        table = cli.run_experiment(state["spec"], workers=1)
        text = cli.emit(table)
        wall = time.perf_counter() - start
        return (table, text), wall

    def check(self, state, outputs, wall):
        table, text = outputs
        lines = set(text.splitlines())
        res = PassResult(wall_s=wall, steps=0, points=0)
        for row in table.rows:
            cell = f"{row.method}/{row.divisor}"
            if row.failed or row.abs_end_error is None:
                res.gate(False, f"{cell}: {row.message or 'no end error'}")
                continue
            err = float(row.abs_end_error)
            emitted = any(line.startswith(f"{row.h_text},{row.method},{row.abs_end_error},")
                          for line in lines)
            res.gate(err < self.ceiling and emitted,
                     f"{cell}: end error {row.abs_end_error} (ceiling {self.ceiling:g}, "
                     f"emitted {emitted})")
            res.err_digits = min(res.err_digits, digits_of(err, self.digits))
            res.steps += row.divisor
            res.points += row.divisor + 1
        return res

    def coeff_digits(self, state):
        ctx, problem = state["ctx"], state["problem"]
        worst = 2.0 * self.digits
        for name in self.methods:
            method = MethodId.parse(name)
            for d in self.divisors:
                h = (problem.x_end - problem.x0) / d
                v = 0 if method is MethodId.CLASSICAL else problem.default_omega * abs(h)
                worst = min(worst, coefficient_digits(method, [v], ctx))
        return worst


class StabilityWorkload:
    """Stability sweeps and periodicity scans at 50 digits; never integrates.

    The seed shifts both sweep grids by a fraction of one grid step.
    """

    digits = 50
    uniform_step = 0.005          # uniform grid on (0, 5]
    uniform_points = 1000
    log_points = 200              # log grid on [1e-4, 1e-1): the phase-lag fit range
    log_from, log_decades = -4, 3
    v_max = 4                     # periodicity scans stop here
    ratio_tol = 1e-45             # |B/A - cos v| on every sweep row
    classical_v0sq = 9.7954

    def setup(self, seed):
        u = random.Random(seed).random()
        uniform = [(k + 1 - u) * self.uniform_step for k in range(self.uniform_points)]
        log = [10 ** (self.log_from + (k + u) * self.log_decades / self.log_points)
               for k in range(self.log_points)]
        return {"ctx": make_context(self.digits), "grids": (uniform, log)}

    def run_pass(self, state):
        ctx = state["ctx"]
        start = time.perf_counter()
        sweeps = [(m, stability.stability_sweep(m, grid, ctx))
                  for m in FITTED for grid in state["grids"]]
        scans = [(m, stability.periodicity_interval(m, ctx, self.v_max)) for m in MethodId]
        wall = time.perf_counter() - start
        return (sweeps, scans), wall

    def check(self, state, outputs, wall):
        ctx = state["ctx"]
        sweeps, scans = outputs
        res = PassResult(wall_s=wall, steps=0, points=0)
        for method, rows in sweeps:
            for v, _a, _b, ratio, _pl, status in rows:
                if status != "ok":
                    res.gate(False, f"{method.value} v={float(v)}: {status}")
                    continue
                dev = abs(ratio - ctx.mp.cos(v))
                res.gate(dev < self.ratio_tol,
                         f"{method.value} v={float(v)}: |B/A - cos v| = {float(dev):.3g}")
                res.err_digits = min(res.err_digits, digits_of(dev, self.digits))
            res.points += len(rows)
        for method, scan in scans:
            if method is MethodId.CLASSICAL:
                ok = not scan.hit_v_max and round(float(scan.v0_squared), 4) == self.classical_v0sq
            else:
                ok = scan.hit_v_max
            res.gate(ok, f"{method.value} periodicity: v0^2 = {float(scan.v0_squared)}, "
                         f"hit_v_max = {scan.hit_v_max}")
            res.periodicity_samples += scan.samples
        res.points += res.periodicity_samples
        res.steps = res.points
        return res

    def coeff_digits(self, state):
        log_grid = state["grids"][1]
        return min(coefficient_digits(m, log_grid, state["ctx"]) for m in FITTED)


WORKLOADS = {
    # Nonlinear, y'-dependent f4/f6: about 12 solver iterations and 13 closure
    # triples per step, so closures and the solve dominate.
    "duffing-50d": IntegrationWorkload(
        "duffing", list(MethodId), [500], digits=50, startup="exact", ceiling=1e-10),
    # Cheap y'-free closures at twice the precision; the only workload that
    # builds a Taylor-series startup, and the tightest accuracy gate.
    "linear-100d-taylor": IntegrationWorkload(
        "linear", list(FITTED), [500, 1000], digits=100, startup="taylor", ceiling=1e-95),
    # Thousands of coefficients() calls across the series/closed-form switch.
    "stability-scan": StabilityWorkload(),
}
