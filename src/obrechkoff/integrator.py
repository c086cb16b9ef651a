"""Two-step implicit Obrechkoff integrator for y'' = f(x, y).

Each step solves the implicit relation

    y_{n+1} - 2 y_n + y_{n-1} = h^2 [b10 (f2_{n+1} + f2_{n-1}) + b11 f2_n]
                              + h^4 [b20 (f4_{n+1} + f4_{n-1}) + b21 f4_n]
                              + h^6 [b30 (f6_{n+1} + f6_{n-1}) + b31 f6_n]

by fixed-point iteration with Aitken acceleration.  The first
derivative, needed by y'-dependent closures f4/f6, advances alongside y
through a symmetric quadrature of the same three-node sixth-derivative type,

    y'_{n+1} = y'_{n-1} + h  [qA (f2_{n-1}+f2_{n+1}) + qB f2_n]
                        + h^3[qC (f4_{n-1}+f4_{n+1}) + qD f4_n]
                        + h^5[qE (f6_{n-1}+f6_{n+1}) + qF f6_n],

whose weights integrate polynomials exactly through degree 11, so the
derivative channel matches the order-12 accuracy of the main formula and
never limits the observed convergence order.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Optional

from .coefficients import CoefficientSet, MethodId, coefficients
from .context import Context
from .errors import ConfigurationError, StepFailureError
from .jets import ode_series
from .problems import ProblemDef

#: weights of the degree-11-exact symmetric derivative quadrature
DERIVATIVE_QUADRATURE = {
    "qA": F(379, 1947), "qB": F(3136, 1947),
    "qC": F(-1, 531), "qD": F(832, 5841),
    "qE": F(8, 613305), "qF": F(1412, 613305),
}

#: measured strict periodicity endpoint v0^2 of the classical method (the
#: fitted methods have |B/A| = |cos v| and no finite endpoint).
CLASSICAL_PERIODICITY_V0SQ = 9.7954

STARTUP_MODES = ("exact", "taylor")
TAYLOR_STARTUP_ORDER = 14

#: fixed-point iterations allowed per step before StepFailureError
MAX_ITERATIONS = 60


@dataclass
class StepperConfig:
    method: MethodId
    h: object
    omega: object = 0
    startup: str = "exact"

    def validate(self, ctx: Context):
        if self.h == 0:
            raise ConfigurationError("step size h must be nonzero")
        if self.omega is not None and self.omega < 0:
            raise ConfigurationError("fitting frequency omega must be >= 0")
        if self.startup not in STARTUP_MODES:
            raise ConfigurationError(f"startup must be one of {STARTUP_MODES}")

    def fitting_parameter(self, ctx: Context):
        if self.method is MethodId.CLASSICAL:
            return ctx.mpf(0)
        return ctx.mpf(self.omega) * abs(ctx.mpf(self.h))


@dataclass
class StepState:
    index: int
    x_n: object
    y_prev: object
    y_curr: object
    yp_prev: object
    yp_curr: object
    iterations: int = 0
    f_prev: Optional[tuple] = None
    f_curr: Optional[tuple] = None


@dataclass
class IntegrationResult:
    y_end: object
    abs_end_error: Optional[object]
    steps: int
    total_iterations: int
    wall_time: float
    yp_end: Optional[object] = None
    max_step_iterations: int = 0
    trajectory: list = field(default_factory=list)


def _eval_f(problem, x, y, yp):
    return (problem.f2(x, y, yp), problem.f4(x, y, yp), problem.f6(x, y, yp))


def _taylor_predict(problem, x, y, yp, h):
    """One-sided Taylor predictions of y(x+h), y'(x+h) from the closures."""
    closures = (problem.f2, problem.f3, problem.f4, problem.f5, problem.f6, problem.f7)
    y_new, yp_new, hk, fact = y + h * yp, yp, 1, 1
    for k, c in enumerate(closures, start=2):
        fk = c(x, y, yp)
        hk = hk * h
        fact *= k - 1
        yp_new = yp_new + hk / fact * fk
        y_new = y_new + hk * h / (fact * k) * fk
    return y_new, yp_new


def startup(problem: ProblemDef, config: StepperConfig, ctx: Context):
    """Initial data (y0, y1, yp0, yp1) for the two-step recurrence.

    ``exact`` evaluates the problem's reference solution at x0 + h (and
    requires one); ``taylor`` reads the degree-14 Taylor series of the
    solution at x0 off the problem's traced f2 graph, which needs no
    reference at all.
    """
    config.validate(ctx)
    h = ctx.mpf(config.h)
    y0, yp0 = ctx.mpf(problem.y0), ctx.mpf(problem.yp0)
    if config.startup == "exact":
        if problem.reference is None or problem.reference_prime is None:
            raise ConfigurationError(
                f"{problem.name}: exact startup requires a reference solution"
            )
        x1 = problem.x0 + h
        return y0, problem.reference(x1), yp0, problem.reference_prime(x1)
    series = ode_series(ctx, problem.graph, problem.x0, y0, yp0, TAYLOR_STARTUP_ORDER)
    y1, yp1 = ctx.mp.polyval(series[::-1], h, derivative=True)
    return y0, y1, yp0, yp1


def _solve_step(problem, coeffs: CoefficientSet, config, ctx,
                x_prev, x_curr, x_next, y_prev, y_curr, yp_prev, yp_curr,
                f_prev, f_curr):
    """Fixed-point solve for (y_next, yp_next); returns values + eval count."""
    h = ctx.mpf(config.h)
    h2 = h * h
    h3 = h2 * h
    h4 = h2 * h2
    h5 = h4 * h
    h6 = h4 * h2
    b10, b11, b20, b21, b30, b31 = coeffs.as_tuple()
    q = {k: ctx.mpf(v) for k, v in DERIVATIVE_QUADRATURE.items()}
    f2A, f4A, f6A = f_prev
    f2B, f4B, f6B = f_curr
    tol = ctx.tolerance()

    base_y = 2 * y_curr - y_prev
    y_next, yp_next = _taylor_predict(problem, x_curr, y_curr, yp_curr, h)

    def g(y, yp):
        f2C, f4C, f6C = _eval_f(problem, x_next, y, yp)
        y_new = (base_y
                 + h2 * (b10 * (f2A + f2C) + b11 * f2B)
                 + h4 * (b20 * (f4A + f4C) + b21 * f4B)
                 + h6 * (b30 * (f6A + f6C) + b31 * f6B))
        yp_new = (yp_prev
                  + h * (q["qA"] * (f2A + f2C) + q["qB"] * f2B)
                  + h3 * (q["qC"] * (f4A + f4C) + q["qD"] * f4B)
                  + h5 * (q["qE"] * (f6A + f6C) + q["qF"] * f6B))
        return y_new, yp_new, (f2C, f4C, f6C)

    history = [(y_next, yp_next)]
    evals = 0
    for _ in range(MAX_ITERATIONS):
        y_new, yp_new, f_next = g(y_next, yp_next)
        evals += 1
        dy = abs(y_new - y_next)
        dyp = abs(yp_new - yp_next)
        y_next, yp_next = y_new, yp_new
        if dy <= tol.abs + tol.rel * abs(y_new) and dyp <= tol.abs + tol.rel * abs(yp_new):
            # cache f at the accepted pair so the next step sees consistent data
            f_next = _eval_f(problem, x_next, y_next, yp_next)
            evals += 1
            return y_next, yp_next, f_next, evals
        history.append((y_next, yp_next))
        if len(history) >= 3:
            (y0_, yp0_), (y1_, yp1_), (y2_, yp2_) = history[-3:]

            def aitken(a0, a1, a2):
                den = a2 - 2 * a1 + a0
                num = a2 - a1
                if den != 0 and abs(den) > ctx.eps() * (abs(a2) + abs(a1) + abs(a0)):
                    return a2 - num * num / den
                return a2

            acc = (aitken(y0_, y1_, y2_), aitken(yp0_, yp1_, yp2_))
            if acc != history[-1]:
                y_next, yp_next = acc
                history = [acc]
    raise StepFailureError(
        f"implicit solve stalled after {evals} iterations at x = {ctx.mp.nstr(x_next, 8)}",
        iterations=evals,
    )


def step(state: StepState, coeffs: CoefficientSet, problem: ProblemDef,
         config: StepperConfig, ctx: Context) -> StepState:
    """Advance (y_{n-1}, y_n) -> y_{n+1}; returns the shifted state."""
    h = ctx.mpf(config.h)
    x_prev = state.x_n - h
    x_next = state.x_n + h
    f_prev = state.f_prev or _eval_f(problem, x_prev, state.y_prev, state.yp_prev)
    f_curr = state.f_curr or _eval_f(problem, state.x_n, state.y_curr, state.yp_curr)
    try:
        y_next, yp_next, f_next, evals = _solve_step(
            problem, coeffs, config, ctx,
            x_prev, state.x_n, x_next,
            state.y_prev, state.y_curr, state.yp_prev, state.yp_curr,
            f_prev, f_curr)
    except StepFailureError as exc:
        exc.step_index = state.index + 1
        raise
    return StepState(
        index=state.index + 1,
        x_n=x_next,
        y_prev=state.y_curr,
        y_curr=y_next,
        yp_prev=state.yp_curr,
        yp_curr=yp_next,
        iterations=state.iterations + evals,
        f_prev=f_curr,
        f_curr=f_next,
    )


def integrate(problem: ProblemDef, config: StepperConfig, ctx: Context,
              x_end=None, trajectory_every: int = 0) -> IntegrationResult:
    """Run startup plus fixed steps from x0 to x_end (default: problem span).

    (x_end - x0)/h must be an integer to 1e-12 relative so the endpoint is
    hit exactly; node abscissae are formed as x0 + n*h, never by repeated
    addition.  Coefficients are evaluated once at v = omega*h and reused.
    """
    t_start = time.perf_counter()
    config.validate(ctx)
    h = ctx.mpf(config.h)
    x0 = ctx.mpf(problem.x0)
    xe = ctx.mpf(problem.x_end if x_end is None else x_end)
    if xe == x0:
        err = None
        if problem.reference is not None:
            err = abs(ctx.mpf(problem.y0) - problem.reference(x0))
        return IntegrationResult(y_end=ctx.mpf(problem.y0), abs_end_error=err,
                                 steps=0, total_iterations=0,
                                 wall_time=time.perf_counter() - t_start,
                                 yp_end=ctx.mpf(problem.yp0))
    ratio = (xe - x0) / h
    n_steps = int(ctx.mp.nint(ratio))
    if n_steps < 1 or abs(ratio - n_steps) > ctx.mpf("1e-12") * max(1, abs(n_steps)):
        raise ConfigurationError(
            f"(x_end - x0)/h = {ctx.mp.nstr(ratio, 12)} is not a positive integer"
        )

    v_user = abs(ctx.mpf(config.omega or 0) * h)
    if config.method is MethodId.CLASSICAL and float(v_user) ** 2 > CLASSICAL_PERIODICITY_V0SQ:
        # classical ignores omega for its weights, but the user's frequency
        # estimate still locates the run relative to the periodicity interval
        warnings.warn(
            f"v^2 = (omega*h)^2 = {float(v_user) ** 2:.4f} lies outside the "
            f"classical periodicity interval (0, {CLASSICAL_PERIODICITY_V0SQ})",
            stacklevel=2,
        )
    coeffs = coefficients(config.method, config.fitting_parameter(ctx), ctx)

    y0, y1, yp0, yp1 = startup(problem, config, ctx)
    state = StepState(index=1, x_n=x0 + h, y_prev=y0, y_curr=y1,
                      yp_prev=yp0, yp_curr=yp1)
    trajectory = []

    def record(xv, yv):
        if problem.reference is not None:
            ref = problem.reference(xv)
            trajectory.append((xv, yv, ref, abs(yv - ref)))
        else:
            trajectory.append((xv, yv, None, None))

    if trajectory_every:
        record(x0, y0)
        record(state.x_n, state.y_curr)

    max_iter_step = 0
    while state.index < n_steps:
        prev_total = state.iterations
        state = step(state, coeffs, problem, config, ctx)
        state.x_n = x0 + state.index * h      # product form: no additive drift
        max_iter_step = max(max_iter_step, state.iterations - prev_total)
        if trajectory_every and (state.index % trajectory_every == 0
                                 or state.index == n_steps):
            record(state.x_n, state.y_curr)

    err = None
    if problem.reference is not None:
        err = abs(state.y_curr - problem.reference(xe))
    return IntegrationResult(
        y_end=state.y_curr,
        abs_end_error=err,
        steps=n_steps,
        total_iterations=state.iterations,
        wall_time=time.perf_counter() - t_start,
        yp_end=state.yp_curr,
        max_step_iterations=max_iter_step,
        trajectory=trajectory,
    )
