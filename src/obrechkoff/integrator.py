"""Two-step implicit Obrechkoff integrator for y'' = f(x, y).

Each step solves the implicit relation

    y_{n+1} - 2 y_n + y_{n-1} = h^2 [b10 (f2_{n+1} + f2_{n-1}) + b11 f2_n]
                              + h^4 [b20 (f4_{n+1} + f4_{n-1}) + b21 f4_n]
                              + h^6 [b30 (f6_{n+1} + f6_{n-1}) + b31 f6_n]

together with a symmetric quadrature of the same three-node sixth-derivative
type for the first derivative, which y'-dependent closures f4/f6 need,

    y'_{n+1} = y'_{n-1} + h  [qA (f2_{n-1}+f2_{n+1}) + qB f2_n]
                        + h^3[qC (f4_{n-1}+f4_{n+1}) + qD f4_n]
                        + h^5[qE (f6_{n-1}+f6_{n+1}) + qF f6_n].

Its weights integrate polynomials exactly through degree 11, so the
derivative channel never limits the observed order 12.  Both formulas are
linear in f at the three nodes, so with z = (y_{n+1}, y'_{n+1}) and
F(z) = (f2, f4, f6) at (x_{n+1}, z) a step solves

    z = Phi(z) = c + W F(z),

where c holds 2 y_n - y_{n-1}, y'_{n-1} and the f_{n-1}, f_n terms and is
formed once per step, and W is the 2x3 matrix of end-node weights
(:class:`StepWeights`, formed once per run), so DPhi = W dF/dz.  The
predictor is the degree-7 Taylor polynomial of the solution through
(x_n, y_n, y'_n), read off the problem's traced f2 graph.  The corrector is
a chord (simplified) Newton iteration z <- z + A^-1 (Phi(z) - z) with
A = I - DPhi, where dF/dz comes from the variational program of the traced
f2 at the predictor; F itself always comes from the closures.
z is accepted once |Phi(z) - z| <= tol (1 + |Phi(z)|) in both components;
the step keeps Phi(z) and evaluates F there once more for the next step.
Node n sits at x0 + n*h, formed once by :func:`_node`.
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

#: degree of the Taylor polynomial that predicts each step
PREDICTOR_DEGREE = 7

#: closure triples allowed per step's solve before StepFailureError
MAX_ITERATIONS = 60


@dataclass
class StepperConfig:
    method: MethodId
    h: object
    omega: object = 0
    startup: str = "exact"

    def validate(self, ctx: Context):
        if self.h == 0 or not ctx.mp.isfinite(self.h):
            raise ConfigurationError(f"step size h must be finite and nonzero, got {self.h}")
        if self.omega is None or not ctx.mp.isfinite(self.omega) or self.omega < 0:
            raise ConfigurationError(
                f"fitting frequency omega must be a finite number >= 0, got {self.omega}")
        if self.startup not in STARTUP_MODES:
            raise ConfigurationError(f"startup must be one of {STARTUP_MODES}")


@dataclass
class StepState:
    index: int
    x0: object
    x_n: object
    y_prev: object
    y_curr: object
    yp_prev: object
    yp_curr: object
    iterations: int = 0
    f_prev: Optional[tuple] = None
    f_curr: Optional[tuple] = None


@dataclass(frozen=True)
class StepWeights:
    """The update map Phi(z) = c + W F(z) of every step of one run.

    ``end`` is W: its rows weight F = (f2, f4, f6) at the new node in y_{n+1}
    and y'_{n+1}, so DPhi = W dF/dz; f at the oldest node takes the same
    weights.  ``mid`` weights f at the middle node.  ``tol`` is the
    acceptance tolerance 10^(8 - digits).
    """

    h: object
    tol: object
    end: tuple            # (h^2 b10, h^4 b20, h^6 b30), (h qA, h^3 qC, h^5 qE)
    mid: tuple            # (h^2 b11, h^4 b21, h^6 b31), (h qB, h^3 qD, h^5 qF)

    @classmethod
    def build(cls, coeffs: CoefficientSet, h, ctx: Context) -> "StepWeights":
        h = ctx.mpf(h)
        p = [h ** k for k in range(7)]
        b10, b11, b20, b21, b30, b31 = coeffs.as_tuple()
        qA, qB, qC, qD, qE, qF = (ctx.mpf(q) for q in DERIVATIVE_QUADRATURE.values())
        return cls(h, tol=ctx.mpf(10) ** (8 - ctx.digits),
                   end=((p[2] * b10, p[4] * b20, p[6] * b30), (p[1] * qA, p[3] * qC, p[5] * qE)),
                   mid=((p[2] * b11, p[4] * b21, p[6] * b31), (p[1] * qB, p[3] * qD, p[5] * qF)))


@dataclass
class IntegrationResult:
    """Outcome of one run.

    ``total_iterations`` counts the closure triples (f2, f4, f6) that the
    steps' solves evaluated, the re-evaluation at each accepted pair
    included; ``max_step_iterations`` is the largest such count of one step.
    """

    y_end: object
    abs_end_error: Optional[object]
    steps: int
    total_iterations: int
    wall_time: float
    yp_end: Optional[object] = None
    max_step_iterations: int = 0
    trajectory: list = field(default_factory=list)


def _node(x0, h, n):
    """Abscissa of node n: x0 + n*h, never a sum of steps."""
    return x0 + n * h


def _eval_f(problem, x, y, yp):
    return (problem.f2(x, y, yp), problem.f4(x, y, yp), problem.f6(x, y, yp))


def _chord_inverse(partials, end, ctx: Context):
    """The rows of A^-1, A = I - DPhi, from the partials
    [(d f_k/dy, d f_k/dy') for k = 2, 4, 6] and the rows ``end`` of W; None
    when A is singular or not finite."""
    dy, dyp = zip(*partials)
    (j11, j12), (j21, j22) = [(ctx.mp.fdot(row, dy), ctx.mp.fdot(row, dyp)) for row in end]
    a11, a22 = 1 - j11, 1 - j22
    det = a11 * a22 - j12 * j21
    if det == 0 or not ctx.mp.isfinite(det):
        return None
    return (a22 / det, j12 / det), (j21 / det, a11 / det)


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
        x1 = _node(problem.x0, h, 1)
        return y0, problem.reference(x1), yp0, problem.reference_prime(x1)
    series = ode_series(ctx, problem.graph, problem.x0, y0, yp0, TAYLOR_STARTUP_ORDER)
    y1, yp1 = ctx.mp.polyval(series[::-1], h, derivative=True)
    return y0, y1, yp0, yp1


def step(state: StepState, weights: StepWeights, problem: ProblemDef,
         ctx: Context) -> StepState:
    """Advance (y_{n-1}, y_n) -> y_{n+1}; returns the shifted state.

    Raises StepFailureError when the chord-Newton solve has not converged
    after MAX_ITERATIONS evaluations, when its matrix is singular, or when an
    iterate is not finite.
    """
    fdot, isfinite, tol = ctx.mp.fdot, ctx.mp.isfinite, weights.tol
    n, x_n, y_curr, yp_curr, yp_prev = (
        state.index, state.x_n, state.y_curr, state.yp_curr, state.yp_prev)
    x_next = _node(state.x0, weights.h, n + 1)
    f_prev = state.f_prev or _eval_f(
        problem, _node(state.x0, weights.h, n - 1), state.y_prev, yp_prev)
    f_curr = state.f_curr or _eval_f(problem, x_n, y_curr, yp_curr)
    # the constant part c of Phi(z) = c + W F(z), fixed for the whole step
    c = [base + fdot(end + mid, f_prev + f_curr) for base, end, mid in
         zip((2 * y_curr - state.y_prev, yp_prev), weights.end, weights.mid)]

    graph = problem.graph
    graph.at(x_n, y_curr, yp_curr)
    taylor = [graph.y[k] for k in range(PREDICTOR_DEGREE, -1, -1)]
    z = ctx.mp.polyval(taylor, weights.h, derivative=True)
    inverse = None           # A^-1 at the predictor, formed when first needed
    for evals in range(1, MAX_ITERATIONS + 1):
        f_z = _eval_f(problem, x_next, *z)
        phi = [ci + fdot(row, f_z) for ci, row in zip(c, weights.end)]
        r = [p - zi for p, zi in zip(phi, z)]
        if all(abs(ri) <= tol * (1 + abs(p)) for ri, p in zip(r, phi)):
            # f at the accepted pair is kept, so the next step sees consistent data
            return StepState(
                index=n + 1, x0=state.x0, x_n=x_next,
                y_prev=y_curr, y_curr=phi[0], yp_prev=yp_curr, yp_curr=phi[1],
                iterations=state.iterations + evals + 1,
                f_prev=f_curr, f_curr=_eval_f(problem, x_next, *phi))
        if inverse is None:
            inverse = _chord_inverse(graph.jacobian(x_next, *z, (2, 4, 6)), weights.end, ctx)
            if inverse is None:
                raise StepFailureError(
                    f"implicit solve: singular Newton matrix at x = {ctx.mp.nstr(x_next, 8)}",
                    step_index=n + 1, iterations=evals)
        z = [zi + fdot(row, r) for zi, row in zip(z, inverse)]
        if not all(map(isfinite, z)):
            raise StepFailureError(
                f"implicit solve: non-finite iterate at x = {ctx.mp.nstr(x_next, 8)}",
                step_index=n + 1, iterations=evals)
    raise StepFailureError(
        f"implicit solve stalled after {MAX_ITERATIONS} iterations "
        f"at x = {ctx.mp.nstr(x_next, 8)}",
        step_index=n + 1, iterations=MAX_ITERATIONS,
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
    n_steps = int(ctx.mp.nint(ratio)) if ctx.mp.isfinite(ratio) else 0
    if n_steps < 1 or abs(ratio - n_steps) > ctx.mpf("1e-12") * max(1, abs(n_steps)):
        raise ConfigurationError(
            f"(x_end - x0)/h = {ctx.mp.nstr(ratio, 12)} is not a positive integer"
        )

    v_user = abs(ctx.mpf(config.omega) * h)
    if config.method is MethodId.CLASSICAL and float(v_user) ** 2 > CLASSICAL_PERIODICITY_V0SQ:
        # classical ignores omega for its weights, but the user's frequency
        # estimate still locates the run relative to the periodicity interval
        warnings.warn(
            f"v^2 = (omega*h)^2 = {float(v_user) ** 2:.4f} lies outside the "
            f"classical periodicity interval (0, {CLASSICAL_PERIODICITY_V0SQ})",
            stacklevel=2,
        )
    weights = StepWeights.build(coefficients(config.method, v_user, ctx), h, ctx)

    y0, y1, yp0, yp1 = startup(problem, config, ctx)
    state = StepState(index=1, x0=x0, x_n=_node(x0, h, 1), y_prev=y0, y_curr=y1,
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
        state = step(state, weights, problem, ctx)
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
