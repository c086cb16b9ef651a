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
the step keeps Phi(z) and evaluates F there once more for the next step.  A
Phi(z) that is not finite fails the step at once: inf would pass the test.
Node n sits at x0 + n*h, formed once by :func:`_node`.

The solve runs on raw ``libmp`` numbers at the context's precision, with
round-to-nearest: each weighted sum is one exactly summed dot product rounded
once (``jets._fdot``), and every other operation rounds where the mpf
operator would.  The results equal those of the same step in mpf operators
and ``mp.fdot`` bit for bit; only a term more than 2 prec bits below the
rest of a sum, which ``mp.fdot`` drops and ``_fdot`` keeps, could break a
rounding tie differently.  mpf objects are made only for the closures'
arguments and for the returned :class:`StepState`.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Optional

from mpmath.libmp import (fone, fzero, mpf_abs, mpf_add, mpf_div, mpf_le, mpf_mul, mpf_mul_int,
                          mpf_sub)

from .coefficients import CoefficientSet, MethodId, coefficients
from .context import Context
from .errors import ConfigurationError, StepFailureError
from .jets import RND, _fdot, _raw, in_range, ode_series
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


def _finite(v):
    """Whether a raw libmp number is finite: inf and nan have a zero mantissa
    and a nonzero exponent."""
    return v[1] or not v[2]


def _chord_inverse(partials, end, prec):
    """The rows of A^-1, A = I - DPhi, from the partials
    [(d f_k/dy, d f_k/dy') for k = 2, 4, 6] and the rows ``end`` of W, all raw;
    None when A is singular or not finite."""
    dy, dyp = zip(*partials)
    (j11, j12), (j21, j22) = [(_fdot(row, dy, prec), _fdot(row, dyp, prec)) for row in end]
    a11, a22 = mpf_sub(fone, j11, prec, RND), mpf_sub(fone, j22, prec, RND)
    det = mpf_sub(mpf_mul(a11, a22, prec, RND), mpf_mul(j12, j21, prec, RND), prec, RND)
    if det == fzero or not _finite(det):
        return None
    return tuple(tuple(mpf_div(a, det, prec, RND) for a in row) for row in ((a22, j12), (j21, a11)))


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
    after MAX_ITERATIONS evaluations, when its matrix is singular, when an
    iterate or Phi(z) is not finite, or when an iterate has diverged beyond
    the range of the Taylor program (``jets.RANGE_BITS``).
    """
    prec, make = ctx.mp.prec, ctx.mp.make_mpf
    n, x_n, y_curr, yp_curr, yp_prev = (
        state.index, state.x_n, state.y_curr, state.yp_curr, state.yp_prev)
    x_next = _node(state.x0, weights.h, n + 1)
    f_prev = state.f_prev or _eval_f(
        problem, _node(state.x0, weights.h, n - 1), state.y_prev, yp_prev)
    f_curr = state.f_curr or _eval_f(problem, x_n, y_curr, yp_curr)
    h, tol = _raw(weights.h), _raw(weights.tol)
    end, mid = ([[_raw(w) for w in row] for row in rows] for rows in (weights.end, weights.mid))
    # the constant part c of Phi(z) = c + W F(z), fixed for the whole step
    f_old = [_raw(f) for f in f_prev + f_curr]
    base = (mpf_sub(mpf_mul_int(_raw(y_curr), 2, prec, RND), _raw(state.y_prev), prec, RND),
            _raw(yp_prev))
    c = [mpf_add(b, _fdot(e + m, f_old, prec), prec, RND) for b, e, m in zip(base, end, mid)]

    graph = problem.graph
    graph.at(x_n, y_curr, yp_curr)
    # Horner's rule for the Taylor polynomial and its derivative at h
    y, dy = graph.y.raw(PREDICTOR_DEGREE), fzero
    for k in range(PREDICTOR_DEGREE - 1, -1, -1):
        dy = mpf_add(y, mpf_mul(h, dy, prec, RND), prec, RND)
        y = mpf_add(graph.y.raw(k), mpf_mul(h, y, prec, RND), prec, RND)
    z = (y, dy)
    inverse = None           # A^-1 at the predictor, formed when first needed
    for evals in range(1, MAX_ITERATIONS + 1):
        if not (in_range(z[0]) and in_range(z[1])):
            raise StepFailureError(
                f"implicit solve diverged: iterate beyond the Taylor program's range "
                f"at x = {ctx.mp.nstr(x_next, 8)}", step_index=n + 1, iterations=evals - 1)
        z_mpf = make(z[0]), make(z[1])
        f_z = [_raw(f) for f in _eval_f(problem, x_next, *z_mpf)]
        phi = [mpf_add(ci, _fdot(row, f_z, prec), prec, RND) for ci, row in zip(c, end)]
        r = [mpf_sub(p, zi, prec, RND) for p, zi in zip(phi, z)]
        if not (_finite(r[0]) and _finite(r[1])):
            # r is finite only if Phi(z) and z are; an infinite Phi(z) would
            # pass the test below, as inf <= inf
            raise StepFailureError(
                f"implicit solve: non-finite iterate at x = {ctx.mp.nstr(x_next, 8)}",
                step_index=n + 1, iterations=evals)
        if all(mpf_le(mpf_abs(ri, prec, RND),
                      mpf_mul(tol, mpf_add(mpf_abs(p, prec, RND), fone, prec, RND), prec, RND))
               for ri, p in zip(r, phi)):
            # f at the accepted pair is kept, so the next step sees consistent data
            y_next, yp_next = make(phi[0]), make(phi[1])
            return StepState(
                index=n + 1, x0=state.x0, x_n=x_next,
                y_prev=y_curr, y_curr=y_next, yp_prev=yp_curr, yp_curr=yp_next,
                iterations=state.iterations + evals + 1,
                f_prev=f_curr, f_curr=_eval_f(problem, x_next, y_next, yp_next))
        if inverse is None:
            partials = [(_raw(a), _raw(b))
                        for a, b in graph.jacobian(x_next, *z_mpf, (2, 4, 6))]
            inverse = _chord_inverse(partials, end, prec)
            if inverse is None:
                raise StepFailureError(
                    f"implicit solve: singular Newton matrix at x = {ctx.mp.nstr(x_next, 8)}",
                    step_index=n + 1, iterations=evals)
        z = [mpf_add(zi, _fdot(row, r, prec), prec, RND) for zi, row in zip(z, inverse)]
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
