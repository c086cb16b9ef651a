"""Two-step implicit Obrechkoff integrator for y'' = f(x, y, y').

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
predictor is the Taylor polynomial of degree PREDICTOR_DEGREE = 7 of the
solution through (x_n, y_n, y'_n) and its derivative at h: one call of the
problem graph's generated ``predict``, which forms the Taylor levels and
the Horner sums in locals.  The corrector is a chord (simplified) Newton
iteration z <- z + A^-1 (Phi(z) - z) with A = I - DPhi, where dF/dz comes
from one call of the graph's generated ``tangents`` at the predictor (the
variational program), and F from ``problem.evaluate(x, y, y', prec)``
with the same arguments (the graph's ``even`` on the graph read).  A^-1 is
formed at most once per step, and once per run when the variational
program reads neither x, y nor y' (``TracedODE.fixed_partials``, as for a
linear f2), since dF/dz is then the same at every point: the step hands it
on in its ``StepState``.
z itself is accepted once |Phi(z) - z| <= tol (1 + |Phi(z)|) in both
components, tol being 10^(2 - digits), and F(z) is kept as f_{n+1} (Hairer
& Wanner II, IV.8), so a step evaluates F only at its iterates.  An F that
is not finite fails the step at once.  Node n sits at x0 + n*h, formed once
by :func:`_node`.

The state and the solve are Python ints at the Taylor program's binary point
2^-P, P = prec + ``jets.GUARD_BITS``: y and y' at the old nodes, the kept F,
c, the predictor, F(z) and its partials, Phi(z), r = Phi(z) - z, the 2x2
chord inverse and the z update.
Each weighted sum is one exact integer sum under the integer weights of
:class:`StepWeights`, shifted once, and the acceptance test is one exact
integer comparison per component; each shift or division rounds down.
:func:`integrate` crosses the binary point once each way: it converts the
startup values in with ``jets._fixed`` and rounds y_end, y'_end and each
trajectory record out through ``jets._out``, to nearest at prec.
libmp is met elsewhere only in a problem's own closures.  A startup value,
iterate or F of 2^RANGE_BITS or more is a diverged solve.

Bound.  Each weight h^k w is formed exactly from ``CoefficientSet.fixed``
(w = beta) or DERIVATIVE_QUADRATURE (w = q) and rounded once at prec.  From
the same state, the step takes as many evaluations as the same step worked
at 20 more digits, and its y_{n+1} and y'_{n+1} lie within

    |v - c| <= 2^(3 - prec) max(|c|, 1)

of that step's values c.  F carries the Taylor program's bound (``jets``),
scaled down by W, and the integer arithmetic adds a few units 2^-P.
Over 60 steps of each case of ``tests/test_step_rounding.py`` (duffing and
rational at 50 digits, h = span/500; linear PL'' at 100 digits, h = span/1000)
measured at most 0.08 of the units 2^-prec max(|c|, 1), on linear (0.001 on
the others), against 3.0 for the same step in mpf operators.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction as F
from operator import mul
from typing import Optional

from mpmath.libmp import from_man_exp, from_rational, mpf_shift

from .coefficients import CoefficientSet, MethodId, coefficients
from .context import Context
from .errors import ConfigurationError, DomainError, StepFailureError
from .jets import (GUARD_BITS, PREDICTOR_DEGREE, RANGE_BITS, RND, _fixed, _integer_weights, _out,
                   _raw, _signed, ode_series)
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
    """Node n and its two-step state: x0 and x_n are mpmath numbers, y, y'
    and the kept F (None: not yet evaluated) at nodes n - 1, n ints at 2^-P.
    ``inverse`` is the chord inverse kept for the next step when the
    graph's partials are fixed; ``iterations`` and ``jacobian_passes`` count
    the evaluations and chord inverses of the run so far."""
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
    inverse: Optional[list] = None
    jacobian_passes: int = 0


@dataclass(frozen=True)
class StepWeights:
    """The update map Phi(z) = c + W F(z) of every step of one run.

    W, rows (h^2 b10, h^4 b20, h^6 b30) and (h qA, h^3 qC, h^5 qE), weights F
    at the new node (and f at the oldest), so DPhi = W dF/dz; f at the middle
    node takes b11, b21, b31 and qB, qD, qF in their place, each weight read
    from ``coeffs.fixed`` and rounded once.  ``tol`` is the acceptance
    tolerance 10^(2 - digits).  ``fixed`` holds these as integer weights over
    2^-s, pairs (s, weights), for the step: h, tol, each row of W, and each
    row of W followed by the same row for the middle node.
    """

    h: object
    tol: object
    fixed: tuple = field(repr=False)

    @classmethod
    def build(cls, coeffs: CoefficientSet, h, ctx: Context) -> "StepWeights":
        h, prec = ctx.mpf(h), ctx.mp.prec
        m, e = _signed(h._mpf_)                         # h = m 2^e exactly
        P, ints = coeffs.fixed
        # h^k b10 ... h^k b31 and h^k qA ... h^k qF, each formed exactly and rounded once
        hb = [from_man_exp(m ** k * b, k * e - P, prec, RND)
              for k, b in zip((2, 2, 4, 4, 6, 6), ints)]
        hq = [mpf_shift(from_rational(m ** k * q.numerator, q.denominator, prec, RND), k * e)
              for k, q in zip((1, 1, 3, 3, 5, 5), DERIVATIVE_QUADRATURE.values())]
        tol = ctx.mpf(10) ** (2 - ctx.digits)
        end, mid = (hb[0::2], hq[0::2]), (hb[1::2], hq[1::2])
        rows = [[h._mpf_], [tol._mpf_], *end, *(a + b for a, b in zip(end, mid))]
        fixed = [_integer_weights(row) for row in rows]
        return cls(h, tol, fixed=(fixed[0], fixed[1], fixed[2:4], fixed[4:]))


@dataclass
class IntegrationResult:
    """Outcome of one run.

    ``total_iterations`` counts the closure triples (f2, f4, f6) that the
    steps' solves evaluated, one per iteration (the accepted one's is kept);
    ``max_step_iterations`` is the largest such count of one step;
    ``jacobian_passes`` counts the chord inverses formed.
    """

    y_end: object
    abs_end_error: Optional[object]
    steps: int
    total_iterations: int
    wall_time: float
    yp_end: Optional[object] = None
    max_step_iterations: int = 0
    trajectory: list = field(default_factory=list)
    jacobian_passes: int = 0


def _node(x0, h, n):
    """Abscissa of node n: x0 + n*h, never a sum of steps."""
    return x0 + n * h


def _dot(row, values):
    """sum w_i v_i for the integer weights ``row`` = (s, w) over 2^-s and the
    ints ``values`` at 2^-P: one exact sum, shifted to 2^-P, rounding down."""
    s, w = row
    return sum(map(mul, w, values)) >> s


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
    after MAX_ITERATIONS evaluations, when its matrix is singular, when F is
    not finite (``problem.evaluate`` raised a DomainError), or when an
    iterate or F lies beyond the Taylor program's range.
    """
    prec = ctx.mp.prec
    P = prec + GUARD_BITS
    one, limit = 1 << P, P + RANGE_BITS
    n, x_n = state.index, state.x_n
    x_next = _node(state.x0, weights.h, n + 1)

    def failure(message, evals):
        return StepFailureError(f"implicit solve{message} at x = {ctx.mp.nstr(x_next, 8)}",
                                step_index=n + 1, iterations=evals)

    def evaluate(x, y, yp, evals):
        try:
            f2, f4, f6 = f = problem.evaluate(x, y, yp, prec)
        except DomainError:
            raise failure(": non-finite iterate", evals) from None
        if f2.bit_length() > limit or f4.bit_length() > limit or f6.bit_length() > limit:
            raise failure(" diverged: F beyond the Taylor program's range", evals)
        return f

    # the constant part c of Phi(z) = c + W F(z), fixed for the whole step; a
    # bad f at an old node spoils Phi(z) at the first evaluation
    y_prev, y_curr, yp_prev, yp_curr = state.y_prev, state.y_curr, state.yp_prev, state.yp_curr
    f_prev = state.f_prev or evaluate(_node(state.x0, weights.h, n - 1), y_prev, yp_prev, 1)
    f_curr = state.f_curr or evaluate(x_n, y_curr, yp_curr, 1)
    (hs, (h,)), (ts, (tol,)), end, old = weights.fixed
    (s1, (w12, w14, w16)), (s2, (w22, w24, w26)) = end
    c1 = 2 * y_curr - y_prev + _dot(old[0], (*f_prev, *f_curr))
    c2 = yp_prev + _dot(old[1], (*f_prev, *f_curr))

    graph = problem.graph
    y, yp = graph.predict(x_n, y_curr, yp_curr, prec, h, hs)
    inverse, passes = state.inverse, state.jacobian_passes    # A^-1, formed when first needed
    for evals in range(1, MAX_ITERATIONS + 1):
        if y.bit_length() > limit or yp.bit_length() > limit:
            raise failure(" diverged: iterate beyond the Taylor program's range", evals - 1)
        f2, f4, f6 = f_z = evaluate(x_next, y, yp, evals)
        phi1 = c1 + (w12 * f2 + w14 * f4 + w16 * f6 >> s1)
        phi2 = c2 + (w22 * f2 + w24 * f4 + w26 * f6 >> s2)
        r1, r2 = phi1 - y, phi2 - yp
        # |r| <= tol (1 + |Phi(z)|) exactly, with tol as the int ``tol`` over 2^-ts
        if abs(r1) << ts <= tol * (one + abs(phi1)) and abs(r2) << ts <= tol * (one + abs(phi2)):
            return StepState(
                index=n + 1, x0=state.x0, x_n=x_next,
                y_prev=y_curr, y_curr=y, yp_prev=yp_curr, yp_curr=yp,
                iterations=state.iterations + evals, f_prev=f_curr, f_curr=f_z,
                inverse=inverse if graph.fixed_partials else None, jacobian_passes=passes)
        if inverse is None:
            dy, dyp = graph.tangents(x_next, y, yp, prec)
            (j11, j12), (j21, j22) = [(_dot(row, dy), _dot(row, dyp)) for row in end]
            a11, a22 = one - j11, one - j22
            det = a11 * a22 - j12 * j21                 # at 2^-2P
            if not det:
                raise failure(": singular Newton matrix", evals)
            # A^-1 = (a22, j12; j21, a11) / det, at 2^-P
            inverse = [(a << 2 * P) // det for a in (a22, j12, j21, a11)]
            passes += 1
        i11, i12, i21, i22 = inverse
        y, yp = y + (i11 * r1 + i12 * r2 >> P), yp + (i21 * r1 + i22 * r2 >> P)
    raise failure(f" stalled after {MAX_ITERATIONS} iterations", MAX_ITERATIONS)


def integrate(problem: ProblemDef, config: StepperConfig, ctx: Context,
              x_end=None, trajectory_every: int = 0) -> IntegrationResult:
    """Run startup plus fixed steps from x0 to x_end (default: problem span).

    (x_end - x0)/h must be an integer to 1e-12 relative so the endpoint is
    hit exactly; node abscissae are formed as x0 + n*h, never by repeated
    addition.  Coefficients are evaluated once at v = omega*h and reused.
    """
    t_start = time.perf_counter()
    config.validate(ctx)
    if trajectory_every < 0:
        raise ConfigurationError(f"trajectory_every takes a count >= 0, got {trajectory_every}")
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

    P = ctx.mp.prec + GUARD_BITS
    values = startup(problem, config, ctx)
    try:          # the state's one entry to the binary point; ``_out`` is its exit
        state = StepState(1, x0, _node(x0, h, 1), *(_fixed(_raw(v), P) for v in values))
    except DomainError:
        raise StepFailureError(
            "implicit solve diverged: state beyond the Taylor program's range at x = "
            f"{ctx.mp.nstr(_node(x0, h, 2), 8)}", step_index=2, iterations=0) from None

    trajectory = []

    def record(xv, m):
        yv, ref = _out(ctx.mp, m, P), problem.reference and problem.reference(xv)
        trajectory.append((xv, yv, ref, None if ref is None else abs(yv - ref)))

    if trajectory_every:
        record(x0, state.y_prev)
        record(state.x_n, state.y_curr)

    max_iter_step = 0
    while state.index < n_steps:
        prev_total = state.iterations
        state = step(state, weights, problem, ctx)
        max_iter_step = max(max_iter_step, state.iterations - prev_total)
        if trajectory_every and (state.index % trajectory_every == 0
                                 or state.index == n_steps):
            record(state.x_n, state.y_curr)

    y_end = _out(ctx.mp, state.y_curr, P)
    err = None if problem.reference is None else abs(y_end - problem.reference(xe))
    return IntegrationResult(
        y_end=y_end,
        abs_end_error=err,
        steps=n_steps,
        total_iterations=state.iterations,
        wall_time=time.perf_counter() - t_start,
        yp_end=_out(ctx.mp, state.yp_curr, P),
        max_step_iterations=max_iter_step,
        trajectory=trajectory,
        jacobian_passes=state.jacobian_passes,
    )
