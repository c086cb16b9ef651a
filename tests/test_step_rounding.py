"""The step's integer arithmetic against the same step written with mpf operators.

``reference_step`` forms every weighted sum with ``mp.fdot``, the predictor
with ``mp.polyval`` and everything else with the mpf operators, from the exact
images m 2^-P of the ints m that ``integrator.step`` keeps as its state.  From
the same state, ``step`` must take as many evaluations as the reference at the
working precision and as the reference at 20 more digits, and land within
2^(3 - prec) max(|c|, 1) of the wider run's y_{n+1} and y'_{n+1} = c: the
bound that the ``integrator`` docstring states.
"""

from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from mpmath.libmp import from_man_exp, to_rational

from obrechkoff import (
    MethodId,
    StepFailureError,
    StepperConfig,
    coefficients,
    duffing,
    linear_forced,
    make_context,
    rational_problem,
    startup,
    step,
)
from obrechkoff.integrator import (
    DERIVATIVE_QUADRATURE,
    MAX_ITERATIONS,
    PREDICTOR_DEGREE,
    StepState,
    StepWeights,
    _node,
)
from obrechkoff.jets import GUARD_BITS, _fixed, _raw

from test_jets import rounded

STEPS = 30


def _eval_f(problem, x, y, yp):
    return (problem.f2(x, y, yp), problem.f4(x, y, yp), problem.f6(x, y, yp))


def image(m, ctx, prec):
    """An int m that ``step`` kept at 2^-P, P = prec + GUARD_BITS, as the
    number m 2^-P of ``ctx``, exactly."""
    return ctx.mp.make_mpf(from_man_exp(m, -(prec + GUARD_BITS)))


def mpf_weights(weights, coeffs, ctx):
    """h, tol and, as rows of mpf, the weights ``end`` = W of f at the new
    (and the oldest) node and ``mid`` of f at the middle node, formed from
    ``coeffs.fixed`` and DERIVATIVE_QUADRATURE as StepWeights forms them:
    each h^k w exactly, rounded once."""
    h = weights.h
    H = F(*to_rational(h._mpf_))
    P, ints = coeffs.fixed
    b10, b11, b20, b21, b30, b31 = (F(b, 1 << P) for b in ints)
    qA, qB, qC, qD, qE, qF = DERIVATIVE_QUADRATURE.values()
    end = ((H ** 2 * b10, H ** 4 * b20, H ** 6 * b30), (H * qA, H ** 3 * qC, H ** 5 * qE))
    mid = ((H ** 2 * b11, H ** 4 * b21, H ** 6 * b31), (H * qB, H ** 3 * qD, H ** 5 * qF))
    end, mid = ([tuple(map(ctx.mpf, row)) for row in rows] for rows in (end, mid))
    return SimpleNamespace(h=h, tol=weights.tol, end=end, mid=mid)


def reference_chord_inverse(partials, end, ctx):
    dy, dyp = zip(*partials)
    (j11, j12), (j21, j22) = [(ctx.mp.fdot(row, dy), ctx.mp.fdot(row, dyp)) for row in end]
    a11, a22 = 1 - j11, 1 - j22
    det = a11 * a22 - j12 * j21
    if det == 0 or not ctx.mp.isfinite(det):
        return None
    return (a22 / det, j12 / det), (j21 / det, a11 / det)


def reference_step(state, weights, problem, ctx, prec):
    """One step of the chord-Newton solve in mpf arithmetic, from the images of
    the ints of ``state``, kept at the binary point of ``prec``."""
    fdot, isfinite, tol = ctx.mp.fdot, ctx.mp.isfinite, weights.tol
    n, x0, x_n = state.index, ctx.mpf(state.x0), ctx.mpf(state.x_n)
    y_prev, y_curr, yp_prev, yp_curr = (image(m, ctx, prec) for m in (
        state.y_prev, state.y_curr, state.yp_prev, state.yp_curr))
    f_prev, f_curr = (f and tuple(image(m, ctx, prec) for m in f)
                      for f in (state.f_prev, state.f_curr))
    x_next = _node(x0, weights.h, n + 1)
    f_prev = f_prev or _eval_f(problem, _node(x0, weights.h, n - 1), y_prev, yp_prev)
    f_curr = f_curr or _eval_f(problem, x_n, y_curr, yp_curr)
    c = [base + fdot(end + mid, f_prev + f_curr) for base, end, mid in
         zip((2 * y_curr - y_prev, yp_prev), weights.end, weights.mid)]

    graph = problem.graph
    ys = rounded(graph, (x_n, y_curr, yp_curr), PREDICTOR_DEGREE - 2)[0]
    taylor = [ctx.mp.make_mpf(c) for c in ys[PREDICTOR_DEGREE::-1]]
    z = ctx.mp.polyval(taylor, weights.h, derivative=True)
    inverse = None
    for evals in range(1, MAX_ITERATIONS + 1):
        f_z = _eval_f(problem, x_next, *z)
        phi = [ci + fdot(row, f_z) for ci, row in zip(c, weights.end)]
        r = [p - zi for p, zi in zip(phi, z)]
        if all(abs(ri) <= tol * (1 + abs(p)) for ri, p in zip(r, phi)):
            return StepState(
                index=n + 1, x0=x0, x_n=x_next,
                y_prev=y_curr, y_curr=z[0], yp_prev=yp_curr, yp_curr=z[1],
                iterations=state.iterations + evals, f_prev=f_curr, f_curr=f_z)
        if inverse is None:
            inverse = reference_chord_inverse(
                graph.jacobian(x_next, *z, (2, 4, 6)), weights.end, ctx)
            if inverse is None:
                raise StepFailureError("singular", step_index=n + 1, iterations=evals)
        z = [zi + fdot(row, r) for zi, row in zip(z, inverse)]
        if not all(map(isfinite, z)):
            raise StepFailureError("non-finite", step_index=n + 1, iterations=evals)
    raise StepFailureError("stalled", step_index=n + 1, iterations=MAX_ITERATIONS)


def widened(weights, ctx):
    """The weights h, tol, end and mid as numbers of ``ctx``: the same values,
    which the reference then works on at a wider precision."""
    rows = [tuple(tuple(ctx.mpf(w) for w in row) for row in rows)
            for rows in (weights.end, weights.mid)]
    return SimpleNamespace(h=ctx.mpf(weights.h), tol=ctx.mpf(weights.tol),
                           end=rows[0], mid=rows[1])


@pytest.mark.parametrize("make, digits, method, startup_mode, divisor", [
    (duffing, 50, MethodId.CLASSICAL, "exact", 500),
    (duffing, 50, MethodId.PL_PRIME, "exact", 500),
    (duffing, 50, MethodId.PL_DOUBLE_PRIME, "exact", 500),
    (linear_forced, 100, MethodId.PL_DOUBLE_PRIME, "taylor", 1000),
    (rational_problem, 50, MethodId.CLASSICAL, "exact", 500),
])
def test_step_rounds_as_the_mpf_reference(make, digits, method, startup_mode, divisor):
    ctx, wide = make_context(digits), make_context(digits + 20)
    p = make(ctx)
    omega = 0 if method is MethodId.CLASSICAL else p.default_omega
    cfg = StepperConfig(method=method, h=(p.x_end - p.x0) / divisor, omega=omega,
                        startup=startup_mode)
    h = ctx.mpf(cfg.h)
    coeffs = coefficients(method, abs(ctx.mpf(omega) * h), ctx)
    weights = StepWeights.build(coeffs, h, ctx)
    reference = mpf_weights(weights, coeffs, ctx)
    wide_reference = widened(reference, wide)
    prec, x0 = ctx.mp.prec, ctx.mpf(p.x0)
    state = StepState(1, x0, _node(x0, h, 1), *(_fixed(_raw(v), prec + GUARD_BITS)
                                                for v in startup(p, cfg, ctx)))
    unit = wide.mpf(2) ** (3 - prec)
    for _ in range(STEPS):
        expected = reference_step(state, reference, p, ctx, prec)
        exact = reference_step(state, wide_reference, p, wide, prec)
        state = step(state, weights, p, ctx)
        assert state.iterations == expected.iterations == exact.iterations, state.index
        for got, c in ((state.y_curr, exact.y_curr), (state.yp_curr, exact.yp_curr)):
            assert abs(image(got, wide, prec) - c) <= unit * max(abs(c), 1), state.index
    assert state.index == STEPS + 1
