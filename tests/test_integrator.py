import dataclasses

import pytest

from obrechkoff import (
    ConfigurationError,
    MethodId,
    ProblemDef,
    StepFailureError,
    StepperConfig,
    coefficients,
    duffing,
    integrate,
    linear_forced,
    make_context,
    rational_problem,
    startup,
    step,
)
from obrechkoff.integrator import DERIVATIVE_QUADRATURE, MAX_ITERATIONS, StepState


def oscillator(ctx, omega=10):
    """y'' = -omega^2 y with reference sin(omega x) + cos(omega x)."""
    w = ctx.mpf(omega)
    w2 = w * w

    def ref(x):
        return ctx.mp.sin(w * x) + ctx.mp.cos(w * x)

    def refp(x):
        return w * ctx.mp.cos(w * x) - w * ctx.mp.sin(w * x)

    return ProblemDef(
        name="oscillator",
        x0=ctx.mpf(0), x_end=2 * ctx.pi,
        y0=ref(ctx.mpf(0)), yp0=refp(ctx.mpf(0)),
        f2=lambda x, y, yp: -w2 * y,
        f3=lambda x, y, yp: -w2 * yp,
        f4=lambda x, y, yp: w2 * w2 * y,
        f5=lambda x, y, yp: w2 * w2 * yp,
        f6=lambda x, y, yp: -w2 ** 3 * y,
        f7=lambda x, y, yp: -w2 ** 3 * yp,
        reference=ref, reference_prime=refp,
        default_omega=w,
    )


def test_derivative_quadrature_weights_are_degree_11_exact():
    # integral of g over [-h, h] against the three-node sixth-derivative rule
    from fractions import Fraction as F
    q = DERIVATIVE_QUADRATURE
    import math
    for k in range(0, 12):
        exact = (F(1, k + 1) - F(-1, k + 1)) if k % 2 == 0 else F(0)
        # h = 1: g = x^k; g'' = k(k-1)x^(k-2); g'''' = k..(k-3)x^(k-4)
        def d(a, n):
            c = F(math.factorial(a), math.factorial(a - n)) if a >= n else F(0)
            return c, a - n if a >= n else 0
        total = F(0)
        for (qe, qm, order) in ((q["qA"], q["qB"], 0), (q["qC"], q["qD"], 2),
                                (q["qE"], q["qF"], 4)):
            c, p = d(k, order)
            if c == 0:
                continue
            ends = c * ((-1) ** p + 1)
            mid = c if p == 0 else F(0)
            total += qe * ends + qm * mid
        assert total == exact, k


def test_startup_exact_linear(ctx50):
    p = linear_forced(ctx50)
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=ctx50.pi / 50)
    y0, y1, yp0, yp1 = startup(p, cfg, ctx50)
    h = ctx50.pi / 50
    assert y1 == ctx50.mp.sin(h) + ctx50.mp.sin(10 * h) + ctx50.mp.cos(10 * h)
    assert y0 == 1 and yp0 == 11


def test_startup_exact_requires_reference(ctx50):
    p = dataclasses.replace(rational_problem(ctx50), reference=None,
                            reference_prime=None)
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=ctx50.mpf("0.01"))
    with pytest.raises(ConfigurationError):
        startup(p, cfg, ctx50)


def test_startup_taylor_rational(ctx50):
    p = rational_problem(ctx50)
    h = ctx50.real("4.5") / 5000
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=h, startup="taylor")
    _, y1, _, yp1 = startup(p, cfg, ctx50)
    assert abs(y1 - 1 / (1 + 2 * h)) < ctx50.mpf(10) ** -30
    assert abs(yp1 - (-2) / (1 + 2 * h) ** 2) < ctx50.mpf(10) ** -26


def test_startup_degenerate_zero_step(ctx50):
    p = linear_forced(ctx50)
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=ctx50.mpf(0), startup="taylor")
    with pytest.raises(ConfigurationError):
        startup(p, cfg, ctx50)  # h = 0 is rejected outright


def test_free_motion_step_is_exact(ctx50):
    # f == 0: y_{n+1} = 2 y_n - y_{n-1} with essentially no iteration
    zero = lambda x, y, yp: ctx50.mpf(0)
    p = ProblemDef(name="free", x0=ctx50.mpf(0), x_end=ctx50.mpf(1),
                   y0=ctx50.mpf(1), yp0=ctx50.mpf(1),
                   f2=zero, f4=zero, f6=zero)
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=ctx50.mpf("0.25"))
    cs = coefficients(MethodId.CLASSICAL, 0, ctx50)
    st = StepState(index=1, x_n=ctx50.mpf("0.25"),
                   y_prev=ctx50.mpf(1), y_curr=ctx50.mpf("1.25"),
                   yp_prev=ctx50.mpf(1), yp_curr=ctx50.mpf(1))
    out = step(st, cs, p, cfg, ctx50)
    assert out.y_curr == 2 * ctx50.mpf("1.25") - 1
    assert out.iterations <= 3


def test_trig_exact_full_period(ctx50):
    # one full period of the test oscillator with the matching fitted method
    p = oscillator(ctx50, omega=10)
    h = ctx50.pi / 100
    cfg = StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=h, omega=10)
    res = integrate(p, cfg, ctx50)     # x_end = 2 pi -> 200 steps
    assert res.steps == 200
    assert res.abs_end_error < ctx50.mpf(10) ** (12 - 50)


def test_integrate_zero_length(ctx50):
    p = linear_forced(ctx50)
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=ctx50.mpf("0.1"))
    res = integrate(p, cfg, ctx50, x_end=p.x0)
    assert res.steps == 0
    assert res.y_end == p.y0
    assert res.abs_end_error == 0


def test_integrate_rejects_non_integer_span(ctx50):
    p = linear_forced(ctx50)
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=ctx50.mpf("0.3"))
    with pytest.raises(ConfigurationError):
        integrate(p, cfg, ctx50)


def test_time_symmetry_round_trip(ctx50):
    # forward N steps then backward N steps returns the initial value
    p = oscillator(ctx50, omega=10)
    n = 100
    h = ctx50.pi / 100
    fwd = integrate(p, StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=h,
                                     omega=10), ctx50, x_end=n * h)
    back_problem = dataclasses.replace(p, x0=ctx50.mpf(n) * h, x_end=ctx50.mpf(0))
    back = integrate(back_problem,
                     StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=-h, omega=10),
                     ctx50, x_end=ctx50.mpf(0))
    tol = ctx50.tolerance().abs
    assert abs(back.y_end - p.y0) < 10 * n * tol


def test_endpoint_hit_exactly(ctx50):
    p = oscillator(ctx50, omega=10)
    h = ctx50.pi / 50
    res = integrate(p, StepperConfig(method=MethodId.CLASSICAL, h=h), ctx50,
                    trajectory_every=25)
    assert res.trajectory[-1][0] == p.x0 + 100 * h


def test_classical_warns_outside_periodicity(ctx50):
    p = oscillator(ctx50, omega=10)
    # omega declares the problem frequency: v = omega*h ~ pi falls in the
    # classical instability window even though classical ignores omega
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=ctx50.pi / 10, omega=10)
    with pytest.warns(UserWarning):
        integrate(p, cfg, ctx50, x_end=ctx50.pi)


def test_observed_order_rational_problem():
    # order ~12 between two step sizes (cheap variant of the benchmark run)
    ctx = make_context(50)
    p = rational_problem(ctx)
    errs = []
    for div in (250, 500):
        h = ctx.real("4.5") / div
        res = integrate(p, StepperConfig(method=MethodId.CLASSICAL, h=h), ctx)
        errs.append(res.abs_end_error)
    import math
    order = math.log(float(errs[0] / errs[1]), 2)
    assert 11.0 < order < 13.0


def test_iteration_budget_on_benchmark_run(ctx50):
    p = linear_forced(ctx50)
    cfg = StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=ctx50.pi / 50, omega=10)
    res = integrate(p, cfg, ctx50)
    assert res.max_step_iterations <= 8


def test_stalled_solve_raises_step_failure():
    # five steps over the Duffing span: the fixed-point map no longer contracts
    ctx = make_context(30)
    p = duffing(ctx)
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=(p.x_end - p.x0) / 5)
    with pytest.raises(StepFailureError, match="implicit solve stalled") as info:
        integrate(p, cfg, ctx)
    assert info.value.step_index == 2          # the first solved step
    assert info.value.iterations == MAX_ITERATIONS == 60
