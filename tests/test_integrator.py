import dataclasses
import hashlib

import pytest
from mpmath.libmp import from_man_exp

from obrechkoff import (
    CoefficientSet,
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
from obrechkoff.coefficients import coefficient_sweep
from obrechkoff.integrator import DERIVATIVE_QUADRATURE, MAX_ITERATIONS, StepState, StepWeights
from obrechkoff.jets import GUARD_BITS, _fixed, _raw, ode_series
from obrechkoff.stability import periodicity_interval, stability_pair, stability_sweep


def fixed(ctx, v):
    """v as ``step`` holds the state: an int at 2^-P, P = prec + GUARD_BITS."""
    return _fixed(_raw(v), ctx.mp.prec + GUARD_BITS)


def image(ctx, m):
    """The int m at 2^-P as the number m 2^-P of ``ctx``, exactly."""
    return ctx.mp.make_mpf(from_man_exp(m, -(ctx.mp.prec + GUARD_BITS)))


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
    st = StepState(index=1, x0=ctx50.mpf(0), x_n=ctx50.mpf("0.25"),
                   y_prev=fixed(ctx50, 1), y_curr=fixed(ctx50, ctx50.mpf("1.25")),
                   yp_prev=fixed(ctx50, 1), yp_curr=fixed(ctx50, 1))
    out = step(st, StepWeights.build(cs, cfg.h, ctx50), p, ctx50)
    assert out.y_curr == fixed(ctx50, 2 * ctx50.mpf("1.25") - 1)
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


def test_integrate_rejects_a_negative_trajectory_stride(ctx50):
    # a stride of -3 used to record every 3rd node, as +3 does
    p = rational_problem(ctx50)
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=(p.x_end - p.x0) / 20)
    with pytest.raises(ConfigurationError, match="trajectory_every takes a count >= 0, got -3"):
        integrate(p, cfg, ctx50, trajectory_every=-3)
    assert len(integrate(p, cfg, ctx50, trajectory_every=3).trajectory) == 9


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
    assert abs(back.y_end - p.y0) < 10 * n * ctx50.mpf(10) ** (8 - ctx50.digits)


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
    # h = 1.5: the iterates of the third step neither converge nor leave range
    ctx = make_context(30)
    p = rational_problem(ctx)
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=(p.x_end - p.x0) / 3)
    with pytest.raises(StepFailureError, match="implicit solve stalled") as info:
        integrate(p, cfg, ctx)
    assert info.value.step_index == 3
    assert info.value.iterations == MAX_ITERATIONS == 60


def test_diverging_solve_raises_step_failure():
    # h = 25: the iterates grow about 7-fold in exponent per evaluation, and the
    # 7th lies beyond the Taylor program's range, 2^RANGE_BITS
    ctx = make_context(30)
    p = duffing(ctx)
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=(p.x_end - p.x0) / 5)
    with pytest.raises(StepFailureError, match="implicit solve diverged") as info:
        integrate(p, cfg, ctx)
    assert info.value.step_index == 2          # the first solved step
    assert info.value.iterations == 6


@pytest.mark.parametrize("make, digits, divisor, startup_mode, most", [
    (duffing, 50, 500, "exact", 5),
    (linear_forced, 100, 1000, "taylor", 2),
])
def test_chord_newton_closure_triples_per_step(make, digits, divisor, startup_mode, most):
    # the accepted iterate's F is kept, so a step takes only its iterations'
    # triples, at most `most`: 2415 in all over the divisor - 1 solved steps on
    # duffing, and 2 in every step on linear.  Duffing forms a chord inverse
    # in every solved step; linear's partials are fixed, so it forms one
    ctx = make_context(digits)
    p = make(ctx)
    cfg = StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=(p.x_end - p.x0) / divisor,
                        omega=p.default_omega, startup=startup_mode)
    res = integrate(p, cfg, ctx)
    assert res.max_step_iterations <= most
    assert res.total_iterations == {"duffing": 2415, "linear": 1998}[p.name]
    assert res.jacobian_passes == {"duffing": 499, "linear": 1}[p.name]


def test_a_chord_inverse_kept_for_the_run_changes_no_bit():
    # linear's partials are the same at every point, so the inverse formed in
    # the first step is the one every later step would form
    ctx = make_context(100)
    p = linear_forced(ctx)
    cfg = StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=(p.x_end - p.x0) / 500,
                        omega=p.default_omega, startup="taylor")
    kept = integrate(p, cfg, ctx)
    p.graph.fixed_partials = False
    formed = integrate(p, cfg, ctx)
    assert (kept.jacobian_passes, formed.jacobian_passes) == (1, 499)
    assert (kept.y_end._mpf_, kept.yp_end._mpf_) == (formed.y_end._mpf_, formed.yp_end._mpf_)
    assert ((kept.total_iterations, kept.max_step_iterations)
            == (formed.total_iterations, formed.max_step_iterations))


def test_step_weights_tolerance():
    for digits in (30, 50):
        ctx = make_context(digits)
        coeffs = coefficients(MethodId.CLASSICAL, 0, ctx)
        assert StepWeights.build(coeffs, ctx.mpf("0.1"), ctx).tol == ctx.mpf(10) ** (2 - digits)


def closure_relation(ctx, problem, coeffs, h, before, after):
    """Residuals of the y and y' formulas between two states, with f from the
    problem's closures and the weights from the coefficients and
    DERIVATIVE_QUADRATURE (not from StepWeights), at the states' exact images."""
    b10, b11, b20, b21, b30, b31 = coeffs.as_tuple()
    qA, qB, qC, qD, qE, qF = (ctx.mpf(q) for q in DERIVATIVE_QUADRATURE.values())
    nodes = [(x, image(ctx, y), image(ctx, yp)) for x, y, yp in (
        (before.x_n - h, before.y_prev, before.yp_prev),
        (before.x_n, before.y_curr, before.yp_curr),
        (after.x_n, after.y_curr, after.yp_curr))]
    (_, y_prev, yp_prev), (_, y_curr, _), (_, y_next, yp_next) = nodes
    (a2, a4, a6), (m2, m4, m6), (c2, c4, c6) = [
        (problem.f2(*node), problem.f4(*node), problem.f6(*node)) for node in nodes]
    y = (2 * y_curr - y_prev + h ** 2 * (b10 * (a2 + c2) + b11 * m2)
         + h ** 4 * (b20 * (a4 + c4) + b21 * m4) + h ** 6 * (b30 * (a6 + c6) + b31 * m6))
    yp = (yp_prev + h * (qA * (a2 + c2) + qB * m2)
          + h ** 3 * (qC * (a4 + c4) + qD * m4) + h ** 5 * (qE * (a6 + c6) + qF * m6))
    return abs(y_next - y), abs(yp_next - yp)


def test_custom_closures_define_the_solved_relation(ctx50):
    # the graph of f2 only predicts and forms the Newton matrix: explicit f4/f6,
    # 1% off the graph's, define the relation the step solves
    w2, off = ctx50.mpf(100), ctx50.mpf("1.01")
    consistent = ProblemDef(name="oscillator", x0=ctx50.mpf(0), x_end=ctx50.mpf(1),
                            y0=ctx50.mpf(1), yp0=ctx50.mpf(0), f2=lambda x, y, yp: -w2 * y)
    skewed = dataclasses.replace(consistent, f4=lambda x, y, yp: off * w2 * w2 * y,
                                 f6=lambda x, y, yp: -off * w2 ** 3 * y)
    h = ctx50.mpf("0.05")
    coeffs = coefficients(MethodId.CLASSICAL, 0, ctx50)
    weights = StepWeights.build(coeffs, h, ctx50)
    start = StepState(index=1, x0=ctx50.mpf(0), x_n=h, y_prev=fixed(ctx50, 1),
                      y_curr=fixed(ctx50, ctx50.mp.cos(10 * h)), yp_prev=fixed(ctx50, 0),
                      yp_curr=fixed(ctx50, -10 * ctx50.mp.sin(10 * h)))
    tol = ctx50.mpf(10) ** -40
    out = step(start, weights, skewed, ctx50)
    assert max(closure_relation(ctx50, skewed, coeffs, h, start, out)) < tol
    plain = step(start, weights, consistent, ctx50)
    assert max(closure_relation(ctx50, consistent, coeffs, h, start, plain)) < tol
    assert abs(out.y_curr - plain.y_curr) > ctx50.mpf(10) ** -10


def test_singular_newton_matrix_raises_step_failure(ctx50):
    # y'' = y with beta10 = 1, h = 1 and the other weights 0: the y row of
    # DPhi is h^2 beta10 df2/dy = 1, so A = I - DPhi is exactly singular
    zero, one = ctx50.mpf(0), ctx50.mpf(1)
    p = ProblemDef(name="growth", x0=zero, x_end=ctx50.mpf(4), y0=one, yp0=one,
                   f2=lambda x, y, yp: y)
    cs = CoefficientSet(one, zero, zero, zero, zero, zero, v=zero)
    e = ctx50.mp.e
    start = StepState(index=1, x0=zero, x_n=one, y_prev=fixed(ctx50, one),
                      y_curr=fixed(ctx50, e), yp_prev=fixed(ctx50, one), yp_curr=fixed(ctx50, e))
    with pytest.raises(StepFailureError, match="singular Newton matrix") as info:
        step(start, StepWeights.build(cs, one, ctx50), p, ctx50)
    assert info.value.step_index == 2
    assert info.value.iterations == 1


def test_non_finite_iterate_raises_step_failure(ctx50):
    p = dataclasses.replace(linear_forced(ctx50), f4=lambda x, y, yp: ctx50.mp.nan)
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=(p.x_end - p.x0) / 500)
    with pytest.raises(StepFailureError, match="non-finite iterate") as info:
        integrate(p, cfg, ctx50)
    assert info.value.step_index == 2
    assert info.value.iterations == 1


@pytest.mark.parametrize("last_node, step_index", [(True, 500), (False, 16)])
def test_infinite_phi_fails_at_the_step_that_formed_it(ctx50, last_node, step_index):
    # |Phi(z) - z| <= tol (1 + |Phi(z)|) holds for Phi = inf, as inf <= inf:
    # an infinite f4 at the last node alone must not end the run at -inf
    p = linear_forced(ctx50)
    h = (p.x_end - p.x0) / 500
    start, f4 = (p.x_end - h / 2 if last_node else 1), p.f4
    p = dataclasses.replace(p, f4=lambda x, y, yp: ctx50.mp.inf if x > start else f4(x, y, yp))
    with pytest.raises(StepFailureError, match="non-finite iterate") as info:
        integrate(p, StepperConfig(method=MethodId.CLASSICAL, h=h), ctx50)
    assert info.value.step_index == step_index


@pytest.mark.parametrize("from_x, step_index", [(-1, 2), (1, 16)])
def test_a_closure_value_beyond_range_is_a_diverged_solve(ctx50, from_x, step_index):
    # 2^70000 is finite but beyond the Taylor program's range, 2^RANGE_BITS: at
    # the old nodes (from x0 on) or at the first iterate past x = 1
    p = linear_forced(ctx50)
    huge, f4 = ctx50.mpf(2) ** 70000, p.f4
    p = dataclasses.replace(p, f4=lambda x, y, yp: huge if x > from_x else f4(x, y, yp))
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=(p.x_end - p.x0) / 500)
    with pytest.raises(StepFailureError, match="implicit solve diverged") as info:
        integrate(p, cfg, ctx50)
    assert info.value.step_index == step_index
    assert info.value.iterations == 1


@pytest.mark.parametrize("y0, startup_mode, what, iterations", [
    (2 ** 3000, "taylor", "state", 0), (2 ** 12000, "taylor", "state", 0),
    (2 ** 12000, "exact", "F", 1)])
def test_a_state_or_an_f_beyond_range_is_a_diverged_solve(y0, startup_mode, what, iterations):
    # y'' = y^5 from y0 = 2^3000: the Taylor startup's y1, near 2^86915, lies
    # beyond the Taylor program's range, 2^RANGE_BITS, so the state does not
    # convert and no step evaluates; from 2^12000 the series' h^4 y^(4)/24 =
    # 5 h^4 y0^9/24 already puts y1 there.  Exact startup keeps y1 = y0 =
    # 2^12000, which converts, and y^(4) = 5 y0^9 at the oldest node is beyond
    ctx = make_context(30)
    p = ProblemDef(name="quintic", x0=ctx.mpf(0), x_end=ctx.mpf(1), y0=ctx.mpf(y0),
                   yp0=ctx.mpf(0), f2=lambda x, y, yp: y ** 5,
                   reference=lambda x: ctx.mpf(y0), reference_prime=lambda x: ctx.mpf(0))
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=ctx.mpf(1) / 50, startup=startup_mode)
    with pytest.raises(StepFailureError, match=f"implicit solve diverged: {what} beyond") as info:
        integrate(p, cfg, ctx)
    assert info.value.step_index == 2
    assert info.value.iterations == iterations


@pytest.mark.parametrize("name, closure, triples", [
    ("f6", lambda x, y, yp: 0, 196),
    ("f4", lambda x, y, yp: float(10000 * y), 182)])
def test_closures_may_return_python_numbers(name, closure, triples):
    # a closure may return an int or a float, as a traced f2 may
    ctx = make_context(30)
    w2 = ctx.mpf(100)
    p = ProblemDef(name="oscillator", x0=ctx.mpf(0), x_end=ctx.mpf(1),
                   y0=ctx.mpf(1), yp0=ctx.mpf(0), f2=lambda x, y, yp: -w2 * y)
    p = dataclasses.replace(p, **{name: closure})
    cfg = StepperConfig(method=MethodId.CLASSICAL, h=ctx.mpf(1) / 50, startup="taylor")
    res = integrate(p, cfg, ctx)
    assert res.steps == 50 and res.total_iterations == triples
    assert abs(res.y_end - ctx.mp.cos(10)) < ctx.mpf(10) ** -5


def test_omega_none_is_a_configuration_error(ctx50):
    cfg = StepperConfig(method=MethodId.PL_PRIME, h=ctx50.mpf("0.1"), omega=None)
    with pytest.raises(ConfigurationError, match="omega"):
        cfg.validate(ctx50)
    with pytest.raises(ConfigurationError, match="omega"):
        integrate(linear_forced(ctx50), cfg, ctx50)


def test_non_finite_inputs_are_configuration_errors(ctx50):
    p, h = linear_forced(ctx50), ctx50.pi / 50
    for bad in (ctx50.mp.nan, ctx50.mp.inf, float("nan")):
        with pytest.raises(ConfigurationError, match="step size h"):
            integrate(p, StepperConfig(method=MethodId.CLASSICAL, h=bad), ctx50)
        with pytest.raises(ConfigurationError, match="omega"):
            integrate(p, StepperConfig(method=MethodId.PL_PRIME, h=h, omega=bad), ctx50)
        with pytest.raises(ConfigurationError, match="x_end"):
            integrate(p, StepperConfig(method=MethodId.CLASSICAL, h=h), ctx50, x_end=bad)


def recording(problem, orders=range(2, 8)):
    """The problem with closures f<k> that log each abscissa they receive."""
    seen = {k: [] for k in orders}

    def logged(k, fk):
        def fk_logged(x, y, yp):
            seen[k].append(x)
            return fk(x, y, yp)
        return fk_logged

    wrapped = {f"f{k}": logged(k, getattr(problem, f"f{k}")) for k in orders}
    return dataclasses.replace(problem, **wrapped), seen


def test_every_node_is_x0_plus_n_h():
    # f_{n+1} is solved, cached and predicted from at one abscissa per node,
    # the same one the trajectory records
    ctx = make_context(50)
    p, seen = recording(duffing(ctx))
    n_steps = 500
    h = (p.x_end - p.x0) / n_steps
    res = integrate(p, StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=h,
                                     omega=p.default_omega), ctx, trajectory_every=1)
    nodes = [ctx.mpf(p.x0) + n * h for n in range(n_steps + 1)]
    assert set(seen[6]) == set(nodes)
    assert [row[0] for row in res.trajectory] == nodes


@pytest.mark.parametrize("make, divisor, steps", [(duffing, 500, 12), (linear_forced, 500, 12)])
def test_closure_calls_match_the_traced_benchmark_contract(make, divisor, steps):
    # the benchmark's traced passes check f6 calls = iterations + f7 calls + 2;
    # the predictor reads the traced graph, so f3, f5 and f7 are never called
    ctx = make_context(50)
    p, seen = recording(make(ctx))
    h = (p.x_end - p.x0) / divisor
    cfg = StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=h, omega=p.default_omega,
                        startup="taylor")
    res = integrate(p, cfg, ctx, x_end=p.x0 + steps * h)
    calls = {k: len(xs) for k, xs in seen.items()}
    assert calls[6] == res.total_iterations + calls[7] + 2
    assert calls[3] == calls[5] == calls[7] == 0
    assert calls[2] == calls[4] == calls[6]


@pytest.mark.parametrize("make, startup_mode", [(duffing, "exact"), (linear_forced, "taylor")])
def test_evaluator_calls_match_the_iteration_count_on_the_graph_read(make, startup_mode):
    # the same contract on the graph's integer read: one triple at each of the
    # two startup nodes, then one per iteration, the accepted iterate's kept
    ctx = make_context(50)
    p = make(ctx)
    evaluate, calls = p.evaluate, []
    assert evaluate == p.graph.even

    def counted(*args):
        calls.append(args[0])
        return evaluate(*args)

    object.__setattr__(p, "evaluate", counted)
    h = (p.x_end - p.x0) / 500
    cfg = StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=h, omega=p.default_omega,
                        startup=startup_mode)
    res = integrate(p, cfg, ctx, x_end=p.x0 + 50 * h)
    assert len(calls) == res.total_iterations + 2


#: 40-step runs and their y_end, y'_end, total and largest step iteration
#: counts, recorded to every bit, and a digest of the ints of the last state
RECORDED_RUNS = [
    (duffing, MethodId.PL_DOUBLE_PRIME, 50, 500, "exact",
     "-0.1457669038352586607481091964754550173011814641537949",
     "0.13897823424906171919044857073452339039480514531888375",
     187, 5, "1369a10ece46d4f3"),
    (linear_forced, MethodId.PL_PRIME, 100, 1000, "taylor",
     "1.95105651629515357211643933340307395314709654212114521717373895"
     "658029936748109405771990906564804929841",
     "10.3090169943749474241022934154410000948800060071493500076271855"
     "9464443411545408396384584794807943694076",
     78, 2, "e1cc4cd886b80aaf"),
    (rational_problem, MethodId.CLASSICAL, 50, 500, "exact",
     "0.58139534883720930232570587411159281284522330921437089",
     "-0.67604110329908058409865852758020514665069049814977627",
     117, 3, "d8ce78be9f01ebcf"),
]


@pytest.mark.parametrize(
    "make, method, digits, divisor, startup_mode, y_end, yp_end, total, most, state",
    RECORDED_RUNS)
def test_short_runs_are_bit_identical_to_their_recorded_values(
        make, method, digits, divisor, startup_mode, y_end, yp_end, total, most, state):
    # a change that moves any of these says so and records the new values
    ctx = make_context(digits)
    p = make(ctx)
    h = (p.x_end - p.x0) / divisor
    omega = 0 if method is MethodId.CLASSICAL else p.default_omega
    cfg = StepperConfig(method=method, h=h, omega=omega, startup=startup_mode)
    res = integrate(p, cfg, ctx, x_end=p.x0 + 40 * h)
    assert res.y_end._mpf_ == ctx.mpf(y_end)._mpf_
    assert res.yp_end._mpf_ == ctx.mpf(yp_end)._mpf_
    assert (res.total_iterations, res.max_step_iterations) == (total, most)
    # the guard bits too, which rounding y_end out hides: the same 39 steps
    weights = StepWeights.build(coefficients(method, abs(ctx.mpf(omega) * h), ctx), h, ctx)
    last = StepState(1, p.x0, p.x0 + h, *(fixed(ctx, v) for v in startup(p, cfg, ctx)))
    for _ in range(39):
        last = step(last, weights, p, ctx)
    ints = (last.y_prev, last.y_curr, last.yp_prev, last.yp_curr, *last.f_prev, *last.f_curr)
    assert hashlib.sha256(repr(ints).encode()).hexdigest()[:16] == state


def _raw_values(v):
    """v with every mpf replaced by its raw ``_mpf_`` tuple, lists as tuples."""
    if isinstance(v, (list, tuple)):
        return tuple(_raw_values(x) for x in v)
    return getattr(v, "_mpf_", v)


#: digest of every value that leaves the binary point through the package's
#: public reads, per working precision, recorded to every bit
RECORDED_EXITS = {16: "aca7b144e4215ebe", 50: "37a968ac65a1afb8"}


@pytest.mark.parametrize("digits", sorted(RECORDED_EXITS))
def test_every_exit_is_bit_identical_to_its_recorded_values(digits):
    # stability rows, periodicity results, stability pairs, coefficient rows
    # (the classical set, the closed forms and the classical stand-in below
    # v^2 = 10^-digits), Taylor series, closures and partials: a change that
    # moves any of them says so and records the new digest
    ctx = make_context(digits)
    grid = [ctx.mpf(k) / 10 for k in range(1, 46)] + [ctx.mpf(10) ** -e for e in (3, 6, 9, 12, 30)]
    got = []
    for method in MethodId:
        got.append(stability_sweep(method, grid, ctx))
        r = periodicity_interval(method, ctx, 4)
        got.append((r.v0_squared, r.v_max, r.hit_v_max, r.first_violation, r.singular_points,
                    r.samples))
        got.append(coefficient_sweep(method, grid, ctx))
        for v in ("1e-30", "0.3", "2.5"):
            pair = stability_pair(coefficients(method, ctx.mpf(v), ctx), ctx.mpf(v) * 3 / 2)
            got.append((pair.A, pair.B, pair.v))
    for make in (duffing, linear_forced, rational_problem):
        p = make(ctx)
        for x, y, yp in ((p.x0, p.y0, p.yp0), ("0.7", "0.3", "-0.4"), ("2.5", "-1.1", "0.9")):
            x, y, yp = ctx.mpf(x), ctx.mpf(y), ctx.mpf(yp)
            got.append(ode_series(ctx, p.graph, x, y, yp, 14))
            got.append([getattr(p, f"f{k}")(x, y, yp) for k in range(2, 8)])
            got.append(p.graph.jacobian(x, y, yp, range(2, 8)))
    digest = hashlib.sha256(repr(_raw_values(got)).encode()).hexdigest()[:16]
    assert digest == RECORDED_EXITS[digits]
