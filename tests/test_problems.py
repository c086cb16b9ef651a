import dataclasses
import math
import re
import sys

import pytest
from mpmath.libmp import from_man_exp

from obrechkoff import (
    ConfigurationError,
    ProblemDef,
    duffing,
    get_problem,
    linear_forced,
    make_context,
    rational_problem,
)
from obrechkoff.jets import GUARD_BITS, RND, _fixed, ops

#: relative agreement demanded of the traced closures against the hand oracles
TOL = 1e-45


def test_registry(ctx50):
    for name in ("duffing", "linear", "rational"):
        assert get_problem(name, ctx50).name == name
    with pytest.raises(ConfigurationError):
        get_problem("kepler", ctx50)


# ----------------------------------------------------------------- linear

def test_linear_initial_data_consistency(ctx50):
    p = linear_forced(ctx50)
    assert p.reference(p.x0) == p.y0 == 1
    assert p.reference_prime(p.x0) == p.yp0 == 11


def test_linear_f4_is_yprime_free(ctx50):
    p = linear_forced(ctx50)
    a = p.f4(ctx50.mpf(0), ctx50.mpf(1), ctx50.mpf(123))
    b = p.f4(ctx50.mpf(0), ctx50.mpf(1), ctx50.mpf(-7))
    assert a == b == 10000


def test_linear_reference_satisfies_ode(ctx50):
    p = linear_forced(ctx50)
    x = ctx50.mpf(1)
    y = p.reference(x)
    ypp = -ctx50.mp.sin(x) - 100 * (ctx50.mp.sin(10 * x) + ctx50.mp.cos(10 * x))
    assert abs(ypp - p.f2(x, y, None)) < ctx50.mpf(10) ** (5 - 50)


def _exact_linear_derivative(ctx, x, k):
    # k-th derivative of sin x + sin 10x + cos 10x
    sin, cos = ctx.mp.sin, ctx.mp.cos
    cyc = [sin, cos, lambda t: -sin(t), lambda t: -cos(t)]
    a = cyc[k % 4](x)
    b = 10 ** k * cyc[k % 4](10 * x)
    c = 10 ** k * cyc[(k + 1) % 4](10 * x)
    return a + b + c


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_linear_closures_exact(ctx50, k):
    p = linear_forced(ctx50)
    for i in range(10):
        x = ctx50.mpf(i) / 3 + ctx50.mpf("0.1")
        y = p.reference(x)
        yp = p.reference_prime(x)
        got = p.graph.derivative(k)(x, y, yp)
        assert abs(got - _exact_linear_derivative(ctx50, x, k)) < ctx50.mpf(10) ** -42


# --------------------------------------------------------------- rational

def test_rational_reference_values(ctx50):
    p = rational_problem(ctx50)
    assert p.reference(ctx50.real("4.5")) == ctx50.mpf(1) / 10
    assert p.f2(ctx50.mpf(0), ctx50.mpf(1), ctx50.mpf(-2)) == 8
    assert p.default_omega is None


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("xv", ["0", "1", "4.5"])
def test_rational_closures_match_exact_derivatives(ctx50, k, xv):
    # y(x) = (1+2x)^(-1) has y^(k) = (-2)^k k! (1+2x)^(-(k+1))
    p = rational_problem(ctx50)
    x = ctx50.mpf(xv)
    y = p.reference(x)
    yp = p.reference_prime(x)
    exact = ctx50.mpf((-2) ** k * math.factorial(k)) / (1 + 2 * x) ** (k + 1)
    got = p.graph.derivative(k)(x, y, yp)
    assert abs(got - exact) < ctx50.mpf(10) ** -42 * max(1, abs(exact))


# ---------------------------------------------------------------- duffing

def test_duffing_initial_value_vs_reference(ctx50):
    # the tabulated reference amplitudes reproduce y0 only to ~2e-12: the
    # reference is itself a truncated harmonic expansion
    p = duffing(ctx50)
    assert abs(p.reference(p.x0) - p.y0) < ctx50.mpf("3e-12")
    assert p.reference_prime(p.x0) == 0 == p.yp0


def test_duffing_printed_derivative_forms(ctx50):
    p = duffing(ctx50)
    x = ctx50.mpf(0)
    y, yp = p.y0, p.yp0
    B = ctx50.rational(2, 1000)
    om = ctx50.rational(101, 100)
    f3 = -(1 + 3 * y * y) * yp - B * om * ctx50.mp.sin(om * x)
    f4 = (-(1 + 3 * y * y) * p.f2(x, y, yp) - 6 * y * yp * yp
          - B * om ** 2 * ctx50.mp.cos(om * x))
    assert abs(p.f3(x, y, yp) - f3) <= TOL * abs(f4)     # f3 is 0 at the start
    assert abs(p.f4(x, y, yp) - f4) <= TOL * abs(f4)


def test_duffing_reference_residual_small(ctx50):
    # g'' + g + g^3 - B cos(omega x) stays below the truncation floor
    p = duffing(ctx50)
    B = ctx50.rational(2, 1000)
    om = ctx50.rational(101, 100)
    eps = ctx50.mpf("1e-6")
    worst = ctx50.mpf(0)
    for i in range(12):
        x = p.x_end * i / 11
        g = p.reference(x)
        gpp = (p.reference(x + eps) - 2 * g + p.reference(x - eps)) / eps ** 2
        worst = max(worst, abs(gpp + g + g ** 3 - B * ctx50.mp.cos(om * x)))
    assert worst < ctx50.mpf("5e-10")


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_duffing_higher_closures_by_finite_differences(ctx50, k):
    # f_{k} should be the total x-derivative of f_{k-1} along trajectories;
    # checked with central differences along the reference orbit.  The
    # reference solves the equation only to ~5e-10, which floors the
    # achievable agreement for the y'-sensitive closures.
    p = duffing(ctx50)
    x = ctx50.mpf("2.3")
    d = ctx50.mpf("1e-3")
    lo, hi = x - d, x + d
    fk = p.graph.derivative(k)
    fk1 = p.graph.derivative(k - 1)
    deriv = (fk1(hi, p.reference(hi), p.reference_prime(hi))
             - fk1(lo, p.reference(lo), p.reference_prime(lo))) / (2 * d)
    got = fk(x, p.reference(x), p.reference_prime(x))
    assert abs(deriv - got) < ctx50.mpf("1e-5")


def test_duffing_span_and_omega(ctx50):
    p = duffing(ctx50)
    assert abs(p.x_end - ctx50.real("40.5") * ctx50.pi / ctx50.real("1.01")) == 0
    assert p.default_omega == ctx50.real("1.01")


# ------------------------------------------- hand-derived reference oracles
#
# Each problem's f3..f7 by total differentiation of f2, written out by hand.
# They are the reference the closures traced from f2 must reproduce.

def duffing_oracle(ctx):
    B = ctx.rational(2, 1000)
    om = ctx.rational(101, 100)
    sin, cos = ctx.mp.sin, ctx.mp.cos

    def f2(x, y, yp):
        return -y - y ** 3 + B * cos(om * x)

    def f3(x, y, yp):
        return -(1 + 3 * y * y) * yp - B * om * sin(om * x)

    def f4(x, y, yp):
        y2 = f2(x, y, yp)
        return -(1 + 3 * y * y) * y2 - 6 * y * yp * yp - B * om ** 2 * cos(om * x)

    def f5(x, y, yp):
        y2, y3 = f2(x, y, yp), f3(x, y, yp)
        return (-(1 + 3 * y * y) * y3 - 18 * y * yp * y2 - 6 * yp ** 3
                + B * om ** 3 * sin(om * x))

    def f6(x, y, yp):
        y2, y3, y4 = f2(x, y, yp), f3(x, y, yp), f4(x, y, yp)
        return (-(1 + 3 * y * y) * y4 - 24 * y * yp * y3 - 36 * yp * yp * y2
                - 18 * y * y2 * y2 + B * om ** 4 * cos(om * x))

    def f7(x, y, yp):
        y2, y3, y4, y5 = f2(x, y, yp), f3(x, y, yp), f4(x, y, yp), f5(x, y, yp)
        return (-(1 + 3 * y * y) * y5 - 30 * y * yp * y4 - 60 * yp * yp * y3
                - 60 * y * y2 * y3 - 90 * yp * y2 * y2 - B * om ** 5 * sin(om * x))

    return {2: f2, 3: f3, 4: f4, 5: f5, 6: f6, 7: f7}


def linear_oracle(ctx):
    sin, cos = ctx.mp.sin, ctx.mp.cos

    def f2(x, y, yp):
        return -100 * y + 99 * sin(x)

    def f3(x, y, yp):
        return -100 * yp + 99 * cos(x)

    def f4(x, y, yp):
        return -100 * f2(x, y, yp) - 99 * sin(x)

    def f5(x, y, yp):
        return -100 * f3(x, y, yp) - 99 * cos(x)

    def f6(x, y, yp):
        return -100 * f4(x, y, yp) + 99 * sin(x)

    def f7(x, y, yp):
        return -100 * f5(x, y, yp) + 99 * cos(x)

    return {2: f2, 3: f3, 4: f4, 5: f5, 6: f6, 7: f7}


def rational_oracle(ctx):
    def f2(x, y, yp):
        return 8 * y * y / (1 + 2 * x)

    def f3(x, y, yp):
        s = 1 / (1 + 2 * x)
        return 16 * y * yp * s - 16 * y * y * s * s

    def f4(x, y, yp):
        s = 1 / (1 + 2 * x)
        y2 = f2(x, y, yp)
        return 16 * yp * yp * s + 16 * y * y2 * s - 64 * y * yp * s * s + 64 * y * y * s ** 3

    def f5(x, y, yp):
        s = 1 / (1 + 2 * x)
        y2, y3 = f2(x, y, yp), f3(x, y, yp)
        return (16 * y * y3 * s + 48 * yp * y2 * s - 96 * yp * yp * s * s
                - 96 * y * y2 * s * s + 384 * y * yp * s ** 3 - 384 * y * y * s ** 4)

    def f6(x, y, yp):
        s = 1 / (1 + 2 * x)
        y2, y3, y4 = f2(x, y, yp), f3(x, y, yp), f4(x, y, yp)
        return (16 * y * y4 * s + 64 * yp * y3 * s + 48 * y2 * y2 * s
                - 128 * y * y3 * s * s - 384 * yp * y2 * s * s
                + 768 * yp * yp * s ** 3 + 768 * y * y2 * s ** 3
                - 3072 * y * yp * s ** 4 + 3072 * y * y * s ** 5)

    def f7(x, y, yp):
        s = 1 / (1 + 2 * x)
        y2, y3, y4, y5 = f2(x, y, yp), f3(x, y, yp), f4(x, y, yp), f5(x, y, yp)
        return (16 * y * y5 * s + 80 * yp * y4 * s + 160 * y2 * y3 * s
                - 160 * y * y4 * s * s - 640 * yp * y3 * s * s
                - 480 * y2 * y2 * s * s + 1280 * y * y3 * s ** 3
                + 3840 * yp * y2 * s ** 3 - 7680 * yp * yp * s ** 4
                - 7680 * y * y2 * s ** 4 + 30720 * y * yp * s ** 5
                - 30720 * y * y * s ** 6)

    return {2: f2, 3: f3, 4: f4, 5: f5, 6: f6, 7: f7}


ORACLES = {"duffing": duffing_oracle, "linear": linear_oracle, "rational": rational_oracle}

#: (x, y, y') points away from every problem's own trajectory, so the
#: closures are checked as functions of three free arguments
POINTS = [("0.3", "0.2", "0.1"), ("1.7", "-0.4", "0.9"), ("3.1", "1.2", "-2.5"),
          ("4.5", "0.1", "-0.02"), ("0", "1", "11")]


@pytest.mark.parametrize("name, digits", [("duffing", 50), ("linear", 50), ("rational", 50),
                                          ("linear", 100)])
def test_traced_closures_match_hand_oracles(name, digits):
    ctx = make_context(digits)
    p, oracle = get_problem(name, ctx), ORACLES[name](ctx)
    tol = ctx.mpf(10) ** (5 - digits)          # TOL at 50 digits
    for xs, ys, yps in POINTS:
        x, y, yp = ctx.mpf(xs), ctx.mpf(ys), ctx.mpf(yps)
        for k in range(2, 8):
            exact = oracle[k](x, y, yp)
            assert abs(p.graph.derivative(k)(x, y, yp) - exact) <= tol * abs(exact), (xs, k)


# ----------------------------------------------------- reuse of the graph

def test_same_x_with_new_state_gives_fresh_values(ctx50):
    p, oracle = duffing(ctx50), duffing_oracle(ctx50)
    x = ctx50.mpf("0.8")
    for ys, yps in (("0.2", "0.1"), ("-0.5", "0.3"), ("0.2", "0.1")):
        y, yp = ctx50.mpf(ys), ctx50.mpf(yps)
        for k in (2, 4, 6, 7):
            exact = oracle[k](x, y, yp)
            assert abs(p.graph.derivative(k)(x, y, yp) - exact) <= TOL * abs(exact)


def test_new_x_recomputes_the_forcing(ctx50):
    # y = y' = 0 leaves only the forcing: f2 = B cos(omega x), f3 = -B omega sin(omega x)
    p = duffing(ctx50)
    B, om = ctx50.rational(2, 1000), ctx50.rational(101, 100)
    zero = ctx50.mpf(0)
    for xs in ("0.5", "1.5", "0.5"):
        x = ctx50.mpf(xs)
        assert abs(p.f2(x, zero, zero) - B * ctx50.mp.cos(om * x)) < ctx50.mpf(10) ** -50
        assert abs(p.f3(x, zero, zero) + B * om * ctx50.mp.sin(om * x)) < ctx50.mpf(10) ** -50


def test_repeat_call_reuses_the_series(ctx50):
    # f2 is traced once; the same (x, y, y') objects never re-run a coefficient
    calls = []

    def f2(x, y, yp):
        calls.append(1)
        return -y + ops.sin(x)

    p = ProblemDef(name="count", x0=0, x_end=1, y0=0, yp0=0, f2=f2)
    x, y, yp = ctx50.mpf("0.4"), ctx50.mpf("0.3"), ctx50.mpf("0.2")
    first = [p.graph.derivative(k)(x, y, yp) for k in range(2, 8)]
    series = p.graph._cold
    again = [p.graph.derivative(k)(x, y, yp) for k in range(2, 8)]
    assert calls == [1]
    assert first == again and p.graph._cold is series


def test_problems_evaluated_alternately_do_not_disturb_each_other(ctx50):
    pd, pl = duffing(ctx50), linear_forced(ctx50)
    od, ol = duffing_oracle(ctx50), linear_oracle(ctx50)
    points = [tuple(ctx50.mpf(v) for v in pt) for pt in POINTS[:3]]
    for x, y, yp in points + points:
        for p, oracle in ((pd, od), (pl, ol)):
            for k in (2, 5, 6):
                exact = oracle[k](x, y, yp)
                assert abs(p.graph.derivative(k)(x, y, yp) - exact) <= TOL * abs(exact)


def test_plain_number_right_hand_side(ctx50):
    # an f2 that ignores its arguments is a constant: its derivatives vanish
    p = ProblemDef(name="free", x0=ctx50.mpf(0), x_end=ctx50.mpf(1), y0=ctx50.mpf(1),
                   yp0=ctx50.mpf(1), f2=lambda x, y, yp: ctx50.mpf(3))
    x, y, yp = ctx50.mpf(0), ctx50.mpf(1), ctx50.mpf(1)
    assert p.f2(x, y, yp) == 3
    assert all(p.graph.derivative(k)(x, y, yp) == 0 for k in range(3, 8))


def generated_calls(fn, *args):
    """fn(*args), and the generated functions it called (not the code that
    defines them), by filename."""
    calls = []

    def profile(frame, event, arg):
        name = frame.f_code.co_filename
        if (event == "call" and name.startswith("<obrechkoff program")
                and frame.f_code.co_name != "<module>"):
            calls.append(re.sub(r" #\d+>$", ">", name))

    sys.setprofile(profile)
    try:
        return fn(*args), calls
    finally:
        sys.setprofile(None)


def test_one_adapter_evaluation_makes_one_generated_call(ctx50):
    # f2, f4 and f6 of one evaluation through the closure adapter read one
    # point: one call fills y through level 4 for all three, after the one
    # that fills x at a new x; at the same x only the call of y is made
    p = duffing(ctx50)
    wrapped = dataclasses.replace(p, f6=lambda x, y, yp: p.f6(x, y, yp))
    assert wrapped.evaluate.__func__ is ProblemDef._from_closures
    prec = ctx50.mp.prec
    P = prec + GUARD_BITS
    x, y, yp = ctx50.mpf("0.7"), 3 << P - 4, -(1 << P - 1)
    values, calls = generated_calls(wrapped.evaluate, x, y, yp, prec)
    assert calls == ["<obrechkoff program duffing x levels 0-5>",
                     "<obrechkoff program duffing levels 0-4>"]
    assert generated_calls(wrapped.evaluate, x, y >> 1, yp, prec)[1] == [
        "<obrechkoff program duffing levels 0-4>"]
    # the graph's own read, rounded out at prec and back as the closures are
    assert values == [_fixed(from_man_exp(v, -P, prec, RND), P)
                      for v in p.graph.even(x, y, yp, prec)]
