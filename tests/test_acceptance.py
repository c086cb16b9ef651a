"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criteria 4 and the fitted-method parts of criterion 5 assert the published
target numbers verbatim and are expected to fail: the published periodicity
intervals and fitted-method phase-lag constants are inconsistent with the
methods' own characteristic functions (both fitted methods satisfy
B(v) = A(v) cos v identically, so their phase lag is zero and |B/A| never
exceeds 1; the classical method loses |B/A| <= 1 in a narrow window around
v = pi, far below the published endpoint).  Those tests carry
``xfail(strict=True)``: the assertions are untouched, the failures are
expected, and any future flip to passing would be flagged.
"""

import math
from fractions import Fraction as F

import pytest

from obrechkoff import (
    MethodId,
    ProblemDef,
    StepperConfig,
    classical_coefficients,
    coefficients,
    duffing,
    fit_leading_term,
    integrate,
    linear_forced,
    lte_brackets,
    make_context,
    periodicity_interval,
    phase_lag,
    pldoubleprime_closed,
    plprime_closed,
    rational_problem,
    stability_pair,
)
from obrechkoff.coefficients import CLASSICAL_FRACTIONS, taylor_fallback
from obrechkoff.errors import FitError
from obrechkoff.stability import CLASSICAL_PHASE_LAG_CONSTANT


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {status} {detail}")
    return ok


# ---------------------------------------------------------------- 1

def test_criterion_1_exact_classical_coefficients():
    ctx = make_context(50)
    ok = CLASSICAL_FRACTIONS == {
        "beta10": F(229, 7788), "beta11": F(3665, 3894), "beta20": F(-1, 2360),
        "beta21": F(711, 12980), "beta30": F(127, 39251520),
        "beta31": F(2923, 3925152),
    }
    br = lte_brackets(classical_coefficients(ctx), ctx)
    ok &= all(abs(x) < ctx.mpf(10) ** -40 for x in br[:6])
    target = ctx.mpf(F(-45469, 1697361329664000))
    rel = abs(br[6] / target - 1)
    ok &= rel < ctx.mpf("1e-12")
    assert report("1 (exact classical set + order brackets)", ok,
                  f"h14 bracket rel dev {ctx.mp.nstr(rel, 3)}")


# ---------------------------------------------------------------- 2

def test_criterion_2_small_v_limits():
    ctx = make_context(60)
    v = ctx.mpf("1e-6")
    cl = classical_coefficients(ctx)
    worst = ctx.mpf(0)
    for cs in (plprime_closed(v, ctx), pldoubleprime_closed(v, ctx)):
        for a, b in zip(cs.as_tuple(), cl.as_tuple()):
            worst = max(worst, abs(a - b))
    b31 = pldoubleprime_closed(v, ctx).beta31
    dev31 = abs(b31 - ctx.mpf(F(2923, 3925152)))
    ok = worst < ctx.mpf(10) ** -10 and dev31 < ctx.mpf(10) ** -10
    assert report("2 (v->0 limits; corrected beta31 constant)", ok,
                  f"worst componentwise dev {ctx.mp.nstr(worst, 3)}, "
                  f"beta31 dev {ctx.mp.nstr(dev31, 3)}")


# ---------------------------------------------------------------- 3

def test_criterion_3_closed_vs_taylor_overlap():
    ctx = make_context(50)
    worst = ctx.mpf(0)
    for vv in ("0.02", "0.05", "0.1"):
        v = ctx.mpf(vv)
        for method, closed in ((MethodId.PL_PRIME, plprime_closed),
                               (MethodId.PL_DOUBLE_PRIME, pldoubleprime_closed)):
            a = closed(v, ctx)
            b = taylor_fallback(method, v, ctx)
            for x, y in zip(a.as_tuple(), b.as_tuple()):
                worst = max(worst, abs(x - y))
    ok = worst < ctx.mpf(10) ** -20
    assert report("3 (closed-form/series overlap)", ok,
                  f"worst componentwise gap {ctx.mp.nstr(worst, 3)}")


# ---------------------------------------------------------------- 4

PUBLISHED_INTERVALS = {
    MethodId.CLASSICAL: (25.2004, 5.1),
    MethodId.PL_PRIME: (408.04, 20.5),
    MethodId.PL_DOUBLE_PRIME: (1428.84, 38.3),
}

XFAIL_4 = ("published periodicity endpoints are inconsistent with the "
           "methods' characteristic functions: the classical scan stops at "
           "v0^2 ~ 9.795 (a resonance window just below v = pi where "
           "B + A < 0, verifiable in exact rational arithmetic) and the "
           "fitted methods satisfy |B/A| = |cos v| <= 1 for every v")


@pytest.mark.parametrize("method", list(PUBLISHED_INTERVALS))
@pytest.mark.xfail(strict=True, reason=XFAIL_4)
def test_criterion_4_periodicity_intervals(method):
    ctx = make_context(50)
    target, v_max = PUBLISHED_INTERVALS[method]
    res = periodicity_interval(method, ctx, v_max=v_max)
    measured = float(res.v0_squared)
    ok = abs(measured - target) <= 0.005 * target and not res.hit_v_max
    report(f"4 ({method.value} periodicity)", ok,
           f"measured v0^2 = {measured:.4f}"
           + (" (no violation up to v_max)" if res.hit_v_max else "")
           + f", published {target}")
    assert ok


# ---------------------------------------------------------------- 5

def test_criterion_5_classical_phase_lag_constant():
    ctx = make_context(60)
    fit = fit_leading_term(lambda v: phase_lag(MethodId.CLASSICAL, v, ctx),
                           ("1e-3", "1e-2"), ctx)
    C = ctx.mpf(CLASSICAL_PHASE_LAG_CONSTANT)
    rel = abs(fit.constant / C - 1)
    ok = rel < ctx.mpf("0.01")
    note = ""
    if fit.exponent != 12:
        note = (f"; measured exponent {fit.exponent} != published 12 "
                f"(t = v - theta carries one extra power of v over the "
                f"published series convention), fit residual "
                f"{ctx.mp.nstr(fit.residual, 3)}")
    assert report("5 (classical phase-lag constant)", ok,
                  f"constant rel dev {ctx.mp.nstr(rel, 3)} at exponent "
                  f"{fit.exponent}{note}")


PL_FIT_TARGETS = {
    MethodId.PL_PRIME: (F(731602960042513638469539403,
                          1287287007659726361217210431335975522416459776000000),
                        24, 0.05, 140),
    MethodId.PL_DOUBLE_PRIME: (F(-141797497314423651101,
                                 7514399077966985427530263756800000),
                               20, 0.01, 100),
}

XFAIL_5 = ("both fitted methods satisfy B(v) = A(v) cos v identically "
           "(characteristic-root exactness at the fitted frequency), so "
           "t(v) = v - arccos(B/A) is zero to working precision and no "
           "leading term exists to fit; the published fitted-method phase-lag "
           "constants do not describe t(v) at the fitted frequency")


@pytest.mark.parametrize("method", list(PL_FIT_TARGETS))
@pytest.mark.xfail(strict=True, reason=XFAIL_5)
def test_criterion_5_fitted_phase_lag_constants(method):
    constant, exponent, tol, digits = PL_FIT_TARGETS[method]
    # extra digits vs the stated 60: at 60 digits the would-be signal
    # (|C| v^20 ~ 1e-74 at v = 1e-3) sits far below roundoff already
    ctx = make_context(digits)
    try:
        fit = fit_leading_term(lambda v: phase_lag(method, v, ctx),
                               ("1e-3", "1e-2"), ctx)
        rel = abs(fit.constant / ctx.mpf(constant) - 1)
        ok = rel < tol and fit.exponent == exponent
        report(f"5 ({method.value} phase-lag constant)", ok,
               f"exponent {fit.exponent}, rel dev {ctx.mp.nstr(rel, 3)}")
    except FitError as exc:
        t_half = phase_lag(method, ctx.mpf("0.5"), ctx)
        report(f"5 ({method.value} phase-lag constant)", False,
               f"no leading term: {exc}; |t(0.5)| = {ctx.mp.nstr(abs(t_half), 3)} "
               f"(roundoff scale)")
        ok = False
    assert ok


# ---------------------------------------------------------------- 6

def _pure_oscillator(ctx, w):
    w = ctx.mpf(w)
    w2 = w * w

    def ref(x):
        return ctx.mp.sin(w * x) + ctx.mp.cos(w * x)

    def refp(x):
        return w * (ctx.mp.cos(w * x) - ctx.mp.sin(w * x))

    return ProblemDef(
        name="oscillator", x0=ctx.mpf(0), x_end=10 * ctx.pi,
        y0=ref(ctx.mpf(0)), yp0=refp(ctx.mpf(0)),
        f2=lambda x, y, yp: -w2 * y,
        f4=lambda x, y, yp: w2 * w2 * y,
        f6=lambda x, y, yp: -w2 ** 3 * y,
        reference=ref, reference_prime=refp, default_omega=w,
    )


def test_criterion_6_trig_exactness():
    ctx = make_context(50)
    p = _pure_oscillator(ctx, 10)
    cfg = StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=ctx.pi / 100, omega=10)
    res = integrate(p, cfg, ctx)       # 1000 steps to 10 pi
    ok = res.steps == 1000 and res.abs_end_error < ctx.mpf(10) ** -35
    assert report("6 (trig exactness on y'' = -100 y)", ok,
                  f"end error {ctx.mp.nstr(res.abs_end_error, 3)} after "
                  f"{res.steps} steps")


# ---------------------------------------------------------------- 7

def test_criterion_7_forced_linear_scaled_reproduction():
    ctx = make_context(50)
    p = linear_forced(ctx)
    bounds = {50: ctx.mpf(10) ** -20, 100: ctx.mpf(10) ** -24}
    ok = True
    details = []
    for div, bound in bounds.items():
        h = ctx.pi / div
        pl2 = integrate(p, StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=h,
                                         omega=10), ctx)
        cls = integrate(p, StepperConfig(method=MethodId.CLASSICAL, h=h), ctx)
        ok &= pl2.abs_end_error <= bound
        ok &= pl2.abs_end_error <= ctx.mpf(10) ** -6 * cls.abs_end_error
        details.append(f"pi/{div}: fitted {ctx.mp.nstr(pl2.abs_end_error, 3)} "
                       f"vs classical {ctx.mp.nstr(cls.abs_end_error, 3)}")
    assert report("7 (forced linear benchmark, scaled)", ok, "; ".join(details))


# ---------------------------------------------------------------- 8

def test_criterion_8_duffing_scaled_reproduction():
    ctx = make_context(50)
    p = duffing(ctx)
    ok = True
    details = []
    for div in (500, 1000):
        h = (p.x_end - p.x0) / div
        res = integrate(p, StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=h,
                                         omega=p.default_omega), ctx)
        ok &= ctx.mpf(10) ** -14 <= res.abs_end_error <= ctx.mpf(10) ** -10
        details.append(f"M/{div}: {ctx.mp.nstr(res.abs_end_error, 3)}")
    assert report("8 (Duffing benchmark, scaled)", ok, "; ".join(details))


# ---------------------------------------------------------------- 9

def test_criterion_9_convergence_order():
    ctx = make_context(50)
    p = rational_problem(ctx)
    errs = []
    for div in (500, 1000):
        h = ctx.real("4.5") / div
        res = integrate(p, StepperConfig(method=MethodId.CLASSICAL, h=h), ctx)
        errs.append(res.abs_end_error)
    order = math.log(float(errs[0] / errs[1]), 2)
    ok = 11.5 <= order <= 12.5
    assert report("9 (observed convergence order)", ok, f"order {order:.2f}")


# ---------------------------------------------------------------- 10

def test_criterion_10_property_suite():
    ctx = make_context(50)
    ok = True
    notes = []

    # evenness of fitted coefficient sets
    for method in (MethodId.PL_PRIME, MethodId.PL_DOUBLE_PRIME):
        for vv in ("0.3", "2.5"):
            a = coefficients(method, ctx.mpf(vv), ctx)
            b = coefficients(method, -ctx.mpf(vv), ctx)
            ok &= a.as_tuple() == b.as_tuple()
    notes.append("evenness")

    # A(0) = B(0) = 1
    for method in MethodId:
        pair = stability_pair(coefficients(method, ctx.mpf("0.4"), ctx), ctx.mpf(0))
        ok &= pair.A == 1 and pair.B == 1
    notes.append("A(0)=B(0)=1")

    # unit-modulus characteristic roots inside the periodicity interval
    import random
    rng = random.Random(1)
    for method, hi in ((MethodId.CLASSICAL, 3.1), (MethodId.PL_PRIME, 10.0),
                       (MethodId.PL_DOUBLE_PRIME, 10.0)):
        for _ in range(20):
            v = ctx.mpf(str(rng.uniform(0.05, hi)))
            try:
                pair = stability_pair(coefficients(method, v, ctx), v)
            except Exception:
                continue
            r = pair.B / pair.A
            if abs(r) >= 1:
                continue
            root = ctx.mp.mpc(r, ctx.mp.sqrt(1 - r * r))
            ok &= abs(abs(root) - 1) < ctx.mpf(10) ** -40
    notes.append("unit roots")

    # time symmetry
    import dataclasses
    p = _pure_oscillator(ctx, 10)
    n, h = 100, ctx.pi / 100
    integrate(p, StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=h, omega=10),
              ctx, x_end=n * h)
    back = integrate(dataclasses.replace(p, x0=n * h, x_end=ctx.mpf(0)),
                     StepperConfig(method=MethodId.PL_DOUBLE_PRIME, h=-h, omega=10),
                     ctx, x_end=ctx.mpf(0))
    ok &= abs(back.y_end - p.y0) < 10 * n * ctx.mpf(10) ** (8 - ctx.digits)
    notes.append("time symmetry")

    # closure-vs-reference consistency (exact references; the Duffing
    # reference is itself approximate, so it is checked at its own floor)
    lin = linear_forced(ctx)
    rat = rational_problem(ctx)
    for k in (3, 5, 7):
        x = ctx.mpf("0.37")
        got = rat.graph.derivative(k)(x, rat.reference(x), rat.reference_prime(x))
        exact = ctx.mpf((-2) ** k * math.factorial(k)) / (1 + 2 * x) ** (k + 1)
        ok &= abs(got - exact) < ctx.mpf(10) ** -42 * max(1, abs(exact))
    for k in (4, 6):
        # derivatives of sin x + sin 10x + cos 10x: d^k cycles with period 4
        x = ctx.mpf("0.37")
        sin, cos = ctx.mp.sin, ctx.mp.cos
        exact = sin(x) + 10 ** k * (sin(10 * x) + cos(10 * x)) if k % 4 == 0 else \
            -sin(x) - 10 ** k * (sin(10 * x) + cos(10 * x))
        got = lin.graph.derivative(k)(x, lin.reference(x), lin.reference_prime(x))
        ok &= abs(got - exact) < ctx.mpf(10) ** -42 * 10 ** k
    duf = duffing(ctx)
    d3 = duf.f3(ctx.mpf(0), duf.y0, duf.yp0)
    ok &= abs(d3) < ctx.mpf("1e-10")   # -B*omega*sin(0) - (1+3y^2)*0 = 0
    dref = duf.reference(ctx.mpf("2.0"))
    ok &= abs(duf.f2(ctx.mpf("2.0"), dref, None)
              - (-dref - dref ** 3 + ctx.rational(2, 1000)
                 * ctx.mp.cos(ctx.rational(101, 100) * 2))) < ctx.mpf(10) ** -45
    notes.append("closure consistency")

    # iteration budget on a shipped benchmark step size
    res = integrate(lin, StepperConfig(method=MethodId.PL_DOUBLE_PRIME,
                                       h=ctx.pi / 50, omega=10), ctx)
    ok &= res.max_step_iterations <= 8
    notes.append(f"iters<=8 (max {res.max_step_iterations})")

    assert report("10 (property suite)", ok, ", ".join(notes))
