"""The fitted closed forms from their weight tables, against the expanded expressions.

``coefficients.py`` evaluates each trig polynomial of the closed forms from a
table of integer weights, one row per power of v^2, on integers at a binary
point.  This
module keeps the same closed forms written out as mpf expressions, with their
pole test, as the reference.  The tables must equal the expressions exactly
as polynomials, and both evaluations must round back to the same numbers and
take the same singular decisions, except next to a pole, where the tables'
evaluation raises its precision to keep every digit (the reference loses up
to all of its guard digits there).
"""

import importlib
import math
import random
from fractions import Fraction as F

import pytest
from mpmath.libmp import dps_to_prec, from_man_exp, mpf_cos

from obrechkoff import (
    CoefficientSet,
    MethodId,
    SingularParameterError,
    coefficients,
    make_context,
    pldoubleprime_closed,
    plprime_closed,
)
from obrechkoff.coefficients import (
    _CLOSED_FORMS,
    COEFF_NAMES,
    _GUARD_DIGITS,
    _PL1_DEN,
    _PL1_NUM,
    _PL2_DEN,
    _PL2_NUM,
    _SPARE_DIGITS,
    _VANISH_ORDER,
    _boost_digits,
    _boosted,
    _horner,
    _pl2_terms,
)
from obrechkoff.jets import RND, _fixed

# ------------------------------------------------------------ the reference


def plprime_expressions(vv, c1):
    """PL' denominator and numerators n10 .. n31 as expressions in v and cos v."""
    v2 = vv * vv
    v4 = v2 * v2
    v6 = v4 * v2
    den = (15120 * c1 - 15120 + 6900 * v2 - 313 * v4 + 660 * v2 * c1
           + 13 * v4 * c1)
    n10 = (-45360 * v2 + 3702 * v4 - 89 * v6 + 78 * v4 * c1 + 2 * v6 * c1
           + 90720 - 90720 * c1)
    n11 = (45360 * v2 * c1 + 16998 * v4 - 850 * v6 + 37 * v6 * c1 - 90720
           + 90720 * c1 + 1902 * v4 * c1)
    n20 = (-65520 * v2 * c1 - 1597680 * v2 + 105840 * v4 - 1907 * v6
           + 17 * v6 * c1 + 3326400 - 3326400 * c1)
    n21 = (3109680 * v2 * c1 + 14278320 * v2 - 30257 * v6 + 1907 * v6 * c1
           - 34776000 + 34776000 * c1 + 105840 * v4 * c1)
    n30 = (3360 * v2 * c1 + 62160 * v2 - 3814 * v4 + 59 * v6 + 34 * v4 * c1
           - 131040 + 131040 * c1)
    n31 = (149520 * v2 * c1 + 1428000 * v2 - 60514 * v4 + 59 * v6 * c1
           - 3155040 + 3155040 * c1 + 3814 * v4 * c1)
    return den, (n10, n11, n20, n21, n30, n31)


def plprime_weights(d, nums):
    """The six PL' weights from d = v^2 den and the numerators."""
    n10, n11, n20, n21, n30, n31 = nums
    return (n10 / (6 * d), n11 / (3 * d), -n20 / (5040 * d), n21 / (2520 * d),
            -n30 / (10080 * d), n31 / (5040 * d))


def pl2_expressions(vv, c1, c2, c3):
    """PL'' beta31 numerator and denominator in v and cos(r v), r = 1, 2, 3."""
    v2 = vv * vv
    v4 = v2 * v2
    v6 = v4 * v2
    v8 = v4 * v4
    num = (-14400 + 213800 * c3 * v4 * c1 - 36000 * c2 * c1 * v2
           + 14400 * c3 * c1 * c2 - 72000 * c3 * c1 * v2 + 20275 * c3 * v4 * c2
           - 93600 * c3 * v2 * c2 + 9660 * c3 * v6 * c2 + 20832 * c3 * v6 * c1
           - 10332 * c1 * v6 * c2 + 14400 * c1 - 14400 * c3 * c2
           - 14400 * c2 * c1 + 14400 * c2 + 14400 * c3 - 116475 * c2 * v4 * c1
           + 100800 * c3 * c1 * c2 * v2 + 29400 * c3 * c1 * c2 * v4
           + 720 * c3 * c1 * c2 * v6 + 7200 * c1 * v2 + 2875 * c1 * v4
           + 1830 * c1 * v6 + 28800 * c2 * v2 + 99200 * c2 * v4
           - 46848 * c2 * v6 + 64800 * c3 * v2 - 249075 * c3 * v4
           + 88938 * c3 * v6 - 14400 * c3 * c1 - 810 * c3 * v8 * c2
           + 1296 * c3 * v8 * c1 - 486 * c1 * v8 * c2)
    den = (240 * c1 - 81 * c2 * v4 * c1 - 240 * c3 * c1 - 240 * c2 * c1
           + 96 * c3 * v4 * c1 + 75 * c1 * v4 - 1107 * c2 * c1 * v2
           + 240 * c3 * c1 * c2 + 115 * c1 * v2 + 992 * c3 * c1 * v2 - 240
           - 15 * c3 * v4 * c2 + 115 * c3 * v2 * c2 - 240 * c3 * c2
           - 480 * c2 * v4 + 992 * c2 * v2 + 405 * c3 * v4 - 1107 * c3 * v2
           + 240 * c3 + 240 * c2)
    return num, den


def pqr_expressions(x, cx, b31, one):
    """The harmonic-fit coefficients p, q, r at x = r v with cx = cos(x)."""
    x2 = x * x
    x4 = x2 * x2
    x6 = x4 * x2
    p = x2 * (cx - 1) + x4 / 2 - x6 * cx / 24
    q = x4 * (1 - cx) - x6 * cx / 2
    r = (1 - cx) - x2 / 2 + x4 / 24 - b31 * x6 / 2 - (one / 360 - b31) * x6 * cx / 2
    return p, q, r


def reference_singular_check(ctx, method, v, value, scale, vanish_order):
    floor = ctx.mpf(10) ** (5 - ctx.digits) * min(ctx.mpf(1), abs(ctx.mpf(v))) ** vanish_order
    if abs(value) < floor * scale:
        raise SingularParameterError(f"{method.value} singular near v = {v}", v=v)


def reference_plprime_closed(v, ctx):
    v_in = ctx.mpf(v)
    with ctx.mp.extradps(_boost_digits(MethodId.PL_PRIME, abs(float(v_in)))):
        vv = abs(ctx.mpf(v))
        c1 = ctx.mp.cos(vv)
        v2 = vv * vv
        v4 = v2 * v2
        den, nums = plprime_expressions(vv, c1)
        scale = max(15120 + 15120, abs(6900 * v2), abs(313 * v4),
                    abs(660 * v2 * c1), abs(13 * v4 * c1))
        reference_singular_check(ctx, MethodId.PL_PRIME, v_in, den, scale, vanish_order=10)
        vals = plprime_weights(v2 * den, nums)
    return CoefficientSet(v=v_in, **{k: ctx.mpf(x) for k, x in zip(COEFF_NAMES, vals)})


def reference_pl2_numden(w, vv):
    c1, c2, c3 = w.mp.cos(vv), w.mp.cos(2 * vv), w.mp.cos(3 * vv)
    return pl2_expressions(vv, c1, c2, c3) + ((c1, c2),)


def reference_pldoubleprime_closed(v, ctx):
    v_in = ctx.mpf(v)
    with ctx.mp.extradps(_boost_digits(MethodId.PL_DOUBLE_PRIME, abs(float(v_in)))):
        vv = abs(ctx.mpf(v))
        num, den, (c1, c2) = reference_pl2_numden(ctx, vv)
        reference_singular_check(ctx, MethodId.PL_DOUBLE_PRIME, v_in, den,
                                 ctx.mpf(240 * 8) + 1000 * vv ** 4, vanish_order=18)
        b31 = num / (1080 * vv ** 6 * den)
        one = ctx.mpf(1)
        p1, q1, r1 = pqr_expressions(vv, c1, b31, one)
        p2, q2, r2 = pqr_expressions(2 * vv, c2, b31, one)
        det = p1 * q2 - p2 * q1
        reference_singular_check(ctx, MethodId.PL_DOUBLE_PRIME, v_in, det,
                                 abs(p1 * q2) + abs(p2 * q1), vanish_order=2)
        b10 = (r1 * q2 - r2 * q1) / det
        b20 = (p1 * r2 - p2 * r1) / det
        b11 = 1 - 2 * b10
        b21 = one / 12 - b10 - 2 * b20
        b30 = (one / 360 - b31 - b10 / 12 - b20) / 2
        vals = (b10, b11, b20, b21, b30, b31)
    return CoefficientSet(v=v_in, **{k: ctx.mpf(x) for k, x in zip(COEFF_NAMES, vals)})


CASES = ((MethodId.PL_PRIME, plprime_closed, reference_plprime_closed),
         (MethodId.PL_DOUBLE_PRIME, pldoubleprime_closed, reference_pldoubleprime_closed))


def outcome(closed, v, ctx):
    """The weights as raw tuples, or "singular"."""
    try:
        cs = closed(v, ctx)
    except SingularParameterError:
        return "singular"
    return tuple(x._mpf_ for x in cs.as_tuple())


# ------------------------------------------------- tables = expressions


def table_value(rows, v2, basis):
    """sum_k v2^k (row_k . basis), exactly."""
    return sum(v2 ** k * sum(w * b for w, b in zip(row, basis)) for k, row in enumerate(rows))


def random_rationals(rng, n):
    return [F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(n)]


def test_plprime_tables_equal_the_expressions():
    rng = random.Random(1)
    for _ in range(20):
        vv, c1 = random_rationals(rng, 2)
        if vv == 0:
            continue
        v2 = vv * vv
        den, nums = plprime_expressions(vv, c1)
        assert table_value(_PL1_DEN, v2, (1, c1)) == den
        weights = plprime_weights(v2 * den, nums)
        for rows, weight in zip(_PL1_NUM, (weights[0], weights[2], weights[5])):
            assert table_value(rows, v2, (1, c1)) / (10080 * v2 * den) == weight


def test_pl2_tables_equal_the_expressions():
    # beta10 and beta20 of the 2x2 harmonic-fit solve, and beta31, each equal
    # its table over 2160 v^6 den
    rng = random.Random(2)
    for _ in range(20):
        vv, c1, c2, c3 = random_rationals(rng, 4)
        if vv == 0:
            continue
        v2 = vv * vv
        basis = (1, c1, c2, c3, c1 * c2, c1 * c3, c2 * c3, c1 * c2 * c3)
        num, den = pl2_expressions(vv, c1, c2, c3)
        assert table_value(_PL2_DEN, v2, basis) == den
        v6den = v2 * v2 * v2 * den
        b31 = num / (1080 * v6den)
        p1, q1, r1 = pqr_expressions(vv, c1, b31, F(1))
        p2, q2, r2 = pqr_expressions(2 * vv, c2, b31, F(1))
        det = p1 * q2 - p2 * q1
        weights = ((r1 * q2 - r2 * q1) / det, (p1 * r2 - p2 * r1) / det, b31)
        for rows, weight in zip(_PL2_NUM, weights):
            assert table_value(rows, v2, basis) / (2160 * v6den) == weight


def test_pl2_numden_matches_the_reference():
    # same cosines; num and den agree to rounding at the context's precision,
    # once rounded out from 40 guard bits
    w = make_context(60)
    P = w.mp.prec + 40

    def out(x):
        return w.mp.make_mpf(from_man_exp(x, -P, w.mp.prec, RND))

    for text in ("0.7", "2.5", "3.85", "9.1"):
        vv = w.mpf(text)
        den, _, (basis, v2) = _pl2_terms(_fixed(vv._mpf_, P), P)
        # the beta31 table holds twice the reference's numerator
        num = _horner(_PL2_NUM[2], basis, v2, P) // 2
        num, den, cs = out(num), out(den), (out(basis[1]), out(basis[2]))
        ref_num, ref_den, ref_cs = reference_pl2_numden(w, vv)
        assert cs == ref_cs
        assert abs(num - ref_num) < w.mpf(10) ** -50 * 10 ** 6
        assert abs(den - ref_den) < w.mpf(10) ** -50 * 10 ** 4


# ------------------------------------------- same numbers as the reference


def scan_grid(seed):
    """Every fourth v of the stability-scan benchmark's two grids for one seed."""
    u = random.Random(seed).random()
    return ([(k + 1 - u) * 0.005 for k in range(0, 1000, 4)]
            + [10 ** (-4 + (k + u) * 3 / 200) for k in range(0, 200, 4)])


@pytest.mark.parametrize("digits", [16, 30, 50])
@pytest.mark.parametrize("seed", [1, 2, 3, "random", "large"])
def test_weights_equal_the_reference(seed, digits):
    ctx = make_context(digits)
    if seed == "random":
        rng = random.Random(20261018)
        grid = [rng.uniform(0.001, 40) for _ in range(100)]
    elif seed == "large":
        # log-uniform on [1, 1e3], where the absolute errors of the fixed
        # point would show first
        rng = random.Random(20261019)
        grid = [10 ** rng.uniform(0, 3) for _ in range(100)]
    else:
        grid = scan_grid(seed)
    for method, closed, reference in CASES:
        for x in grid:
            v = ctx.mpf(x)
            assert outcome(closed, v, ctx) == outcome(reference, v, ctx), (method, x)


# --------------------------------------------------------------- poles

HIGH = make_context(120)


def bisect_zero(f, lo, hi):
    """The zero of f in [lo, hi], where f changes sign, to 115 digits."""
    lo, hi = HIGH.mpf(lo), HIGH.mpf(hi)
    sign_lo = f(lo) > 0
    while hi - lo > lo * HIGH.mpf(10) ** -115:
        mid = (lo + hi) / 2
        if (f(mid) > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def bisect_pl2_pole(lo, hi):
    """The zero of the PL'' denominator in [lo, hi], to 115 digits."""
    return bisect_zero(lambda v: reference_pl2_numden(HIGH, v)[1], lo, hi)


def harmonic_fit_determinant(v):
    """p1 q2 - p2 q1 of the reference's 2x2 solve; p and q do not read beta31."""
    one = HIGH.mpf(1)
    p1, q1, _ = pqr_expressions(v, HIGH.mp.cos(v), one, one)
    p2, q2, _ = pqr_expressions(2 * v, HIGH.mp.cos(2 * v), one, one)
    return p1 * q2 - p2 * q1


#: the first sign change of the PL'' denominator, and its double zeros
POLES = {"p": bisect_pl2_pole("3.8", "3.9"), "2pi": 2 * HIGH.pi, "4pi": 4 * HIGH.pi}
#: the first zero of the 2x2 determinant, v ~ 4.0521: no weight has a pole there
DETERMINANT_ZERO = bisect_zero(harmonic_fit_determinant, "4.0", "4.1")


def near_pole(pole, side, k, ctx):
    return ctx.mpf(POLES[pole] * (1 + side * HIGH.mpf(10) ** -k))


def correct_digits(got, v):
    ref = make_context(150)
    want = pldoubleprime_closed(ref.mpf(v), ref).as_tuple()
    return min(-float(ref.mp.log10(abs((ref.mpf(x) - y) / y)))
               for x, y in zip(got.as_tuple(), want))


@pytest.mark.parametrize("digits", [16, 30, 50])
@pytest.mark.parametrize("pole", sorted(POLES))
def test_singular_decisions_equal_the_reference(pole, digits):
    # the reference keeps its values wherever the denominator lost clearly
    # fewer digits than the guard; nearer the pole only the decision is kept
    ctx = make_context(digits)
    guard = _GUARD_DIGITS[MethodId.PL_DOUBLE_PRIME]
    raised = 0
    for side in (1, -1):
        for k in range(1, digits):
            v = near_pole(pole, side, k, ctx)
            got = outcome(pldoubleprime_closed, v, ctx)
            want = outcome(reference_pldoubleprime_closed, v, ctx)
            raised += want == "singular"
            lost_digits = (2 if pole != "p" else 1) * k
            if want == "singular" or lost_digits < guard - 8:
                assert got == want, (side, k)
            else:
                assert (got == "singular") == (want == "singular"), (side, k)
    assert raised > 0


@pytest.mark.parametrize("pole,k", [("2pi", 20), ("p", 40), ("p", 28), ("4pi", 20)])
def test_weights_keep_every_digit_next_to_a_pole(pole, k):
    ctx = make_context(50)
    v = near_pole(pole, 1, k, ctx)
    assert correct_digits(pldoubleprime_closed(v, ctx), v) >= 49
    assert ctx.mp.dps == ctx.digits


@pytest.mark.parametrize("digits,pole,side,k", [(50, "2pi", 1, 13.1), (100, "2pi", -1, 14.3)])
def test_weights_are_rounded_to_nearest_where_the_boost_runs_thin(digits, pole, side, k):
    # the denominator loses about as many digits here as the boost holds; the
    # weights must still be the 220-digit ones rounded to nearest
    ctx = make_context(digits)
    v = ctx.mpf(POLES[pole] * (1 + side * HIGH.mpf(10) ** -HIGH.mpf(k)))
    ref = make_context(220)
    want = pldoubleprime_closed(ref.mpf(v), ref).as_tuple()
    assert pldoubleprime_closed(v, ctx).as_tuple() == tuple(map(ctx.mpf, want))


@pytest.mark.parametrize("pole,k", [("2pi", 30), ("p", 120)])
def test_poles_still_raise(pole, k):
    ctx = make_context(50)
    with pytest.raises(SingularParameterError):
        pldoubleprime_closed(near_pole(pole, 1, k, ctx), ctx)
    assert ctx.mp.dps == ctx.digits


@pytest.mark.parametrize("digits,k", [(16, None), (50, 40)])
def test_weights_keep_every_digit_next_to_a_determinant_zero(digits, k):
    # the reference's 2x2 solve raises here at 16 digits and keeps about 38
    # digits at 50; Cramer's rule on all three harmonics has no zero here
    ctx = make_context(digits)
    shift = 0 if k is None else HIGH.mpf(10) ** -k
    v = ctx.mpf(DETERMINANT_ZERO * (1 + shift))
    ref = make_context(250)
    want = pldoubleprime_closed(ref.mpf(v), ref).as_tuple()
    for name, x, y in zip(COEFF_NAMES, pldoubleprime_closed(v, ctx).as_tuple(), want):
        assert abs(ref.mpf(x) - y) <= ref.mpf(10) ** (1 - digits) * abs(y), name


# ------------------------------------------------- the one-cosine basis


def three_cosine_pl2_terms(V, P):
    """``_pl2_terms`` with cos 2v and cos 3v each from its own ``mpf_cos``, as
    they were taken before the basis came from cos v alone: the oracle."""
    c1, c2, c3 = (_fixed(mpf_cos(from_man_exp(r * V, -P), P, RND), P) for r in (1, 2, 3))
    basis = (1 << P, c1, c2, c3, c1 * c2 >> P, c1 * c3 >> P, c2 * c3 >> P,
             c1 * c2 * c3 >> 2 * P)
    v2 = V * V
    den = _horner(_PL2_DEN, basis, v2, P)
    scale = (240 * 8 << P) + (1000 * v2 * v2 >> 3 * P)
    return den, scale, (basis, v2)


@pytest.mark.parametrize("digits", [16, 50, 100])
def test_one_cosine_basis_gives_the_three_cosine_weights(digits, monkeypatch):
    # cos 2v = 2 c1^2 - 1 and cos 3v = 2 c1 cos 2v - c1 on the integers: the
    # same rounded weights and the same singular decisions as three mpf_cos
    ctx = make_context(digits)
    rng = random.Random(20261020)
    grid = ([near_pole(pole, side, k, ctx) for pole in sorted(POLES) for side in (1, -1)
             for k in range(1, digits, 1 + digits // 50)]
            + [ctx.mpf(x) for x in scan_grid(1)[::3]]
            + [ctx.mpf(10 ** rng.uniform(-6, 3)) for _ in range(60)])

    def through_coefficients(v, ctx):
        return coefficients(MethodId.PL_DOUBLE_PRIME, v, ctx)

    one = [outcome(through_coefficients, v, ctx) for v in grid]
    _, K, m, tables = _CLOSED_FORMS[MethodId.PL_DOUBLE_PRIME]
    monkeypatch.setitem(_CLOSED_FORMS, MethodId.PL_DOUBLE_PRIME,
                        (three_cosine_pl2_terms, K, m, tables))
    three = [outcome(through_coefficients, v, ctx) for v in grid]
    assert "singular" in three
    for v, a, b in zip(grid, one, three):
        assert a == b, ctx.mp.nstr(v, 20)


# ------------------------------------------------ the pole test in floats


def exact_boosted(method, v, ctx, terms):
    """``_boosted`` deciding the pole test by its exact integer comparison
    alone, as it did before the floats screened it: the oracle."""
    boost = _boost_digits(method, v)
    k = _VANISH_ORDER[method]
    while True:
        P = dps_to_prec(ctx.mp.dps + boost)
        V = abs(_fixed(v._mpf_, P))
        den, scale, rest = terms(V, P)
        if abs(den) * 10 ** (ctx.digits - 5) << P * k <= min(V * V, 1 << 2 * P) ** (k // 2) * scale:
            raise SingularParameterError("singular", v=v)
        lost = math.log10(scale) - math.log10(abs(den))
        if lost <= boost - _SPARE_DIGITS:
            return P, den, rest
        boost += math.ceil(lost)


@pytest.mark.parametrize("digits", [16, 50, 100])
def test_the_float_screen_decides_as_the_exact_pole_test(digits, monkeypatch):
    # the same singular decisions, and the same integers, as the exact test;
    # den loses about k digits at 10^-k from the simple pole and 2k from the
    # double ones, and the steps of 0.02 in k cross the pole floor's edge
    ctx = make_context(digits)
    rng = random.Random(20261021)
    grid = ([near_pole(pole, side, k, ctx) for pole in sorted(POLES) for side in (1, -1)
             for k in range(1, digits)]
            + [near_pole(pole, side, (digits - 5 + d / 50) / (1 if pole == "p" else 2), ctx)
               for pole in sorted(POLES) for side in (1, -1) for d in range(-100, 100)]
            + [ctx.mpf(10 ** rng.uniform(-6, 3)) for _ in range(2000)])

    def decisions():
        out = []
        for method in (MethodId.PL_PRIME, MethodId.PL_DOUBLE_PRIME):
            for v in grid:
                try:
                    out.append(coefficients(method, v, ctx).fixed)
                except SingularParameterError:
                    out.append("singular")
        return out

    screened = decisions()
    monkeypatch.setattr(importlib.import_module("obrechkoff.coefficients"), "_boosted",
                        exact_boosted)
    exact = decisions()
    assert "singular" in exact
    assert screened == exact


@pytest.mark.parametrize("digits", [16, 50, 100])
def test_the_pole_test_is_exact_at_its_edge(digits):
    # |den| = 10^(5 - digits) min(1, |v|)^k scale is a pole and one unit more
    # is not: there the floats cannot tell the sides apart and the integers do
    ctx = make_context(digits)
    method = MethodId.PL_DOUBLE_PRIME
    k = _VANISH_ORDER[method]

    def at_the_edge(shift, sign):
        def terms(V, P):
            return sign * (min(V, 1 << P) ** k + shift), 10 ** (digits - 5) << P * k, None
        return terms

    for v in map(ctx.mpf, ("1", "3", "0.125")):
        for sign in (1, -1):
            with pytest.raises(SingularParameterError):
                _boosted(method, v, ctx, at_the_edge(0, sign))
            P, den, _ = _boosted(method, v, ctx, at_the_edge(1, sign))
            assert den == sign * (min(abs(_fixed(v._mpf_, P)), 1 << P) ** k + 1)
