import dataclasses
import importlib
import math
from fractions import Fraction as F

import pytest
from mpmath.libmp import from_man_exp, from_rational, to_rational

from obrechkoff import (
    CoefficientSet,
    DomainError,
    MethodId,
    SingularParameterError,
    classical_coefficients,
    coefficients,
    make_context,
    pldoubleprime_closed,
    plprime_closed,
)
from obrechkoff.coefficients import (
    CLASSICAL_FRACTIONS,
    COEFF_NAMES,
    PL_DOUBLE_PRIME_SERIES,
    PL_PRIME_SERIES,
    taylor_fallback,
)
from obrechkoff.integrator import DERIVATIVE_QUADRATURE, StepWeights
from obrechkoff.jets import RND
from obrechkoff.stability import stability_pair

from test_coefficient_tables import reference_pl2_numden

FITTED = (MethodId.PL_PRIME, MethodId.PL_DOUBLE_PRIME)
# the package re-exports the function coefficients() under the module's name
COEFFICIENTS_MODULE = importlib.import_module("obrechkoff.coefficients")


# ---------------------------------------------------------------- classical

def test_classical_exact_fractions():
    assert CLASSICAL_FRACTIONS["beta10"] == F(229, 7788)
    assert CLASSICAL_FRACTIONS["beta11"] == F(3665, 3894)
    assert CLASSICAL_FRACTIONS["beta20"] == F(-1, 2360)
    assert CLASSICAL_FRACTIONS["beta21"] == F(711, 12980)
    assert CLASSICAL_FRACTIONS["beta30"] == F(127, 39251520)
    assert CLASSICAL_FRACTIONS["beta31"] == F(2923, 3925152)


def test_classical_order_conditions_exact():
    b = CLASSICAL_FRACTIONS
    assert 2 * b["beta10"] + b["beta11"] == 1
    assert F(1, 12) - b["beta10"] - 2 * b["beta20"] - b["beta21"] == 0
    assert (F(1, 360) - b["beta10"] / 12 - b["beta20"] - 2 * b["beta30"]
            - b["beta31"]) == 0
    for p in (8, 10, 12):
        assert (F(2, math.factorial(p)) - 2 * b["beta10"] / math.factorial(p - 2)
                - 2 * b["beta20"] / math.factorial(p - 4)
                - 2 * b["beta30"] / math.factorial(p - 6)) == 0


def test_classical_h14_bracket_exact():
    b = CLASSICAL_FRACTIONS
    bracket = (F(2, math.factorial(14)) - 2 * b["beta10"] / math.factorial(12)
               - 2 * b["beta20"] / math.factorial(10)
               - 2 * b["beta30"] / math.factorial(8))
    assert bracket == F(-45469, 1697361329664000)


def test_classical_beta20_negative(ctx50):
    assert classical_coefficients(ctx50).beta20 < 0


def test_classical_ignores_v(ctx50):
    cs = coefficients(MethodId.CLASSICAL, ctx50.mpf(7), ctx50)
    assert cs.v == 0
    assert cs.as_tuple() == classical_coefficients(ctx50).as_tuple()


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("method", FITTED)
def test_fitted_methods_reject_a_non_finite_v(ctx50, method, v):
    # these used to return six nan weights
    with pytest.raises(DomainError, match="not finite"):
        coefficients(method, v, ctx50)
    with pytest.raises(DomainError, match="not finite"):
        coefficients(method, ctx50.mpf(v), ctx50)


@pytest.mark.parametrize("method", FITTED)
@pytest.mark.parametrize("v", ["1e20000", "-1e20000"])
def test_fitted_methods_reject_a_v_beyond_the_fixed_point_range(ctx50, method, v):
    # the closed forms run on integers at a binary point, as the Taylor
    # program does, and take its range; PL' used to return weights here
    with pytest.raises(DomainError, match=r"fitting parameter v = .* is 2\^65536 or more"):
        coefficients(method, ctx50.mpf(v), ctx50)


# ----------------------------------------------------------- Taylor tables

def test_table_constant_terms_are_classical():
    for table in (PL_PRIME_SERIES, PL_DOUBLE_PRIME_SERIES):
        for name, coeffs in table.items():
            assert coeffs[0] == CLASSICAL_FRACTIONS[name]


def test_pl2_beta31_v2_term_matches_beta10_relation():
    # the v^2 coefficient is pinned by beta10's series through the exact
    # order-bracket relation beta10 = 89/1878 - (7560/313) beta31 + O(v^4)
    target = -F(313, 7560) * PL_DOUBLE_PRIME_SERIES["beta10"][1]
    assert PL_DOUBLE_PRIME_SERIES["beta31"][1] == target == F(-14231797, 709639444800)


def test_pl2_table_satisfies_its_own_order_brackets():
    # h^2/h^4/h^6 brackets vanish termwise for the fitted series
    t = PL_DOUBLE_PRIME_SERIES
    for k in range(7):
        assert 2 * t["beta10"][k] + t["beta11"][k] == (1 if k == 0 else 0)
        h4 = (F(1, 12) if k == 0 else 0) - t["beta10"][k] - 2 * t["beta20"][k] - t["beta21"][k]
        assert h4 == 0
        h6 = ((F(1, 360) if k == 0 else 0) - t["beta10"][k] / 12 - t["beta20"][k]
              - 2 * t["beta30"][k] - t["beta31"][k])
        assert h6 == 0


# ------------------------------------------------------------ closed forms

@pytest.mark.parametrize("method,closed", [(MethodId.PL_PRIME, plprime_closed),
                                           (MethodId.PL_DOUBLE_PRIME, pldoubleprime_closed)])
def test_small_v_limit_is_classical(ctx60, method, closed):
    cs = closed(ctx60.mpf("1e-6"), ctx60)
    cl = classical_coefficients(ctx60)
    for a, b in zip(cs.as_tuple(), cl.as_tuple()):
        assert abs(a - b) < ctx60.mpf(10) ** -10


def test_pl2_beta31_limit_value(ctx60):
    b31 = pldoubleprime_closed(ctx60.mpf("1e-6"), ctx60).beta31
    assert abs(b31 - ctx60.mpf(F(2923, 3925152))) < ctx60.mpf(10) ** -10


def test_plprime_beta10_at_v1(ctx50):
    # deviation from the classical value is the series sum of the v^2+ terms
    cs = plprime_closed(ctx50.mpf(1), ctx50)
    delta = cs.beta10 - ctx50.mpf(F(229, 7788))
    series_tail = sum(ctx50.mpf(c) for c in PL_PRIME_SERIES["beta10"][1:])
    assert abs(delta - series_tail) < ctx50.mpf(10) ** -16
    assert abs(delta - ctx50.mpf(F(45469, 1314147120))) < ctx50.mpf("1e-6")


@pytest.mark.parametrize("method", FITTED)
@pytest.mark.parametrize("v", ["0.3", "1.7", "4.1"])
def test_evenness_exact(ctx50, method, v):
    plus = coefficients(method, ctx50.mpf(v), ctx50)
    minus = coefficients(method, -ctx50.mpf(v), ctx50)
    assert plus.as_tuple() == minus.as_tuple()


@pytest.mark.parametrize("method,closed", [(MethodId.PL_PRIME, plprime_closed),
                                           (MethodId.PL_DOUBLE_PRIME, pldoubleprime_closed)])
@pytest.mark.parametrize("v", ["0.02", "0.05", "0.1"])
def test_closed_vs_taylor_overlap(ctx50, method, closed, v):
    a = closed(ctx50.mpf(v), ctx50)
    b = taylor_fallback(method, ctx50.mpf(v), ctx50)
    for x, y in zip(a.as_tuple(), b.as_tuple()):
        assert abs(x - y) < ctx50.mpf(10) ** -20


CLOSED_FORMS = {MethodId.PL_PRIME: plprime_closed,
                MethodId.PL_DOUBLE_PRIME: pldoubleprime_closed}

# 0.495, 0.0215 and 0.000999 sit just below where 16-, 50- and 100-digit
# contexts used to switch from the closed forms to the truncated v^12 series
FULL_PRECISION_V = ("1e-30", "1e-12", "1e-5", "0.000999", "1e-3", "0.02",
                    "0.0215", "0.1", "0.495", "1", "3")


@pytest.mark.parametrize("method", FITTED)
@pytest.mark.parametrize("digits", [16, 50, 100])
def test_full_precision_at_every_v(method, digits):
    # reference: the closed form itself at twice the working digits
    ctx = make_context(digits)
    ref_ctx = make_context(2 * digits)
    tol = ref_ctx.mpf(10) ** (3 - digits)
    for text in FULL_PRECISION_V:
        v = ctx.mpf(text)
        got = coefficients(method, v, ctx)
        ref = CLOSED_FORMS[method](ref_ctx.mpf(v), ref_ctx)
        for name, x, r in zip(COEFF_NAMES, got.as_tuple(), ref.as_tuple()):
            assert abs(ref_ctx.mpf(x) - r) <= tol * abs(r), (text, name)


@pytest.mark.parametrize("method", FITTED)
def test_classical_weights_below_resolution(monkeypatch, method):
    # v^2 < 10^-digits: the fitted weights equal the classical ones to working
    # precision; from v^2 = 10^-digits on, the closed forms are evaluated
    ctx = make_context(50)
    below = coefficients(method, ctx.mpf("0.9e-25"), ctx)
    assert below.v == ctx.mpf("0.9e-25")
    assert below.as_tuple() == classical_coefficients(ctx).as_tuple()

    calls = []
    name = CLOSED_FORMS[method].__name__

    def counted(v, c):
        calls.append(v)
        return CLOSED_FORMS[method](v, c)

    monkeypatch.setattr(COEFFICIENTS_MODULE, name, counted)
    coefficients(method, ctx.mpf("1.1e-25"), ctx)
    assert calls == [ctx.mpf("1.1e-25")]


@pytest.mark.parametrize("digits", [16, 50, 100])
def test_classical_shortcut_is_taken_exactly_below_resolution(monkeypatch, digits):
    # v^2 < 10^-digits is decided on v as stored, with no rounding, at
    # v = 10^(-digits/2) (1 +- 10^-k)
    ctx = make_context(digits)
    high = make_context(digits + 40)
    calls = []
    monkeypatch.setattr(COEFFICIENTS_MODULE, "plprime_closed", lambda v, c: calls.append(v))
    taken = set()
    for k in range(1, digits + 5):
        for side in (1, -1):
            v = ctx.mpf(high.mpf(10) ** (-digits // 2) * (1 + side * high.mpf(10) ** -k))
            calls.clear()
            coefficients(MethodId.PL_PRIME, v, ctx)
            _, man, exp, _ = v._mpf_
            below = (F(man) * F(2) ** exp) ** 2 < F(1, 10 ** digits)
            assert (not calls) == below, (k, side)
            taken.add(below)
    assert taken == {True, False}


@pytest.mark.parametrize("digits", [50, 100])
@pytest.mark.parametrize("v", ["1e3", "1e6", "1e10", "1e20", "1e30", "1e100"])
def test_pl2_keeps_every_digit_at_large_v(v, digits):
    # beta30 and beta31 fall like v^-2, so they keep every digit only if the
    # evaluation holds 2 log10 v more; the reference is the closed form at
    # 250 digits at the same binary v (1e100 is not exact at 50 digits)
    ctx = make_context(digits)
    ref_ctx = make_context(250)
    got = coefficients(MethodId.PL_DOUBLE_PRIME, ctx.mpf(v), ctx)
    ref = pldoubleprime_closed(ref_ctx.mpf(got.v), ref_ctx)
    for name, x, r in zip(COEFF_NAMES, got.as_tuple(), ref.as_tuple()):
        assert abs(ref_ctx.mpf(x) - r) <= ref_ctx.mpf(10) ** (1 - digits) * abs(r), (v, name)


@pytest.mark.parametrize("method", FITTED)
@pytest.mark.parametrize("v", ["1e-330", "1e-345"])
def test_full_precision_below_the_float_range(method, v):
    # above 616 digits, v^2 >= 10^-digits reaches below 1e-308, where
    # float(v) is 0; the v^12 series is exact to far below 10^-700 there
    ctx = make_context(700)
    got = coefficients(method, ctx.mpf(v), ctx)
    ref = taylor_fallback(method, ctx.mpf(v), ctx)
    for name, x, r in zip(COEFF_NAMES, got.as_tuple(), ref.as_tuple()):
        assert abs(x - r) <= ctx.mpf(10) ** (3 - 700) * abs(r), (v, name)


@pytest.mark.parametrize("closed", [plprime_closed, pldoubleprime_closed])
def test_closed_forms_at_zero_are_singular(ctx50, closed):
    # both are 0/0 at v = 0; coefficients() returns the classical set there
    with pytest.raises(SingularParameterError):
        closed(0, ctx50)


def test_pl2_keeps_every_digit_beyond_the_float_range(ctx50):
    # float(v) overflows from 2^1024 on, so the large-v boost reads log10 |v|
    # off the mantissa and exponent; the reference is the closed form at 250
    # digits
    ref_ctx = make_context(250)
    v = ctx50.mpf("1e400")
    got = coefficients(MethodId.PL_DOUBLE_PRIME, v, ctx50)
    ref = pldoubleprime_closed(ref_ctx.mpf(v), ref_ctx)
    for name, x, r in zip(COEFF_NAMES, got.as_tuple(), ref.as_tuple()):
        assert abs(ref_ctx.mpf(x) - r) <= ref_ctx.mpf(10) ** (1 - 50) * abs(r), name


# -------------------------------------------- series extraction oracle

def _extract_series(f, ctx, n_terms, v0=1e-3):
    """Vandermonde fit of an even function's series coefficients."""
    vs = [ctx.mpf(v0) * (i + 1) for i in range(n_terms)]
    vals = ctx.mp.matrix([f(v) for v in vs])
    M = ctx.mp.matrix([[vs[i] ** (2 * j) for j in range(n_terms)]
                       for i in range(n_terms)])
    return ctx.mp.lu_solve(M, vals)


@pytest.mark.parametrize("method,table,closed", [
    (MethodId.PL_PRIME, PL_PRIME_SERIES, plprime_closed),
    (MethodId.PL_DOUBLE_PRIME, PL_DOUBLE_PRIME_SERIES, pldoubleprime_closed),
])
def test_tables_match_closed_form_extraction(method, table, closed):
    # independent oracle: sample the closed forms at tiny v at high precision
    # and recover the series; every shipped table entry must match
    ctx = make_context(120)
    for idx, name in enumerate(COEFF_NAMES):
        got = _extract_series(lambda v: closed(v, ctx).as_tuple()[idx], ctx, 10)
        for k in range(7):
            expected = ctx.mpf(table[name][k])
            scale = max(1, abs(expected))
            assert abs(got[k] - expected) < scale * ctx.mpf(10) ** -20, (name, k)


# --------------------------------------------- harmonic exactness of PL''

def _char_residual(ctx, cs, r, v):
    pair = stability_pair(cs, r * v)
    return pair.A * ctx.mp.cos(r * v) - pair.B


@pytest.mark.parametrize("v", ["0.4", "0.9", "2.2"])
def test_pl2_exact_on_three_harmonics(ctx50, v):
    v = ctx50.mpf(v)
    cs = pldoubleprime_closed(v, ctx50)
    for r in (1, 2, 3):
        assert abs(_char_residual(ctx50, cs, r, v)) < ctx50.mpf(10) ** -40


@pytest.mark.parametrize("v", ["0.4", "0.9", "2.2"])
def test_plprime_exact_on_first_harmonic_only(ctx50, v):
    v = ctx50.mpf(v)
    cs = plprime_closed(v, ctx50)
    r1 = abs(_char_residual(ctx50, cs, 1, v))
    r2 = abs(_char_residual(ctx50, cs, 2, v))
    assert r1 < ctx50.mpf(10) ** -40
    assert r2 > ctx50.mpf(10) ** 20 * max(r1, ctx50.mpf(10) ** -45)


def test_pl2_linear_relations_hold_only_to_fourth_order(ctx50):
    # the constant-coefficient relations connecting the weights to beta31 are
    # v->0 asymptotics, accurate to O(v^4); verify both the limit and the
    # leading deviation scale
    res = []
    for vv in ("0.1", "0.2"):
        v = ctx50.mpf(vv)
        cs = pldoubleprime_closed(v, ctx50)
        res.append(abs(cs.beta10 + ctx50.mpf(F(7560, 313)) * cs.beta31
                       - ctx50.mpf(F(89, 1878))))
    assert res[0] < 1e-9                       # tiny near v = 0
    ratio = res[1] / res[0]
    assert 14 < ratio < 18                     # ~2^4: O(v^4) scaling


def test_pl2_finite_near_largest_reported_v(ctx50):
    cs = pldoubleprime_closed(ctx50.mpf("37.8"), ctx50)
    for x in cs.as_tuple():
        assert ctx50.mp.isfinite(x)


def test_pl2_singular_parameter_detected():
    # bisect a zero of the beta31 denominator at modest precision, then ask
    # for coefficients exactly there; the boost on the caller's context must
    # be undone when the singular check raises inside it
    ctx = make_context(16)
    lo, hi = ctx.mpf("3.8"), ctx.mpf("4.0")

    def den(v):
        w = make_context(ctx.digits + 30)
        return reference_pl2_numden(w, w.mpf(v))[1]

    assert den(lo) * den(hi) < 0
    for _ in range(80):
        mid = (lo + hi) / 2
        if den(lo) * den(mid) <= 0:
            hi = mid
        else:
            lo = mid
    with pytest.raises(SingularParameterError):
        pldoubleprime_closed((lo + hi) / 2, ctx)
    assert ctx.mp.dps == ctx.digits


# ------------------------------------------------------- rounding on read

READS = {
    "attribute": lambda cs: cs.beta30,
    "as_tuple": lambda cs: cs.as_tuple(),
    "==": lambda cs: cs == CoefficientSet(*cs.as_tuple(), v=cs.v),
    "repr": repr,
    "replace": lambda cs: dataclasses.replace(cs, v=cs.v),
    "hash": hash,
}


@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("digits", [16, 50])
def test_closed_form_weights_are_rounded_from_fixed_on_first_read(read, digits):
    # a closed-form set, the classical set and its stand-in below v^2 =
    # 10^-digits hold only their integers until a weight is read; then all
    # six are those integers rounded to nearest at the working precision
    ctx = make_context(digits)
    tiny = ctx.mpf(10) ** -(ctx.digits // 2 + 1)
    sets = [((method, x), coefficients(method, ctx.mpf(x), ctx))
            for method in FITTED for x in ("1e-4", "0.3", "2.5", "37.8")]
    sets += [("classical", classical_coefficients(ctx)),
             ("stand-in", coefficients(MethodId.PL_DOUBLE_PRIME, tiny, ctx))]
    for label, cs in sets:
        assert not set(COEFF_NAMES) & vars(cs).keys(), label
        READS[read](cs)
        P, ints = cs.fixed
        want = [ctx.mp.make_mpf(from_man_exp(n, -P, ctx.mp.prec, RND)) for n in ints]
        assert [vars(cs)[name] for name in COEFF_NAMES] == want, label
        assert [getattr(cs, name) for name in COEFF_NAMES] == want
        assert all(w._mpf_[3] <= ctx.mp.prec for w in want)
        by_hand = CoefficientSet(*want, v=cs.v)
        assert by_hand == cs and hash(by_hand) == hash(cs) and repr(by_hand) == repr(cs)
        moved = dataclasses.replace(cs, v=ctx.mpf(1))
        assert moved.as_tuple() == cs.as_tuple() and moved.fixed == cs.fixed
    with pytest.raises(AttributeError):
        cs.beta40
    # the classical integers, rounded down at 2^-(prec + GUARD_BITS), round to
    # nearest at prec to each fraction rounded once, at every prec
    fractions = [CLASSICAL_FRACTIONS[name] for name in COEFF_NAMES]
    for prec in range(53, 2001):
        ctx.mp.prec = prec
        cs = classical_coefficients(ctx)
        READS[read](cs)
        assert [getattr(cs, name)._mpf_ for name in COEFF_NAMES] == [
            from_rational(f.numerator, f.denominator, prec, RND) for f in fractions], prec


# ------------------------------------------------- one integer weight path

def weight_sets(ctx):
    """(label, set, closed) for every kind of CoefficientSet, closed telling
    a closed-form set: classical, both closed forms, the classical stand-in
    below v^2 = 10^-digits, Taylor series and a set built by hand."""
    sets = [("classical", classical_coefficients(ctx), False)]
    tiny = ctx.mpf(10) ** -(ctx.digits // 2 + 1)
    for method in FITTED:
        sets += [(f"{method.value} at {x}", coefficients(method, ctx.mpf(x), ctx), True)
                 for x in ("1e-4", "0.3", "2.5", "37.8")]
        sets.append((f"{method.value} stand-in", coefficients(method, tiny, ctx), False))
        sets.append((f"{method.value} series", taylor_fallback(method, ctx.mpf("0.3"), ctx),
                     False))
    by_hand = map(ctx.mpf, ("0.03", "0.94", "-4e-4", "0.055", "3e-6", "7e-4"))
    sets.append(("by hand", CoefficientSet(*by_hand, v=ctx.mpf("0.2")), False))
    return sets


def exact(x):
    """The mpf x as a Fraction."""
    return F(*to_rational(x._mpf_))


@pytest.mark.parametrize("digits", [16, 50, 100])
def test_every_set_carries_its_integers_and_the_step_rounds_them_once(digits):
    # each entry h^k w of the step's weights is formed from the set's
    # integers (w = beta) or DERIVATIVE_QUADRATURE (w = q) and rounded once
    ctx = make_context(digits)
    unit = F(1, 2 ** ctx.mp.prec)
    qA, qB, qC, qD, qE, qF = DERIVATIVE_QUADRATURE.values()
    classical = classical_coefficients(ctx)
    for label, cs, closed in weight_sets(ctx):
        assert cs.fixed is not None, label
        if label.endswith("stand-in"):
            assert cs.fixed == classical.fixed
        P, ints = cs.fixed
        b10, b11, b20, b21, b30, b31 = (F(b, 1 << P) for b in ints)
        for h in (ctx.mpf("0.1"), ctx.mpf("-0.37"), ctx.pi / 100, ctx.mpf(3)):
            H = exact(h)
            end = ((H ** 2 * b10, H ** 4 * b20, H ** 6 * b30), (H * qA, H ** 3 * qC, H ** 5 * qE))
            mid = ((H ** 2 * b11, H ** 4 * b21, H ** 6 * b31), (H * qB, H ** 3 * qD, H ** 5 * qF))
            (hs, (hw,)), _, w_end, w_old = StepWeights.build(cs, h, ctx).fixed
            assert F(hw, 1 << hs) == H
            for (s, got), want in zip((*w_end, *w_old), (*end, *(e + m for e, m in zip(end, mid)))):
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert abs(F(g, 1 << s) - w) <= unit * abs(w), (label, h)
        if closed:
            assert not set(COEFF_NAMES) & vars(cs).keys(), label


# ------------------------------------------------------ precision monotony

@pytest.mark.parametrize("digits", [20, 25])
def test_monotone_precision(digits):
    # v = 0.1 lies deep in the cancellation range of both closed forms, where
    # only the precision boost keeps the d-digit result accurate
    lo = make_context(digits)
    hi = make_context(2 * digits)
    for method in FITTED:
        a = coefficients(method, lo.mpf("0.1"), lo)
        b = coefficients(method, hi.mpf("0.1"), hi)
        for x, y in zip(a.as_tuple(), b.as_tuple()):
            assert abs(hi.mpf(str(x)) - y) < hi.mpf(10) ** (5 - digits) * max(1, abs(y))
