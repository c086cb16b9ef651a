import pytest
from mpmath.libmp import from_rational, round_nearest

from obrechkoff import ConfigurationError, DomainError, make_context
from obrechkoff.coefficients import PL_DOUBLE_PRIME_SERIES, PL_PRIME_SERIES


def test_pi_at_50_digits(ctx50):
    assert ctx50.mp.nstr(ctx50.pi, 21) == "3.14159265358979323846"


def test_minimal_context():
    ctx = make_context(16)
    assert ctx.digits == 16


def test_default_is_50_digits():
    assert make_context().digits == 50


@pytest.mark.parametrize("bad", [8, 15, 0, -3])
def test_low_precision_rejected(bad):
    with pytest.raises(ConfigurationError):
        make_context(bad)


def test_rational_value(ctx50):
    x = ctx50.rational(229, 7788)
    assert ctx50.mp.nstr(x, 13) == "0.02940421160761"[:15]
    assert abs(x - ctx50.mpf(229) / 7788) <= ctx50.mpf(10) ** -ctx50.digits


def test_rational_zero(ctx50):
    assert ctx50.rational(0, 5) == 0


def test_rational_zero_denominator(ctx50):
    with pytest.raises(DomainError):
        ctx50.rational(1, 0)


@pytest.mark.parametrize("num,den", [(1, 3), (229, 7788), (-45469, 1314147120),
                                     (10 ** 17 + 1, 10 ** 17 - 3)])
def test_rational_round_trip(ctx50, num, den):
    x = ctx50.rational(num, den)
    assert abs(x * den - num) <= 2 * ctx50.mpf(10) ** -ctx50.digits * abs(num)


@pytest.mark.parametrize("digits", [16, 17, 20, 30, 50])
def test_rational_rounds_once(digits):
    # the series tables' numerators and denominators run past prec bits: each
    # entry must still be num/den rounded once to nearest, as a Fraction too
    ctx = make_context(digits)
    for table in (PL_PRIME_SERIES, PL_DOUBLE_PRIME_SERIES):
        for entries in table.values():
            for q in entries:
                want = from_rational(q.numerator, q.denominator, ctx.mp.prec, round_nearest)
                assert ctx.rational(q.numerator, q.denominator)._mpf_ == want, q
                assert ctx.mpf(q)._mpf_ == want, q


def test_contexts_are_independent():
    a = make_context(20)
    b = make_context(80)
    assert a.mp.nstr(a.pi, 25) != b.mp.nstr(b.pi, 25)
    # b keeps full precision even after a is used
    assert abs(b.pi - b.mp.mpf(2) * b.mp.asin(1)) <= b.mpf(10) ** -b.digits


def test_exact_decimal_literal(ctx50):
    y0 = ctx50.real("0.200426728067")
    assert abs(y0 * 10 ** 12 - 200426728067) < ctx50.mpf(10) ** -30
