import math

import pytest

from obrechkoff import DomainError
from obrechkoff.jets import Series, TracedODE, ode_series, ops


def test_jet_mul_div_roundtrip(ctx50):
    x = Series.given([ctx50.mpf(2), ctx50.mpf(1), ctx50.mpf("0.5")])
    y = Series.given([ctx50.mpf(3), ctx50.mpf(-1)])
    z = (x * y) / y
    assert all(abs(z[k] - x[k]) < ctx50.mpf(10) ** -45 for k in range(9))


def test_jet_sin_cos_identity(ctx50):
    u = Series.given([ctx50.mpf("0.3"), ctx50.mpf(1), ctx50.mpf("0.25")])
    s, c = u.sin_cos()
    one = s * s + c * c
    assert abs(one[0] - 1) < ctx50.mpf(10) ** -45
    assert all(abs(one[k]) < ctx50.mpf(10) ** -44 for k in range(1, 11))


def test_jet_matches_taylor_of_cos(ctx50):
    # sin of the pure variable series at 0 reproduces the sine series
    s = ops.sin(Series.given([ctx50.mpf(0), 1]))
    for k in range(10):
        expected = 0 if k % 2 == 0 else ctx50.rational((-1) ** ((k - 1) // 2), math.factorial(k))
        assert abs(s[k] - expected) < ctx50.mpf(10) ** -40


def test_series_division_needs_nonzero_constant_term(ctx50):
    with pytest.raises(DomainError):
        (ctx50.mpf(1) / Series.given([0, ctx50.mpf(1)]))[0]


def test_series_integer_powers(ctx50):
    a = [ctx50.mpf("0.7"), ctx50.mpf(2), ctx50.mpf(-1)]
    cube = Series.given(a) ** 3
    expected = [sum(a[i] * a[j] * a[k - i - j] for i in range(3) for j in range(3)
                    if 0 <= k - i - j < 3) for k in range(7)]
    assert all(abs(cube[k] - expected[k]) < ctx50.mpf(10) ** -45 for k in range(7))
    assert cube[7] == 0
    with pytest.raises(DomainError):
        Series.given(a) ** 0


def test_ode_series_harmonic(ctx50):
    # y'' = -y with y(0)=1, y'(0)=0 gives the cosine series
    series = ode_series(ctx50, lambda x, y, yp: -y, ctx50.mpf(0), 1, 0, 12)
    h = ctx50.mpf("0.1")
    y, yp = ctx50.mp.polyval(series[::-1], h, derivative=True)
    assert abs(y - ctx50.mp.cos(h)) < ctx50.mpf(10) ** -13
    assert abs(yp + ctx50.mp.sin(h)) < ctx50.mpf(10) ** -13


def test_ode_series_rational_problem(ctx50):
    # y'' = 8 y^2/(1+2x), solution 1/(1+2x)
    def f2(x, y, yp):
        return 8 * y * y / (1 + 2 * x)

    series = ode_series(ctx50, f2, ctx50.mpf(0), 1, -2, 14)
    h = ctx50.rational(45, 50000)           # 4.5/5000
    exact = 1 / (1 + 2 * h)
    assert abs(ctx50.mp.polyval(series[::-1], h) - exact) < ctx50.mpf(10) ** -30


def test_ode_series_keeps_its_coefficients(ctx50):
    # a traced graph is read as it is; the coefficients outlive its next move
    graph = TracedODE(lambda x, y, yp: -y)
    series = ode_series(ctx50, graph, 0, 1, 0, 6)
    before = list(series)
    graph.derivative(6)(ctx50.mpf(1), ctx50.mpf(5), ctx50.mpf(3))
    assert series == before
    assert [float(c) for c in before] == [1, 0, -0.5, 0, 1 / 24, 0, -1 / 720]
