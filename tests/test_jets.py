import linecache
import math
import re

import pytest

from obrechkoff import DomainError, duffing, linear_forced, make_context, rational_problem
from obrechkoff.jets import RANGE_BITS, Series, TracedODE, ode_series, ops


def taylor(ctx, expr, order):
    """Coefficients 0..order of a series expression, through the program
    compiled for an f2 that returns it, centred at 0."""
    graph = TracedODE(lambda x, y, yp: expr)
    zero = ctx.mpf(0)
    graph.at(zero, zero, zero)
    return [graph.f[k] for k in range(order + 1)]


def test_jet_mul_div_roundtrip(ctx50):
    x = Series.given([ctx50.mpf(2), ctx50.mpf(1), ctx50.mpf("0.5")])
    y = Series.given([ctx50.mpf(3), ctx50.mpf(-1)])
    z, x = taylor(ctx50, (x * y) / y, 8), taylor(ctx50, x, 8)
    assert all(abs(z[k] - x[k]) < ctx50.mpf(10) ** -45 for k in range(9))


def test_jet_sin_cos_identity(ctx50):
    u = Series.given([ctx50.mpf("0.3"), ctx50.mpf(1), ctx50.mpf("0.25")])
    s, c = u.sin_cos()
    one = taylor(ctx50, s * s + c * c, 10)
    assert abs(one[0] - 1) < ctx50.mpf(10) ** -45
    assert all(abs(one[k]) < ctx50.mpf(10) ** -44 for k in range(1, 11))


def test_jet_matches_taylor_of_cos(ctx50):
    # sin of the pure variable series at 0 reproduces the sine series
    s = taylor(ctx50, ops.sin(Series.given([ctx50.mpf(0), 1])), 9)
    for k in range(10):
        expected = 0 if k % 2 == 0 else ctx50.rational((-1) ** ((k - 1) // 2), math.factorial(k))
        assert abs(s[k] - expected) < ctx50.mpf(10) ** -40


def test_series_division_needs_nonzero_constant_term(ctx50):
    with pytest.raises(DomainError):
        taylor(ctx50, ctx50.mpf(1) / Series.given([0, ctx50.mpf(1)]), 0)
    zero, one = ctx50.mpf(0), ctx50.mpf(1)
    graph = TracedODE(lambda x, y, yp: 1 / y)
    with pytest.raises(DomainError):      # the same on a Jacobian pass
        graph.jacobian(zero, zero, one, (2,))
    assert graph.derivative(2)(zero, one, one) == 1      # and the program recovers


def test_series_integer_powers(ctx50):
    a = [ctx50.mpf("0.7"), ctx50.mpf(2), ctx50.mpf(-1)]
    cube = taylor(ctx50, Series.given(a) ** 3, 7)
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


JACOBIAN_CASES = {
    "duffing": lambda ctx: duffing(ctx).graph,
    "linear": lambda ctx: linear_forced(ctx).graph,
    "rational": lambda ctx: rational_problem(ctx).graph,
    "sin-of-y": lambda ctx: TracedODE(lambda x, y, yp: -ops.sin(y)),
    "damped": lambda ctx: TracedODE(lambda x, y, yp: -y - yp / 10),
    "y-divisor": lambda ctx: TracedODE(lambda x, y, yp: -y / (1 + y * y)),
    "cos-of-y": lambda ctx: TracedODE(lambda x, y, yp: -ops.cos(y) * y + ops.sin(x)),
    "slope-only": lambda ctx: TracedODE(lambda x, y, yp: -yp / 10 + ops.sin(x)),
    "cos-of-product": lambda ctx: TracedODE(lambda x, y, yp: -y - ops.cos(yp * y) / 7),
    "slope-quotient": lambda ctx: TracedODE(lambda x, y, yp: (1 + yp * yp) / (2 + y * y + x)),
}


@pytest.mark.parametrize("digits", [30, 50])
@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
def test_dual_jacobian_matches_central_differences(case, digits):
    # d f_k/d(y, y'), k = 2, 4, 6, from the partial channels against central
    # differences of the closures at twice the digits, step 10^(-digits/2)
    ctx, fine = make_context(digits), make_context(2 * digits)
    graph, fine_graph = JACOBIAN_CASES[case](ctx), JACOBIAN_CASES[case](fine)
    delta = fine.mpf(10) ** -(digits // 2)
    tol = ctx.mpf(10) ** (10 - digits)
    for point in (("0.7", "0.3", "-0.4"), ("2.1", "-1.2", "0.8")):
        partials = graph.jacobian(*map(ctx.real, point), (2, 4, 6))
        x, y, yp = map(fine.real, point)
        for k, (dy, dyp) in zip((2, 4, 6), partials):
            f = fine_graph.derivative(k)
            fd_y = (f(x, y + delta, yp) - f(x, y - delta, yp)) / (2 * delta)
            fd_yp = (f(x, y, yp + delta) - f(x, y, yp - delta)) / (2 * delta)
            scale = max(abs(fd_y), abs(fd_yp))
            assert abs(dy - fd_y) <= tol * scale, (k, point, "y")
            assert abs(dyp - fd_yp) <= tol * scale, (k, point, "y'")


@pytest.mark.parametrize("digits", [16, 50])
@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
def test_values_do_not_depend_on_the_order_they_are_asked_for(case, digits):
    # y_0..y_14, f_0..f_12 and the partials at one point, bit for bit the same
    # whether y (from the top down), f (from the bottom up) or the partials
    # are asked for first
    ctx = make_context(digits)
    point = tuple(map(ctx.real, ("0.7", "0.3", "-0.4")))

    def values(order):
        graph = JACOBIAN_CASES[case](ctx)
        graph.at(*point)
        reads = {"y": lambda: [graph.y.raw(k) for k in range(14, -1, -1)][::-1],
                 "f": lambda: [graph.f.raw(k) for k in range(13)],
                 "jacobian": lambda: [getattr(p, "_mpf_", p) for pair in
                                      graph.jacobian(*point, (2, 4, 6, 8, 10, 12, 14))
                                      for p in pair]}
        return {name: reads[name]() for name in order}

    first = values(("y", "f", "jacobian"))
    assert values(("f", "y", "jacobian")) == first
    assert values(("jacobian", "y", "f")) == first


@pytest.mark.parametrize("f2", [lambda x, y, yp: 3, lambda x, y, yp: ops.sin(x)],
                         ids=["constant", "sin-of-x"])
def test_partials_of_an_f2_free_of_y_are_zero(ctx50, f2):
    point = (ctx50.mpf("0.7"), ctx50.mpf("0.3"), ctx50.mpf("-0.4"))
    assert TracedODE(f2).jacobian(*point, (2, 4, 6)) == [(0, 0)] * 3


def test_dual_pass_leaves_the_closures_exact(ctx50):
    # after a Jacobian pass, a closure at the same point returns the same value
    graph = duffing(ctx50).graph
    x, y, yp = ctx50.mpf("0.7"), ctx50.mpf("0.3"), ctx50.mpf("-0.4")
    f6 = graph.derivative(6)
    before = f6(x, y, yp)
    graph.jacobian(x, y, yp, (2, 4, 6))
    assert f6(x, y, yp) == before


def test_duffing_compiles_to_one_combination_and_two_products(ctx50):
    # -y - y**3 + B cos(omega x): the y-dependent part is y*y, (y*y)*y and one
    # 3-term linear combination; omega x and its sin/cos pair depend on x alone
    graph = duffing(ctx50).graph
    assert [type(op).__name__ for op in graph._y_ops] == ["_Mul", "_Mul", "_Lin"]
    assert len(graph._y_ops[-1].a) == 3
    assert sorted(type(op).__name__ for op in graph._x_ops) == ["_Lin", "_SinCos"]


def test_duffing_tangent_program_keeps_one_product_per_product(ctx50):
    # per channel, d(y*y) and d((y*y)*y) are each one fused sum of two
    # products, rounded once, and d f2 one combination; f2 ignores y', so
    # only the leaf w closes each channel
    program = duffing(ctx50).graph._d_ops
    assert [type(op).__name__ for op in program] == ["_Mul", "_Mul", "_Lin", "_Leaf"] * 2
    assert [len(op.pairs) for op in program if type(op).__name__ == "_Mul"] == [2] * 4
    assert [op.lag for op in program if type(op).__name__ == "_Leaf"] == [2, 2]


def test_far_apart_and_non_finite_terms(ctx50):
    # terms far apart in magnitude are summed exactly as integers at one
    # binary point; inf and nan cannot be, and are a DomainError
    f2 = TracedODE(lambda x, y, yp: -y - y ** 3 + 1).derivative(2)
    x, zero = ctx50.mpf("0.5"), ctx50.mpf(0)
    big = ctx50.mpf("1e5000")
    assert abs(f2(x, big, zero) / (-big - big ** 3 + 1) - 1) < ctx50.mpf(10) ** -49
    inf = ctx50.mp.inf
    with pytest.raises(DomainError, match="finite"):
        f2(x, inf, zero)
    with pytest.raises(DomainError, match="finite"):
        f2(x, ctx50.mp.nan, zero)
    with pytest.raises(DomainError, match="finite"):
        f2(x, ctx50.mpf(2) ** RANGE_BITS, zero)
    assert f2(x, zero, zero) == 1            # a refused point leaves the program usable


def test_a_missing_slope_that_f2_reads_is_a_domain_error(ctx50):
    one, two = ctx50.mpf(1), ctx50.mpf(2)
    with pytest.raises(DomainError, match="reads y'"):
        TracedODE(lambda x, y, yp: -y - yp / 10).derivative(2)(one, two, None)
    assert TracedODE(lambda x, y, yp: -y).derivative(2)(one, two, None) == -2
    # f2 itself does without y', but y_1 = y'_0, every level above 0 and the
    # partials read it; a refused read leaves the program usable
    graph = TracedODE(lambda x, y, yp: -y * y)
    assert graph.derivative(2)(one, two, None) == -4
    for read in (lambda: graph.derivative(3)(one, two, None), lambda: graph.y.raw(1),
                 lambda: graph.jacobian(one, two, None, (2, 4, 6))):
        with pytest.raises(DomainError, match="no y'"):
            read()
    assert graph.y[2] == -2
    assert graph.derivative(3)(one, two, ctx50.mpf(3)) == -12


def test_duffing_levels_are_integer_code(ctx50):
    # the y and tangent levels of duffing run on ints alone: no libmp call and
    # no term for a zero constant; only level 0 of x calls mpf_cos_sin
    graph = duffing(ctx50).graph
    point = (ctx50.mpf("0.7"), ctx50.mpf("0.3"), ctx50.mpf("-0.4"))
    for k in (2, 4, 6):
        graph.derivative(k)(*point)
    graph.jacobian(*point, (2, 4, 6))

    def source(label, k):
        lines = linecache.getlines(f"<obrechkoff program duffing {label} level {k}>")
        assert lines, (label, k)
        return "".join(lines)

    for k in range(5):
        for label in ("y", "tangent"):
            code = source(label, k)
            assert not re.search(r"_fdot|mpf_|from_|_fixed|fzero|fone", code), (label, k)
            assert not re.search(r"\b0 \*|\* 0\b|\(0 << P\)", code), (label, k)
        assert all("if len(" not in source(label, k) for label in ("x", "y", "tangent"))
    assert "mpf_cos_sin(" in source("x", 0)
    assert all("mpf_" not in source("x", k) for k in range(1, 5))
