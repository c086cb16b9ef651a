"""The Duffing problem against the true end value of its IVP.

``duffing().reference`` is the four-term cosine expansion of the paper. It is
0 to 50 digits at x_end = 40.5 pi / 1.01, where every cos((2i+1) 40.5 pi)
vanishes, so the published ``abs_end_error`` is |y_end| and cannot see a
method error below about 1e-13. These tests measure against Y_END instead.
"""

import functools
import math

from obrechkoff import MethodId, StepperConfig, duffing, integrate, make_context
from obrechkoff.jets import ode_series

#: y(x_end) and y'(x_end) of the IVP through duffing's y0 = 0.200426728067,
#: y'0 = 0, to 30 and 40 significant digits. They come from a degree-40
#: Taylor run off ``problem.graph`` at 100 digits with divisor 500
#: (``taylor_march`` below); the same run at divisor 1000 agrees to 3e-48 in
#: y and 7e-47 in y'.
Y_END = "7.06448917546301172912244898907e-12"
YP_END = "-0.2014345581313100666554551439895250789440"


def taylor_march(problem, ctx, divisor, degree):
    """(y, y') at x_end from `divisor` steps of the degree-`degree` Taylor
    polynomial of the solution, read off the problem's traced graph."""
    h = (problem.x_end - problem.x0) / divisor
    y, yp = ctx.mpf(problem.y0), ctx.mpf(problem.yp0)
    for n in range(divisor):
        series = ode_series(ctx, problem.graph, problem.x0 + n * h, y, yp, degree)
        y, yp = ctx.mp.polyval(series[::-1], h, derivative=True)
    return y, yp


def test_duffing_true_end_value_regenerates():
    # a cheaper run than the one that produced Y_END: degree 24 at 60 digits,
    # divisor 1000, which is within about 2e-34 of it
    ctx = make_context(60)
    y, yp = taylor_march(duffing(ctx), ctx, 1000, 24)
    assert abs(y - ctx.real(Y_END)) < ctx.mpf(10) ** -32
    assert abs(yp - ctx.real(YP_END)) < ctx.mpf(10) ** -32


@functools.cache
def true_error(method, divisor):
    ctx = make_context(50)
    p = duffing(ctx)
    omega = 0 if method is MethodId.CLASSICAL else p.default_omega
    cfg = StepperConfig(method=method, h=(p.x_end - p.x0) / divisor, omega=omega,
                        startup="taylor")
    return float(abs(integrate(p, cfg, ctx).y_end - ctx.real(Y_END)))


def test_duffing_true_error_resolves_the_method():
    # with Taylor startup, PL'' is accurate to 2e-16 at divisor 500, converges
    # at order 12 and beats the classical method, which the published
    # reference cannot show
    pl2_500 = true_error(MethodId.PL_DOUBLE_PRIME, 500)
    pl2_1000 = true_error(MethodId.PL_DOUBLE_PRIME, 1000)
    assert pl2_500 <= 1e-15
    assert 11 <= math.log2(pl2_500 / pl2_1000) <= 13
    assert pl2_500 < true_error(MethodId.CLASSICAL, 500)


def test_duffing_true_errors_to_three_digits():
    # pins the end errors of the Taylor-startup runs, which rounding in the
    # Taylor program or the step could move only far below these digits
    assert f"{true_error(MethodId.PL_DOUBLE_PRIME, 500):.2e}" == "2.17e-16"
    assert f"{true_error(MethodId.PL_DOUBLE_PRIME, 1000):.2e}" == "5.42e-20"
    assert f"{true_error(MethodId.CLASSICAL, 500):.2e}" == "8.56e-16"
