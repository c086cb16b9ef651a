"""The generated Taylor program against the interpreted one it replaced.

:class:`InterpretedODE` keeps the level loop that filled a
:class:`~obrechkoff.jets.TracedODE` before its levels became generated
code: each op's ``value(k, prec)`` appends coefficient k, and the loop calls
them in program order.  Both must agree bit for bit, so an edit that moves,
drops or adds a rounding in the emitted code shows here.
"""

import math
import traceback

import pytest
from mpmath.libmp import fone, from_int, fzero, mpf_cos_sin, mpf_div, mpf_mul, mpf_sub

from obrechkoff import DomainError, make_context, rational_problem
from obrechkoff.jets import RND, Coefficients, TracedODE, _fdot, _Div, _Leaf, _Lin, _Mul, _SinCos

from test_jets import JACOBIAN_CASES


def _conv(a, b, lo, hi, k):
    """The factors a_j and b_{k-j}, j = lo..hi, of a convolution sum."""
    return a[lo:hi + 1], b[k - hi:k - lo + 1][::-1]


def lin_value(op, k, prec):
    ys = [n.v[k] if k <= n.deg else fzero for n in op.nodes]
    op.out.v.append(_fdot(op.a + [fone], ys + [op.c], prec) if k == 0 else _fdot(op.a, ys, prec))


def mul_value(op, k, prec):
    xs, ys = [], []
    for a, b in op.pairs:
        x, y = _conv(a.v, b.v, max(0, k - b.deg), min(k, a.deg), k)
        xs += x
        ys += y
    op.out.v.append(_fdot(xs, ys, prec))


def div_value(op, k, prec):
    a, b, q = op.a, op.b, op.out.v
    if k == 0 and b.v[0] == fzero:
        raise DomainError("series division by a series with zero constant term")
    num = a.v[k] if k <= a.deg else fzero
    if k:
        num = mpf_sub(num, _fdot(*_conv(q, b.v, max(0, k - b.deg), k - 1, k)))
    q.append(mpf_div(num, b.v[0], prec, RND))


def sincos_value(op, k, prec):
    u, s, c = op.u.v, op.out.v, op.cos.v
    if k == 0:
        cv, sv = mpf_cos_sin(u[0], prec, RND)
    else:
        ju = [mpf_mul(u[j], from_int(j)) for j in range(1, min(k, op.u.deg) + 1)]
        n = len(ju)
        sv = mpf_div(_fdot(ju, c[k - n:k][::-1]), from_int(k), prec, RND)
        cv = mpf_div(_fdot(ju, s[k - n:k][::-1]), from_int(-k), prec, RND)
    s.append(sv)
    c.append(cv)


def leaf_value(op, k, prec):
    c, fc, f, lag = op.out.v, op.f.v, op.f, op.lag
    for j in range(len(c), k + 1):
        c.append(op.start[j] if j < lag else
                 mpf_div(fc[j - lag] if j - lag <= f.deg else fzero,
                         from_int(math.perm(j, lag)), prec, RND))


VALUE = {_Lin: lin_value, _Mul: mul_value, _Div: div_value, _SinCos: sincos_value,
         _Leaf: leaf_value}


def value(op, k, prec):
    VALUE[type(op)](op, k, prec)


class InterpretedODE(TracedODE):
    """A traced f2 filled by the interpreted level loop."""

    def _fill(self, n):
        k = self._levels
        if k > n:
            return
        prec = self._prec
        try:
            while k <= n:
                for leaf in self._leaves:
                    value(leaf, k, prec)
                if self._x_levels <= k:
                    for op in self._x_ops:
                        if k <= op.deg:
                            value(op, k, prec)
                    self._x_levels = k + 1
                for op in self._y_ops:
                    value(op, k, prec)
                k = self._levels = k + 1
        except BaseException:
            self._point = (None, None, None)
            self._reset(on_x=True)
            raise

    def _fill_solution(self, k):
        self._fill(k - 2)
        value(self._leaves[0], k, self._prec)

    def _fill_tangents(self, n):
        self._fill(n)
        prec = self._prec
        try:
            for k in range(self._d_levels, n + 1):
                for op in self._d_ops:
                    value(op, k, prec)
                self._d_levels = k + 1
        except BaseException:
            self._point = (None, None, None)
            self._reset(on_x=True)
            raise


def interpreted(graph):
    """``graph``, filled from now on by the interpreted level loop."""
    graph.__class__ = InterpretedODE
    graph.y = Coefficients(graph, graph._y, graph._fill_solution)
    graph.f = Coefficients(graph, graph._f, graph._fill)
    return graph


POINTS = (("0.7", "0.3", "-0.4"), ("2.1", "-1.2", "0.8"))


def _raw_program(graph, ctx, point, y_first):
    """Raw y_0..y_14 and f_0..f_12 at ``point``, asked for in one of two
    orders (y running ahead of the levels, or behind them), then the
    partials of f2, f4, f6 and the raw tangents df_0..df_4."""
    graph.at(*map(ctx.real, point))
    ys = lambda: [graph.y.raw(k) for k in range(15)]
    fs = lambda: [graph.f.raw(k) for k in range(13)]
    values = (ys(), fs()) if y_first else tuple(reversed((fs(), ys())))
    partials = graph.jacobian(*map(ctx.real, point), (2, 4, 6))
    partials = [tuple(getattr(p, "_mpf_", p) for p in pair) for pair in partials]
    return values, partials, [df.v[:5] for df in graph._df]


@pytest.mark.parametrize("digits", [16, 50, 100])
@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
def test_generated_program_matches_the_interpreted_one(case, digits):
    ctx = make_context(digits)
    graph, oracle = JACOBIAN_CASES[case](ctx), interpreted(JACOBIAN_CASES[case](ctx))
    for y_first, point in zip((True, False), POINTS):
        assert _raw_program(graph, ctx, point, y_first) == _raw_program(oracle, ctx, point, y_first)


@pytest.mark.parametrize("digits", [16, 50, 100])
@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
def test_closures_and_predictor_match_the_interpreted_program(case, digits):
    # the integrator's pattern: f2, f4, f6 at the new node, then the predictor
    # reads y_6 .. y_0 at the same point, then the Jacobian, at a fresh y
    ctx = make_context(digits)
    graphs = JACOBIAN_CASES[case](ctx), interpreted(JACOBIAN_CASES[case](ctx))
    got = []
    for graph in graphs:
        out = []
        for point in POINTS + (("2.1", "0.25", "0.8"),):
            x, y, yp = map(ctx.real, point)
            out += [graph.derivative(k)(x, y, yp)._mpf_ for k in (2, 4, 6)]
            out += [graph.y.raw(k) for k in range(6, -1, -1)]
            out += [p._mpf_ for pair in graph.jacobian(x, y, yp, (2, 4, 6)) for p in pair
                    if not isinstance(p, int)]
        got.append(out)
    assert got[0] == got[1]


def _zero_divisor_cases(ctx):
    """(graph, bad point, good point): a divisor of x alone, then one of y."""
    half = ctx.mpf(-1) / 2
    return [(rational_problem(ctx).graph, (half, ctx.mpf(1), ctx.mpf(-2)),
             (ctx.mpf("0.7"), ctx.mpf("0.3"), ctx.mpf("-0.4"))),
            (TracedODE(lambda x, y, yp: 1 / y), (ctx.mpf(0), ctx.mpf(0), ctx.mpf(1)),
             (ctx.mpf("0.7"), ctx.mpf("0.3"), ctx.mpf("-0.4")))]


@pytest.mark.parametrize("digits", [16, 50, 100])
@pytest.mark.parametrize("which", [0, 1], ids=["x-divisor", "y-divisor"])
@pytest.mark.parametrize("through", ["closure", "jacobian"])
def test_a_fill_that_raises_resets_the_program(which, through, digits):
    ctx = make_context(digits)
    graph, bad, good = _zero_divisor_cases(ctx)[which]
    oracle = interpreted(_zero_divisor_cases(ctx)[which][0])
    graph.derivative(6)(*good)                       # levels already filled at another point
    with pytest.raises(DomainError, match="zero constant term"):
        if through == "closure":
            graph.derivative(6)(*bad)
        else:
            graph.jacobian(*bad, (2, 4, 6))
    assert graph._point == (None, None, None)
    assert not any(graph._x_lists + graph._y_lists)
    assert graph._levels == graph._x_levels == graph._d_levels == 0
    next_point = (good[0] + 1, good[1] / 3, good[2])
    assert _raw_program(graph, ctx, tuple(map(str, next_point)), True) == \
        _raw_program(oracle, ctx, tuple(map(str, next_point)), True)


def test_the_zero_divisor_traceback_quotes_the_generated_line(ctx50):
    graph = rational_problem(ctx50).graph
    with pytest.raises(DomainError) as info:
        graph.derivative(2)(ctx50.mpf(-1) / 2, ctx50.mpf(1), ctx50.mpf(-2))
    text = "".join(traceback.format_exception(info.value))
    # 8 y^2 / (1 + 2x) is a quotient of y, so it sits in the program of y
    assert 'File "<obrechkoff program rational y level 0>", line ' in text
    assert "[0] == fzero: raise DomainError('series division by a series" in text
