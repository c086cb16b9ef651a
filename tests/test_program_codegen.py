"""The fixed-point Taylor program against the interpreted libmp one it replaced.

:class:`InterpretedODE` keeps the level loop that filled a
:class:`~obrechkoff.jets.TracedODE` before its levels became generated
fixed-point code: each op's ``value(k, prec)`` appends coefficient k as a raw
libmp number rounded at prec, and the loop calls them in program order.  At
the working precision it is that earlier program; with ``extra`` bits it gives
the coefficients of the same traced program, at the same point, to far below
the bound that the generated program must meet (``jets`` states it):

    |v - c| <= 2^-prec |c| + 2^-(prec + GUARD_BITS / 2) max(|c|, s)

for every coefficient, closure value and partial v read off it, c being the
exact value and s = (k - 2)! for y^(k) and its partials, 1 for a coefficient.
The comparisons are exact, on rationals.
"""

import math
import traceback
from fractions import Fraction

import pytest
from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpf_cos_sin, mpf_div, mpf_mul,
                          mpf_sub)

from obrechkoff import DomainError, make_context, rational_problem
from obrechkoff.jets import (GUARD_BITS, RND, Coefficients, TracedODE, _Div, _fdot, _Leaf, _Lin,
                             _Mul, _Poly, _raw, _SinCos)

from test_jets import JACOBIAN_CASES


def _conv(a, b, lo, hi, k):
    """The factors a_j and b_{k-j}, j = lo..hi, of a convolution sum."""
    return a[lo:hi + 1], b[k - hi:k - lo + 1][::-1]


def lin_value(op, k, prec):
    ys = [n.v[k] if k <= n.deg else fzero for n in op.nodes]
    op.out.v.append(_fdot(op.a + [fone], ys + [op.c], prec) if k == 0 else _fdot(op.a, ys, prec))


def poly_value(op, k, prec):
    op.out.v.append(op.data[k])


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
    f, lag = op.f, op.lag
    op.out.v.append(mpf_div(f.v[k] if k <= f.deg else fzero, from_int(math.perm(k + lag, lag)),
                            prec, RND))


VALUE = {_Lin: lin_value, _Poly: poly_value, _Mul: mul_value, _Div: div_value,
         _SinCos: sincos_value, _Leaf: leaf_value}


def value(op, k, prec):
    VALUE[type(op)](op, k, prec)


class RawCoefficients(Coefficients):
    """Coefficients held as raw libmp numbers."""

    def raw(self, k):
        if k > self._deg:
            return fzero
        self._graph._fill(k - self._lag)
        return self.c[k]


class InterpretedODE(TracedODE):
    """A traced f2 filled by the interpreted level loop on raw libmp numbers,
    each op rounded at the working precision plus ``extra`` bits."""

    extra = 0

    def at(self, x, y, yp):
        px, py, pyp = self._point
        ctx = y.context
        if x is not px and x != px or ctx.prec != self._prec:
            self._prec, self._make = ctx.prec, ctx.make_mpf
            self._x.v[:] = [_raw(x), fone]
            self._reset(on_x=True)
        elif y is py and yp is pyp:
            return
        else:
            self._reset(on_x=False)
        self._point = (x, y, yp)
        yp = None if yp is None else _raw(yp)
        for (u, up), (u0, up0) in zip(self._pairs, ((_raw(y), yp), (fone, fzero), (fzero, fone))):
            u.v[:], up.v[:] = [u0, up0], [up0]

    def _fill(self, n, tangents=False):
        if self._programs[1 + tangents].filled > n:
            return
        prec = self._prec + self.extra
        try:
            for program in self._programs[:2 + tangents]:
                for k in range(program.filled, n + 1):
                    for op in program.ops:
                        if k <= op.deg:
                            value(op, k, prec)
                    program.filled = k + 1
        except BaseException:
            self._point = (None, None, None)
            self._reset(on_x=True)
            raise

    def _scaled(self, c, k):
        return self._make(mpf_mul(c, from_int(math.factorial(k - 2)), self._prec + self.extra,
                                  RND))

    def derivative(self, k):
        def fk(x, y, yp):
            self.at(x, y, yp)
            if k - 2 > self._f.deg:
                return self._make(fzero)
            self._fill(k - 2)
            return self._scaled(self._f.v[k - 2], k)

        return fk

    def jacobian(self, x, y, yp, orders):
        self.at(x, y, yp)
        if not self._df:
            return [(0, 0) for _ in orders]
        self._fill(max(orders) - 2, tangents=True)
        return [tuple(self._scaled(df.v[k - 2], k) for df in self._df) for k in orders]


def interpreted(graph, extra=0):
    """``graph``, filled from now on by the interpreted level loop."""
    graph.__class__ = InterpretedODE
    graph.extra = extra
    graph.y = RawCoefficients(graph, graph._y, 2)
    graph.f = RawCoefficients(graph, graph._f, 0)
    return graph


def exact(make_graph, digits):
    """The interpreted program with enough extra bits to stand for exact values:
    over twice the fixed-point program's bits, and 400 more for the products
    of the numbers near 1e30 at the scaled points."""
    return interpreted(make_graph(), digits * 4 + 2 * GUARD_BITS + 400)


POINTS = (("0.7", "0.3", "-0.4"), ("2.1", "-1.2", "0.8"))
#: the first point with y and y' scaled down and up, where the program keeps
#: an absolute and a relative error
SCALED = (("0.7", "0.3e-30", "-0.4e-30"), ("0.7", "0.3e30", "-0.4e30"))


def _tangents(graph):
    """The raw tangents df_0..df_4 of either program."""
    if isinstance(graph, InterpretedODE):
        return [c for df in graph._df for c in df.v[:5]]
    return [from_man_exp(m, -graph._P, graph._prec, RND) for df in graph._df for m in df.v[:5]]


def _raw_program(graph, ctx, point, y_first):
    """(value, s) for raw y_0..y_14 and f_0..f_12 at ``point``, asked for in
    one of two orders (y first, or f first), then
    for the partials of f2, f4, f6 and the raw tangents df_0..df_4."""
    graph.at(*map(ctx.real, point))
    ys = lambda: [graph.y.raw(k) for k in range(15)]
    fs = lambda: [graph.f.raw(k) for k in range(13)]
    values = ys() + fs() if y_first else list(reversed(fs() + ys()))
    values = [(v, 1) for v in values]
    partials = graph.jacobian(*map(ctx.real, point), (2, 4, 6))
    values += [(getattr(p, "_mpf_", p), math.factorial(k - 2))
               for k, pair in zip((2, 4, 6), partials) for p in pair]
    return values + [(t, 1) for t in _tangents(graph)]


def _fraction(v):
    """A raw libmp number, or the int 0, as an exact rational."""
    if isinstance(v, int):
        return Fraction(v)
    sign, man, exp, _ = v
    return Fraction((-1) ** sign * man) * Fraction(2) ** exp


def assert_within_bound(got, want, prec):
    """Every (value, s) of ``got`` is rounded to prec bits and meets the
    stated bound around the exact value of ``want``."""
    assert len(got) == len(want)
    unit, guard = Fraction(1, 2 ** prec), Fraction(1, 2 ** (GUARD_BITS // 2))
    for i, ((v, s), (c, _)) in enumerate(zip(got, want)):
        assert isinstance(v, int) or v[3] <= prec, i
        v, c = _fraction(v), _fraction(c)
        assert abs(v - c) <= unit * (abs(c) + guard * max(abs(c), s)), i


@pytest.mark.parametrize("digits", [16, 50, 100])
@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
def test_generated_program_matches_the_interpreted_one(case, digits):
    ctx = make_context(digits)
    graph, oracle = JACOBIAN_CASES[case](ctx), exact(lambda: JACOBIAN_CASES[case](ctx), digits)
    for y_first, point in zip((True, False, True, False), POINTS + SCALED):
        assert_within_bound(_raw_program(graph, ctx, point, y_first),
                            _raw_program(oracle, ctx, point, y_first), ctx.mp.prec)


def _pattern(graph, ctx):
    """The integrator's pattern: f2, f4, f6 at the new node, then the
    predictor reads y_6 .. y_0 at the same point, then the Jacobian, at a
    fresh y."""
    out = []
    for point in POINTS + (("2.1", "0.25", "0.8"),) + SCALED:
        x, y, yp = map(ctx.real, point)
        out += [(graph.derivative(k)(x, y, yp)._mpf_, math.factorial(k - 2)) for k in (2, 4, 6)]
        out += [(graph.y.raw(k), 1) for k in range(6, -1, -1)]
        out += [(p._mpf_, math.factorial(k - 2))
                for k, pair in zip((2, 4, 6), graph.jacobian(x, y, yp, (2, 4, 6))) for p in pair
                if not isinstance(p, int)]
    return out


@pytest.mark.parametrize("digits", [16, 50, 100])
@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
def test_closures_and_predictor_match_the_interpreted_program(case, digits):
    ctx = make_context(digits)
    graph, oracle = JACOBIAN_CASES[case](ctx), exact(lambda: JACOBIAN_CASES[case](ctx), digits)
    assert_within_bound(_pattern(graph, ctx), _pattern(oracle, ctx), ctx.mp.prec)


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
    oracle = exact(lambda: _zero_divisor_cases(ctx)[which][0], digits)
    graph.derivative(6)(*good)                       # levels already filled at another point
    with pytest.raises(DomainError, match="zero constant term"):
        if through == "closure":
            graph.derivative(6)(*bad)
        else:
            graph.jacobian(*bad, (2, 4, 6))
    assert graph._point == (None, None, None)
    assert not any(graph._x_lists + graph._y_lists)
    assert [program.filled for program in graph._programs] == [0, 0, 0]
    next_point = tuple(map(str, (good[0] + 1, good[1] / 3, good[2])))
    assert_within_bound(_raw_program(graph, ctx, next_point, True),
                        _raw_program(oracle, ctx, next_point, True), ctx.mp.prec)


@pytest.mark.parametrize("digits", [16, 50])
def test_magnitudes_far_from_one_keep_an_absolute_or_a_relative_error(digits):
    # one binary point 2^-P, P = prec + GUARD_BITS: a number far below 1 keeps
    # the bits above the point only, one far above keeps all of its own
    ctx = make_context(digits)
    P = ctx.mp.prec + GUARD_BITS
    graph, oracle = JACOBIAN_CASES["duffing"](ctx), exact(lambda: JACOBIAN_CASES["duffing"](ctx),
                                                          digits)
    tiny, huge = (tuple(map(ctx.real, point)) for point in SCALED)
    graph.at(*tiny)
    y0 = _fraction(graph.y.raw(0))
    assert abs(y0 - _fraction(tiny[1]._mpf_)) < Fraction(1, 2 ** P)
    assert (y0 == 0) == (digits == 16)          # 0.3e-30 is about 2^-101.4
    graph.at(*huge)
    assert graph.y.raw(0) == huge[1]._mpf_
    for k in (2, 4, 6):
        got = _fraction(graph.derivative(k)(*huge)._mpf_)
        want = _fraction(oracle.derivative(k)(*huge)._mpf_)
        assert abs(got - want) <= abs(want) * Fraction(1, 2 ** ctx.mp.prec)


def test_the_zero_divisor_traceback_quotes_the_generated_line(ctx50):
    graph = rational_problem(ctx50).graph
    with pytest.raises(DomainError) as info:
        graph.derivative(2)(ctx50.mpf(-1) / 2, ctx50.mpf(1), ctx50.mpf(-2))
    text = "".join(traceback.format_exception(info.value))
    # 8 y^2 / (1 + 2x) is a quotient of y, so it sits in the program of y
    assert 'File "<obrechkoff program rational y level 0>", line ' in text
    assert "[0]: raise DomainError('series division by a series" in text
