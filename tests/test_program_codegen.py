"""The fixed-point Taylor program against the interpreted libmp one it replaced.

:class:`InterpretedODE` keeps the level loop that filled a
:class:`~obrechkoff.jets.TracedODE` before its levels became generated
fixed-point code, with its own coefficient list per node and its own reset:
each op's ``value(k, prec)`` appends coefficient k as a raw libmp number
rounded at prec, and the loop calls them in program order.  At
the working precision it is that earlier program; with ``extra`` bits it gives
the coefficients of the same traced program, at the same point, to far below
the bound that the generated program must meet (``jets`` states it):

    |v - c| <= 2^-prec |c| + 2^-(prec + GUARD_BITS / 2) max(|c|, s)

for every coefficient, closure value and partial v read off it, c being the
exact value and s = (k - 2)! for y^(k) and its partials, 1 for a coefficient.
The comparisons are exact, on rationals.
"""

import math
import random
import traceback
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpf_cos_sin, mpf_div, mpf_mul,
                          mpf_sub, mpf_sum, normalize)

from obrechkoff import DomainError, duffing, jets, make_context, rational_problem
from obrechkoff.jets import (DENSE, GUARD_BITS, PREDICTOR_DEGREE, RND, TURNS, TracedODE, _Div,
                             _fixed, _Leaf, _Lin, _Mul, _Node, _Poly, _raw, _SinCos)

from test_jets import FIXED_PARTIALS_CASES, JACOBIAN_CASES, rounded

#: exponent gap, in bits, up to which a dot product aligns its terms exactly
ALIGN_LIMIT = 1 << 14


def _fdot(xs, ys, prec=0):
    """sum x_i y_i over raw numbers: exact products, summed exactly and
    rounded once at prec (not at all for prec 0).  Non-finite terms, and
    terms too far apart in exponent to align cheaply, go to ``mpf_sum``.
    That is ``mp.fdot``'s rounding, except that a term more than 2 prec bits
    below the running sum is kept, which ``mp.fdot`` drops, so the two can
    differ when such a term decides a rounding tie."""
    man, exp = 0, None
    for (xsign, xman, xexp, _), (ysign, yman, yexp, _) in zip(xs, ys):
        m = xman * yman
        if not m:
            if xexp and not xman or yexp and not yman:
                break
            continue
        if xsign != ysign:
            m = -m
        e = xexp + yexp
        if exp is None:
            man, exp = m, e
        elif e >= exp:
            if e - exp > ALIGN_LIMIT:
                break
            man += m << (e - exp)
        else:
            if exp - e > ALIGN_LIMIT:
                break
            man, exp = (man << (exp - e)) + m, e
    else:
        if not (man and prec):
            return from_man_exp(man, exp) if man else fzero
        sign = man < 0
        man = -man if sign else man
        return normalize(sign, man, exp, man.bit_length(), prec, RND)
    return mpf_sum([mpf_mul(x, y) for x, y in zip(xs, ys)], prec, RND)


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


class RawCoefficients:
    """Coefficients held as raw libmp numbers on the lists of ``node``."""

    def __init__(self, graph, node, lag):
        self._graph, self._node, self._lag = graph, node, lag

    def raw(self, k):
        if k > self._node.deg:
            return fzero
        self._graph._fill(k - self._lag)
        return self._node.v[k]


class InterpretedODE(TracedODE):
    """A traced f2 filled by the interpreted level loop on raw libmp numbers,
    each op rounded at the working precision plus ``extra`` bits."""

    extra = 0

    def _reset(self, on_x):
        """Clear the lists of y and of the tangents, with ``on_x`` those of x."""
        for program in self._programs[not on_x:]:
            for node in program.nodes:
                node.v[:] = []
            program.filled = 0

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
    """``graph``, filled from now on by the interpreted level loop: a list
    for every node, and per program (x, y, tangents) its ops, the nodes they
    fill and its count of filled levels."""
    graph.__class__ = InterpretedODE
    graph.extra, graph._point, graph._prec = extra, (None, None, None), None
    leaves = [op for op in graph._d_ops if isinstance(op, _Leaf)]
    ws = [op.out for op in leaves if op.lag == 2]
    wps = [op.out for op in leaves if op.lag == 1] or [_Node(DENSE) for _ in ws]
    graph._pairs = [(graph._y, graph._yp)] + list(zip(ws, wps))
    graph._programs = []
    for ops in (graph._x_ops, graph._y_ops + graph._leaves, graph._d_ops):
        nodes = [node for op in ops for node in (op.out, getattr(op, "cos", None)) if node]
        graph._programs.append(SimpleNamespace(ops=ops, nodes=nodes, filled=0))
    for node in [n for p in graph._programs for n in p.nodes] + [n for p in graph._pairs for n in p]:
        if node.v is None:
            node.v = []
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


def _coefficients(graph, point, n, upward=False):
    """Raw y_0..y_{n+2} and f_0..f_n at ``point`` of either program: the
    generated one's ``read`` through level n, or with ``upward`` f_k by one
    read of each level k in turn, rounded out; the interpreted one's lists."""
    if isinstance(graph, InterpretedODE):
        graph.at(*point)
        return [graph.y.raw(k) for k in range(n + 3)], [graph.f.raw(k) for k in range(n + 1)]
    fs = [rounded(graph, point, k)[1][k] for k in range(n + 1)] if upward else None
    ys, f = rounded(graph, point, n)[:2]
    return ys[:n + 3], fs if upward else f[:n + 1]


def _tangents(graph, point):
    """The raw tangents df_0..df_4 of either program."""
    if isinstance(graph, InterpretedODE):
        return [c for df in graph._df for c in df.v[:5]]
    return [c for df in rounded(graph, point, 4, tangents=True)[2:] for c in df[:5]]


def _raw_program(graph, ctx, point, y_first):
    """(value, s) for raw y_0..y_14 and f_0..f_12 at ``point``, asked for in
    one of two ways (y first, all at once, or f first, a level at a time),
    then for the partials of f2, f4, f6 and the raw tangents df_0..df_4."""
    point = tuple(map(ctx.real, point))
    ys, fs = _coefficients(graph, point, 12, upward=not y_first)
    values = ys + fs if y_first else list(reversed(fs + ys))
    values = [(v, 1) for v in values]
    partials = graph.jacobian(*point, (2, 4, 6))
    values += [(getattr(p, "_mpf_", p), math.factorial(k - 2))
               for k, pair in zip((2, 4, 6), partials) for p in pair]
    return values + [(t, 1) for t in _tangents(graph, point)]


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
        out += [(c, 1) for c in _coefficients(graph, (x, y, yp), 4)[0][6::-1]]
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


@pytest.mark.parametrize("digits", [16, 50, 100])
@pytest.mark.parametrize("case", ["duffing", "linear"])
def test_a_pair_turned_along_a_grid_keeps_the_bound(monkeypatch, case, digits):
    # x_n = n pi/1000, rounded at prec as the integrator forms its nodes: the
    # sin/cos pair of x is turned at all but a few nodes, and at the nodes
    # TURNS turns after an mpf_cos_sin the pair lies within TURNS units 2^-P
    # of mpf_cos_sin's and the program still meets the bound
    calls = []
    monkeypatch.setattr(jets, "mpf_cos_sin", lambda *a: calls.append(a) or mpf_cos_sin(*a))
    ctx = make_context(digits)
    graph, oracle = JACOBIAN_CASES[case](ctx), exact(lambda: JACOBIAN_CASES[case](ctx), digits)
    pair, = [op for op in graph._x_ops if isinstance(op, _SinCos)]
    P = ctx.mp.prec + GUARD_BITS
    h, y, yp = ctx.mp.pi / 1000, ctx.real("0.3"), ctx.real("-0.4")
    checks = [m * (TURNS + 1) for m in (1, 2, 3)]
    for n in range(checks[-1] + 1):
        point = (n * h, y, yp)
        if n in checks:
            assert_within_bound(_raw_program(graph, ctx, point, n % 2),
                                _raw_program(oracle, ctx, point, n % 2), ctx.mp.prec)
            cv, sv = mpf_cos_sin(from_man_exp(pair.u.v[0], -P), P, RND)
            assert abs(pair.out.v[0] - jets._fixed(sv, P)) <= TURNS
            assert abs(pair.cos.v[0] - jets._fixed(cv, P)) <= TURNS
        else:
            graph.read(*point, 0)
    assert len(calls) <= 3 + checks[-1] // TURNS


def test_a_sin_cos_level_shifts_before_it_divides(ctx50):
    # level k >= 2 of a sin/cos pair is floor(a / (k 2^P)); the generated code
    # takes floor(floor(a / 2^P) / k), the same integer for every a, negative
    # ones included, at the cost of a shift and a short division
    rng = random.Random(20261022)
    for P in (64, 372):
        for k in range(2, 40):
            edges = [-(k << P) + d for d in (-1, 0, 1)] + [-(1 << P), -1, 0, 1]
            for a in edges + [rng.randrange(-(1 << 2 * P + 20), 1 << 2 * P + 20)
                              for _ in range(50)]:
                assert (a >> P) // k == a // (k << P), (P, k, a)
    pair, = [op for op in duffing(ctx50).graph._x_ops if isinstance(op, _SinCos)]
    names = SimpleNamespace(ref=lambda node, j: f"v{id(node)}[{j}]")
    for k in (2, 3, 7):
        values = [value for _, _, value in pair.emit(k, names)]
        assert all(v.endswith(f" >> P) // {k}") and "<< P" not in v for v in values)


def _zero_divisor_cases(ctx):
    """(graph, bad point, good point): a divisor of x alone, then one of y."""
    half = ctx.mpf(-1) / 2
    return [(rational_problem(ctx).graph, (half, ctx.mpf(1), ctx.mpf(-2)),
             (ctx.mpf("0.7"), ctx.mpf("0.3"), ctx.mpf("-0.4"))),
            (TracedODE(lambda x, y, yp: 1 / y), (ctx.mpf(0), ctx.mpf(0), ctx.mpf(1)),
             (ctx.mpf("0.7"), ctx.mpf("0.3"), ctx.mpf("-0.4")))]


@pytest.mark.parametrize("digits", [16, 50, 100])
@pytest.mark.parametrize("which", [0, 1], ids=["x-divisor", "y-divisor"])
@pytest.mark.parametrize("through", ["closure", "jacobian", "read"])
def test_a_fill_that_raises_resets_the_program(which, through, digits):
    ctx = make_context(digits)
    graph, bad, good = _zero_divisor_cases(ctx)[which]
    oracle = exact(lambda: _zero_divisor_cases(ctx)[which][0], digits)
    graph.derivative(6)(*good)                       # levels already filled at another point
    with pytest.raises(DomainError, match="zero constant term"):
        if through == "closure":
            graph.derivative(6)(*bad)
        elif through == "jacobian":
            graph.jacobian(*bad, (2, 4, 6))
        else:
            graph.read(*bad, 4)
    assert graph._cold is None and graph._here == [None, None]
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
    y0 = _fraction(rounded(graph, tiny, 0)[0][0])
    assert abs(y0 - _fraction(tiny[1]._mpf_)) < Fraction(1, 2 ** P)
    assert (y0 == 0) == (digits == 16)          # 0.3e-30 is about 2^-101.4
    assert rounded(graph, huge, 0)[0][0] == huge[1]._mpf_
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
    assert 'File "<obrechkoff program rational levels 0-4>", line ' in text
    assert "[0]: raise DomainError('series division by a series" in text


#: the graphs whose step reads are checked against their cold reads
STEP_CASES = {**{case: JACOBIAN_CASES[case] for case in ("duffing", "linear", "rational")},
              **{f"fixed-partials-{case}": lambda ctx, f2=f2: TracedODE(f2)
                 for case, (f2, _) in FIXED_PARTIALS_CASES.items()}}


@pytest.mark.parametrize("digits", [16, 50])
@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_the_step_reads_equal_the_cold_reads(case, digits):
    # even, predict and tangents give, bit for bit, (f_0, 2 f_2, 24 f_4), the
    # Horner sums over y_0..y_7 of levels 0-5, and the partials of jacobian
    # before rounding, at an x the cold read filled and at an equal new one
    ctx = make_context(digits)
    graph, prec = STEP_CASES[case](ctx), ctx.mp.prec
    P = prec + GUARD_BITS
    h, hs = _fixed(_raw(ctx.mpf("0.0123")), P), P
    for point in POINTS + SCALED + (("2.1", "0.25", "0.8"),):
        x, y, yp = map(ctx.real, point)
        _, ys, fs, *dfs = graph.read(x, y, yp, PREDICTOR_DEGREE - 2, tangents=True)
        s, d = ys[PREDICTOR_DEGREE], 0
        for a in ys[PREDICTOR_DEGREE - 1::-1]:
            s, d = a + (h * s >> hs), s + (h * d >> hs)
        partials = [tuple(df[k] * math.factorial(k) for k in (0, 2, 4)) for df in dfs]
        for at in (x, +x):
            assert graph.even(at, ys[0], ys[1], prec) == (fs[0], 2 * fs[2], 24 * fs[4])
            assert graph.predict(at, ys[0], ys[1], prec, h, hs) == (s, d)
            assert graph.tangents(at, ys[0], ys[1], prec) == tuple(partials or [(0, 0, 0)] * 2)
    if case == "rational":
        # a zero divisor inside even raises, and the next reads keep the bound
        with pytest.raises(DomainError, match="zero constant term"):
            graph.even(ctx.mpf(-1) / 2, 1 << P, -(2 << P), prec)
        oracle = exact(lambda: STEP_CASES[case](ctx), digits)
        x, y, yp = map(ctx.real, POINTS[0])
        got = graph.even(x, _fixed(y._mpf_, P), _fixed(yp._mpf_, P), prec)
        assert_within_bound([(from_man_exp(m, -P, prec, RND), s) for m, s in zip(got, (1, 2, 24))],
                            [(oracle.derivative(k)(x, y, yp)._mpf_, 1) for k in (2, 4, 6)], prec)
        assert_within_bound(_raw_program(graph, ctx, POINTS[1], True),
                            _raw_program(oracle, ctx, POINTS[1], True), prec)
