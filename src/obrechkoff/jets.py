"""Taylor series of the solution of y'' = f2(x, y, y'), compiled from one trace of f2.

:class:`TracedODE` calls f2 once, on :class:`Series` stand-ins for x, y and
y'.  The call records a graph, which is compiled at once into a flat,
topologically ordered program of four kinds of op: linear combinations
(chains of add, neg and scalar multiply, fused), products, quotients and
sin/cos pairs.  Closed by y_{k+2} = f_k / ((k+1)(k+2)) and
y'_{k+1} = f_k / (k+1), the program gives the Taylor series of the solution
through any point (x, y, y'), so every derivative y^(k) = (k-2)! f_{k-2}
follows from f2 alone.  These are the Taylor-method recurrences of Jorba &
Zou, *Exp. Math.* 14 (2005), and of TIDES (Abad, Barrio, Blesa & Rodriguez,
*ACM TOMS* 39, 2012).

The program runs level by level.  Level k forms coefficient k of every op,
then those of the solution that f_k determines, y_{k+2} and (when f2 reads
y') y'_{k+1}; the point gives y_0, y_1 = y'_0 and y'_0.  It works in
fixed point: a coefficient c is the Python int m with c = m 2^-P, at one
binary point P = prec + GUARD_BITS set by the working precision prec of the
point, not by the point.  A product is one exact integer sum of products,
shifted by P once; a linear combination takes its constants as integer
weights over their least exponent, one exact sum and one shift; a quotient
divides one exact sum by b_0, and the solution by the integer (k+1)(k+2) or
k+1.  Each shift or division rounds down, so each op adds less than one unit
2^-P to the errors its inputs carry.  Level 0 of a sin/cos pair takes sin
and cos of u_0 from ``mpf_cos_sin`` at P bits, except where u depends on x
alone and x walks a uniform grid: there the last pair is turned by the step
in u with a few integer products (``_Turn``), and ``mpf_cos_sin`` is called
only at an irregular step and after every TURNS turns.  libmp is met only
at the boundary: the program of x converts x in (``read`` y and y' too),
level 0 of a sin/cos pair calls ``mpf_cos_sin`` where it does not turn, the
x program converts the constants of polynomial nodes, and ``_out`` is the
one way out of the binary point, an int at 2^-P rounded to nearest at the
working precision of its context: ``derivative``, ``jacobian`` and
``ode_series`` here, and the integrator's results, the coefficient weights,
the stability pair and the closures' arguments elsewhere, leave through it.

No op list is interpreted, and no list holds a coefficient of y, y' or a
tangent: the ops' lines, level after level in program order with the index
ranges, degree cuts and integer weights fixed, are generated into functions
whose coefficients are Python locals, leaving out each line that no result
reads, and compiled under a filename such as ``<obrechkoff program duffing
even>`` that tracebacks and profiles quote.  The step calls ``even``,
``predict`` and ``tangents``; every other read is one ``read`` at a given
point, which runs one ``levels`` function through level max(n, 4) for a
read of level n.  Ops of x alone fill lists of their own, once per new
abscissa through level PREDICTOR_DEGREE - 2, the x object compared before
its value; a sin/cos level of x itself takes no product by x_1 = 2^P.

Error bound.  A value v read off the program (a coefficient, a derivative
y^(k) = (k-2)! f_{k-2} or one of its partials) lies within

    |v - c| <= 2^-prec |c| + 2^-(prec + GUARD_BITS / 2) max(|c|, s)

of the exact value c of the traced program at the point, s being (k-2)!
for y^(k) and its partials and 1 for a coefficient.  The first term is the
rounding out; the second leaves 2^20 units 2^-P for the errors that the
recurrences carry, measured at under 2^11 units of max(|c|, s) on the
problems and the test cases at 16, 50 and 100 digits, at every 100th node of
x = n pi/1000, n < 3000.  With every sin/cos pair fresh that was 2^6.3; a
turned pair lies within TURNS units of ``mpf_cos_sin``'s (measured under
2^5), and linear's 99 sin x scales that by 99.  Below 1 the error is
absolute: a coefficient of size 2^-m keeps about P - m bits, and one below
2^-P reads 0, as y = 1e-30 does at 16 digits.  The bound covers that, as the
step's acceptance test is absolute below |Phi| = 1 and the step weights
scale f_k by h^k.  Above 1 the integers grow and keep every bit above the
point, so the error is relative.  A quotient multiplies the errors of its
inputs by up to 1/|b_0|, so b_0 = 2^-m spends m guard bits; the program
adds none, and the bound is checked for |b_0| >= 0.1 (every quotient of the
benchmark problems has b_0 = 1 + 2x >= 1).  inf, nan and numbers of
2^RANGE_BITS or more are a DomainError, since the integers are as long as
the numbers are large.
The partials d/dy and d/dy' solve the variational equation w'' = df2/dy w +
df2/dy' w' from (w, w') = (1, 0) and (0, 1): the trace, differentiated
once along each seed, compiles into a program of the same ops, whose level
k closes with w_{k+2} = (df)_k / ((k+1)(k+2)) and w'_{k+1} = (df)_k / (k+1),
run after the values at each level.  The seeds
that are 0 (w_1 = w'_0 = 0 along y, w_0 = 0 along y'), and the coefficients
that only they feed, are left out of the generated sums.
"""

from __future__ import annotations

import collections
import functools
import linecache
import math
import re

from mpmath.libmp import from_float, from_int, from_man_exp, mpf_cos_sin, round_nearest

from .errors import DomainError

#: degree of a series whose coefficients are not known to end
DENSE = math.inf

RND = round_nearest

#: bits the Taylor program keeps below the working precision: its binary
#: point is 2^-(prec + GUARD_BITS)
GUARD_BITS = 40

#: the Taylor program takes numbers below 2^RANGE_BITS in magnitude: its
#: integers are as long as the numbers are large
RANGE_BITS = 1 << 16

#: turns of a sin/cos pair between two ``mpf_cos_sin`` values (``_Turn``): each
#: turn adds under one unit 2^-P to the errors of sin and cos, so a turned
#: pair lies within TURNS units of ``mpf_cos_sin``'s
TURNS = 1024

#: degree of the Taylor polynomial that predicts each step (``predict``); the
#: lists of x are filled through its level PREDICTOR_DEGREE - 2 at every new
#: abscissa, the deepest that the step reads
PREDICTOR_DEGREE = 7

#: the seeds (w_0, w'_0) of the variational program, in units of 2^P: the
#: partials along y and along y'
_SEEDS = ((1, 0), (0, 1))


class Series:
    """One node of a traced f2: an operation on power series, recorded for
    :class:`TracedODE` to compile, never evaluated itself.

    ``kind`` is ``var`` (x, y, y' or a tangent of y or y'), ``poly`` (the
    coefficients ``data``), ``lin`` (``data`` = (constant, coefficients of
    ``args``)), ``mul`` (the sum of the products of the pairs of factors in
    ``args``), ``div``, ``sincos`` (``data`` = its halves) or one of its
    halves ``sin`` and ``cos``.  ``deg`` bounds the degree and ``on_y`` tells
    whether the node depends on y or y'.
    """

    __slots__ = ("kind", "args", "data", "deg", "on_y")

    def __init__(self, kind, args=(), data=None, deg=DENSE, on_y=True):
        self.kind, self.args, self.data, self.deg, self.on_y = kind, args, data, deg, on_y

    @classmethod
    def given(cls, coeffs):
        """The polynomial with the given coefficients."""
        return cls("poly", (), tuple(coeffs), len(coeffs) - 1, False)

    def __add__(self, other):
        c, terms = _linear(self)
        oc, oterms = _linear(_lift(other))
        for node, a in oterms.items():
            terms[node] = terms[node] + a if node in terms else a
        return _combination(c + oc, terms)

    def __neg__(self):
        return _scaled(self, -1)

    def __sub__(self, other):
        return self + -_lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _lift(other)
        if _is_scalar(other):
            return _scaled(self, other.data[0])
        if _is_scalar(self):
            return _scaled(other, self.data[0])
        return Series("mul", (self, other), None, self.deg + other.deg, self.on_y or other.on_y)

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other):
        other = _lift(other)
        return Series("div", (self, other), None, self.deg if other.deg == 0 else DENSE,
                      self.on_y or other.on_y)

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1:
            raise DomainError("series power requires a positive integer exponent")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def sin_cos(self):
        """Series of sin(self) and cos(self), computed together."""
        deg = 0 if self.deg == 0 else DENSE
        pair = Series("sincos", (self,), None, deg, self.on_y)
        pair.data = (Series("sin", (pair,), None, deg, self.on_y),
                     Series("cos", (pair,), None, deg, self.on_y))
        return pair.data


def _lift(x):
    return x if isinstance(x, Series) else Series.given([x])


def _is_scalar(s):
    return s.kind == "poly" and s.deg == 0


def _linear(s):
    """(c, {node: a}) with s = c + sum a * node."""
    if s.kind == "lin":
        return s.data[0], dict(zip(s.args, s.data[1]))
    if _is_scalar(s):
        return s.data[0], {}
    return 0, {s: 1}


def _combination(c, terms):
    if not terms:
        return Series.given([c])
    if len(terms) == 1 and c == 0:
        (node, a), = terms.items()
        if a == 1:
            return node
    nodes = tuple(terms)
    return Series("lin", nodes, (c, tuple(terms.values())), max(n.deg for n in nodes),
                  any(n.on_y for n in nodes))


def _scaled(s, a):
    c, terms = _linear(s)
    return _combination(c * a, {node: b * a for node, b in terms.items()})


def _tangent(order, seeds):
    """The tangent of the last node of ``order`` (a postorder), the variables
    in ``seeds`` moving along the series they map to; None where it is zero."""
    d = {}
    for s in order:
        da = [d[a] for a in s.args]
        if all(t is None for t in da):
            d[s] = seeds.get(s)
        elif s.kind == "lin":                 # d(sum a u) = sum a du
            d[s] = sum((t * a for a, t in zip(s.data[1], da) if t is not None), 0)
        elif s.kind == "mul":                 # d(uv) = du v + u dv, as one sum of products
            a = s.args
            pairs = [p for i in range(0, len(a), 2) for p in ((da[i], a[i + 1]), (a[i], da[i + 1]))]
            d[s] = Series("mul", sum((p for p in pairs if None not in p), ()))
        elif s.kind == "div":                 # d(u/v) = (du - (u/v) dv) / v
            (du, dv), v = da, s.args[1]
            d[s] = (du if dv is None else -(s * dv) if du is None else du - s * dv) / v
        elif s.kind == "sincos":              # the tangent of its argument, for its halves
            d[s] = da[0]
        else:                                 # d sin u = cos u du, d cos u = -sin u du
            sin, cos = s.args[0].data
            d[s] = cos * da[0] if s.kind == "sin" else -(sin * da[0])
    return d[order[-1]]


class ops:
    """sin and cos of a traced series or of an mpmath number, for writing f2."""

    @staticmethod
    def sin(u):
        return u.sin_cos()[0] if isinstance(u, Series) else u.context.sin(u)

    @staticmethod
    def cos(u):
        return u.sin_cos()[1] if isinstance(u, Series) else u.context.cos(u)


def _raw(v):
    """The raw libmp value of an mpmath real, an int or a float."""
    try:
        return v._mpf_
    except AttributeError:
        pass
    if isinstance(v, int):
        return from_int(v)
    if isinstance(v, float):
        return from_float(v)
    raise DomainError(f"a traced f2 takes real numbers, not {type(v).__name__}")


def in_range(v):
    """Whether the raw number v is finite and below 2^RANGE_BITS in magnitude."""
    return v[2] + v[3] <= RANGE_BITS if v[1] else not v[2]


def _signed(v):
    """(m, e) with the raw number v = m 2^e."""
    if not in_range(v):
        raise DomainError("a Taylor program takes finite numbers below 2^RANGE_BITS "
                          "in magnitude")
    sign, man, exp, _ = v
    return -man if sign else man, exp


def _fixed(v, P):
    """The raw number v as an integer at the binary point 2^-P, rounded down."""
    m, e = _signed(v)
    e += P
    return m << e if e >= 0 else m >> -e


def _out(mp, m, P):
    """The int m at 2^-P as an mpf of ``mp``, rounded to nearest at mp.prec:
    the one way out of the binary point, as ``_fixed`` is the way in."""
    return mp.make_mpf(from_man_exp(m, -P, mp.prec, RND))


def _integer_weights(values):
    """(s, weights): the raw numbers ``values`` as integers over 2^-s, -s
    being their least exponent below 0 (s = 0 when none is)."""
    signed = [_signed(r) for r in values]
    s = -min((e for m, e in signed if e < 0), default=0)
    return s, [m << e + s for m, e in signed]


def _sum(terms):
    """Python source for the sum of the source terms ``terms``, 0 for none."""
    return " + ".join(terms).replace("+ -", "- ") or "0"


def _times(w, ref):
    """Python source for the int w times the source ``ref``."""
    return ref if w == 1 else f"-{ref}" if w == -1 else f"{w} * {ref}"


def _conv(a, b, lo, hi, k, ref):
    """Source for the factors (a_j, b_{k-j}), j = lo..hi, of a convolution sum,
    leaving out the pairs with a factor known to be 0."""
    pairs = ((ref(a, j), ref(b, k - j)) for j in range(lo, hi + 1))
    return [(p, q) for p, q in pairs if p and q]


class _Node:
    """One compiled node: its degree, the indices ``zero`` of the coefficients
    that are 0 at every point, and ``v``, the list of its coefficients when it
    depends on x alone (None where they are locals of the generated code)."""

    __slots__ = ("v", "deg", "zero")

    def __init__(self, deg, zero=(), listed=False):
        self.v, self.deg, self.zero = [] if listed else None, deg, set(zero)


# ops: emit(k, names) returns the source that sets coefficient k of their
# outputs, once every coefficient below k is in place: statements, and
# (node, k, value) for each coefficient, value "0" marking it as known to be 0
# for the ops that read it to leave out.  names.ref(node, j) is the source of
# coefficient j of a node, names(c) the identifier of a raw constant.  A
# coefficient is an int m standing for m 2^-P, P the binary point of the
# generated function; the raw constants (``a``, ``c``, ``data``) are kept as
# given.

class _Poly:
    """The coefficients of a polynomial constant, converted once per fill of x."""

    def __init__(self, out, data):
        self.out, self.deg, self.data = out, out.deg, data

    def emit(self, k, names):
        return [(self.out, k, f"_fixed({names(self.data[k])}, P)" if self.data[k][1] else "0")]


class _Lin:
    """c + sum a_i n_i.  An integer constant is an integer weight; the others
    are integer weights over their least exponent -s, summed exactly and
    shifted by s once, which rounds the whole sum down once."""

    def __init__(self, out, c, a, nodes):
        self.out, self.deg, self.nodes = out, out.deg, nodes
        self.a, self.c = [_raw(x) for x in a], _raw(c)
        self.s, weights = _integer_weights(self.a + [self.c])
        # (weight, whether it is over 2^-s), per node and for c
        self.w = [(w, True) if w % (1 << self.s) else (w >> self.s, False) for w in weights]

    def emit(self, k, names):
        refs = [names.ref(n, k) for n in self.nodes]
        refs.append("(1 << P)" if k == 0 else None)
        terms = {False: [], True: []}
        for (w, shifted), ref in zip(self.w, refs):
            if w and ref:
                terms[shifted].append(_times(w, ref))
        if terms[True]:
            terms[False].append(f"(({_sum(terms[True])}) >> {self.s})")
        return [(self.out, k, _sum(terms[False]))]


class _Mul:
    """sum_i a_i b_i over the pairs of factors (a_i, b_i), in one integer sum,
    where a product that recurs (as in a square, or in d(uv) = du v + u dv
    along u = v) is taken once with its count."""

    def __init__(self, out, factors):
        self.out, self.deg = out, out.deg
        self.pairs = list(zip(factors[::2], factors[1::2]))

    def emit(self, k, names):
        counts = collections.Counter(
            tuple(sorted(t)) for a, b in self.pairs
            for t in _conv(a, b, max(0, k - b.deg), min(k, a.deg), k, names.ref))
        terms = [_times(n, " * ".join(t)) for t, n in counts.items()]
        return [(self.out, k, f"({_sum(terms)}) >> P" if terms else "0")]


class _Div:
    """q = a / b from q_k b_0 = a_k - sum_{j<k} q_j b_{k-j}, one integer division."""

    def __init__(self, out, a, b):
        self.out, self.deg, self.a, self.b = out, out.deg, a, b

    def emit(self, k, names):
        b0, a = names.ref(self.b, 0) or "0", names.ref(self.a, k)
        terms = [f"({a} << P)"] if a else []
        terms += [f"-{qj} * {bj}" for qj, bj in
                  _conv(self.out, self.b, max(0, k - self.b.deg), k - 1, k, names.ref)]
        value = [(self.out, k, f"({_sum(terms)}) // {b0}" if terms else "0")]
        if k:
            return value
        return [f"if not {b0}: raise DomainError("
                "'series division by a series with zero constant term')"] + value


class _Turn:
    """(sin u, cos u) as ints at 2^-P for the argument u of one sin/cos pair of
    x alone, called with u at each new x.  Where u steps from the last u by
    the step d of the last miss, up to e with e^2 < 2^-P, the last pair is
    turned by d + e, rounding to nearest: (cos d, sin d) is formed at the
    first such turn and kept GUARD_BITS below the point, and (cos e, sin e)
    is taken as (1 - e^2 / 2, e), so the turn's own rounding, under one
    unit, is its error.  Elsewhere, and after TURNS turns, the pair is
    ``mpf_cos_sin``'s at P bits rounded down, as at every miss."""

    __slots__ = ("P", "u", "s", "c", "d", "cs", "turns")

    def __init__(self):
        self.P, self.u, self.d = None, 0, 0

    def __call__(self, u, P):
        d = u - self.u
        e = d - self.d
        if P != self.P or e * e >> P:       # a new step: its pair is formed when it recurs
            self.P, self.d, self.cs, self.turns = P, d, None, TURNS
        if self.turns < TURNS:
            Q = P + GUARD_BITS
            if self.cs is None:
                cv, sv = mpf_cos_sin(from_man_exp(self.d, -P), Q, RND)
                self.cs = _fixed(cv, Q), _fixed(sv, Q)
            (cd, sd), s, c = self.cs, self.s, self.c
            if e:
                e <<= GUARD_BITS
                e2 = e * e >> Q + 1
                cd, sd = cd - (cd * e2 + sd * e >> Q), sd + (cd * e - sd * e2 >> Q)
            half = 1 << Q - 1
            s, c = s * cd + c * sd + half >> Q, c * cd - s * sd + half >> Q
            self.turns += 1
        else:
            cv, sv = mpf_cos_sin(from_man_exp(u, -P), P, RND)
            s, c, self.turns = _fixed(sv, P), _fixed(cv, P), 0
        self.u, self.s, self.c = u, s, c
        return s, c


class _SinCos:
    """s_k = sum_{j=1..k} j u_j c_{k-j} / k and c_k = -sum_{j=1..k} j u_j s_{k-j} / k;
    s_0 and c_0 come from ``mpf_cos_sin`` at P bits, through a :class:`_Turn`
    (``turn``) where u depends on x alone.  A pair of y is not turned: the
    iterates of a step do not step uniformly, so its turn would miss at every
    call (as on y'' = -sin y) and cost the call and the miss's bookkeeping.
    Of x itself (``bare``), u_1 = 2^P, so s_k = c_{k-1} / k and c_k =
    -s_{k-1} / k exactly, with no product."""

    def __init__(self, out, cos, u, turn, bare):
        self.out, self.cos, self.u, self.deg, self.turn, self.bare = out, cos, u, out.deg, turn, bare

    def emit(self, k, names):
        u, s, c, ref = self.u, self.out, self.cos, names.ref
        if k == 0 and self.turn:
            return [f"sv, cv = {names(self.turn)}({ref(u, 0) or 0}, P)", (s, 0, "sv"), (c, 0, "cv")]
        if k == 0:
            return [f"cv, sv = mpf_cos_sin(from_man_exp({ref(u, 0) or 0}, -P), P, RND)",
                    (s, 0, "_fixed(sv, P)"), (c, 0, "_fixed(cv, P)")]
        div = "" if k == 1 else f" // {k}"  # floor(floor(a / 2^P) / k) = floor(a / (k 2^P))
        if self.bare:
            return [(s, k, f"{ref(c, k - 1)}{div}"), (c, k, f"(-{ref(s, k - 1)}){div}")]
        ju = [(_times(j, ref(u, j)), j) for j in range(1, min(k, self.u.deg) + 1) if ref(u, j)]
        sin = _sum([f"{x} * {ref(c, k - j)}" for x, j in ju])
        cos = _sum([f"{x} * {ref(s, k - j)}" for x, j in ju])
        return [(s, k, f"(({sin}) >> P){div}"), (c, k, f"(-({cos}) >> P){div}")]


class _Leaf:
    """The coefficient of the solution that f_k determines,
    y_{k+2} = f_k / ((k+1)(k+2)) (lag 2), or of its slope,
    y'_{k+1} = f_k / (k+1) (lag 1); the point gives those below the lag."""

    deg = DENSE

    def __init__(self, out, f, lag):
        self.out, self.f, self.lag = out, f, lag

    def emit(self, k, names):
        value, div = names.ref(self.f, k), math.perm(k + self.lag, self.lag)
        if value and div > 1:
            value += f" // {div}"
        return [(self.out, k + self.lag, value or "0")]


#: the globals every generated function reads besides its lists and constants
_HELPERS = {"_fixed": _fixed, "mpf_cos_sin": mpf_cos_sin, "from_man_exp": from_man_exp,
            "RND": RND, "DomainError": DomainError}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


class _Names(dict):
    """The globals of one graph's generated code: the helpers, then each list
    of x, raw constant and turn that the code reads, under the identifier that
    calling the namespace with it returns.  ``ref(node, k)`` is the source of
    coefficient k of a node: ``v3[k]`` for a list, the local ``v3_k`` (or the
    name ``given`` for the point and the seeds), None where it is known to be 0."""

    def __init__(self, given):
        super().__init__(_HELPERS)
        self._ids, self.given = {}, given

    def bind(self, item, ident):
        if item not in self._ids:
            self._ids[item] = ident
            self[ident] = item.v if isinstance(item, _Node) else item

    def __call__(self, item):
        if item not in self._ids:
            kind = "v" if isinstance(item, _Node) else "turn" if isinstance(item, _Turn) else "c"
            self.bind(item, f"{kind}{len(self._ids)}")
        return self._ids[item]

    def ref(self, node, k):
        if k > node.deg or k in node.zero:
            return None
        ident = self(node)
        return f"{ident}[{k}]" if node.v is not None else self.given.get((node, k), f"{ident}_{k}")


def _compiled(source, filename):
    """``source`` compiled under ``filename``, its lines put in ``linecache`` so
    that tracebacks, pdb and profiles quote them; a filename already holding
    other lines gets a serial number."""
    lines = source.splitlines(True)
    name, n = filename, 1
    while linecache.cache.get(name, (None, None, lines))[2:3] != (lines,):
        n += 1
        name = f"{filename[:-1]} #{n}>"
    linecache.cache[name] = (len(source), None, lines, name)
    return _code(source, name)


@functools.lru_cache(maxsize=1024)
def _code(source, filename):
    """``source`` compiled; graphs traced from the same f2, one per cell of a
    run, share it."""
    return compile(source, filename, "exec")


def _postorder(root):
    """Every node below root, each after its arguments."""
    order, done, stack = [], set(), [root]
    while stack:
        node = stack[-1]
        pending = [a for a in node.args if a not in done]
        if pending:
            stack += pending
            continue
        stack.pop()
        if node not in done:
            done.add(node)
            order.append(node)
    return order


def _compile(order, nodes, ops, lists):
    """Compile the nodes of ``order`` (a postorder) that ``nodes`` lacks into
    it: each op goes to ops[on_y], ``on_y`` telling whether it depends on y or
    y', and the lists that the ops of x alone fill to ``lists``."""
    for s in order:
        if s in nodes:
            continue
        if s.kind in ("sin", "cos"):
            nodes[s] = nodes[s.args[0]][s.kind == "cos"]
            continue
        args = [nodes[a] for a in s.args]
        outs = (_Node(s.deg, listed=not s.on_y),)
        if s.kind == "poly":
            op = _Poly(*outs, [_raw(c) for c in s.data])
        elif s.kind == "lin":
            op = _Lin(*outs, *s.data, args)
        elif s.kind == "sincos":
            outs += (_Node(s.deg, listed=not s.on_y),)
            op = _SinCos(*outs, *args, None if s.on_y else _Turn(),
                         not s.on_y and s.args[0].kind == "var")
        elif s.kind == "mul":
            op = _Mul(*outs, args)
        else:
            op = _Div(*outs, *args)
        nodes[s] = outs if s.kind == "sincos" else outs[0]
        ops[s.on_y].append(op)
        if not s.on_y:
            lists.extend(n.v for n in outs)


def _even(ref, f):
    """Source for f_0, 2 f_2, 24 f_4 of the node f: y'', y^(4) and y^(6) from
    f2, or their partials from a tangent df."""
    terms = [(ref(f, k), math.factorial(k)) for k in (0, 2, 4)]
    return ", ".join(_times(n, c) if c else "0" for c, n in terms)


class TracedODE:
    """y'' = f2(x, y, y'), traced once and compiled into a Taylor program.

    f2 may use + - * /, positive integer powers, numbers and ``ops.sin`` /
    ``ops.cos``; an f2 that returns a plain number is a constant.  The step
    calls the generated functions ``even(x, y, y', prec)``, ``predict`` and
    ``tangents(x, y, y', prec)`` with y, y' as ints at 2^-P, P = prec +
    GUARD_BITS.  Every other read is ``read`` at a point of mpmath numbers,
    which gives the Taylor coefficients of the solution, of f2 and of its
    tangents there as ints at 2^-P; a cold read, at new objects or deeper
    than the last, is one ``levels`` call.  ``derivative``, ``jacobian`` and
    ``ode_series`` take y^(k), its partials and the series off ``read`` and
    round their values out through ``_out``.  ``fixed_partials`` tells
    whether the tangent program reads neither x, y nor y', so that the
    partials are the same at every point of one precision.  ``name`` labels
    the generated code in tracebacks and profiles.
    """

    def __init__(self, f2, name="f2"):
        sx = Series("var", (), None, 1, False)
        sy, syp = Series("var"), Series("var")
        root = _lift(f2(sx, sy, syp))
        self._x, self._y, self._yp = _Node(1, listed=True), _Node(DENSE), _Node(DENSE)
        nodes = {sx: self._x, sy: self._y, syp: self._yp}
        self._x_ops, self._y_ops, self._d_ops, self._x_lists = [], [], [], []
        order = _postorder(root)
        _compile(order, nodes, (self._x_ops, self._y_ops), self._x_lists)
        self._f = nodes[root]
        # y' itself is formed only when f2 reads it
        self._reads_yp = reads_yp = syp in order
        self._leaves = [_Leaf(self._y, self._f, 2), _Leaf(self._yp, self._f, 1)][:1 + reads_yp]
        # the variational program: per seed, the ops of the tangent df of f2,
        # then the leaves w and w' (when f2 reads y'); the point's y_1 is y'_0,
        # and each seed's nonzero first coefficients are ``one`` = 2^P
        self._df, given = [], {(self._y, 1): "yp_0"}
        self.fixed_partials = True
        preferred = [(self._x, "X"), (self._y, "y"), (self._yp, "yp"), (self._f, "f")]
        for n, (w0, wp0) in enumerate(_SEEDS, 1):
            w, wp = Series("var"), Series("var")
            droot = _tangent(order, {sy: w, syp: wp})
            if droot is None:
                break
            nodes[w] = _Node(DENSE, [i for i, c in enumerate((w0, wp0)) if not c])
            nodes[wp] = _Node(DENSE, [0] if not wp0 else [])
            dorder = _postorder(droot)
            self.fixed_partials &= not {sx, sy, syp}.intersection(dorder)
            _compile(dorder, nodes, (self._x_ops, self._d_ops), self._x_lists)
            df = nodes[droot]
            self._d_ops += [_Leaf(nodes[w], df, 2), _Leaf(nodes[wp], df, 1)][:1 + reads_yp]
            self._df.append(df)
            preferred += [(nodes[w], f"w{n}"), (nodes[wp], f"wp{n}"), (df, f"df{n}")]
            given.update({(nodes[w], 0): "one"} if w0 else
                         {(nodes[w], 1): "one", (nodes[wp], 0): "one"})
        self._names = names = _Names(given)
        for node, ident in preferred:
            names.bind(node, ident)
        for op in self._x_ops + self._y_ops + self._d_ops:
            names(op.out)
            if isinstance(op, _SinCos):
                names(op.cos)
        # the abscissa and prec whose levels of x the lists hold
        self._here = names["here"] = [None, None]
        names["x_at"] = self._at_x
        self._label, self._functions, self._x_filled = name, {}, 0
        self._cold, self._closures = None, {}       # the last read, kept; the closures

    def _generate(self, label, params, ops, lo, hi, result=None):
        """The function ``label`` (its first word, then the def's name) that
        runs ``ops`` at levels lo..hi from their ``emit`` lines in order,
        generated when first asked for.  With ``result``, a function of
        ``ref`` giving the last lines and the returned source, the
        coefficients are locals and only the lines that the result reads are
        kept; without, they are appended to the lists of x."""
        if label in self._functions:
            return self._functions[label]
        names, body = self._names, []       # (local set or None, line)
        for k in range(lo, hi + 1):
            for op in ops:
                if k > op.deg:
                    continue
                for item in op.emit(k, names):
                    if isinstance(item, str):
                        body.append((None, item))
                        continue
                    node, j, value = item
                    if value == "0":
                        node.zero.add(j)
                    if node.v is not None:
                        body.append((None, f"{names(node)}.append({value})"))
                    elif value != "0":
                        local = f"{names(node)}_{j}"
                        body.append((local, f"{local} = {value}"))
        lines = [line for _, line in body]
        if result is not None:          # dead lines out, from the last line up
            *tail, returned = result(names.ref)
            live, lines = set(_IDENTIFIER.findall(" ".join(tail + [returned]))), []
            for local, line in reversed(body):
                if local is None or local in live:
                    lines.append(line)
                    live.update(_IDENTIFIER.findall(line))
            lines = lines[::-1] + tail + [f"return {returned}"]
        reads = set(_IDENTIFIER.findall(" ".join(lines)))
        head = []
        if params.startswith("x,"):
            if any(isinstance(names.get(i), list) for i in reads):
                head.append("if x is not here[0] or prec != here[1]: x_at(x, prec)")
            head.append(f"P = prec + {GUARD_BITS}")
        if "one" in reads:
            head.append("one = 1 << P")
        lines = head + lines
        reads = set(_IDENTIFIER.findall(" ".join(lines))).intersection(names)
        fname = label.split()[0]
        source = (f"def {fname}({params}{''.join(f', {i}={i}' for i in sorted(reads))}):\n"
                  + "".join(f"    {line}\n" for line in lines or ["pass"]))
        scope = {}
        exec(_compiled(source, f"<obrechkoff program {self._label} {label}>"), names, scope)
        self._functions[label] = scope[fname]
        return scope[fname]

    @functools.cached_property
    def even(self):
        """(x, y, y', prec) -> (y'', y^(4), y^(6)) = (f_0, 2 f_2, 24 f_4), ints
        at 2^-P from y and y' at 2^-P, P = prec + GUARD_BITS: the arguments of
        ``tangents``.  Levels 0-4, in locals."""
        return self._generate("even", "x, y_0, yp_0, prec", self._y_ops + self._leaves, 0, 4,
                              lambda ref: [_even(ref, self._f)])

    @functools.cached_property
    def predict(self):
        """(x, y, y', prec, h, hs) -> the Taylor polynomial of degree
        PREDICTOR_DEGREE of the solution through (x, y, y') and its derivative
        at h, the int h at 2^-hs, by Horner's rule on ints at 2^-P, each step
        rounding down.  Levels 0 to PREDICTOR_DEGREE - 2, in locals."""
        def horner(ref):
            ys = [ref(self._y, k) or "0" for k in range(PREDICTOR_DEGREE + 1)]
            lines = [f"s, d = {ys[-1]}, 0"]
            for a in ys[-2::-1]:
                lines += ["d = s + (h * d >> hs)", f"s = {a} + (h * s >> hs)"]
            return lines + ["s, d"]

        return self._generate("predict", "x, y_0, yp_0, prec, h, hs", self._y_ops + self._leaves,
                              0, PREDICTOR_DEGREE - 2, horner)

    @functools.cached_property
    def tangents(self):
        """(x, y, y', prec) -> (d/dy, d/dy') of (y'', y^(4), y^(6)), ints at 2^-P
        as for ``even``, from the variational program.  Levels 0-4 of y and of
        the tangents, in locals."""
        return self._generate("tangents", "x, y_0, yp_0, prec",
                              self._y_ops + self._leaves + self._d_ops, 0, 4,
                              lambda ref: [", ".join(f"({_even(ref, df)})" for df in self._df)
                                           or "(0, 0, 0), (0, 0, 0)"])

    def _levels(self, n, tangents):
        """P, y, y' -> the lists [y_0 .. y_{n+2}], [f_0 .. f_n] and, with
        ``tangents``, [df_0 .. df_n] per seed, ints at 2^-P."""
        def lists(ref):
            rows = [(self._y, n + 2), (self._f, n)] + [(df, n) for df in self._df if tangents]
            return [", ".join(f"[{', '.join(ref(c, k) or '0' for k in range(m + 1))}]"
                              for c, m in rows)]

        ops = self._y_ops + self._leaves + (self._d_ops if tangents else [])
        label = f"levels 0-{n}{' and tangents' if tangents else ''}"
        return self._generate(label, "P, y_0, yp_0", ops, 0, n, lists)

    def _at_x(self, x, prec, n=PREDICTOR_DEGREE - 2):
        """Fill the lists of x at the abscissa x through level n, and at a new
        abscissa through level PREDICTOR_DEGREE - 2 at least, which is as deep
        as the step reads.  The x object is tested first and its value only
        when it is new; a bad x, or a fill that raised, leaves no abscissa."""
        here, P = self._here, prec + GUARD_BITS
        try:
            if prec != here[1] or x is not here[0] and x != here[0]:
                here[:] = [None, None]
                self._x.v[:] = [_fixed(_raw(x), P), 1 << P]
                for c in self._x_lists:
                    c.clear()
                self._x_filled, n = 0, max(n, PREDICTOR_DEGREE - 2)
            lo = self._x_filled
            if lo <= n and self._x_ops:
                self._generate(f"x levels {lo}-{n}", "P", self._x_ops, lo, n)(P)
            self._x_filled = max(lo, n + 1)
        except BaseException:
            here[:] = [None, None]
            raise
        here[:] = [x, prec]

    def read(self, x, y, yp, n, tangents=False):
        """(P, [y_0 .. y_{n+2}], [f_0 .. f_n], *[df_0 .. df_n] per seed): the
        Taylor coefficients of the solution, of f2 and, with ``tangents``, of
        the tangents at the mpmath point (x, y, y'), ints at 2^-P, P = prec +
        GUARD_BITS for the prec of y, from one ``levels`` call through level
        max(n, 4) (max(n, 0), y_1 None, without y').  The same x, y and y'
        objects at the same prec get the kept tuple back.  A non-finite y or
        y', one of 2^RANGE_BITS or more, or y' None where f2 or the read needs
        it is a DomainError; a read that raised keeps no lists and no abscissa."""
        try:
            prec = y.context.prec
        except AttributeError:
            raise DomainError("a traced f2 is evaluated at mpmath numbers") from None
        if yp is None and self._reads_yp:
            raise DomainError("this f2 reads y', so the point needs one")
        if yp is None and (n == -1 or n > 0 or tangents):
            raise DomainError("the point has no y', which y_1, levels above 0 and partials read")
        kept = self._cold
        if (kept and kept[0] is x and kept[1] is y and kept[2] is yp and kept[3] == prec
                and kept[4] >= n and kept[5] >= tangents):
            return kept[6]
        P = prec + GUARD_BITS
        y0, yp0 = _fixed(_raw(y), P), None if yp is None else _fixed(_raw(yp), P)
        n = max(n, 0 if yp is None else 4)
        try:
            self._at_x(x, prec, n)
            values = (P, *self._levels(n, tangents)(P, y0, yp0))
        except BaseException:
            self._cold, self._here[:] = None, [None, None]
            raise
        self._cold = (x, y, yp, prec, n, tangents, values)
        return values

    def derivative(self, k: int):
        """The closure (x, y, y') -> y^(k) of the solution through that point
        (see ``read``), rounded out at prec, the same object for the same
        k >= 2."""
        if k in self._closures:
            return self._closures[k]
        if k < 2:
            raise DomainError(f"f2 gives the derivatives y^(k) of order k >= 2, not {k}")
        n, read, deg = k - 2, self.read, self._f.deg
        scale = math.factorial(n)

        def fk(x, y, yp):
            P, _, f = read(x, y, yp, min(n, deg))[:3]
            return _out(y.context, f[n] * scale if n <= deg else 0, P)

        self._closures[k] = fk
        return fk

    def jacobian(self, x, y, yp, orders):
        """[(d y^(k)/dy, d y^(k)/dy') for k in ``orders``, k >= 2] at the
        mpmath point (see ``read``), rounded out at prec, or ints 0 where f2
        is free of y and y'."""
        if not orders or min(orders) < 2:
            raise DomainError(f"f2 gives the derivatives y^(k) of order k >= 2, not {orders}")
        P, _, _, *dfs = self.read(x, y, yp, max(orders) - 2, tangents=True)
        return [tuple(_out(y.context, df[k - 2] * math.factorial(k - 2), P) for df in dfs)
                or (0, 0) for k in orders]          # no tangent: f2 is free of y and y'


def ode_series(ctx, graph: TracedODE, x0, y0, yp0, order: int) -> list:
    """Taylor coefficients 0..order of the solution of y'' = f2(x, y, y') at
    x0, read off the traced ``graph`` and rounded out through ``_out``."""
    P, ys = graph.read(ctx.mpf(x0), ctx.mpf(y0), ctx.mpf(yp0), order - 2)[:2]
    return [_out(ctx.mp, c, P) for c in ys[:order + 1]]
