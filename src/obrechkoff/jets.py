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

The program runs level by level.  Level k appends coefficient k of every
op, then those of the solution that f_k determines, y_{k+2} and (when f2
reads y') y'_{k+1}; ``at`` sets y_0, y_1 = y'_0 and y'_0.  It works in
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
at the boundary: ``centre`` converts x in (``at`` y and y' too), level 0 of
a sin/cos pair calls ``mpf_cos_sin`` where it does not turn, the x program
converts the constants of polynomial nodes, and ``derivative``,
``jacobian`` and ``Coefficients.raw`` round a result out to nearest at
prec.  No op list is interpreted: a read fills a program from its first
unfilled level through the depth it needs by one function per span of
levels, whose Python source, the ops' lines for each k with the index
ranges, degree cuts and integer weights fixed, is compiled when the span is
first asked for, under a filename such as ``<obrechkoff program duffing y
levels 0-4>`` that tracebacks and profiles quote.  Ops of x alone form a
program of their own, refilled only when x or prec changes.

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
df2/dy' w' from (w, w') = (1, 0) and (0, 1), which ``at`` sets: the trace,
differentiated once along each seed, compiles into a program of the same
ops, whose level k closes with w_{k+2} = (df)_k / ((k+1)(k+2)) and
w'_{k+1} = (df)_k / (k+1), filled on request over the values.  The seeds
that are 0 (w_1 = w'_0 = 0 along y, w_0 = 0 along y'), and the coefficients
that only they feed, are left out of the generated sums.
"""

from __future__ import annotations

import collections
import functools
import linecache
import math

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


def _ref(node, k, name):
    """Source for coefficient k of ``node``, None where it is known to be 0."""
    return None if k > node.deg or k in node.zero else f"{name(node)}[{k}]"


def _conv(a, b, lo, hi, k, name):
    """Source for the factors (a_j, b_{k-j}), j = lo..hi, of a convolution sum,
    leaving out the pairs with a factor known to be 0."""
    return [(f"{name(a)}[{j}]", f"{name(b)}[{k - j}]") for j in range(lo, hi + 1)
            if j not in a.zero and k - j not in b.zero]


def _append(out, k, value, name):
    """Source that appends ``value`` as coefficient k of ``out``; "0" marks the
    coefficient as known to be 0, for the ops that read it to leave out."""
    if value == "0":
        out.zero.add(k)
    return f"{name(out)}.append({value})"


class _Node:
    """The coefficient list ``v`` of one compiled node, its degree, and the
    indices ``zero`` of the coefficients that are 0 at every point."""

    __slots__ = ("v", "deg", "zero")

    def __init__(self, deg, zero=()):
        self.v, self.deg, self.zero = [], deg, set(zero)


# ops: emit(k, name) returns the source lines that append coefficient k of
# their outputs, once every coefficient below k is in place; name(node) is
# the identifier of a node's coefficient list, name(c) that of a raw constant.
# A coefficient is an int m standing for m 2^-P, P the binary point of the
# generated function; the raw constants (``a``, ``c``, ``data``) are kept as
# given.

class _Poly:
    """The coefficients of a polynomial constant, converted once per fill of x."""

    def __init__(self, out, data):
        self.out, self.deg, self.data = out, out.deg, data

    def emit(self, k, name):
        value = f"_fixed({name(self.data[k])}, P)" if self.data[k][1] else "0"
        return [_append(self.out, k, value, name)]


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

    def emit(self, k, name):
        refs = [_ref(n, k, name) for n in self.nodes]
        refs.append("(1 << P)" if k == 0 else None)
        terms = {False: [], True: []}
        for (w, shifted), ref in zip(self.w, refs):
            if w and ref:
                terms[shifted].append(_times(w, ref))
        if terms[True]:
            terms[False].append(f"(({_sum(terms[True])}) >> {self.s})")
        return [_append(self.out, k, _sum(terms[False]), name)]


class _Mul:
    """sum_i a_i b_i over the pairs of factors (a_i, b_i), in one integer sum,
    where a product that recurs (as in a square, or in d(uv) = du v + u dv
    along u = v) is taken once with its count."""

    def __init__(self, out, factors):
        self.out, self.deg = out, out.deg
        self.pairs = list(zip(factors[::2], factors[1::2]))

    def emit(self, k, name):
        counts = collections.Counter(
            tuple(sorted(t)) for a, b in self.pairs
            for t in _conv(a, b, max(0, k - b.deg), min(k, a.deg), k, name))
        terms = [_times(n, " * ".join(t)) for t, n in counts.items()]
        return [_append(self.out, k, f"({_sum(terms)}) >> P" if terms else "0", name)]


class _Div:
    """q = a / b from q_k b_0 = a_k - sum_{j<k} q_j b_{k-j}, one integer division."""

    def __init__(self, out, a, b):
        self.out, self.deg, self.a, self.b = out, out.deg, a, b

    def emit(self, k, name):
        b, a = name(self.b), _ref(self.a, k, name)
        terms = [f"({a} << P)"] if a else []
        terms += [f"-{qj} * {bj}"
                  for qj, bj in _conv(self.out, self.b, max(0, k - self.b.deg), k - 1, k, name)]
        lines = [_append(self.out, k, f"({_sum(terms)}) // {b}[0]" if terms else "0", name)]
        if k == 0:
            lines.insert(0, f"if not {b}[0]: raise DomainError("
                            "'series division by a series with zero constant term')")
        return lines


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
    call (as on y'' = -sin y) and cost the call and the miss's bookkeeping."""

    def __init__(self, out, cos, u, turn):
        self.out, self.cos, self.u, self.deg, self.turn = out, cos, u, out.deg, turn

    def emit(self, k, name):
        u, s, c = name(self.u), name(self.out), name(self.cos)
        if k == 0 and self.turn:
            return [f"sv, cv = {name(self.turn)}({u}[0], P)", f"{s}.append(sv)", f"{c}.append(cv)"]
        if k == 0:
            return [f"cv, sv = mpf_cos_sin(from_man_exp({u}[0], -P), P, RND)",
                    f"{s}.append(_fixed(sv, P))", f"{c}.append(_fixed(cv, P))"]
        js = range(1, min(k, self.u.deg) + 1)
        ju = [_times(j, f"{u}[{j}]") for j in js]
        sin = _sum([f"{x} * {c}[{k - j}]" for x, j in zip(ju, js)])
        cos = _sum([f"{x} * {s}[{k - j}]" for x, j in zip(ju, js)])
        div = "" if k == 1 else f" // {k}"  # floor(floor(a / 2^P) / k) = floor(a / (k 2^P))
        return [f"{s}.append((({sin}) >> P){div})", f"{c}.append((-({cos}) >> P){div})"]


class _Leaf:
    """The coefficient of the solution that f_k determines,
    y_{k+2} = f_k / ((k+1)(k+2)) (lag 2), or of its slope,
    y'_{k+1} = f_k / (k+1) (lag 1); ``at`` sets those below the lag."""

    deg = DENSE

    def __init__(self, out, f, lag):
        self.out, self.f, self.lag = out, f, lag

    def emit(self, k, name):
        value, div = _ref(self.f, k, name), math.perm(k + self.lag, self.lag)
        if value and div > 1:
            value += f" // {div}"
        return [_append(self.out, k + self.lag, value or "0", name)]


#: the globals every generated level reads besides its lists and constants
_HELPERS = {"_fixed": _fixed, "mpf_cos_sin": mpf_cos_sin, "from_man_exp": from_man_exp,
            "RND": RND, "DomainError": DomainError}


class _Names(dict):
    """The globals of one graph's generated code: the helpers, then each
    coefficient list and raw constant the code reads, under the identifier
    that calling the namespace with its node or value returns, into ``used``."""

    def __init__(self, preferred):
        super().__init__(_HELPERS)
        self._ids, self.used = {}, set()
        for node, ident in preferred:
            if node not in self._ids:
                self._bind(node, ident)

    def _bind(self, item, ident):
        self._ids[item] = ident
        self[ident] = item.v if isinstance(item, _Node) else item

    def __call__(self, item):
        ident = self._ids.get(item)
        if ident is None:
            kind = "v" if isinstance(item, _Node) else "turn" if isinstance(item, _Turn) else "c"
            ident = f"{kind}{len(self._ids)}"
            self._bind(item, ident)
        self.used.add(ident)
        return ident


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


class _Program:
    """Ops filling ``lists`` (and their leaves' lists), ``filled`` levels so
    far.  The function that fills levels lo..hi, the ops' ``emit(k, ...)``
    lines for each k in turn, is compiled when first asked for and kept; it
    takes the lists and constants it reads as default arguments, as locals."""

    __slots__ = ("ops", "lists", "names", "label", "spans", "filled")

    def __init__(self, ops, lists, names, label):
        self.ops, self.lists, self.names, self.label = ops, lists, names, label
        self.spans, self.filled = {}, 0

    def span(self, lo, hi):
        """The function P -> None that fills levels lo..hi at the binary point 2^-P."""
        fill = self.spans.get((lo, hi))
        if fill is None:
            self.names.used = set()
            lines = [line for k in range(lo, hi + 1) for op in self.ops if k <= op.deg
                     for line in op.emit(k, self.names)]
            source = (f"def fill(P{''.join(f', {i}={i}' for i in sorted(self.names.used))}):\n"
                      + "".join(f"    {line}\n" for line in lines or ["pass"]))
            scope = {}
            exec(_compiled(source, f"<obrechkoff program {self.label} levels {lo}-{hi}>"),
                 self.names, scope)
            fill = self.spans[lo, hi] = scope["fill"]
        return fill


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
    it: each op goes to ops[on_y] and the coefficient lists it fills to
    lists[on_y], ``on_y`` telling whether it depends on y or y'."""
    for s in order:
        if s in nodes:
            continue
        if s.kind in ("sin", "cos"):
            nodes[s] = nodes[s.args[0]][s.kind == "cos"]
            continue
        args = [nodes[a] for a in s.args]
        outs = (_Node(s.deg),)
        if s.kind == "poly":
            op = _Poly(*outs, [_raw(c) for c in s.data])
        elif s.kind == "lin":
            op = _Lin(*outs, *s.data, args)
        elif s.kind == "sincos":
            outs += (_Node(s.deg),)
            op = _SinCos(*outs, *args, None if s.on_y else _Turn())
        elif s.kind == "mul":
            op = _Mul(*outs, args)
        else:
            op = _Div(*outs, *args)
        nodes[s] = outs if s.kind == "sincos" else outs[0]
        ops[s.on_y].append(op)
        lists[s.on_y].extend(n.v for n in outs)


class Coefficients:
    """Coefficient k of y or of f2 at the current point of a
    :class:`TracedODE`, as ``[k]`` (an mpf), ``raw(k)`` (a raw libmp number)
    or ``fixed(k)`` (the int m of m 2^-P), in place once the program is
    filled through level k - lag: lag 2 for y, 0 for f2."""

    __slots__ = ("c", "_deg", "_lag", "_graph")

    def __init__(self, graph, node, lag):
        self.c, self._deg, self._lag, self._graph = node.v, node.deg, lag, graph

    def through(self, n):
        """The list of coefficients, ints at 2^-P, filled through n <= the degree."""
        self._graph._fill(n - self._lag)
        return self.c

    def fixed(self, k):
        """Coefficient k as an int at the program's binary point 2^-P."""
        c = self.through(min(k, self._deg))
        return c[k] if k <= self._deg else 0

    def raw(self, k):
        """Coefficient k as a raw libmp number, rounded at the working precision."""
        graph = self._graph
        return from_man_exp(self.fixed(k), -graph._P, graph._prec, RND)

    def __getitem__(self, k):
        return self._graph._make(self.raw(k))


class TracedODE:
    """y'' = f2(x, y, y'), traced once and compiled into a Taylor program.

    f2 may use + - * /, positive integer powers, numbers and ``ops.sin`` /
    ``ops.cos``; an f2 that returns a plain number is a constant.  The
    point (x, y, y') is given to ``centre`` with y, y' as ints at 2^-(prec +
    GUARD_BITS), as the integrator passes it, or to ``at`` as mpmath
    numbers.  ``y`` and ``f`` give the Taylor coefficients of the solution
    and of f2 there, ``even`` y'', y^(4), y^(6) and ``partials`` their
    partials from the variational program, as ints.  ``fixed_partials``
    tells whether the tangent program reads neither x, y nor y', so that the
    partials are the same at every point of one precision.  ``name`` labels
    the generated code in tracebacks and profiles.
    """

    def __init__(self, f2, name="f2"):
        sx = Series("var", (), None, 1, False)
        sy, syp = Series("var"), Series("var")
        root = _lift(f2(sx, sy, syp))
        self._x, self._y, self._yp = _Node(1), _Node(DENSE), _Node(DENSE)
        nodes = {sx: self._x, sy: self._y, syp: self._yp}
        self._x_ops, self._y_ops, self._d_ops = [], [], []
        lists = ([], [], [])        # the coefficient lists that the ops of each program fill
        order = _postorder(root)
        _compile(order, nodes, (self._x_ops, self._y_ops), lists[:2])
        self._f = nodes[root]
        # y' itself is filled only when f2 reads it
        self._reads_yp = reads_yp = syp in order
        leaves = [_Leaf(self._y, self._f, 2), _Leaf(self._yp, self._f, 1)][:1 + reads_yp]
        # the variational program: per seed, the ops of the tangent df of f2,
        # then the leaves w and w' (when f2 reads y'); ``at`` sets the first
        # coefficients of each solution and its slope in ``_pairs``
        self._pairs, self._df = [(self._y, self._yp)], []
        self.fixed_partials = True
        preferred = [(self._x, "x"), (self._y, "y"), (self._yp, "yp"), (self._f, "f")]
        for n, (w0, wp0) in enumerate(_SEEDS, 1):
            w, wp = Series("var"), Series("var")
            droot = _tangent(order, {sy: w, syp: wp})
            if droot is None:
                break
            nodes[w] = _Node(DENSE, [i for i, c in enumerate((w0, wp0)) if not c])
            nodes[wp] = _Node(DENSE, [0] if not wp0 else [])
            dorder = _postorder(droot)
            self.fixed_partials &= not {sx, sy, syp}.intersection(dorder)
            _compile(dorder, nodes, (self._x_ops, self._d_ops), lists[::2])
            df = nodes[droot]
            self._d_ops += [_Leaf(nodes[w], df, 2), _Leaf(nodes[wp], df, 1)][:1 + reads_yp]
            self._pairs.append((nodes[w], nodes[wp]))
            self._df.append(df)
            preferred += [(nodes[w], f"w{n}"), (nodes[wp], f"wp{n}"), (df, f"df{n}")]
        # the code of each span of levels is generated when it is first filled
        names = _Names(preferred)
        self._programs = tuple(
            _Program(ops, c, names, f"{name} {label}") for ops, c, label in
            zip((self._x_ops, self._y_ops + leaves, self._d_ops), lists, ("x", "y", "tangent")))
        self.y = Coefficients(self, self._y, 2)
        self.f = Coefficients(self, self._f, 0)
        self._point, self._prec, self._P, self._make = (None, None, None), None, None, None
        self._seeds, self._closures, self._given = [], {}, (None,) * 5

    def _reset(self, on_x, tangents=True):
        """Clear the program of y, with ``on_x`` that of x, with ``tangents`` theirs."""
        for program in self._programs[not on_x:2 + tangents]:
            for c in program.lists:
                c.clear()
            program.filled = 0

    def at(self, x, y, yp):
        """``centre`` at mpmath numbers, prec being that of y; a non-finite y
        or y', or one of 2^RANGE_BITS or more, is a DomainError."""
        try:
            ctx = y.context
        except AttributeError:
            raise DomainError("a traced f2 is evaluated at mpmath numbers") from None
        prec, (gx, gy, gyp, gprec, point) = ctx.prec, self._given
        if x is gx and y is gy and yp is gyp and prec == gprec and self._point is point:
            return              # the closures of one evaluation pass the same objects
        P = prec + GUARD_BITS
        self.centre(x, _fixed(_raw(y), P), None if yp is None else _fixed(_raw(yp), P),
                    prec, ctx.make_mpf)
        self._given = (x, y, yp, prec, self._point)

    def centre(self, x, y, yp, prec, make):
        """Centre the program at x and the ints y, y' at 2^-P, P = prec +
        GUARD_BITS, rounding reads out by ``make``.  Equal y, y' at an equal x
        keep every coefficient, an equal x and prec the ops of x alone.  A bad
        x, or y' None where f2 reads y', is a DomainError that changes nothing."""
        px, py, pyp = self._point
        new_x = x is not px and x != px or prec != self._prec
        if not new_x and y == py and yp == pyp:
            return
        if yp is None and self._reads_yp:
            raise DomainError("this f2 reads y', so the point needs one")
        if new_x:
            P = prec + GUARD_BITS
            self._x.v[:] = [_fixed(_raw(x), P), 1 << P]
            self._prec, self._P, self._make = prec, P, make
            self._seeds = [(w0 << P, wp0 << P) for w0, wp0 in _SEEDS]
        # the tangent program holds coefficients beyond its seeds only once filled
        tangents = new_x or self._programs[2].filled > 0
        self._reset(new_x, tangents)
        self._point = (x, y, yp)
        seeds = [(y, yp)] + self._seeds if tangents else [(y, yp)]
        for (u, up), (u0, up0) in zip(self._pairs, seeds):
            u.v[:], up.v[:] = [u0, up0], [up0]

    def _fill(self, n, tangents=False):
        """Fill x, then y, then with ``tangents`` the variational program,
        through level n.  Levels -2 and -1 are y_0 and y_1 = y'_0, set by ``at``;
        without y', a fill through level -1 or above 0, or of the partials,
        is a DomainError that leaves the program as it was, as is any read
        before the first ``at``."""
        if self._point[1] is None:
            raise DomainError("the program has no point: call at(x, y, y') before reading it")
        if self._point[2] is None and (n == -1 or n > 0 or tangents):
            raise DomainError("the point has no y', which y_1, levels above 0 and partials read")
        if self._programs[1 + tangents].filled > n:
            return
        P = self._P
        try:
            for program in self._programs[:2 + tangents]:
                if program.filled <= n:
                    program.span(program.filled, n)(P)
                    program.filled = n + 1
        except BaseException:       # a fill that raised leaves no point and no coefficient
            self._point = (None, None, None)
            self._reset(on_x=True)
            raise

    def derivative(self, k: int):
        """The closure (x, y, y') -> y^(k) of the solution through that point,
        the same object for the same k."""
        if k in self._closures:
            return self._closures[k]
        n, at, fixed = k - 2, self.at, self.f.fixed
        scale = math.factorial(n)

        def fk(x, y, yp):
            at(x, y, yp)
            return self._make(from_man_exp(fixed(n) * scale, -self._P, self._prec, RND))

        self._closures[k] = fk
        return fk

    def even(self, x, y, yp, prec, make):
        """(y'', y^(4), y^(6)) = (f_0, 2 f_2, 24 f_4) at ``centre``'s point."""
        self.centre(x, y, yp, prec, make)
        f = self._f
        self._fill(min(4, f.deg))
        v = f.v if f.deg >= 4 else f.v + [0] * 4
        return [v[0], 2 * v[2], 24 * v[4]]

    def partials(self, x, y, yp, prec, make, orders):
        """[(d y^(k)/dy, d y^(k)/dy') for k in ``orders``] at ``centre``'s point."""
        self.centre(x, y, yp, prec, make)
        if not self._df:
            return [(0, 0) for _ in orders]
        self._fill(max(orders) - 2, tangents=True)
        return [tuple(df.v[k - 2] * math.factorial(k - 2) for df in self._df) for k in orders]

    def jacobian(self, x, y, yp, orders):
        """``partials`` at mpmath numbers (see ``at``), rounded out at prec."""
        self.at(x, y, yp)
        return [tuple(self._make(from_man_exp(d, -self._P, self._prec, RND)) for d in pair)
                for pair in self.partials(*self._point, self._prec, self._make, orders)]


def ode_series(ctx, f2, x0, y0, yp0, order: int) -> list:
    """Taylor coefficients 0..order of the solution of y'' = f2(x, y, y') at x0.

    ``f2`` is a right-hand side, traced here, or a :class:`TracedODE`.
    """
    graph = f2 if isinstance(f2, TracedODE) else TracedODE(f2)
    graph.at(ctx.mpf(x0), ctx.mpf(y0), ctx.mpf(yp0))
    graph.y.through(order)                      # one span of levels
    return [graph.y[k] for k in range(order + 1)]
