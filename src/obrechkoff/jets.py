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

A level loop fills coefficient k of y (and of y' when f2 reads it), then of
every op, on raw ``libmp`` numbers: each coefficient is a sum of exact
products, summed exactly and rounded once at the working precision of the
point, as ``mp.fdot`` does.  Ops that depend on y or y' carry d/dy and d/dy' as two
more coefficient channels (the variational equations), filled on request
from the values already computed at the same point.  Ops of x alone carry
values only, and are refilled only when x changes.
"""

from __future__ import annotations

import math

from mpmath.libmp import (fone, from_float, from_int, from_man_exp, fzero, mpf_add,
                          mpf_cos_sin, mpf_div, mpf_mul, mpf_neg, mpf_sub, mpf_sum,
                          normalize, round_nearest)

from .errors import DomainError

#: degree of a series whose coefficients are not known to end
DENSE = math.inf

RND = round_nearest

#: exponent gap, in bits, up to which a dot product aligns its terms exactly
ALIGN_LIMIT = 1 << 14


class Series:
    """One node of a traced f2: an operation on power series, recorded for
    :class:`TracedODE` to compile, never evaluated itself.

    ``kind`` is ``var`` (x, y or y'), ``poly`` (the coefficients ``data``),
    ``lin`` (``data`` = (constant, coefficients of ``args``)), ``mul``,
    ``div``, ``sincos`` or one of its halves ``sin`` and ``cos``.  ``deg``
    bounds the degree and ``on_y`` tells whether the node depends on y or y'.
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
        return (Series("sin", (pair,), None, deg, self.on_y),
                Series("cos", (pair,), None, deg, self.on_y))


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


class ops:
    """sin and cos of a traced series or of an mpmath number, for writing f2."""

    @staticmethod
    def sin(u):
        return u.sin_cos()[0] if isinstance(u, Series) else u.context.sin(u)

    @staticmethod
    def cos(u):
        return u.sin_cos()[1] if isinstance(u, Series) else u.context.cos(u)


def _raw(v):
    """The raw libmp value of an int, a float or an mpmath real."""
    if isinstance(v, int):
        return from_int(v)
    if isinstance(v, float):
        return from_float(v)
    try:
        return v._mpf_
    except AttributeError:
        raise DomainError(f"a traced f2 takes real numbers, not {type(v).__name__}") from None


def _fdot(xs, ys, prec=0):
    """sum x_i y_i over raw numbers: exact products, summed exactly and
    rounded once at prec (not at all for prec 0).  Non-finite terms, and
    terms too far apart in exponent to align cheaply, go to ``mpf_sum``."""
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


def _back(b, k, n):
    """b_{k-1}, b_{k-2}, ..., b_{k-n}."""
    return b[k - n:k][::-1]


def _quotient(xs, ys, k, prec):
    """sum x_i y_i / k, summed exactly and rounded once."""
    return mpf_div(_fdot(xs, ys), from_int(k), prec, RND)


class _Node:
    """The coefficient lists of one compiled node: ``v`` holds its values and
    ``d`` its d/dy and d/dy' channels, or is None when it is free of y."""

    __slots__ = ("v", "d", "deg")

    def __init__(self, deg, on_y, v=None):
        self.v, self.deg = [] if v is None else v, deg
        self.d = ([], []) if on_y else None


# ops: value(k, prec) appends coefficient k of the values and partial(k, prec)
# that of both channels, once every coefficient below k is in place

class _Lin:
    def __init__(self, out, c, terms):
        self.out, self.deg = out, out.deg
        terms = [(_raw(a), n) for a, n in terms]
        self.a, self.nodes = [a for a, _ in terms], [n for _, n in terms]
        self.a0, self.c = self.a + [fone], _raw(c)
        self.ya, self.yd = [a for a, n in terms if n.d], [n.d for _, n in terms if n.d]

    def value(self, k, prec):
        ys = [n.v[k] if k <= n.deg else fzero for n in self.nodes]
        self.out.v.append(_fdot(self.a0, ys + [self.c], prec) if k == 0
                          else _fdot(self.a, ys, prec))

    def partial(self, k, prec):
        for i, ch in enumerate(self.out.d):
            ch.append(_fdot(self.ya, [d[i][k] for d in self.yd], prec))


class _Mul:
    def __init__(self, out, a, b):
        self.out, self.deg, self.a, self.b = out, out.deg, a, b

    def value(self, k, prec):
        a, b = self.a, self.b
        self.out.v.append(_fdot(*_conv(a.v, b.v, max(0, k - b.deg), min(k, a.deg), k), prec))

    def partial(self, k, prec):
        a, b = self.a, self.b
        lo, hi = max(0, k - b.deg), min(k, a.deg)
        for i, ch in enumerate(self.out.d):
            xs, ys = _conv(a.d[i], b.v, lo, hi, k) if a.d else ([], [])
            if b.d:
                xb, yb = _conv(a.v, b.d[i], lo, hi, k)
                xs, ys = xs + xb, ys + yb
            ch.append(_fdot(xs, ys, prec))


class _Div:
    """q = a / b from q_k b_0 = a_k - sum_{j<k} q_j b_{k-j}."""

    def __init__(self, out, a, b):
        self.out, self.deg, self.a, self.b = out, out.deg, a, b

    def value(self, k, prec):
        a, b, q = self.a, self.b, self.out.v
        if k == 0 and b.v[0] == fzero:
            raise DomainError("series division by a series with zero constant term")
        num = a.v[k] if k <= a.deg else fzero
        if k:
            num = mpf_sub(num, _fdot(*_conv(q, b.v, max(0, k - b.deg), k - 1, k)))
        q.append(mpf_div(num, b.v[0], prec, RND))

    def partial(self, k, prec):
        # dq_k b_0 = da_k - sum_{j<k} dq_j b_{k-j} - sum_{j<=k} q_j db_{k-j}
        a, b, q = self.a, self.b, self.out.v
        lo = max(0, k - b.deg)
        for i, ch in enumerate(self.out.d):
            xs, ys = _conv(ch, b.v, lo, k - 1, k)
            if b.d:
                xb, yb = _conv(q, b.d[i], lo, k, k)
                xs, ys = xs + xb, ys + yb
            num = mpf_neg(_fdot(xs, ys))
            if a.d:
                num = mpf_add(a.d[i][k], num)
            ch.append(mpf_div(num, b.v[0], prec, RND))


class _SinCos:
    """s_k = sum_{j=1..k} j u_j c_{k-j} / k and c_k = -sum_{j=1..k} j u_j s_{k-j} / k."""

    def __init__(self, out, cos, u):
        self.out, self.cos, self.u, self.deg = out, cos, u, out.deg

    def _ju(self, u, k):
        """j u_j, j = 1..min(k, degree of u), exact."""
        return [mpf_mul(u[j], from_int(j)) for j in range(1, min(k, self.u.deg) + 1)]

    def value(self, k, prec):
        u, s, c = self.u.v, self.out.v, self.cos.v
        if k == 0:
            cv, sv = mpf_cos_sin(u[0], prec, RND)
        else:
            ju = self._ju(u, k)
            n = len(ju)
            sv = _quotient(ju, _back(c, k, n), k, prec)
            cv = _quotient(ju, _back(s, k, n), -k, prec)
        s.append(sv)
        c.append(cv)

    def partial(self, k, prec):
        u, s, c = self.u, self.out.v, self.cos.v
        for i, (ds, dc) in enumerate(zip(self.out.d, self.cos.d)):
            if k == 0:
                du = u.d[i][0]
                ds.append(mpf_mul(c[0], du, prec, RND))
                dc.append(mpf_neg(mpf_mul(s[0], du, prec, RND)))
                continue
            # d(j u_j c_{k-j}) = j du_j c_{k-j} + j u_j dc_{k-j}, and so for s
            ju = self._ju(u.d[i], k) + self._ju(u.v, k)
            n = len(ju) // 2
            ds.append(_quotient(ju, _back(c, k, n) + _back(dc, k, n), k, prec))
            dc.append(_quotient(ju, _back(s, k, n) + _back(ds, k, n), -k, prec))


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


class _Leaf:
    """The solution y_k = f_{k-2} / (k (k-1)) (lag 2), or its slope
    y'_k = f_{k-1} / k (lag 1), above the initial values at the point."""

    def __init__(self, out, f, lag):
        self.out, self.f, self.lag = out, f, lag

    def _extend(self, c, fc, k, prec):
        f, lag = self.f, self.lag
        for j in range(len(c), k + 1):
            c.append(mpf_div(fc[j - lag] if j - lag <= f.deg else fzero,
                             from_int(math.perm(j, lag)), prec, RND))

    def value(self, k, prec):
        self._extend(self.out.v, self.f.v, k, prec)

    def partial(self, k, prec):
        for c, fc in zip(self.out.d, self.f.d):
            self._extend(c, fc, k, prec)


class Coefficients:
    """Coefficient k of y or of f2 at the current point of a
    :class:`TracedODE`, as ``[k]``; ``fill(k)`` puts it in place."""

    __slots__ = ("c", "_deg", "_fill", "_graph")

    def __init__(self, graph, node, fill):
        self.c, self._deg, self._fill, self._graph = node.v, node.deg, fill, graph

    def __getitem__(self, k):
        make = self._graph._make
        if k > self._deg:
            return make(fzero)
        self._fill(k)
        return make(self.c[k])


class TracedODE:
    """y'' = f2(x, y, y'), traced once and compiled into a Taylor program.

    f2 may use + - * /, positive integer powers, numbers and ``ops.sin`` /
    ``ops.cos``; an f2 that returns a plain number is a constant.  The point
    (x, y, y') is given as mpmath numbers, as the integrator passes it, and
    the program runs at the precision of y.  ``y`` and ``f`` give the Taylor
    coefficients of the solution and of f2 there.
    """

    def __init__(self, f2):
        sx = Series("var", (), None, 1, False)
        sy, syp = Series("var"), Series("var")
        root = _lift(f2(sx, sy, syp))
        self._x, self._y, self._yp = _Node(1, False), _Node(DENSE, True), _Node(DENSE, True)
        nodes = {sx: self._x, sy: self._y, syp: self._yp}
        self._x_ops, self._y_ops = [], []
        self._x_lists, self._y_lists = [], []      # every coefficient list the ops fill
        order = _postorder(root)
        for s in order:
            if s in nodes:
                continue
            if s.kind == "poly":
                nodes[s] = _Node(s.deg, False, [_raw(c) for c in s.data])
                continue
            if s.kind in ("sin", "cos"):
                nodes[s] = nodes[s.args[0]][s.kind == "cos"]
                continue
            args = [nodes[a] for a in s.args]
            outs = (_Node(s.deg, s.on_y),)
            if s.kind == "lin":
                op = _Lin(*outs, s.data[0], zip(s.data[1], args))
            elif s.kind == "sincos":
                outs += (_Node(s.deg, s.on_y),)
                op = _SinCos(*outs, *args)
            else:
                op = (_Mul if s.kind == "mul" else _Div)(*outs, *args)
            nodes[s] = outs if s.kind == "sincos" else outs[0]
            (self._y_ops if s.on_y else self._x_ops).append(op)
            lists = self._y_lists if s.on_y else self._x_lists
            lists += [c for n in outs for c in (n.v, *(n.d or ()))]
        self._f = nodes[root]
        # y' itself is filled only when f2 reads it
        self._leaves = [_Leaf(self._y, self._f, 2)] + (
            [_Leaf(self._yp, self._f, 1)] if syp in order else [])
        self.y = Coefficients(self, self._y, self._fill_solution)
        self.f = Coefficients(self, self._f, self._fill)
        self._point, self._prec, self._make = (None, None, None), None, None
        self._levels = self._x_levels = self._d_levels = 0

    def _reset(self, on_x):
        for c in self._y_lists + (self._x_lists if on_x else []):
            c.clear()
        if on_x:
            self._x_levels = 0
        self._levels = self._d_levels = 0

    def at(self, x, y, yp):
        """Centre the program at (x, y, y'), keeping what that point leaves valid.

        The same y and y' objects at an equal x keep every coefficient; ops
        of x alone are reset only when x or the precision changes.
        """
        px, py, pyp = self._point
        try:
            ctx = y.context
        except AttributeError:
            raise DomainError("a traced f2 is evaluated at mpmath numbers") from None
        if x is not px and x != px or ctx.prec != self._prec:
            self._prec, self._make = ctx.prec, ctx.make_mpf
            self._x.v[:] = [_raw(x), fone]
            self._reset(on_x=True)
        elif y is py and yp is pyp:
            return
        else:
            self._reset(on_x=False)
        self._point = (x, y, yp)
        # f2 at a point may be asked for with y' = None when it ignores y'
        yp = None if yp is None else _raw(yp)
        self._y.v[:], self._yp.v[:] = [_raw(y), yp], [yp]
        (dy, dyp), (dpy, dpyp) = self._y.d, self._yp.d
        dy[:], dyp[:], dpy[:], dpyp[:] = [fone, fzero], [fzero, fone], [fzero], [fone]

    def _fill(self, n):
        """Fill the values of every op through level n."""
        k = self._levels
        if k > n:
            return
        prec = self._prec
        try:
            while k <= n:
                for leaf in self._leaves:
                    leaf.value(k, prec)
                if self._x_levels <= k:
                    for op in self._x_ops:
                        if k <= op.deg:
                            op.value(k, prec)
                    self._x_levels = k + 1
                for op in self._y_ops:
                    op.value(k, prec)
                k = self._levels = k + 1
        except BaseException:
            self._point = (None, None, None)
            self._reset(on_x=True)
            raise

    def _fill_solution(self, k):
        """Fill y through coefficient k, which needs f through k - 2."""
        self._fill(k - 2)
        self._leaves[0].value(k, self._prec)

    def _fill_partials(self, n):
        """Fill the d/dy and d/dy' channels of every op through level n."""
        self._fill(n)
        prec = self._prec
        for k in range(self._d_levels, n + 1):
            for op in self._leaves + self._y_ops:
                op.partial(k, prec)
            self._d_levels = k + 1

    def derivative(self, k: int):
        """The closure (x, y, y') -> y^(k) of the solution through that point."""
        n, at, fill, f = k - 2, self.at, self._fill, self._f
        scale = from_int(math.factorial(n))

        def fk(x, y, yp):
            at(x, y, yp)
            if n > f.deg:
                return self._make(fzero)
            fill(n)
            return self._make(mpf_mul(f.v[n], scale, self._prec, RND) if n > 1 else f.v[n])

        return fk

    def jacobian(self, x, y, yp, orders):
        """[(d y^(k)/dy, d y^(k)/dy') for k in ``orders``] of the solution
        through (x, y, y'), from the d/dy and d/dy' channels of the program.
        """
        self.at(x, y, yp)
        if self._f.d is None:
            return [(0, 0) for _ in orders]
        self._fill_partials(max(orders) - 2)
        make, prec, d = self._make, self._prec, self._f.d
        scales = [from_int(math.factorial(k - 2)) for k in orders]
        return [tuple(make(mpf_mul(ch[k - 2], s, prec, RND)) for ch in d)
                for k, s in zip(orders, scales)]


def ode_series(ctx, f2, x0, y0, yp0, order: int) -> list:
    """Taylor coefficients 0..order of the solution of y'' = f2(x, y, y') at x0.

    ``f2`` is a right-hand side, traced here, or a :class:`TracedODE`.
    """
    graph = f2 if isinstance(f2, TracedODE) else TracedODE(f2)
    graph.at(ctx.mpf(x0), ctx.mpf(y0), ctx.mpf(yp0))
    return [graph.y[k] for k in range(order + 1)]
