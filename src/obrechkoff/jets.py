"""Lazy Taylor series, and the derivative oracle of y'' = f2(x, y, y') built on them.

A :class:`Series` stands for c_0 + c_1 t + c_2 t^2 + ...; coefficient k is
computed on first request from the coefficients <= k of its inputs (the
incremental Taylor-method recurrences of Jorba & Zou 2005, *Exp. Math.* 14)
and then kept, so n coefficients of an expression cost O(n^2).

:class:`TracedODE` calls f2 once, on the series of x, y and y', and closes the
graph that call builds with y_{k+2} = f_k / ((k+1)(k+2)).  The graph is then
the Taylor series of the solution through any point (x, y, y'), and gives
every derivative y^(k) = (k-2)! f_{k-2} from f2 alone.
"""

from __future__ import annotations

import math

from .errors import DomainError

#: degree of a series whose coefficients are not known to end
DENSE = math.inf


class Series:
    """A power series whose coefficient k is ``rule(self, k)``, computed once.

    Coefficients past ``deg`` read as 0; ``c`` holds those computed so far.
    ``on_y`` tells whether the series depends on y or y' of a traced ODE,
    so that moving to a new point must reset it even at the same x.
    """

    __slots__ = ("c", "rule", "args", "deg", "on_y")

    def __init__(self, rule, args, deg=DENSE, on_y=True, c=None):
        self.rule, self.args, self.deg, self.on_y = rule, args, deg, on_y
        self.c = [] if c is None else c

    @classmethod
    def given(cls, coeffs):
        """The polynomial with the given coefficients."""
        return cls(None, (), len(coeffs) - 1, False, list(coeffs))

    def __getitem__(self, k):
        if k > self.deg:
            return 0
        c = self.c
        while len(c) <= k:
            c.append(self.rule(self, len(c)))
        return c[k]

    def _node(self, rule, other, deg):
        return Series(rule, (self, other), deg, self.on_y or other.on_y)

    def __add__(self, other):
        other = _lift(other)
        return self._node(_add, other, max(self.deg, other.deg))

    def __neg__(self):
        return Series(_neg, (self,), self.deg, self.on_y)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _lift(other)
        return self._node(_mul, other, self.deg + other.deg)

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other):
        other = _lift(other)
        return self._node(_div, other, self.deg if other.deg == 0 else DENSE)

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
        """Series of sin(self) and cos(self), each computed from the other."""
        deg = 0 if self.deg == 0 else DENSE
        s = Series(_sin, None, deg, self.on_y)
        c = Series(_cos, (self, s), deg, self.on_y)
        s.args = (self, c)
        return s, c


def _lift(x):
    return x if isinstance(x, Series) else Series.given([x])


class ops:
    """sin and cos of a series or of an mpmath number, for writing f2."""

    @staticmethod
    def sin(u):
        return u.sin_cos()[0] if isinstance(u, Series) else u.context.sin(u)

    @staticmethod
    def cos(u):
        return u.sin_cos()[1] if isinstance(u, Series) else u.context.cos(u)


# coefficient rules: rule(s, k) runs with s.c holding coefficients 0..k-1,
# and first indexes its inputs up to the highest coefficient it reads

def _add(s, k):
    a, b = s.args
    return a[k] + b[k]


def _neg(s, k):
    return -s.args[0][k]


def _mul(s, k):
    a, b = s.args
    lo, hi = max(0, k - b.deg), min(k, a.deg)
    a[hi], b[k - lo]
    ac, bc = a.c, b.c
    acc = ac[lo] * bc[k - lo]
    for j in range(lo + 1, hi + 1):
        acc += ac[j] * bc[k - j]
    return acc


def _div(s, k):
    a, b = s.args
    if b[0] == 0:
        raise DomainError("series division by a series with zero constant term")
    lo = max(0, k - b.deg)
    b[k - lo]
    acc = a[k]
    for j in range(lo, k):
        acc -= s.c[j] * b.c[k - j]
    return acc / b.c[0]


def _trig_sum(s, k):
    """sum_{j=1..k} j u_j v_{k-j}, u the argument and v the partner series."""
    u, v = s.args
    hi = min(k, u.deg)
    u[hi], v[k - 1]
    acc = u.c[1] * v.c[k - 1]
    for j in range(2, hi + 1):
        acc += j * u.c[j] * v.c[k - j]
    return acc


def _sin(s, k):
    if k:
        return _trig_sum(s, k) / k
    u0 = s.args[0][0]
    return u0.context.sin(u0)


def _cos(s, k):
    if k:
        return -_trig_sum(s, k) / k
    u0 = s.args[0][0]
    return u0.context.cos(u0)


def _solution(s, k):
    """y_k = f_{k-2} / (k (k-1)), above the initial values y_0 and y_1."""
    return s.args[0][k - 2] / (k * (k - 1))


def _slope(s, k):
    """y'_k = (k+1) y_{k+1} = f_{k-1} / k, above the initial slope y'_0."""
    return s.args[0][k - 1] / k


class TracedODE:
    """y'' = f2(x, y, y'), traced once into a graph of lazy series.

    f2 may use + - * /, positive integer powers, numbers and ``ops.sin`` /
    ``ops.cos``; an f2 that returns a plain number is a constant.  The point
    (x, y, y') is given as mpmath numbers, as the integrator passes it.
    """

    def __init__(self, f2):
        self.x = Series.given([None, 1])
        self.y, self.yp = Series(_solution, None), Series(_slope, None)
        self.f = _lift(f2(self.x, self.y, self.yp))
        self.y.args = self.yp.args = (self.f,)
        seen, stack = {self.f}, [self.f]
        while stack:
            for child in stack.pop().args:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        inner = [n for n in seen if n.rule not in (None, _solution, _slope)]
        self._on_x = [n for n in inner if not n.on_y]
        self._on_y = [n for n in inner if n.on_y]
        self._point = (None, None, None)

    def at(self, x, y, yp):
        """Centre the graph at (x, y, y'), keeping what that point leaves valid.

        The same y and y' objects at an equal x keep every coefficient; nodes
        that depend on x alone are reset only when x changes.
        """
        px, py, pyp = self._point
        if x is not px and x != px:
            self.x.c[0] = x
            for n in self._on_x:
                n.c = []
        elif y is py and yp is pyp:
            return
        self._point = (x, y, yp)
        self.y.c, self.yp.c = [y, yp], [yp]
        for n in self._on_y:
            n.c = []

    def derivative(self, k: int):
        """The closure (x, y, y') -> y^(k) of the solution through that point."""
        f, n, scale, at = self.f, k - 2, math.factorial(k - 2), self.at

        def fk(x, y, yp):
            at(x, y, yp)
            return f[n] * scale if scale > 1 else f[n]

        return fk


def ode_series(ctx, f2, x0, y0, yp0, order: int) -> list:
    """Taylor coefficients 0..order of the solution of y'' = f2(x, y, y') at x0.

    ``f2`` is a right-hand side, traced here, or a :class:`TracedODE`.
    """
    graph = f2 if isinstance(f2, TracedODE) else TracedODE(f2)
    graph.at(ctx.mpf(x0), ctx.mpf(y0), ctx.mpf(yp0))
    return [ctx.mpf(graph.y[k]) for k in range(order + 1)]
