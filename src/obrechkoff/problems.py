"""Benchmark initial value problems y'' = f2(x, y, y') and their derivative closures.

Each problem supplies only f2, written with ``ops.sin``/``ops.cos``.
:class:`ProblemDef` traces it once into a :class:`~obrechkoff.jets.TracedODE`
Taylor program and serves every closure fk(x, y, yp), k = 2..7, the k-th
derivative of the solution through (x, y, yp), from that program.  The
integrator reads F = (f2, f4, f6), and its step predictor, Newton partials
and Taylor startup, off the same program, as ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .context import Context
from .errors import ConfigurationError, DomainError
from .jets import GUARD_BITS, RANGE_BITS, TracedODE, _fixed, _out, _raw, in_range, ops


@dataclass(frozen=True)
class ProblemDef:
    """An initial value problem y'' = f2(x, y, y') with its derivative closures.

    Unless ``graph`` is given, f2 is traced into one; f2 itself and every
    closure f3..f7 left unset are then read off that graph.

    ``evaluate(x, y, yp, prec)``, called as the graph's ``tangents`` is and
    rebuilt by ``dataclasses.replace``, is the graph's ``even`` when f2,
    f4 and f6 are its closures; else it calls them at y, y' rounded out
    through ``jets._out`` in the context of x, and a value that is not finite
    is a DomainError, one of 2^RANGE_BITS or more +-2^(P + RANGE_BITS).
    """

    name: str
    x0: object
    x_end: object
    y0: object
    yp0: object
    f2: Callable
    f4: Optional[Callable] = None
    f6: Optional[Callable] = None
    f3: Optional[Callable] = None
    f5: Optional[Callable] = None
    f7: Optional[Callable] = None
    reference: Optional[Callable] = None
    reference_prime: Optional[Callable] = None
    default_omega: Optional[object] = None
    graph: Optional[TracedODE] = field(default=None, repr=False, compare=False)
    evaluate: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.graph is None:
            object.__setattr__(self, "graph", TracedODE(self.f2, self.name))
            for k in range(2, 8):
                if k == 2 or getattr(self, f"f{k}") is None:
                    object.__setattr__(self, f"f{k}", self.graph.derivative(k))
        own = all(getattr(self, f"f{k}") is self.graph.derivative(k) for k in (2, 4, 6))
        object.__setattr__(self, "evaluate", self.graph.even if own else self._from_closures)

    def _from_closures(self, x, y, yp, prec):
        P = prec + GUARD_BITS
        z = [_out(x.context, v, P) for v in (y, yp)]
        values = [_raw(f(x, *z)) for f in (self.f2, self.f4, self.f6)]
        if not all(v[1] or not v[2] for v in values):      # inf and nan: man 0, exp not
            raise DomainError("a closure value is not finite")
        return [_fixed(v, P) if in_range(v) else (-1 if v[0] else 1) << P + RANGE_BITS
                for v in values]


def duffing(ctx: Context) -> ProblemDef:
    """Undamped Duffing oscillator y'' = -y - y^3 + B cos(omega x), B = 0.002,
    omega = 1.01, on [0, 40.5 pi / 1.01].  The reference is a four-term
    odd-harmonic cosine expansion; its last retained amplitude (3.74e-10)
    bounds how closely any trajectory can be compared against it.
    """
    B, om = ctx.rational(2, 1000), ctx.rational(101, 100)
    K = (ctx.real("0.200179477536"), ctx.real("0.246946143e-3"),
         ctx.real("0.304016e-6"), ctx.real("0.374e-9"))
    sin, cos = ctx.mp.sin, ctx.mp.cos
    return ProblemDef(
        name="duffing", x0=ctx.mpf(0), x_end=ctx.real("40.5") * ctx.pi / om,
        y0=ctx.real("0.200426728067"), yp0=ctx.mpf(0),
        f2=lambda x, y, yp: -y - y ** 3 + B * ops.cos(om * x),
        reference=lambda x: sum(K[i] * cos((2 * i + 1) * om * x) for i in range(4)),
        reference_prime=lambda x: -sum(K[i] * (2 * i + 1) * om * sin((2 * i + 1) * om * x)
                                       for i in range(4)),
        default_omega=om)


def linear_forced(ctx: Context) -> ProblemDef:
    """Forced linear oscillator y'' = -100 y + 99 sin(x) on [0, 10 pi], with exact
    solution sin(x) + sin(10x) + cos(10x)."""
    sin, cos = ctx.mp.sin, ctx.mp.cos
    return ProblemDef(
        name="linear", x0=ctx.mpf(0), x_end=10 * ctx.pi, y0=ctx.mpf(1), yp0=ctx.mpf(11),
        f2=lambda x, y, yp: -100 * y + 99 * ops.sin(x),
        reference=lambda x: sin(x) + sin(10 * x) + cos(10 * x),
        reference_prime=lambda x: cos(x) + 10 * cos(10 * x) - 10 * sin(10 * x),
        default_omega=ctx.mpf(10))


def rational_problem(ctx: Context) -> ProblemDef:
    """Nonoscillatory problem y'' = 8 y^2 / (1 + 2x) on [0, 4.5], with exact
    solution 1/(1+2x).  No sensible fitting frequency exists, so default_omega
    stays unset."""
    return ProblemDef(
        name="rational", x0=ctx.mpf(0), x_end=ctx.real("4.5"), y0=ctx.mpf(1), yp0=ctx.mpf(-2),
        f2=lambda x, y, yp: 8 * y * y / (1 + 2 * x),
        reference=lambda x: 1 / (1 + 2 * x),
        reference_prime=lambda x: -2 / (1 + 2 * x) ** 2)


PROBLEMS = {"duffing": duffing, "linear": linear_forced, "rational": rational_problem}


def get_problem(name: str, ctx: Context) -> ProblemDef:
    try:
        factory = PROBLEMS[name.strip().lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown problem {name!r}; available: {', '.join(sorted(PROBLEMS))}"
        ) from None
    return factory(ctx)
