"""Benchmark initial value problems with derivative closures through order 7.

Each closure receives (x, y, yp) and returns one higher derivative of the
solution, obtained by total differentiation of the right-hand side.  The even
closures f2/f4/f6 feed the integrator; the odd ones serve the step
predictor and testing.  f2 never involves yp (the problem class is
y'' = f(x, y)), which also lets it run on Taylor jets for series startup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .context import Context
from .errors import ConfigurationError


@dataclass(frozen=True)
class ProblemDef:
    name: str
    x0: object
    x_end: object
    y0: object
    yp0: object
    f2: Callable
    f4: Callable
    f6: Callable
    f3: Optional[Callable] = None
    f5: Optional[Callable] = None
    f7: Optional[Callable] = None
    reference: Optional[Callable] = None
    reference_prime: Optional[Callable] = None
    default_omega: Optional[object] = None

    def closure(self, order: int):
        c = {2: self.f2, 3: self.f3, 4: self.f4, 5: self.f5,
             6: self.f6, 7: self.f7}[order]
        if c is None:
            raise ConfigurationError(f"{self.name}: derivative closure of order {order} not available")
        return c


def duffing(ctx: Context) -> ProblemDef:
    """Undamped Duffing oscillator with a small periodic forcing.

        y'' = -y - y^3 + B cos(omega x),  B = 0.002, omega = 1.01

    on [0, 40.5 pi / 1.01].  The reference is a four-term odd-harmonic
    cosine expansion; its last retained amplitude (3.74e-10) bounds how
    closely any trajectory can be compared against it.
    """
    B = ctx.rational(2, 1000)
    om = ctx.rational(101, 100)
    K = (ctx.real("0.200179477536"), ctx.real("0.246946143e-3"),
         ctx.real("0.304016e-6"), ctx.real("0.374e-9"))
    sin, cos = ctx.mp.sin, ctx.mp.cos

    def f2(x, y, yp):
        if hasattr(x, "cos"):     # jet path for series startup
            return -y - y ** 3 + B * (om * x).cos()
        return -y - y ** 3 + B * cos(om * x)

    def f3(x, y, yp):
        return -(1 + 3 * y * y) * yp - B * om * sin(om * x)

    def f4(x, y, yp):
        y2 = f2(x, y, yp)
        return -(1 + 3 * y * y) * y2 - 6 * y * yp * yp - B * om ** 2 * cos(om * x)

    def f5(x, y, yp):
        y2 = f2(x, y, yp)
        y3 = f3(x, y, yp)
        return (-(1 + 3 * y * y) * y3 - 18 * y * yp * y2 - 6 * yp ** 3
                + B * om ** 3 * sin(om * x))

    def f6(x, y, yp):
        y2 = f2(x, y, yp)
        y3 = f3(x, y, yp)
        y4 = f4(x, y, yp)
        return (-(1 + 3 * y * y) * y4 - 24 * y * yp * y3 - 36 * yp * yp * y2
                - 18 * y * y2 * y2 + B * om ** 4 * cos(om * x))

    def f7(x, y, yp):
        y2 = f2(x, y, yp)
        y3 = f3(x, y, yp)
        y4 = f4(x, y, yp)
        y5 = f5(x, y, yp)
        return (-(1 + 3 * y * y) * y5 - 30 * y * yp * y4 - 60 * yp * yp * y3
                - 60 * y * y2 * y3 - 90 * yp * y2 * y2 - B * om ** 5 * sin(om * x))

    def reference(x):
        return sum(K[i] * cos((2 * i + 1) * om * x) for i in range(4))

    def reference_prime(x):
        return -sum(K[i] * (2 * i + 1) * om * sin((2 * i + 1) * om * x)
                    for i in range(4))

    return ProblemDef(
        name="duffing",
        x0=ctx.mpf(0),
        x_end=ctx.real("40.5") * ctx.pi / om,
        y0=ctx.real("0.200426728067"),
        yp0=ctx.mpf(0),
        f2=f2, f3=f3, f4=f4, f5=f5, f6=f6, f7=f7,
        reference=reference, reference_prime=reference_prime,
        default_omega=om,
    )


def linear_forced(ctx: Context) -> ProblemDef:
    """Forced linear oscillator y'' = -100 y + 99 sin(x) on [0, 10 pi].

    Exact solution sin(x) + sin(10x) + cos(10x); the even closures are free
    of yp because the equation is linear in y.
    """
    sin, cos = ctx.mp.sin, ctx.mp.cos

    def f2(x, y, yp):
        if hasattr(x, "sin"):
            return -100 * y + 99 * x.sin()
        return -100 * y + 99 * sin(x)

    def f3(x, y, yp):
        return -100 * yp + 99 * cos(x)

    def f4(x, y, yp):
        return -100 * f2(x, y, yp) - 99 * sin(x)

    def f5(x, y, yp):
        return -100 * f3(x, y, yp) - 99 * cos(x)

    def f6(x, y, yp):
        return -100 * f4(x, y, yp) + 99 * sin(x)

    def f7(x, y, yp):
        return -100 * f5(x, y, yp) + 99 * cos(x)

    def reference(x):
        return sin(x) + sin(10 * x) + cos(10 * x)

    def reference_prime(x):
        return cos(x) + 10 * cos(10 * x) - 10 * sin(10 * x)

    return ProblemDef(
        name="linear",
        x0=ctx.mpf(0),
        x_end=10 * ctx.pi,
        y0=ctx.mpf(1),
        yp0=ctx.mpf(11),
        f2=f2, f3=f3, f4=f4, f5=f5, f6=f6, f7=f7,
        reference=reference, reference_prime=reference_prime,
        default_omega=ctx.mpf(10),
    )


def rational_problem(ctx: Context) -> ProblemDef:
    """Nonoscillatory problem y'' = 8 y^2 / (1 + 2x) on [0, 4.5].

    Exact solution 1/(1+2x); all higher closures follow from total
    differentiation with s = 1/(1+2x).  No sensible fitting frequency
    exists, so default_omega stays unset.
    """

    def f2(x, y, yp):
        return 8 * y * y / (1 + 2 * x)

    def f3(x, y, yp):
        s = 1 / (1 + 2 * x)
        return 16 * y * yp * s - 16 * y * y * s * s

    def f4(x, y, yp):
        s = 1 / (1 + 2 * x)
        y2 = f2(x, y, yp)
        return 16 * yp * yp * s + 16 * y * y2 * s - 64 * y * yp * s * s + 64 * y * y * s ** 3

    def f5(x, y, yp):
        s = 1 / (1 + 2 * x)
        y2 = f2(x, y, yp)
        y3 = f3(x, y, yp)
        return (16 * y * y3 * s + 48 * yp * y2 * s - 96 * yp * yp * s * s
                - 96 * y * y2 * s * s + 384 * y * yp * s ** 3 - 384 * y * y * s ** 4)

    def f6(x, y, yp):
        s = 1 / (1 + 2 * x)
        y2 = f2(x, y, yp)
        y3 = f3(x, y, yp)
        y4 = f4(x, y, yp)
        return (16 * y * y4 * s + 64 * yp * y3 * s + 48 * y2 * y2 * s
                - 128 * y * y3 * s * s - 384 * yp * y2 * s * s
                + 768 * yp * yp * s ** 3 + 768 * y * y2 * s ** 3
                - 3072 * y * yp * s ** 4 + 3072 * y * y * s ** 5)

    def f7(x, y, yp):
        s = 1 / (1 + 2 * x)
        y2 = f2(x, y, yp)
        y3 = f3(x, y, yp)
        y4 = f4(x, y, yp)
        y5 = f5(x, y, yp)
        return (16 * y * y5 * s + 80 * yp * y4 * s + 160 * y2 * y3 * s
                - 160 * y * y4 * s * s - 640 * yp * y3 * s * s
                - 480 * y2 * y2 * s * s + 1280 * y * y3 * s ** 3
                + 3840 * yp * y2 * s ** 3 - 7680 * yp * yp * s ** 4
                - 7680 * y * y2 * s ** 4 + 30720 * y * yp * s ** 5
                - 30720 * y * y * s ** 6)

    def reference(x):
        return 1 / (1 + 2 * x)

    def reference_prime(x):
        return -2 / (1 + 2 * x) ** 2

    return ProblemDef(
        name="rational",
        x0=ctx.mpf(0),
        x_end=ctx.real("4.5"),
        y0=ctx.mpf(1),
        yp0=ctx.mpf(-2),
        f2=f2, f3=f3, f4=f4, f5=f5, f6=f6, f7=f7,
        reference=reference, reference_prime=reference_prime,
        default_omega=None,
    )


PROBLEMS = {
    "duffing": duffing,
    "linear": linear_forced,
    "rational": rational_problem,
}


def get_problem(name: str, ctx: Context) -> ProblemDef:
    try:
        factory = PROBLEMS[name.strip().lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown problem {name!r}; available: {', '.join(sorted(PROBLEMS))}"
        ) from None
    return factory(ctx)
