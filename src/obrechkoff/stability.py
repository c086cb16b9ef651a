"""Characteristic-equation analysis: stability pair, phase lag, error brackets.

Applying the two-step formula to y'' = -lambda^2 y and collecting the shift
polynomial gives A(v) s^2 - 2 B(v) s + A(v) with

    A(v) = 1 + beta10 v^2 - beta20 v^4 + beta30 v^6
    B(v) = 1 - (beta11/2) v^2 + (beta21/2) v^4 - (beta31/2) v^6.

Both roots sit on the unit circle exactly when |B/A| < 1, which defines the
interval of periodicity.  For fitted methods the coefficient set is evaluated
at the same v.  By the h^2, h^4 and h^6 order conditions A - B = v^2 G, G =
1/2 - v^2/24 + v^4/720 + beta10 (v^2/2 - v^4/24) - beta20 v^4/2, free of the
cancellation in 1 - B/A at small v.  A and G are formed on integers at the
binary point 2^-P of the set's weights (``CoefficientSet.fixed``, never the
mpf weights) and B = A - v^2 G, so A, B and B/A are each rounded once and
periodicity is one exact integer test.  The root angle is theta = 2 atan(|v|
sqrt(G / (A + B))), as tan^2(theta/2) = (A - B) / (A + B), from one integer
square root and one atan at a few guard bits, and v - theta is rounded once.
On the stability-scan grids at 50 digits B/A keeps within 0.11 units of
2^-166 |B/A|, A and B within 0.13, the phase lag within 3e-6 of 10^(2 -
digits) |v| (1.3e-5 next to pi and 2 pi, 1e-4 for the classical method).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as F

from mpmath.libmp import (finf, from_int, from_man_exp, mpf_abs, mpf_add, mpf_atan, mpf_div,
                          mpf_le, mpf_mul, mpf_neg, mpf_pi, mpf_shift, mpf_sub, to_int)

from .coefficients import CoefficientSet, MethodId, check_v, coefficients
from .context import Context
from .errors import DomainError, FitError, OutsidePeriodicityError, SingularParameterError
from .jets import RND, _fixed, _out

CLASSICAL_H14_BRACKET = F(-45469, 1697361329664000)
CLASSICAL_PHASE_LAG_CONSTANT = F(-45469, 3394722659328000)

#: bits the root angle of the phase lag keeps beyond the working precision
_ANGLE_GUARD_BITS = 10


@dataclass(frozen=True)
class StabilityPair:
    A: object
    B: object
    v: object


@dataclass(frozen=True)
class LeadingTermFit:
    exponent: int
    constant: object
    residual: object


@dataclass
class PeriodicityResult:
    v0_squared: object
    v_max: object
    hit_v_max: bool
    first_violation: object = None
    singular_points: list = field(default_factory=list)
    samples: int = 0


def _characteristic(coeffs: CoefficientSet, v):
    """(P, A, B, H): A(v), B(v) and H = 720 G at the raw number v, as integers
    at the 2^-P of ``coeffs.fixed``, by the order-condition form; B <= A where H >= 0."""
    P, (b10, _, b20, _, b30, _) = coeffs.fixed
    one = 1 << P
    V = abs(_fixed(v, P))
    v2 = V * V >> P
    v4 = v2 * v2 >> P
    A = one + ((b10 * v2 - b20 * v4 + (b30 * v4 >> P) * v2) >> P)
    H = 360 * one - 30 * v2 + v4 + ((b10 * (360 * v2 - 30 * v4) - 360 * b20 * v4) >> P)
    return P, A, A - (v2 * H >> P) // 720, H


def _ratio(P, A, B, prec):
    """B/A rounded once at prec bits, raw."""
    return mpf_div(from_man_exp(B, -P), from_man_exp(A, -P), prec, RND)


def stability_pair(coeffs: CoefficientSet, v) -> StabilityPair:
    """A(v), B(v) for the given weight set at step-frequency product v, each
    rounded once at the precision of the set's v."""
    mp = coeffs.v.context
    v = check_v(mp.mpf(v))
    P, A, B, _ = _characteristic(coeffs, v._mpf_)
    return StabilityPair(A=_out(mp, A, P), B=_out(mp, B, P), v=v)


def phase_lag(method: MethodId, v, ctx: Context):
    """t(v) = v - theta(v) where cos(theta) = B/A, theta tracked past pi.

    Raises OutsidePeriodicityError when |B/A| > 1 (no real root angle), and
    DomainError when v is not finite or not below 2^RANGE_BITS in magnitude.
    """
    v = check_v(ctx.mpf(v))
    return _lag(*_characteristic(coefficients(method, v, ctx), v._mpf_), v, ctx)


def _lag(P, A, B, H, v, ctx: Context):
    """Phase lag at the mpf v from ``_characteristic``; past pi, theta = 2 pi n
    +- the root angle in [0, pi], n the nearest integer to |v| / 2 pi."""
    prec = ctx.mp.prec
    if abs(B) > abs(A):
        raise OutsidePeriodicityError(
            f"|B/A| = {ctx.mp.nstr(abs(ctx.mp.make_mpf(_ratio(P, A, B, prec))), 8)} > 1 "
            f"at v = {ctx.mp.nstr(v, 8)}"
        )
    wp = prec + _ANGLE_GUARD_BITS
    a = mpf_abs(v._mpf_)
    _, man, exp, _ = a
    half = finf                 # tan(theta/2): infinite at A + B = 0, where theta = pi,
    if A + B:                   # else |v| sqrt(H / 720 (A + B)), the root taken at 2^-P
        half = from_man_exp(man * math.isqrt(max(0, (H << 2 * P) // (720 * (A + B)))), exp - P)
    theta = mpf_shift(mpf_atan(half, wp, RND), 1)
    two_pi = mpf_shift(mpf_pi(wp), 1)
    n = to_int(mpf_div(a, two_pi, wp), RND)
    if n:
        turns = mpf_mul(from_int(n), two_pi, wp)
        theta = (mpf_add if mpf_le(turns, a) else mpf_sub)(turns, theta, wp)
    t = mpf_sub(a, theta, prec, RND)
    return ctx.mp.make_mpf(mpf_neg(t) if v._mpf_[0] else t)


def fit_leading_term(f, window, ctx: Context) -> LeadingTermFit:
    """Fit f(v) ~ C v^q on a window by log-log regression.

    Uses 9 geometrically spaced samples; the exponent is the nearest integer
    to the slope and the constant the geometric mean of f(v)/v^q.  Sign
    changes or zeros inside the window reject the fit.
    """
    lo, hi = (ctx.mpf(window[0]), ctx.mpf(window[1]))
    if not (0 < lo < hi):
        raise DomainError("fit window must satisfy 0 < lo < hi")
    samples = 9
    ratio = (hi / lo) ** (ctx.mpf(1) / (samples - 1))
    vs = [lo * ratio ** i for i in range(samples)]
    fs = [f(v) for v in vs]
    signs = {1 if x > 0 else -1 if x < 0 else 0 for x in fs}
    if 0 in signs or len(signs) != 1:
        raise FitError("function changes sign or vanishes inside the fit window")
    sign = signs.pop()
    xs = [ctx.mp.log(v) for v in vs]
    ys = [ctx.mp.log(abs(x)) for x in fs]
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    exponent = int(ctx.mp.nint(slope))
    logc = (sy - exponent * sx) / n
    constant = sign * ctx.mp.exp(logc)
    resid = max(abs(fv / (constant * v ** exponent) - 1) for v, fv in zip(vs, fs))
    if resid > ctx.mpf("1e-3"):
        raise FitError(
            f"leading-term fit rejected: relative residual {ctx.mp.nstr(resid, 4)} "
            f"at exponent {exponent}"
        )
    return LeadingTermFit(exponent=exponent, constant=constant, residual=resid)


def lte_brackets(coeffs: CoefficientSet, ctx: Context):
    """The seven order brackets multiplying h^2 y'' ... h^14 y^(14), each
    formed exactly from ``coeffs.fixed`` and rounded once."""
    P, ints = coeffs.fixed
    b10, b11, b20, b21, b30, b31 = (F(b, 1 << P) for b in ints)
    out = [1 - b11 - 2 * b10, F(1, 12) - b10 - 2 * b20 - b21,
           F(1, 360) - b10 / 12 - b20 - 2 * b30 - b31]
    f = math.factorial
    out += [F(2, f(p)) - 2 * (b10 / f(p - 2) + b20 / f(p - 4) + b30 / f(p - 6))
            for p in (8, 10, 12, 14)]
    return [ctx.mpf(x) for x in out]


def periodicity_interval(method: MethodId, ctx: Context, v_max) -> PeriodicityResult:
    """Largest v0^2 <= v_max^2 with |B/A| < 1 - 10^(5-digits) on (0, v0).

    Grid scan in v at step 0.01, and at v_max when the grid falls short of it,
    plus bisection of the first failing cell to six significant digits; each
    point is one exact integer test on A and B.  Points where the fitted
    coefficients are singular are recorded: they are isolated poles at which
    B/A stays finite in the limit, so the grid skips them and the bisection
    probes next to the first one in its cell (a second stops it).  A v_max
    that is not finite and positive raises DomainError.
    """
    v_max = ctx.mpf(v_max)
    if not (ctx.mp.isfinite(v_max) and v_max > 0):
        raise DomainError("v_max must be finite and positive")
    step = ctx.mpf(0.01)
    tol = 10 ** (ctx.digits - 5)
    singular = []

    def inside(v):
        """Whether |B/A| < 1 - 10^(5-digits) at v; None, with v recorded, at a pole."""
        try:
            cs = coefficients(method, v, ctx)
        except SingularParameterError:
            singular.append(v)
            return None
        _, A, B, _ = _characteristic(cs, v._mpf_)
        return abs(B) * tol < abs(A) * (tol - 1)

    samples = 0
    lo = v = ctx.mpf(0)
    while v < v_max:
        samples += 1
        v = min(samples * step, v_max)
        ok = inside(v)
        if ok is False:
            break
        if ok:
            lo = v
    else:                               # no grid point fails up to v_max
        return PeriodicityResult(v0_squared=v_max * v_max, v_max=v_max,
                                 hit_v_max=True, singular_points=singular,
                                 samples=samples)
    hi = v
    poles = len(singular)
    # bisect to ~6 significant digits in v0
    target = hi * ctx.mpf(10) ** -7
    while hi - lo > target:
        mid = (lo + hi) / 2
        ok = inside(mid)
        if ok is None and len(singular) == poles + 1:   # the cell's first pole: step off it
            ok = inside(mid := mid + (hi - lo) / 64)
        if ok is None:
            break
        lo, hi = (mid, hi) if ok else (lo, mid)
    return PeriodicityResult(v0_squared=lo * lo, v_max=v_max, hit_v_max=False,
                             first_violation=hi, singular_points=singular,
                             samples=samples)


def stability_sweep(method: MethodId, v_grid, ctx: Context):
    """Rows (v, A, B, B/A, phase_lag, status); one coefficient set per row."""
    mp, prec = ctx.mp, ctx.mp.prec
    rows = []
    for v in v_grid:
        v = check_v(ctx.mpf(v))
        try:
            cs = coefficients(method, v, ctx)
        except SingularParameterError:
            rows.append((v, None, None, None, None, "singular"))
            continue
        P, A, B, H = _characteristic(cs, v._mpf_)
        try:
            pl, status = _lag(P, A, B, H, v, ctx), "ok"
        except OutsidePeriodicityError:
            pl, status = None, "outside-periodicity"
        rows.append((v, _out(mp, A, P), _out(mp, B, P), mp.make_mpf(_ratio(P, A, B, prec)),
                     pl, status))
    return rows
