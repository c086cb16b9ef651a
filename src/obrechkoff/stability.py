"""Characteristic-equation analysis: stability pair, phase lag, error brackets.

Applying the two-step formula to y'' = -lambda^2 y and collecting the shift
polynomial gives A(v) s^2 - 2 B(v) s + A(v) with

    A(v) = 1 + beta10 v^2 - beta20 v^4 + beta30 v^6
    B(v) = 1 - (beta11/2) v^2 + (beta21/2) v^4 - (beta31/2) v^6.

Both roots sit on the unit circle exactly when |B/A| < 1, which defines the
interval of periodicity.  For fitted methods the coefficient set is evaluated
at the same v.  Where B/A > 1/2 and |v| <= pi the root angle is theta =
2 asin(sqrt((A - B) / 2A)), with A - B = v^2/2 - v^4/24 + v^6/720 + beta10
(v^4/2 - v^6/24) - beta20 v^6/2 by the h^2, h^4 and h^6 order conditions,
free of the cancellation in 1 - B/A at small v; elsewhere theta = acos(B/A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as F

from .coefficients import CoefficientSet, MethodId, coefficients
from .context import Context
from .errors import DomainError, FitError, OutsidePeriodicityError, SingularParameterError

#: order brackets of the local truncation error, h^2 ... h^14.  The first
#: three include the mid-node weights; from h^8 on only the end-node weights
#: enter.  All seven vanish for an order-12 set except the h^14 one.
LTE_BRACKET_POWERS = (2, 4, 6, 8, 10, 12, 14)

CLASSICAL_H14_BRACKET = F(-45469, 1697361329664000)
CLASSICAL_PHASE_LAG_CONSTANT = F(-45469, 3394722659328000)


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


def stability_pair(coeffs: CoefficientSet, v) -> StabilityPair:
    """A(v), B(v) for the given weight set at step-frequency product v."""
    v2 = v * v
    v4 = v2 * v2
    v6 = v4 * v2
    A = 1 + coeffs.beta10 * v2 - coeffs.beta20 * v4 + coeffs.beta30 * v6
    B = 1 - coeffs.beta11 / 2 * v2 + coeffs.beta21 / 2 * v4 - coeffs.beta31 / 2 * v6
    return StabilityPair(A=A, B=B, v=v)


def phase_lag(method: MethodId, v, ctx: Context):
    """t(v) = v - theta(v) where cos(theta) = B/A, theta tracked past pi.

    Raises OutsidePeriodicityError when |B/A| > 1 (no real root angle).
    """
    v = ctx.mpf(v)
    coeffs = coefficients(method, v, ctx)
    pair = stability_pair(coeffs, abs(v))
    return _lag(coeffs, pair, pair.B / pair.A, v, ctx)


def _lag(coeffs: CoefficientSet, pair: StabilityPair, ratio, v, ctx: Context):
    """Phase lag at v of the weight set whose characteristic ratio B/A is
    `ratio`; where B/A > 1/2 and |v| <= pi, from A - B (module docstring)."""
    _, man, exp, _ = v._mpf_
    if exp and not man:                 # inf and nan: a zero mantissa, a nonzero exponent
        raise DomainError(f"v = {v} is not finite")
    if abs(ratio) > 1:
        raise OutsidePeriodicityError(
            f"|B/A| = {ctx.mp.nstr(abs(ratio), 8)} > 1 at v = {ctx.mp.nstr(v, 8)}"
        )
    a = abs(v)
    if a <= ctx.pi:                     # k = 0: theta is the root angle itself
        if ratio > 0.5:
            v2, b10, b20 = a * a, coeffs.beta10, coeffs.beta20
            v4 = v2 * v2
            gap = v2 * (0.5 - v2 / 24 + v4 / 720 + b10 * (v2 / 2 - v4 / 24) - b20 * v4 / 2)
            theta = 2 * ctx.mp.asin(ctx.mp.sqrt(max(gap / (2 * pair.A), 0)))
        else:
            theta = ctx.mp.acos(ratio)
    else:
        theta0 = ctx.mp.acos(ratio)
        two_pi = 2 * ctx.pi
        k = int(ctx.mp.floor(a / two_pi))
        v_red = a - k * two_pi
        if v_red <= ctx.pi:
            theta = k * two_pi + theta0
        else:
            theta = (k + 1) * two_pi - theta0
    t = a - theta
    return t if v >= 0 else -t


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
    """The seven order brackets multiplying h^2 y'' ... h^14 y^(14)."""
    b10, b11, b20, b21, b30, b31 = coeffs.as_tuple()
    one = ctx.mpf(1)
    out = [
        1 - b11 - 2 * b10,
        one / 12 - b10 - 2 * b20 - b21,
        one / 360 - b10 / 12 - b20 - 2 * b30 - b31,
    ]
    for p in (8, 10, 12, 14):
        out.append(
            ctx.rational(2, math.factorial(p))
            - 2 * b10 / math.factorial(p - 2)
            - 2 * b20 / math.factorial(p - 4)
            - 2 * b30 / math.factorial(p - 6)
        )
    return out


def periodicity_interval(method: MethodId, ctx: Context, v_max) -> PeriodicityResult:
    """Largest v0^2 <= v_max^2 with |B/A| < 1 - 10^(5-digits) on (0, v0).

    Grid scan in v at step 0.01 plus bisection of the first failing cell
    to six significant digits.  Points where the fitted coefficients are
    singular are recorded: they are isolated poles at which the ratio B/A
    stays finite in the limit, so the grid skips them and the bisection
    stops at one.  A v_max that is not finite and positive raises
    DomainError.
    """
    v_max = ctx.mpf(v_max)
    if not (ctx.mp.isfinite(v_max) and v_max > 0):
        raise DomainError("v_max must be finite and positive")
    step = ctx.mpf(0.01)
    margin = ctx.mpf(10) ** (5 - ctx.digits)
    singular = []

    def inside(v):
        """Whether |B/A| < 1 - margin at v; None, with v recorded, at a pole."""
        try:
            cs = coefficients(method, v, ctx)
        except SingularParameterError:
            singular.append(v)
            return None
        pair = stability_pair(cs, v)
        return abs(pair.B / pair.A) < 1 - margin

    samples = 0
    lo = ctx.mpf(0)
    while (v := (samples + 1) * step) <= v_max:
        samples += 1
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
    # bisect to ~6 significant digits in v0
    target = hi * ctx.mpf(10) ** -7
    while hi - lo > target:
        mid = (lo + hi) / 2
        ok = inside(mid)
        if ok is None:
            break
        lo, hi = (mid, hi) if ok else (lo, mid)
    return PeriodicityResult(v0_squared=lo * lo, v_max=v_max, hit_v_max=False,
                             first_violation=hi, singular_points=singular,
                             samples=samples)


def stability_sweep(method: MethodId, v_grid, ctx: Context):
    """Rows (v, A, B, B/A, phase_lag, status); one coefficient set per row."""
    rows = []
    for v in v_grid:
        v = ctx.mpf(v)
        try:
            cs = coefficients(method, v, ctx)
        except SingularParameterError:
            rows.append((v, None, None, None, None, "singular"))
            continue
        pair = stability_pair(cs, abs(v))
        ratio = pair.B / pair.A
        try:
            pl, status = _lag(cs, pair, ratio, v, ctx), "ok"
        except OutsidePeriodicityError:
            pl, status = None, "outside-periodicity"
        rows.append((v, pair.A, pair.B, ratio, pl, status))
    return rows
