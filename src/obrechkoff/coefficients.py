"""Method coefficients for the two-step symmetric Obrechkoff family.

Three methods are provided:

* ``CLASSICAL``   -- constant coefficients, algebraic order 12.
* ``PL_PRIME``    -- trigonometrically fitted: exact on polynomials through
  degree 11 plus the pair {cos(w t), sin(w t)} at the fitting frequency w.
* ``PL_DOUBLE_PRIME`` -- fitted on polynomials through degree 7 plus the
  three harmonic pairs {cos(r w t), sin(r w t)}, r = 1, 2, 3.

All fitted coefficients depend on the dimensionless parameter v = w*h only
through v^2 and cos(r v), so they are even functions of v and tend to the
classical values as v -> 0.  There is one evaluation path: the closed forms,
at every v with v^2 >= 10^-digits.  Their numerators cancel to orders
v^12 .. v^24 at the origin, so they run on the caller's context with its
precision raised by the digits that cancellation costs, and round back once.
Below v^2 = 10^-digits the fitted weights equal the classical ones to working
precision.  The rational Taylor tables are exact validation data for the
closed forms; evaluation never uses them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction as F

from .context import Context
from .errors import ConfigurationError, SingularParameterError


class MethodId(enum.Enum):
    CLASSICAL = "classical"
    PL_PRIME = "plprime"
    PL_DOUBLE_PRIME = "pldoubleprime"

    @classmethod
    def parse(cls, name: str) -> "MethodId":
        key = name.strip().lower().replace("-", "").replace("_", "")
        aliases = {
            "classical": cls.CLASSICAL,
            "classic": cls.CLASSICAL,
            "plprime": cls.PL_PRIME,
            "pl1": cls.PL_PRIME,
            "pldoubleprime": cls.PL_DOUBLE_PRIME,
            "pl2": cls.PL_DOUBLE_PRIME,
        }
        try:
            return aliases[key]
        except KeyError:
            raise ConfigurationError(f"unknown method {name!r}") from None


COEFF_NAMES = ("beta10", "beta11", "beta20", "beta21", "beta30", "beta31")


@dataclass(frozen=True)
class CoefficientSet:
    """The six weights of the two-step sixth-derivative Obrechkoff formula."""

    beta10: object
    beta11: object
    beta20: object
    beta21: object
    beta30: object
    beta31: object
    v: object

    def as_tuple(self):
        return (self.beta10, self.beta11, self.beta20,
                self.beta21, self.beta30, self.beta31)


CLASSICAL_FRACTIONS = {
    "beta10": F(229, 7788),
    "beta11": F(3665, 3894),
    "beta20": F(-1, 2360),
    "beta21": F(711, 12980),
    "beta30": F(127, 39251520),
    "beta31": F(2923, 3925152),
}

# Taylor tables: coefficients of v^0, v^2, ..., v^12 for each weight, kept as
# exact validation data for the closed forms.
PL_PRIME_SERIES = {
    "beta10": (
        F(229, 7788),
        F(45469, 1314147120),
        F(85771, 341152592352),
        F(42739761203, 29358705101073004800),
        F(3801508031029, 608197283570236453277184),
        F(168279971604233, 13575027728788584540475136000),
        F(-266348222900207221, 2703381808485285252094734713548800),
    ),
    "beta11": (
        F(3665, 3894),
        F(-45469, 657073560),
        F(-85771, 170576296176),
        F(-42739761203, 14679352550536502400),
        F(-3801508031029, 304098641785118226638592),
        F(-168279971604233, 6787513864394292270237568000),
        F(266348222900207221, 1351690904242642626047367356774400),
    ),
    "beta20": (
        F(-1, 2360),
        F(-45469, 30105915840),
        F(-12253, 1116499393152),
        F(-42739761203, 672581244133672473600),
        F(-3801508031029, 13933246859972689656895488),
        F(-168279971604233, 310991544332247573109066752000),
        F(266348222900207221, 61932019612571989411624831619481600),
    ),
    "beta21": (
        F(711, 12980),
        F(-1045787, 33116507424),
        F(-1409095, 6140746662336),
        F(-983014507669, 739839368547039720960),
        F(-437173423568335, 76632857729849793112925184),
        F(-3870439346897359, 342090698765472330419973427200),
        F(266348222900207221, 2961966155383877754469013686149120),
    ),
    "beta30": (
        F(127, 39251520),
        F(45469, 1528454188800),
        F(12253, 56683815344640),
        F(42739761203, 34146432394478756352000),
        F(3801508031029, 707380225198613474888540160),
        F(168279971604233, 15788801481483338327075696640000),
        F(-266348222900207221, 3144240995715193308590183759142912000),
    ),
    "beta31": (
        F(2923, 3925152),
        F(-14231797, 9934952227200),
        F(-3835189, 368444799740160),
        F(-13377545256539, 221951810564111916288000),
        F(-1189872013712077, 4597971463790987586775511040),
        F(-52671631112124929, 102627209629641699125992028160000),
        F(83366993767764860173, 20437566472148756505836194434428928000),
    ),
}

PL_DOUBLE_PRIME_SERIES = {
    "beta10": (
        F(229, 7788),
        F(318283, 657073560),
        F(1512119, 118091281968),
        F(22946405723893, 44038057651609507200),
        F(18296930817563773, 651639946682396199939840),
        F(2913158423117216376847, 1649365869047813021667729024000),
        F(8050460719799780764991137, 68936236116374773928415735195494400),
    ),
    "beta11": (
        F(3665, 3894),
        F(-318283, 328536780),
        F(-1512119, 59045640984),
        F(-22946405723893, 22019028825804753600),
        F(-18296930817563773, 325819973341198099969920),
        F(-2913158423117216376847, 824682934523906510833864512000),
        F(-8050460719799780764991137, 34468118058187386964207867597747200),
    ),
    "beta20": (
        F(-1, 2360),
        F(-45469, 2150422560),
        F(-146366563, 167474908972800),
        F(-13663045830101, 336290622066836236800),
        F(-81824878004484479, 35543997091767065451264000),
        F(-264930975937930814987, 1799308220779432387273886208000),
        F(-54373332266248853758674493, 5541285965335388526303274408058880000),
    ),
    "beta21": (
        F(711, 12980),
        F(-1045787, 2365464816),
        F(-10184496007, 921111999350400),
        F(-162691107254479, 369919684273519860480),
        F(-4589005587219802631, 195491984004718859981952000),
        F(-582588392135442371849, 395847808571475125200254965760),
        F(-2446080156637919477841851381, 25176712320762960912986616332267520000),
    ),
    "beta30": (
        F(127, 39251520),
        F(45469, 109175299200),
        F(274576771, 7368895994803200),
        F(115636672827803, 39837504460225215744000),
        F(76494288958873853, 360908278162557895351296000),
        F(455635060442806091167, 30449831428575009630788843520000),
        F(136101812396019182508073199, 131285852101792282007800655206318080000),
    ),
    "beta31": (
        F(2923, 3925152),
        F(-14231797, 709639444800),
        F(-197204357, 736889599480320),
        F(-2226470262291239, 258943778991463902336000),
        F(-8664504427508131, 18767230464453010558267392),
        F(-347790156691544312063, 11642582605043386035301616640000),
        F(-6461961511769658995087759767, 3242760546914269365592676183596056576000),
    ),
}

TAYLOR_TABLES = {
    MethodId.PL_PRIME: PL_PRIME_SERIES,
    MethodId.PL_DOUBLE_PRIME: PL_DOUBLE_PRIME_SERIES,
}

# Cancellation depth of the closed forms: leading numerator order in v.
_CANCEL_ORDER = {MethodId.PL_PRIME: 12, MethodId.PL_DOUBLE_PRIME: 24}
_GUARD_DIGITS = {MethodId.PL_PRIME: 15, MethodId.PL_DOUBLE_PRIME: 25}


def classical_coefficients(ctx: Context) -> CoefficientSet:
    """The constant order-12 weight set, converted once at ctx precision."""
    vals = {k: ctx.mpf(f) for k, f in CLASSICAL_FRACTIONS.items()}
    return CoefficientSet(v=ctx.mpf(0), **vals)


def _boost_digits(method: MethodId, v_abs: float) -> int:
    order = _CANCEL_ORDER[method]
    lost = order * math.log10(1.0 / min(max(v_abs, 1e-300), 0.5)) if v_abs < 0.5 else 0.0
    return int(math.ceil(lost)) + _GUARD_DIGITS[method]


def _singular_check(ctx, method, v, value, scale, vanish_order):
    # the denominators legitimately vanish like v^k as v -> 0 (k = the
    # cancellation depth), so the pole floor shrinks with min(1, |v|)^k
    floor = ctx.mpf(10) ** (5 - ctx.digits) * min(ctx.mpf(1), abs(ctx.mpf(v))) ** vanish_order
    if abs(value) < floor * scale:
        raise SingularParameterError(
            f"{method.value} coefficients are singular near v = {ctx.mp.nstr(v, 8)}",
            v=v,
        )


def plprime_closed(v, ctx: Context) -> CoefficientSet:
    """Closed-form PL' coefficients at fitting parameter v (v != 0).

    Each weight is prefactor/v^2 times a trig-polynomial numerator over the
    common denominator; everything cancels to O(v^12)/O(v^10), so evaluation
    runs at boosted precision on ctx and rounds back once.
    """
    v_in = ctx.mpf(v)
    with ctx.mp.extradps(_boost_digits(MethodId.PL_PRIME, abs(float(v_in)))):
        vv = abs(ctx.mpf(v))
        c1 = ctx.mp.cos(vv)
        v2 = vv * vv
        v4 = v2 * v2
        v6 = v4 * v2
        den = (15120 * c1 - 15120 + 6900 * v2 - 313 * v4 + 660 * v2 * c1
               + 13 * v4 * c1)
        scale = max(15120 + 15120, abs(6900 * v2), abs(313 * v4),
                    abs(660 * v2 * c1), abs(13 * v4 * c1))
        _singular_check(ctx, MethodId.PL_PRIME, v_in, den, scale, vanish_order=10)
        n10 = (-45360 * v2 + 3702 * v4 - 89 * v6 + 78 * v4 * c1 + 2 * v6 * c1
               + 90720 - 90720 * c1)
        n11 = (45360 * v2 * c1 + 16998 * v4 - 850 * v6 + 37 * v6 * c1 - 90720
               + 90720 * c1 + 1902 * v4 * c1)
        n20 = (-65520 * v2 * c1 - 1597680 * v2 + 105840 * v4 - 1907 * v6
               + 17 * v6 * c1 + 3326400 - 3326400 * c1)
        n21 = (3109680 * v2 * c1 + 14278320 * v2 - 30257 * v6 + 1907 * v6 * c1
               - 34776000 + 34776000 * c1 + 105840 * v4 * c1)
        n30 = (3360 * v2 * c1 + 62160 * v2 - 3814 * v4 + 59 * v6 + 34 * v4 * c1
               - 131040 + 131040 * c1)
        n31 = (149520 * v2 * c1 + 1428000 * v2 - 60514 * v4 + 59 * v6 * c1
               - 3155040 + 3155040 * c1 + 3814 * v4 * c1)
        d = v2 * den
        vals = {
            "beta10": n10 / (6 * d),
            "beta11": n11 / (3 * d),
            "beta20": -n20 / (5040 * d),
            "beta21": n21 / (2520 * d),
            "beta30": -n30 / (10080 * d),
            "beta31": n31 / (5040 * d),
        }
    return CoefficientSet(v=v_in, **{k: ctx.mpf(x) for k, x in vals.items()})


def _pl2_numden(w, vv):
    """Numerator/denominator trig polynomials of the PL'' beta31 weight.

    beta31 = num / (1080 v^6 den).  Both trig polynomials cancel to O(v^24)
    at the origin, which fixes the normalisation: attaching the prefactor's
    v^6 to the final +240cos(2v) denominator term instead would drive the
    small-v limit to zero and break the order conditions.
    """
    c1, c2, c3 = w.mp.cos(vv), w.mp.cos(2 * vv), w.mp.cos(3 * vv)
    v2 = vv * vv
    v4 = v2 * v2
    v6 = v4 * v2
    v8 = v4 * v4
    num = (-14400 + 213800 * c3 * v4 * c1 - 36000 * c2 * c1 * v2
           + 14400 * c3 * c1 * c2 - 72000 * c3 * c1 * v2 + 20275 * c3 * v4 * c2
           - 93600 * c3 * v2 * c2 + 9660 * c3 * v6 * c2 + 20832 * c3 * v6 * c1
           - 10332 * c1 * v6 * c2 + 14400 * c1 - 14400 * c3 * c2
           - 14400 * c2 * c1 + 14400 * c2 + 14400 * c3 - 116475 * c2 * v4 * c1
           + 100800 * c3 * c1 * c2 * v2 + 29400 * c3 * c1 * c2 * v4
           + 720 * c3 * c1 * c2 * v6 + 7200 * c1 * v2 + 2875 * c1 * v4
           + 1830 * c1 * v6 + 28800 * c2 * v2 + 99200 * c2 * v4
           - 46848 * c2 * v6 + 64800 * c3 * v2 - 249075 * c3 * v4
           + 88938 * c3 * v6 - 14400 * c3 * c1 - 810 * c3 * v8 * c2
           + 1296 * c3 * v8 * c1 - 486 * c1 * v8 * c2)
    den = (240 * c1 - 81 * c2 * v4 * c1 - 240 * c3 * c1 - 240 * c2 * c1
           + 96 * c3 * v4 * c1 + 75 * c1 * v4 - 1107 * c2 * c1 * v2
           + 240 * c3 * c1 * c2 + 115 * c1 * v2 + 992 * c3 * c1 * v2 - 240
           - 15 * c3 * v4 * c2 + 115 * c3 * v2 * c2 - 240 * c3 * c2
           - 480 * c2 * v4 + 992 * c2 * v2 + 405 * c3 * v4 - 1107 * c3 * v2
           + 240 * c3 + 240 * c2)
    return num, den, (c1, c2)


def pldoubleprime_closed(v, ctx: Context) -> CoefficientSet:
    """Closed-form PL'' coefficients at fitting parameter v (v != 0).

    beta31 comes from its trig-rational form; the remaining five weights
    solve the defining exactness conditions: vanishing h^2/h^4/h^6 order
    brackets plus characteristic-root fit at the first and second harmonic
    (the third-harmonic condition is then satisfied identically).  Like
    PL', everything runs at boosted precision on ctx and rounds back once.
    """
    v_in = ctx.mpf(v)
    with ctx.mp.extradps(_boost_digits(MethodId.PL_DOUBLE_PRIME, abs(float(v_in)))):
        vv = abs(ctx.mpf(v))
        num, den, (c1, c2) = _pl2_numden(ctx, vv)
        _singular_check(ctx, MethodId.PL_DOUBLE_PRIME, v_in, den,
                        ctx.mpf(240 * 8) + 1000 * vv ** 4, vanish_order=18)
        b31 = num / (1080 * vv ** 6 * den)

        one = ctx.mpf(1)

        def pqr(x, cx):
            x2 = x * x
            x4 = x2 * x2
            x6 = x4 * x2
            p = x2 * (cx - 1) + x4 / 2 - x6 * cx / 24
            q = x4 * (1 - cx) - x6 * cx / 2
            r = (1 - cx) - x2 / 2 + x4 / 24 - b31 * x6 / 2 - (one / 360 - b31) * x6 * cx / 2
            return p, q, r

        p1, q1, r1 = pqr(vv, c1)
        p2, q2, r2 = pqr(2 * vv, c2)
        det = p1 * q2 - p2 * q1
        _singular_check(ctx, MethodId.PL_DOUBLE_PRIME, v_in, det,
                        abs(p1 * q2) + abs(p2 * q1), vanish_order=2)
        b10 = (r1 * q2 - r2 * q1) / det
        b20 = (p1 * r2 - p2 * r1) / det
        b11 = 1 - 2 * b10
        b21 = one / 12 - b10 - 2 * b20
        b30 = (one / 360 - b31 - b10 / 12 - b20) / 2
        vals = (b10, b11, b20, b21, b30, b31)
    return CoefficientSet(v=v_in, **dict(zip(COEFF_NAMES, (ctx.mpf(x) for x in vals))))


def taylor_fallback(method: MethodId, v, ctx: Context) -> CoefficientSet:
    """Series evaluation through the v^12 term.

    Exact-rational validation data for the closed forms near the origin.
    :func:`coefficients` does not use it: its v^14 truncation error exceeds
    the working precision well inside the range where the fitted weights
    differ from the classical ones, while the closed forms do not.
    """
    if method not in TAYLOR_TABLES:
        raise ConfigurationError("taylor_fallback applies to the fitted methods only")
    table = TAYLOR_TABLES[method]
    v_in = ctx.mpf(v)
    v2 = v_in * v_in
    vals = {}
    for name, coeffs in table.items():
        acc = ctx.mpf(0)
        for c in reversed(coeffs):
            acc = acc * v2 + ctx.mpf(c)
        vals[name] = acc
    return CoefficientSet(v=v_in, **vals)


def coefficients(method: MethodId, v, ctx: Context) -> CoefficientSet:
    """Coefficient set for (method, v), accurate to working precision.

    The classical method ignores v (recorded as 0).  Fitted methods evaluate
    their closed forms whenever v^2 >= 10^-digits; below that they differ
    from the classical weights by less than one unit in the last place, so
    the classical set is returned with v recorded.  Both are even in v.
    """
    if method is MethodId.CLASSICAL:
        return classical_coefficients(ctx)
    v_in = ctx.mpf(v)
    if v_in * v_in < ctx.eps():
        return replace(classical_coefficients(ctx), v=v_in)
    if method is MethodId.PL_PRIME:
        return plprime_closed(v_in, ctx)
    return pldoubleprime_closed(v_in, ctx)


def coefficient_sweep(method: MethodId, v_grid, ctx: Context):
    """Rows (v, beta10..beta31, status) over a v grid; singular rows flagged."""
    rows = []
    for v in v_grid:
        try:
            cs = coefficients(method, v, ctx)
            rows.append((ctx.mpf(v),) + cs.as_tuple() + ("ok",))
        except SingularParameterError:
            rows.append((ctx.mpf(v),) + (None,) * 6 + ("singular",))
    return rows
