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
v^12 .. v^24 at the origin, so they run at the caller's precision raised by
the digits that cancellation costs (for PL'' above |v| = 1 also the
2 log10 |v| digits that its beta30 and beta31, falling like v^-2, lose to
absolute errors), and round back once.  They run on Python integers at one
binary point 2^-P, P = dps_to_prec(digits + boost), as the Taylor program in
``jets`` does; libmp is met only where |v| and each cosine (``mpf_cos``)
come in and where the weights are rounded out to nearest.  Each trig
polynomial is a table of integer weights, one row per power of v^2, over
products of cos v, cos 2v and cos 3v: a row is one exact integer dot
product, Horner's rule in v^2 combines the rows, and each product or
quotient shifts or floor-divides once.  Next to a pole, where a denominator
keeps fewer than 3 digits beyond the working precision, the boost is raised
by the digits it lost and the weights evaluated again.  A denominator below 10^(5 - digits) of its
scale raises SingularParameterError; that test is one exact integer
comparison.  Below v^2 = 10^-digits the fitted weights equal the classical
ones to working precision.  The rational Taylor tables are exact validation
data for the closed forms; evaluation never uses them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction as F
from operator import mul

from mpmath.libmp import dps_to_prec, from_man_exp, mpf_cos

from .context import Context
from .errors import ConfigurationError, DomainError, SingularParameterError
from .jets import RANGE_BITS, RND, _fixed, _raw, in_range


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

# The closed forms as integer weight tables.  Row k of a table holds the
# weights of a basis of cosine products in the coefficient of v^(2k), so a
# trig polynomial is sum_k v^(2k) (row_k . basis), evaluated by Horner's rule
# in v^2 with one exact dot product per row.
#
# PL': basis (1, cos v).  The numerators of beta10 .. beta31, in COEFF_NAMES
# order, are scaled so that every weight is numerator / (10080 v^2 den).
_PL1_DEN = ((-15120, 15120), (6900, 660), (-313, 13))
_PL1_NUM = (
    ((152409600, -152409600), (-76204800, 0), (6219360, 131040), (-149520, 3360)),
    ((-304819200, 304819200), (0, 152409600), (57113280, 6390720), (-2856000, 124320)),
    ((-6652800, 6652800), (3195360, 131040), (-211680, 0), (3814, -34)),
    ((-139104000, 139104000), (57113280, 12438720), (0, 423360), (-121028, 7628)),
    ((131040, -131040), (-62160, -3360), (3814, -34), (-59, 0)),
    ((-6310080, 6310080), (2856000, 299040), (-121028, 7628), (0, 118)),
)
# PL'' beta31 = num / (1080 v^6 den); basis (1, c1, c2, c3, c1 c2, c1 c3,
# c2 c3, c1 c2 c3) with cr = cos(r v).
_PL2_NUM = (
    (-14400, 14400, 14400, 14400, -14400, -14400, -14400, 14400),
    (0, 7200, 28800, 64800, -36000, -72000, -93600, 100800),
    (0, 2875, 99200, -249075, -116475, 213800, 20275, 29400),
    (0, 1830, -46848, 88938, -10332, 20832, 9660, 720),
    (0, 0, 0, 0, -486, 1296, -810, 0),
)
_PL2_DEN = (
    (-240, 240, 240, 240, -240, -240, -240, 240),
    (0, 115, 992, -1107, -1107, 992, 115, 0),
    (0, 75, -480, 405, -81, 96, -15, 0),
)
# The rest of PL'' solves p_r beta10 + q_r beta20 = r_r for the harmonics
# r = 1, 2.  Rows give 24 p_r, 2 q_r and 720 r_r over the terms (v^2 c,
# v^2, v^4, v^4 c, v^6 c, 1, c, beta31 v^6, beta31 v^6 c) with c = cos(r v).
_PL2_PQR = (
    ((24, -24, 12, 0, -1, 0, 0, 0, 0),
     (0, 0, 2, -2, -1, 0, 0, 0, 0),
     (0, -360, 30, 0, -1, 720, -720, -360, 360)),
    ((96, -96, 192, 0, -64, 0, 0, 0, 0),
     (0, 0, 32, -32, -64, 0, 0, 0, 0),
     (0, -1440, 480, 0, -64, 720, -720, -23040, 23040)),
)
_PQR_DIVISORS = (24, 2, 720)
# digits a denominator keeps beyond the working precision: with fewer, the
# last bit of a weight next to a pole can come out wrong
_SPARE_DIGITS = 3
# the pole floor of each denominator shrinks like min(1, |v|)^k, k even
_VANISH_ORDER = {MethodId.PL_PRIME: 10, MethodId.PL_DOUBLE_PRIME: 18}


def classical_coefficients(ctx: Context) -> CoefficientSet:
    """The constant order-12 weight set, converted once at ctx precision."""
    vals = {k: ctx.mpf(f) for k, f in CLASSICAL_FRACTIONS.items()}
    return CoefficientSet(v=ctx.mpf(0), **vals)


def _boost_digits(method: MethodId, v) -> int:
    """Guard digits for the closed forms at v, a float or an mpf: the
    cancellation depth below |v| = 0.5, and for PL'' above |v| = 1 the digits
    that its beta30 and beta31, which fall like v^-2, lose to absolute errors.
    log10 |v| is read off the mantissa and exponent, so v may lie outside the
    float range."""
    _, man, exp, _ = _raw(v)
    log_v = math.log10(man) + exp * math.log10(2) if man else 0.0  # v = 0 fails the pole test
    if log_v < math.log10(0.5):
        lost = -_CANCEL_ORDER[method] * log_v
    elif log_v > 0 and method is MethodId.PL_DOUBLE_PRIME:
        lost = 2 * log_v
    else:
        lost = 0.0
    return int(math.ceil(lost)) + _GUARD_DIGITS[method]


def _horner(rows, basis, v2, P):
    """sum_k v^(2k) (row_k . basis) at 2^-P, from the basis at 2^-P and v2 =
    v^2 at 2^-2P: each row is one exact dot product, and each product of the
    sum so far with v^2 one shift."""
    acc = 0
    for row in reversed(rows):
        acc = sum(map(mul, row, basis)) + (acc * v2 >> 2 * P)
    return acc


def _cos(x, P):
    """cos(x 2^-P) at 2^-P for the integer x."""
    return _fixed(mpf_cos(from_man_exp(x, -P), P, RND), P)


def _singular_check(ctx, method, v, value, scale, vanish_order, v2, P):
    """Raise SingularParameterError when |value| <= floor * scale, where
    floor = 10^(5 - digits) min(1, |v|)^vanish_order.

    value and scale are integers at one binary point and v2 = v^2 at 2^-2P,
    so the test is one exact comparison.  The denominators legitimately
    vanish like v^k as v -> 0 (k = the cancellation depth), hence the factor
    in |v|; at v = 0 both sides are 0, and the forms are 0/0.
    """
    k = vanish_order
    if abs(value) * 10 ** (ctx.digits - 5) << P * k <= min(v2, 1 << 2 * P) ** (k // 2) * scale:
        raise SingularParameterError(
            f"{method.value} coefficients are singular near v = {ctx.mp.nstr(v, 8)}",
            v=v,
        )


def _boosted(method, v, ctx, terms):
    """Run ``terms(V, P) -> (den, scale, rest)`` at the boosted binary point
    2^-P, V = |v| 2^P.

    When the denominator keeps fewer than _SPARE_DIGITS digits beyond the
    working precision, which only happens next to a pole, the boost is raised
    by the digits it lost and the terms are evaluated again.  Returns (P,
    den, rest).
    """
    boost = _boost_digits(method, v)
    while True:
        P = dps_to_prec(ctx.mp.dps + boost)
        V = abs(_fixed(v._mpf_, P))
        den, scale, rest = terms(V, P)
        _singular_check(ctx, method, v, den, scale, _VANISH_ORDER[method], V * V, P)
        lost = math.log10(scale) - math.log10(abs(den))
        if lost <= boost - _SPARE_DIGITS:
            return P, den, rest
        boost += math.ceil(lost)


def _rounded_set(v, ctx, P, vals):
    """The weights ``vals``, integers at 2^-P, rounded to nearest at ctx."""
    prec = ctx.mp.prec
    return CoefficientSet(v=v, **{name: ctx.mp.make_mpf(from_man_exp(x, -P, prec, RND))
                                  for name, x in zip(COEFF_NAMES, vals)})


def _pl1_terms(V, P):
    v2 = V * V
    basis = (1 << P, _cos(V, P))
    den = _horner(_PL1_DEN, basis, v2, P)
    # the largest of |15120 + 15120|, |6900 v^2|, |313 v^4| and of the terms
    # 660 v^2 c1, 13 v^4 c1, which never exceed them
    scale = max(30240 << P, 6900 * v2 >> P, 313 * v2 * v2 >> 3 * P)
    return den, scale, (basis, v2)


def plprime_closed(v, ctx: Context) -> CoefficientSet:
    """Closed-form PL' coefficients at fitting parameter v (v != 0).

    Each weight is a trig-polynomial numerator over the common denominator
    10080 v^2 den; everything cancels to O(v^12)/O(v^10), so evaluation runs
    at a boosted binary point and rounds back once.
    """
    v_in = ctx.mpf(v)
    P, den, (basis, v2) = _boosted(MethodId.PL_PRIME, v_in, ctx, _pl1_terms)
    d = 10080 * den * v2
    return _rounded_set(v_in, ctx, P, ((_horner(rows, basis, v2, P) << 3 * P) // d
                                       for rows in _PL1_NUM))


def _pl2_terms(V, P):
    c1, c2, c3 = (_cos(r * V, P) for r in (1, 2, 3))
    basis = (1 << P, c1, c2, c3, c1 * c2 >> P, c1 * c3 >> P, c2 * c3 >> P,
             c1 * c2 * c3 >> 2 * P)
    v2 = V * V
    num = _horner(_PL2_NUM, basis, v2, P)
    den = _horner(_PL2_DEN, basis, v2, P)
    scale = (240 * 8 << P) + (1000 * v2 * v2 >> 3 * P)
    return den, scale, (num, c1, c2, v2)


def pldoubleprime_closed(v, ctx: Context) -> CoefficientSet:
    """Closed-form PL'' coefficients at fitting parameter v (v != 0).

    beta31 comes from its trig-rational form; the remaining five weights
    solve the defining exactness conditions: vanishing h^2/h^4/h^6 order
    brackets plus characteristic-root fit at the first and second harmonic
    (the third-harmonic condition is then satisfied identically).  Like
    PL', everything runs at a boosted binary point and rounds back once.
    """
    v_in = ctx.mpf(v)
    P, den, (num, c1, c2, v2) = _boosted(MethodId.PL_DOUBLE_PRIME, v_in, ctx, _pl2_terms)
    one = 1 << P
    v4 = v2 * v2                        # at 2^-4P
    v6 = v4 * v2                        # at 2^-6P
    d = 1080 * den
    b31, b31v6 = (num << 7 * P) // (d * v6), (num << P) // d

    def pqr(rows, c):
        terms = (v2 * c >> 2 * P, v2 >> P, v4 >> 3 * P, v4 * c >> 4 * P, v6 * c >> 6 * P, one, c,
                 b31v6, num * c // d)
        return [sum(map(mul, row, terms)) // k for row, k in zip(rows, _PQR_DIVISORS)]

    (p1, q1, r1), (p2, q2, r2) = pqr(_PL2_PQR[0], c1), pqr(_PL2_PQR[1], c2)
    det = p1 * q2 - p2 * q1             # at 2^-2P, as are the numerators below
    _singular_check(ctx, MethodId.PL_DOUBLE_PRIME, v_in, det,
                    abs(p1 * q2) + abs(p2 * q1), 2, v2, P)
    b10 = ((r1 * q2 - r2 * q1) << P) // det
    b20 = ((p1 * r2 - p2 * r1) << P) // det
    # b21 = 1/12 - b10 - 2 b20 and b30 = (1/360 - b31 - b10/12 - b20) / 2
    b21 = (one - 12 * b10 - 24 * b20) // 12
    b30 = (one - 360 * (b31 + b20) - 30 * b10) // 720
    return _rounded_set(v_in, ctx, P, (b10, one - 2 * b10, b20, b21, b30, b31))


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
    A fitted method at a v that is not finite, or not below 2^RANGE_BITS in
    magnitude (the range of ``jets``' fixed point), raises DomainError.
    """
    if method is MethodId.CLASSICAL:
        return classical_coefficients(ctx)
    v_in = ctx.mpf(v)
    if not in_range(v_in._mpf_):        # inf and nan have a zero mantissa
        size = "not finite" if not v_in._mpf_[1] else f"2^{RANGE_BITS} or more in magnitude"
        raise DomainError(f"fitting parameter v = {v_in} is {size}")
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
