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
the digits that cancellation costs, and round back once.  Each of their trig
polynomials is a table of integer weights, one row per power of v^2, over
products of cos v, cos 2v and cos 3v: a row is one exactly summed dot product
on raw ``libmp`` numbers (``jets._fdot``), and Horner's rule in v^2 combines
the rows.  Next to a pole, where a denominator loses more digits than the
boost holds, the boost is raised by those digits and the weights evaluated
again.  A denominator below 10^(5 - digits) of its scale raises
SingularParameterError.  Below v^2 = 10^-digits the fitted weights equal the
classical ones to working precision.  The rational Taylor tables are exact
validation data for the closed forms; evaluation never uses them.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction as F

from mpmath.libmp import (dps_to_prec, fone, from_int, mpf_abs, mpf_add, mpf_cmp, mpf_cos,
                          mpf_div, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_pos, mpf_pow_int,
                          mpf_shift, mpf_sub)

from .context import Context
from .errors import ConfigurationError, DomainError, SingularParameterError
from .jets import RND, _fdot


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


def _raw_rows(table):
    return tuple(tuple(from_int(w) for w in row) for row in table)


_PL1_DEN_RAW, _PL2_NUM_RAW, _PL2_DEN_RAW = map(_raw_rows, (_PL1_DEN, _PL2_NUM, _PL2_DEN))
_PL1_NUM_RAW = tuple(map(_raw_rows, _PL1_NUM))
_PL2_PQR_RAW = tuple(map(_raw_rows, _PL2_PQR))
_PQR_DIVISORS = tuple(map(from_int, (24, 2, 720)))
_TEN, _TWELVE, _THREE_SIXTY = map(from_int, (10, 12, 360))
_PL1_SCALE0, _PL2_SCALE0 = from_int(15120 + 15120), from_int(240 * 8)
_BY_VALUE = functools.cmp_to_key(mpf_cmp)
# the pole floor of each denominator shrinks like min(1, |v|)^k
_VANISH_ORDER = {MethodId.PL_PRIME: 10, MethodId.PL_DOUBLE_PRIME: 18}
_LOG2_10 = math.log2(10)


def classical_coefficients(ctx: Context) -> CoefficientSet:
    """The constant order-12 weight set, converted once at ctx precision."""
    vals = {k: ctx.mpf(f) for k, f in CLASSICAL_FRACTIONS.items()}
    return CoefficientSet(v=ctx.mpf(0), **vals)


def _boost_digits(method: MethodId, v_abs: float) -> int:
    order = _CANCEL_ORDER[method]
    lost = order * math.log10(1.0 / min(max(v_abs, 1e-300), 0.5)) if v_abs < 0.5 else 0.0
    return int(math.ceil(lost)) + _GUARD_DIGITS[method]


def _horner(rows, basis_v2, prec):
    """sum_k v^(2k) (row_k . basis) from raw rows; ``basis_v2`` is the basis
    followed by v^2.  Each step, row_k . basis + acc v^2, is one dot product
    rounded once; the top row's dot stops short of v^2 with the row."""
    acc = _fdot(rows[-1], basis_v2, prec)
    for row in rows[-2::-1]:
        acc = _fdot(row + (acc,), basis_v2, prec)
    return acc


def _log2(x):
    """log2 |x| of a raw number: -inf for 0, nan for inf and nan."""
    _, man, exp, _ = x
    if man:
        return exp + math.log2(man)
    return math.nan if exp else -math.inf


def _singular_check(ctx, method, v, value, scale, vanish_order, prec):
    """Raise SingularParameterError when |value| < floor * scale, where
    floor = 10^(5 - digits) min(1, |v|)^vanish_order, as evaluated at prec.

    value and scale are raw.  The denominators legitimately vanish like v^k
    as v -> 0 (k = the cancellation depth), hence the factor in |v|.
    Returns the decimal digits that value lost to cancellation,
    log10(scale / |value|).
    """
    vv = mpf_abs(v._mpf_)
    floor = mpf_mul(mpf_pow_int(_TEN, 5 - ctx.digits, prec, RND),
                    mpf_pow_int(vv if mpf_lt(vv, fone) else fone, vanish_order, prec, RND),
                    prec, RND)
    if mpf_lt(mpf_abs(value), mpf_mul(floor, scale, prec, RND)):
        raise SingularParameterError(
            f"{method.value} coefficients are singular near v = {ctx.mp.nstr(v, 8)}",
            v=v,
        )
    return (_log2(scale) - _log2(value)) / _LOG2_10


def _boosted(method, v, ctx, terms):
    """Run ``terms(vv, prec) -> (den, scale, rest)`` at the boosted precision.

    When the denominator lost more digits than the boost holds, which only
    happens next to a pole, the boost is raised by that many digits and the
    terms are evaluated again.  Returns (prec, den, rest).
    """
    vv = mpf_abs(v._mpf_)
    boost = _boost_digits(method, abs(float(v)))
    while True:
        prec = dps_to_prec(ctx.mp.dps + boost)
        den, scale, rest = terms(vv, prec)
        lost = _singular_check(ctx, method, v, den, scale, _VANISH_ORDER[method], prec)
        if not boost < lost < math.inf:
            return prec, den, rest
        boost += math.ceil(lost)


def _rounded_set(v, ctx, vals):
    prec = ctx.mp.prec
    return CoefficientSet(v=v, **{name: ctx.mp.make_mpf(mpf_pos(x, prec, RND))
                                  for name, x in zip(COEFF_NAMES, vals)})


def _pl1_terms(vv, prec):
    c1 = mpf_cos(vv, prec, RND)
    v2 = mpf_mul(vv, vv, prec, RND)
    basis = (fone, c1, v2)
    den = _horner(_PL1_DEN_RAW, basis, prec)
    # the largest of |15120 + 15120|, |6900 v^2|, |313 v^4| and of the terms
    # 660 v^2 c1, 13 v^4 c1, which never exceed them
    scale = max((_PL1_SCALE0, mpf_mul_int(v2, 6900, prec, RND),
                 mpf_mul_int(mpf_mul(v2, v2, prec, RND), 313, prec, RND)), key=_BY_VALUE)
    return den, scale, basis


def plprime_closed(v, ctx: Context) -> CoefficientSet:
    """Closed-form PL' coefficients at fitting parameter v (v != 0).

    Each weight is a trig-polynomial numerator over the common denominator
    10080 v^2 den; everything cancels to O(v^12)/O(v^10), so evaluation runs
    at boosted precision and rounds back once.
    """
    v_in = ctx.mpf(v)
    prec, den, basis = _boosted(MethodId.PL_PRIME, v_in, ctx, _pl1_terms)
    d = mpf_mul(mpf_mul_int(den, 10080, prec, RND), basis[-1], prec, RND)
    return _rounded_set(v_in, ctx, (mpf_div(_horner(rows, basis, prec), d, prec, RND)
                                    for rows in _PL1_NUM_RAW))


def _pl2_terms(vv, prec):
    c1 = mpf_cos(vv, prec, RND)
    c2 = mpf_cos(mpf_shift(vv, 1), prec, RND)
    c3 = mpf_cos(mpf_mul_int(vv, 3, prec, RND), prec, RND)
    c12 = mpf_mul(c1, c2)
    basis = (fone, c1, c2, c3, c12, mpf_mul(c1, c3), mpf_mul(c2, c3), mpf_mul(c12, c3),
             mpf_mul(vv, vv, prec, RND))
    num = _horner(_PL2_NUM_RAW, basis, prec)
    den = _horner(_PL2_DEN_RAW, basis, prec)
    scale = mpf_add(_PL2_SCALE0, mpf_mul_int(mpf_pow_int(vv, 4, prec, RND), 1000, prec, RND),
                    prec, RND)
    return den, scale, (num, c1, c2, basis[-1])


def pldoubleprime_closed(v, ctx: Context) -> CoefficientSet:
    """Closed-form PL'' coefficients at fitting parameter v (v != 0).

    beta31 comes from its trig-rational form; the remaining five weights
    solve the defining exactness conditions: vanishing h^2/h^4/h^6 order
    brackets plus characteristic-root fit at the first and second harmonic
    (the third-harmonic condition is then satisfied identically).  Like
    PL', everything runs at boosted precision and rounds back once.
    """
    v_in = ctx.mpf(v)
    prec, den, (num, c1, c2, v2) = _boosted(MethodId.PL_DOUBLE_PRIME, v_in, ctx, _pl2_terms)
    v4 = mpf_mul(v2, v2, prec, RND)
    v6 = mpf_mul(v4, v2, prec, RND)
    b31 = mpf_div(num, mpf_mul(mpf_mul_int(v6, 1080, prec, RND), den, prec, RND), prec, RND)
    b31v6 = mpf_mul(b31, v6)

    def pqr(rows, c):
        terms = (mpf_mul(v2, c), v2, v4, mpf_mul(v4, c), mpf_mul(v6, c), fone, c,
                 b31v6, mpf_mul(b31v6, c))
        return [mpf_div(_fdot(row, terms, prec), k, prec, RND)
                for row, k in zip(rows, _PQR_DIVISORS)]

    (p1, q1, r1), (p2, q2, r2) = pqr(_PL2_PQR_RAW[0], c1), pqr(_PL2_PQR_RAW[1], c2)
    mq1, mr1 = mpf_neg(q1), mpf_neg(r1)
    det = _fdot((p1, p2), (q2, mq1), prec)
    _singular_check(ctx, MethodId.PL_DOUBLE_PRIME, v_in, det,
                    mpf_add(mpf_abs(mpf_mul(p1, q2, prec, RND)),
                            mpf_abs(mpf_mul(p2, q1, prec, RND)), prec, RND),
                    2, prec)
    b10 = mpf_div(_fdot((r1, r2), (q2, mq1), prec), det, prec, RND)
    b20 = mpf_div(_fdot((p1, p2), (r2, mr1), prec), det, prec, RND)
    b11 = mpf_sub(fone, mpf_shift(b10, 1), prec, RND)
    # b21 = 1/12 - b10 - 2 b20 and b30 = (1/360 - b31 - b10/12 - b20) / 2
    b21 = mpf_sub(mpf_sub(mpf_div(fone, _TWELVE, prec, RND), b10, prec, RND),
                  mpf_shift(b20, 1), prec, RND)
    b30 = mpf_div(fone, _THREE_SIXTY, prec, RND)
    for x in (b31, mpf_div(b10, _TWELVE, prec, RND), b20):
        b30 = mpf_sub(b30, x, prec, RND)
    b30 = mpf_shift(b30, -1)
    return _rounded_set(v_in, ctx, (b10, b11, b20, b21, b30, b31))


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
    A fitted method at a v that is not finite raises DomainError.
    """
    if method is MethodId.CLASSICAL:
        return classical_coefficients(ctx)
    v_in = ctx.mpf(v)
    _, man, exp, _ = v_in._mpf_
    if exp and not man:                 # inf and nan: a zero mantissa, a nonzero exponent
        raise DomainError(f"fitting parameter v = {v_in} is not finite")
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
