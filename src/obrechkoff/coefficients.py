"""Method coefficients for the two-step symmetric Obrechkoff family.

Three methods are provided:

* ``CLASSICAL``   -- constant coefficients, algebraic order 12.
* ``PL_PRIME``    -- trigonometrically fitted: exact on polynomials through
  degree 11 plus the pair {cos(w t), sin(w t)} at the fitting frequency w.
* ``PL_DOUBLE_PRIME`` -- fitted on polynomials through degree 7 plus the
  three harmonic pairs {cos(r w t), sin(r w t)}, r = 1, 2, 3.

All fitted coefficients depend on the dimensionless parameter v = w*h only
through v^2 and cos(r v), so they are even functions of v and tend to the
classical values as v -> 0.  Every method of the family keeps the h^2, h^4
and h^6 order conditions, which give beta11, beta21 and beta30 from the other
three weights.  Each fitted method adds three conditions (PL': the h^8 and
h^10 order conditions and the harmonic r = 1; PL'': the harmonics r = 1, 2,
3), and Cramer's rule on them gives beta10, beta20 and beta31 as trig
polynomials over one denominator den: for PL'' the determinant is det3 =
9 v^12 den, for PL' -v^2 den / 29030400.  There is one evaluation path: these
closed forms, at every v with v^2 >= 10^-digits.  Their numerators cancel to
orders v^12 .. v^24 at the origin, so they run at the caller's precision
raised by the digits that cancellation costs (for PL'' above |v| = 1 also the
2 log10 |v| digits that its beta30 and beta31, falling like v^-2, lose to
absolute errors), and round back once.  They run on Python integers at one
binary point 2^-P, P = dps_to_prec(digits + boost), as the Taylor program in
``jets`` does; libmp is met only where |v| and cos v (one ``mpf_cos`` per
set; PL'' takes cos 2v = 2 cos^2 v - 1 and cos 3v = 2 cos v cos 2v - cos v
on the integers) come in and where the weights leave through ``jets._out``,
each rounded to nearest once when first read; the integers stay on the set
as ``fixed``, which ``stability`` and the step read in place of the weights.
The classical set is built the same way, from its fractions rounded down at
2^-(prec + GUARD_BITS).  Each trig polynomial is a table of integer weights,
one row per power of v^2, over products of cos v, cos 2v and cos 3v: a row
is one exact integer dot product, Horner's rule in v^2 combines the rows,
and each product or quotient shifts or floor-divides once.  Next to a pole,
where den keeps fewer than 3 digits beyond the working precision, the boost
is raised by the digits it lost and the weights evaluated again.  A den
below 10^(5 - digits) of its scale raises SingularParameterError, decided in
floats or, at the edge, by one exact integer comparison.  Below v^2 =
10^-digits, decided exactly from the mantissa and exponent of v, the fitted
weights equal the classical ones to working precision.  The rational Taylor
tables are exact validation data for the closed forms; evaluation never
uses them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction as F
from functools import lru_cache
from operator import mul

from mpmath.libmp import dps_to_prec, from_man_exp, mpf_cos

from .context import Context
from .errors import ConfigurationError, DomainError, SingularParameterError
from .jets import GUARD_BITS, RANGE_BITS, RND, _fixed, _integer_weights, _out, _raw, in_range


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
    """The six weights of the two-step sixth-derivative Obrechkoff formula;
    ``fixed`` = (P, ints) holds them, in ``COEFF_NAMES`` order, as integers at
    2^-P: converted in exactly, P >= prec + GUARD_BITS at v's prec, when the
    set is built from weights.  A set from ``from_fixed`` (the classical set,
    its stand-in at small v and the closed forms) rounds its weights out
    through ``jets._out`` at the precision of v's context when one is first
    read (an attribute, ``as_tuple``, ``==``, ``replace``)."""

    beta10: object
    beta11: object
    beta20: object
    beta21: object
    beta30: object
    beta31: object
    v: object
    fixed: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.fixed is None:
            s, ints = _integer_weights([_raw(b) for b in self.as_tuple()])
            P = max(s, self.v.context.prec + GUARD_BITS)
            object.__setattr__(self, "fixed", (P, tuple(x << P - s for x in ints)))

    @classmethod
    def from_fixed(cls, P, ints, v):
        """The set of ``ints`` at 2^-P, each rounded by ``jets._out`` in v's
        context when first read."""
        cs = object.__new__(cls)
        cs.__dict__.update(v=v, fixed=(P, ints))
        return cs

    def __getattr__(self, name):
        # reached for an attribute not set: the six weights of a from_fixed set
        if name not in COEFF_NAMES:
            raise AttributeError(name)
        (P, ints), mp = self.fixed, self.v.context
        self.__dict__.update(zip(COEFF_NAMES, (_out(mp, x, P) for x in ints)))
        return self.__dict__[name]

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
# in v^2 with one exact dot product per row.  _PL1_NUM and _PL2_NUM hold
# the Cramer numerators of beta10, beta20 and beta31 over K v^(2m) den.
#
# PL': basis (1, cos v); K, m = 10080, 1; det3 = -v^2 den / 29030400.
_PL1_DEN = ((-15120, 15120), (6900, 660), (-313, 13))
_PL1_NUM = (
    ((152409600, -152409600), (-76204800, 0), (6219360, 131040), (-149520, 3360)),
    ((-6652800, 6652800), (3195360, 131040), (-211680, 0), (3814, -34)),
    ((-6310080, 6310080), (2856000, 299040), (-121028, 7628), (0, 118)),
)
# PL'': basis (1, c1, c2, c3, c1 c2, c1 c3, c2 c3, c1 c2 c3) with cr =
# cos(r v), the cosines taken as independent; K, m = 2160, 3; det3 =
# 9 v^12 den.
_PL2_NUM = (
    ((0, 0, 0, 0, 0, 0, 0, 0),
     (0, 0, 0, 0, 0, 0, 0, 0),
     (705600, -705600, -705600, -705600, 705600, 705600, 705600, -705600),
     (-259200, -89700, -2380800, 2988900, 2729700, -2640000, -348900, 0),
     (0, -37800, 1330560, -1292760, 19440, -51840, 32400, 0),
     (0, 15120, -96768, 81648, -5832, 6912, -1080, 0)),
    ((0, 0, 0, 0, 0, 0, 0, 0),
     (201600, -201600, -201600, -201600, 201600, 201600, 201600, -201600),
     (-352800, 252300, -173280, 626580, 273780, -526080, -100500, 0),
     (108000, 24575, 335200, -446175, -205335, 175360, 8375, 0),
     (0, 5460, -107520, 102060, -7290, 7680, -390, 0),
     (0, -810, 5184, -4374, 0, 0, 0, 0)),
    ((-28800, 28800, 28800, 28800, -28800, -28800, -28800, 28800),
     (0, 14400, 57600, 129600, -72000, -144000, -187200, 201600),
     (0, 5750, 198400, -498150, -232950, 427600, 40550, 58800),
     (0, 3660, -93696, 177876, -20664, 41664, 19320, 1440),
     (0, 0, 0, 0, -972, 2592, -1620, 0)),
)
_PL2_DEN = (
    (-240, 240, 240, 240, -240, -240, -240, 240),
    (0, 115, 992, -1107, -1107, 992, 115, 0),
    (0, 75, -480, 405, -81, 96, -15, 0),
)
# digits a denominator keeps beyond the working precision: with fewer, the
# last bit of a weight next to a pole can come out wrong
_SPARE_DIGITS = 3
# the pole floor of each denominator shrinks like min(1, |v|)^k, k even
_VANISH_ORDER = {MethodId.PL_PRIME: 10, MethodId.PL_DOUBLE_PRIME: 18}


@lru_cache(maxsize=None)
def _classical_fixed(prec):
    """(P, ints): the classical weights at P = prec + GUARD_BITS, rounded
    down, formed once per precision.  Rounded to nearest at prec, each is its
    fraction rounded once: the floor keeps 21 or more bits below the halfway
    bit of each weight, and an odd denominator part below 2^20 allows no run
    of 20 equal bits, so it never lands on a halfway point."""
    P = prec + GUARD_BITS
    return P, tuple((f.numerator << P) // f.denominator
                    for f in map(CLASSICAL_FRACTIONS.get, COEFF_NAMES))


def classical_coefficients(ctx: Context) -> CoefficientSet:
    """The constant order-12 weight set, built as a closed-form set is, by
    ``CoefficientSet.from_fixed``: each weight rounded once at ctx precision
    when first read."""
    return CoefficientSet.from_fixed(*_classical_fixed(ctx.mp.prec), ctx.mpf(0))


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


def _boosted(method, v, ctx, terms):
    """Run ``terms(V, P) -> (den, scale, rest)`` at the boosted binary point
    2^-P, V = |v| 2^P.

    Raises SingularParameterError when |den| <= floor * scale, where floor =
    10^(5 - digits) min(1, |v|)^k, k = _VANISH_ORDER[method]: when lost =
    log10(scale / |den|) >= digits - 5 - k min(0, log10 |v|), in floats (off by
    some 1e-11) unless within 1e-6, then by one exact integer comparison.
    The denominators legitimately vanish like v^k as v -> 0 (k = the
    cancellation depth), hence the factor in |v|; at v = 0 both sides are 0,
    and the forms are 0/0.  When the denominator keeps fewer than _SPARE_DIGITS
    digits beyond the working precision, which only happens next to a pole,
    the boost is raised by the digits it lost and the terms are evaluated
    again.  Returns (P, den, rest).
    """
    boost = _boost_digits(method, v)
    k = _VANISH_ORDER[method]
    while True:
        P = dps_to_prec(ctx.mp.dps + boost)
        V = abs(_fixed(v._mpf_, P))
        den, scale, rest = terms(V, P)
        lost = math.log10(scale) - math.log10(abs(den)) if den else math.inf
        edge = ctx.digits - 5 - k * min(0.0, math.log10(V) - P * math.log10(2)) if den else 0
        if (lost > edge if abs(lost - edge) > 1e-6
                else abs(den) * 10 ** (ctx.digits - 5) << P * k <= min(V, 1 << P) ** k * scale):
            raise SingularParameterError(
                f"{method.value} coefficients are singular near v = {ctx.mp.nstr(v, 8)}",
                v=v,
            )
        if lost <= boost - _SPARE_DIGITS:
            return P, den, rest
        boost += math.ceil(lost)


def _pl1_terms(V, P):
    v2 = V * V
    basis = (1 << P, _cos(V, P))
    den = _horner(_PL1_DEN, basis, v2, P)
    # the largest of |15120 + 15120|, |6900 v^2|, |313 v^4| and of the terms
    # 660 v^2 c1, 13 v^4 c1, which never exceed them
    scale = max(30240 << P, 6900 * v2 >> P, 313 * v2 * v2 >> 3 * P)
    return den, scale, (basis, v2)


def _pl2_terms(V, P):
    c1 = _cos(V, P)
    c2 = (c1 * c1 >> P - 1) - (1 << P)      # cos 2v = 2 c1^2 - 1
    c3 = (c1 * c2 >> P - 1) - c1            # cos 3v = 2 c1 c2 - c1
    basis = (1 << P, c1, c2, c3, c1 * c2 >> P, c1 * c3 >> P, c2 * c3 >> P,
             c1 * c2 * c3 >> 2 * P)
    v2 = V * V
    den = _horner(_PL2_DEN, basis, v2, P)
    scale = (240 * 8 << P) + (1000 * v2 * v2 >> 3 * P)
    return den, scale, (basis, v2)


# method: (terms, K, m, numerator tables of beta10, beta20, beta31)
_CLOSED_FORMS = {
    MethodId.PL_PRIME: (_pl1_terms, 10080, 1, _PL1_NUM),
    MethodId.PL_DOUBLE_PRIME: (_pl2_terms, 2160, 3, _PL2_NUM),
}


def _closed(method, v, ctx):
    """The fitted weights of ``method`` at v, evaluated at a boosted binary
    point and rounded back once.

    beta10, beta20 and beta31 are their numerator tables over K v^(2m) den,
    each one floor division; beta11, beta21 and beta30 follow from the h^2,
    h^4 and h^6 order conditions, which every method of the family keeps.
    """
    terms, K, m, tables = _CLOSED_FORMS[method]
    v_in = ctx.mpf(v)
    P, den, (basis, v2) = _boosted(method, v_in, ctx, terms)
    d = K * den * v2 ** m                 # at 2^-(2m + 1)P
    b10, b20, b31 = ((_horner(rows, basis, v2, P) << (2 * m + 1) * P) // d for rows in tables)
    one = 1 << P
    # b11 = 1 - 2 b10, b21 = 1/12 - b10 - 2 b20 and
    # b30 = (1/360 - b31 - b10/12 - b20) / 2
    b21 = (one - 12 * b10 - 24 * b20) // 12
    b30 = (one - 360 * (b31 + b20) - 30 * b10) // 720
    return CoefficientSet.from_fixed(P, (b10, one - 2 * b10, b20, b21, b30, b31), v_in)


def plprime_closed(v, ctx: Context) -> CoefficientSet:
    """Closed-form PL' coefficients at fitting parameter v (v != 0).

    Each weight is a trig polynomial in v and cos v over 10080 v^2 den, or
    follows from the order conditions; the numerators cancel to O(v^12) at
    the origin, so evaluation runs at a boosted binary point.
    """
    return _closed(MethodId.PL_PRIME, v, ctx)


def pldoubleprime_closed(v, ctx: Context) -> CoefficientSet:
    """Closed-form PL'' coefficients at fitting parameter v (v != 0).

    Cramer's rule on the fits to the harmonics r = 1, 2, 3, whose determinant
    is det3 = 9 v^12 den, gives beta10, beta20 and beta31 as trig polynomials
    in v and cos(r v) over 2160 v^6 den; beta11, beta21 and beta30 follow from
    the h^2, h^4 and h^6 order conditions.  The numerators cancel to O(v^24)
    at the origin, so evaluation runs at a boosted binary point.
    """
    return _closed(MethodId.PL_DOUBLE_PRIME, v, ctx)


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


def check_v(v_in):
    """v_in; a v not finite or not below 2^RANGE_BITS in magnitude raises DomainError."""
    if not in_range(v_in._mpf_):        # inf and nan have a zero mantissa
        size = "not finite" if not v_in._mpf_[1] else f"2^{RANGE_BITS} or more in magnitude"
        raise DomainError(f"fitting parameter v = {v_in} is {size}")
    return v_in


def coefficients(method: MethodId, v, ctx: Context) -> CoefficientSet:
    """Coefficient set for (method, v), accurate to working precision.

    The classical method ignores v (recorded as 0); its integers are formed
    once per precision.  Fitted methods evaluate their closed forms whenever
    v^2 >= 10^-digits; below that they differ from the classical weights by
    less than one unit in the last place, so the classical integers are
    returned with v recorded.  Both are even in v.
    A fitted method at a v that is not finite, or not below 2^RANGE_BITS in
    magnitude (the range of ``jets``' fixed point), raises DomainError.
    """
    if method is MethodId.CLASSICAL:
        return classical_coefficients(ctx)
    v_in = check_v(ctx.mpf(v))
    _, man, exp, _ = v_in._mpf_
    if man * man * 10 ** ctx.digits < 1 << max(0, -2 * exp):   # v^2 < 10^-digits
        return CoefficientSet.from_fixed(*_classical_fixed(ctx.mp.prec), v_in)
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
