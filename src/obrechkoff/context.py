"""Configurable-precision arithmetic context.

Every other module takes an explicit :class:`Context` so that independent
computations at different precisions never interfere.  A context wraps an
isolated mpmath ``MPContext``; values created by one context are ordinary
mpmath floats bound to that context's precision, which no code changes.
Code that needs guard digits works on Python integers at a binary point
below the working precision (``coefficients`` at 2^-P, P =
``dps_to_prec(dps + boost)``; the Taylor program and the step at 2^-(prec +
``jets.GUARD_BITS``)) and rounds each result back once through
``jets._out``, to nearest at the precision of the context it is given.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_rational, round_nearest

from .errors import ConfigurationError, DomainError

MIN_DIGITS = 16
DEFAULT_DIGITS = 50


class Context:
    """Immutable arithmetic context with a fixed decimal-digit budget."""

    def __init__(self, digits: int):
        if not isinstance(digits, int) or digits < MIN_DIGITS:
            raise ConfigurationError(
                f"working precision must be an integer >= {MIN_DIGITS} digits, got {digits!r}"
            )
        self.digits = digits
        mp = MPContext()
        mp.dps = digits
        self.mp = mp

    # -- constructors -------------------------------------------------

    def mpf(self, x):
        """Convert int/str/Fraction/mpf to this context's precision (one of its own as is)."""
        if type(x) is self.mp.mpf and x._mpf_[3] <= self.mp.prec:
            return x
        if isinstance(x, Fraction):
            return self.rational(x.numerator, x.denominator)
        return self.mp.mpf(x)

    def rational(self, num: int, den: int):
        """num/den rounded once at working precision."""
        if den == 0:
            raise DomainError("rational() with zero denominator")
        return self.mp.make_mpf(from_rational(num, den, self.mp.prec, round_nearest))

    def real(self, decimal_string: str):
        """Exact decimal literal evaluated at working precision."""
        return self.mp.mpf(decimal_string)

    # -- constants and helpers ----------------------------------------

    @property
    def pi(self):
        return +self.mp.pi

    def __repr__(self):
        return f"Context(digits={self.digits})"


def make_context(digits: int = DEFAULT_DIGITS) -> Context:
    """Create an arithmetic context with `digits` decimal digits (>= 16)."""
    return Context(digits)
