"""Exact arithmetic in a single real quadratic extension Q(sqrt(d)).

Every irrational number the inequality evaluators meet has the form
``a + b*sqrt(d)`` with rational ``a``, ``b`` and a non-square integer
``d > 1`` (for example ``-sqrt(3)/2`` or ``2*sqrt(2)``).  Square factors
f*f with f up to ``_SQUARE_FACTOR_BOUND`` are moved out of ``d``; a
larger square factor may stay inside, since finding it would take
factoring ``d``.  Values of this form admit exact signs, exact
comparisons against rationals, and rational interval enclosures of any
requested width, so no verdict in the package ever depends on floating
point.

Two radicands whose product is a perfect square name the same field
(sqrt(p*p*q) = p*sqrt(q)) and combine.  Mixing any other two radicands
(say sqrt(2) + sqrt(3)) is not needed anywhere and raises
:class:`UnsupportedNumberError`.

So equal values may be spelled with different radicands when one hides
a square factor above ``_SQUARE_FACTOR_BOUND``, and that is allowed.
With ``q = sqrt(3)/4`` and ``s`` the same value over 1009*1009*3,
``(q - q) + s`` keeps ``s``'s radicand (``q - q`` is the rational 0)
while ``(q + s) - q`` meets over the smaller one.  Their ``str`` and the
``interval`` of :func:`jointfeas.files.encode_exact` differ.  ``==``,
``hash``, order and the ``poly`` agree: equality and the hash read only
``a``, the sign of ``b`` and ``b*b*d``, order compares exact values, and
the ``poly`` is built from ``a`` and ``b*b*d``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import UnsupportedNumberError, ValidationError

__all__ = [
    "ExactNumber",
    "Surd",
    "as_fraction",
    "exact_text",
    "enclosure",
    "make_exact",
    "sqrt_fraction",
]


# A string that is not a rational number is quoted up to this many
# characters in the error.
_QUOTED = 40


def _quoted(value: str) -> str:
    """``repr(value)``, cut to its first ``_QUOTED`` characters (and its length given) when longer."""
    if len(value) <= _QUOTED:
        return repr(value)
    return f"{value[:_QUOTED]!r}... ({len(value)} characters)"


# A run of digits, as int() reads one: underscores may separate digits.
_DIGITS = re.compile(r"\d+(?:_\d+)*")


def _too_many_digits(value: str) -> str | None:
    """Why ``value`` holds an integer past Python's limit on the digits it reads, or None.

    Python refuses to read an integer of more digits than
    ``sys.get_int_max_str_digits()`` (0: no limit).  Only a string longer
    than the limit can hold one, so shorter ones are not scanned.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit or len(value) <= limit:
        return None
    digits = max((len(run.replace("_", "")) for run in _DIGITS.findall(value)), default=0)
    if digits <= limit:
        return None
    return f"an integer in it has {digits} digits, past Python's limit of {limit} digits for reading one"


def as_fraction(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an exact rational input. Floats are rejected on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction would expand an exponent into an integer with that many
        # digits, with no bound on time or memory.
        if "e" in value or "E" in value:
            raise ValidationError(f"not a rational number: {_quoted(value)}; exponents are not accepted")
        reason = _too_many_digits(value)
        if reason is not None:
            raise ValidationError(f"not a rational number: {_quoted(value)}: {reason}")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational number: {_quoted(value)}") from exc
    raise ValidationError(f"not a rational number: {value!r}")


# Trial division for square factors stops here, so no radicand costs
# more than this many divisions however large it is.
_SQUARE_FACTOR_BOUND = 1000


def _is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n == s*s*d, where d is 1 or not a perfect square.

    Square factors f*f are removed for f up to ``_SQUARE_FACTOR_BOUND``;
    a cofactor that is a perfect square is absorbed whole.
    """
    if n < 0:
        raise ValidationError("negative radicand")
    s, d, f = 1, n, 2
    while f <= _SQUARE_FACTOR_BOUND and f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    if _is_square(d):
        return s * isqrt(d), 1
    return s, d


_ZERO = Fraction(0)


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d), for a non-square integer d > 1.

    With mixed signs it compares a^2 with b^2 d in integers.  Equality
    cannot occur then, because sqrt(d) is irrational.
    """
    p, r = a.numerator, b.numerator
    sa, sb = (p > 0) - (p < 0), (r > 0) - (r < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    q, s = a.denominator, b.denominator
    return sa if (p * s) ** 2 > r * r * d * q * q else sb


@dataclass(frozen=True)
class Surd:
    """The exact real number ``a + b*sqrt(d)``.

    Normalized so that ``b != 0`` and ``d`` is an integer > 1 that is
    not a perfect square; purely rational values are plain
    :class:`Fraction` objects instead.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        if self.b == 0 or self.d <= 1 or _is_square(self.d):
            raise ValidationError("Surd requires b != 0 and a non-square d > 1")

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other: object) -> tuple[Fraction, Fraction, Fraction, Fraction, int]:
        """``(a, b, oa, ob, d)`` with self = a + b*sqrt(d) and other = oa + ob*sqrt(d).

        Two spellings of one field, sqrt(d) and sqrt(e) with d*e a
        perfect square, meet over the smaller radicand, so a result's
        radicand does not depend on the order of the operands.
        """
        if not isinstance(other, Surd):
            return self.a, self.b, as_fraction(other), _ZERO, self.d  # type: ignore[arg-type]
        d, e = self.d, other.d
        if d == e:
            return self.a, self.b, other.a, other.b, d
        if not _is_square(d * e):
            raise UnsupportedNumberError(f"cannot combine sqrt({min(d, e)}) with sqrt({max(d, e)})")
        # sqrt(e) = sqrt(d*e) / d * sqrt(d), and the other way round.
        root = isqrt(d * e)
        if d < e:
            return self.a, self.b, other.a, other.b * root / d, d
        return self.a, self.b * root / e, other.a, other.b, e

    def __add__(self, other: object) -> "ExactNumber":
        a, b, oa, ob, d = self._coerce(other)
        return make_surd(a + oa, b + ob, d)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other: object) -> "ExactNumber":
        a, b, oa, ob, d = self._coerce(other)
        return make_surd(a - oa, b - ob, d)

    def __rsub__(self, other: object) -> "ExactNumber":
        a, b, oa, ob, d = self._coerce(other)
        return make_surd(oa - a, ob - b, d)

    def __mul__(self, other: object) -> "ExactNumber":
        a, b, oa, ob, d = self._coerce(other)
        return make_surd(a * oa + b * ob * d, a * ob + b * oa, d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "ExactNumber":
        if isinstance(other, Surd):
            # (a + b*sqrt(d)) / (oa + ob*sqrt(d)) = (a + b*sqrt(d)) (oa - ob*sqrt(d)) / norm
            a, b, oa, ob, d = self._coerce(other)
            norm = oa * oa - ob * ob * d
            if norm == 0:  # pragma: no cover - zero is never a Surd
                raise ZeroDivisionError
            return make_surd((a * oa - b * ob * d) / norm, (b * oa - a * ob) / norm, d)
        q = as_fraction(other)  # type: ignore[arg-type]
        return make_surd(self.a / q, self.b / q, self.d)

    # -- exact order ------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d); never consults floats."""
        return _sign(self.a, self.b, self.d)

    # The sign of the difference, from its two coefficients: no Surd is built.
    def _cmp(self, other: object) -> int:
        a, b, oa, ob, d = self._coerce(other)
        return _sign(a - oa, b - ob, d)

    def __lt__(self, other: object) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: object) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: object) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: object) -> bool:
        return self._cmp(other) >= 0

    # Equal values may carry different radicands (sqrt(p*p*q) and
    # p*sqrt(q) when p is above the bound); b*sqrt(d) is fixed by the
    # sign of b and by b*b*d, so compare and hash those.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Surd):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple[Fraction, bool, Fraction]:
        return self.a, self.b > 0, self.b * self.b * self.d

    def __abs__(self) -> "Surd":
        return self if self.sign() >= 0 else -self

    # -- numeric views ----------------------------------------------------

    def enclosure(self, width: Fraction = Fraction(1, 10**12)) -> tuple[Fraction, Fraction]:
        """Rational interval [lo, hi] containing the value, hi - lo <= width."""
        if width <= 0:
            raise ValidationError("enclosure width must be positive")
        scale = 1
        bound = abs(self.b) / width  # need 10**k >= |b| / width
        while scale < bound:
            scale *= 10
        root_lo = isqrt(self.d * scale * scale)
        lo_r = Fraction(root_lo, scale)
        hi_r = Fraction(root_lo + 1, scale)
        if self.b > 0:
            return self.a + self.b * lo_r, self.a + self.b * hi_r
        return self.a + self.b * hi_r, self.a + self.b * lo_r

    def __float__(self) -> float:
        lo, hi = self.enclosure(Fraction(1, 10**17))
        return float((lo + hi) / 2)

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.d})"


ExactNumber = Union[Fraction, Surd]


def make_surd(a: Fraction, b: Fraction, d: int) -> ExactNumber:
    """Build a + b*sqrt(d), collapsing to a Fraction when it is rational."""
    if b == 0 or d == 0:
        return a
    s, d0 = _squarefree_split(d)
    if d0 == 1:
        return a + b * s
    return Surd(a, b * s, d0)


def sqrt_fraction(value: Union[int, str, Fraction]) -> ExactNumber:
    """Exact square root of a nonnegative rational."""
    f = as_fraction(value)
    if f < 0:
        raise ValidationError("square root of a negative rational")
    # sqrt(p/q) = sqrt(p*q) / q
    return make_surd(Fraction(0), Fraction(1, f.denominator), f.numerator * f.denominator)


def make_exact(value: Union[int, str, Fraction, Surd]) -> ExactNumber:
    """Accept either a rational in any supported spelling or a Surd."""
    if isinstance(value, Surd):
        return value
    return as_fraction(value)


def exact_text(value: ExactNumber) -> str:
    """``str(value)``, also past Python's limit on the digits of an int it writes.

    Exact arithmetic can make a value far longer than any input (a
    witness mass, or a sum of masses that an error message quotes, over
    the product of two 3,000-digit denominators).  Reports and messages
    write exact values with this.  The limit guards parsing, so it is
    lifted only to retry a conversion that failed, and put back at once.
    """
    try:
        return str(value)
    except ValueError:
        if not hasattr(sys, "set_int_max_str_digits"):  # no limit to lift
            raise
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def enclosure(value: ExactNumber, width: Fraction = Fraction(1, 10**12)) -> tuple[Fraction, Fraction]:
    """Rational interval of at most the given width around an exact value."""
    if isinstance(value, Surd):
        return value.enclosure(width)
    return value, value

