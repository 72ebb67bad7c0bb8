"""Exact arithmetic in a single real quadratic extension Q(sqrt(d)).

Every irrational number the inequality evaluators meet has the form
``a + b*sqrt(d)`` with rational ``a``, ``b`` and a squarefree integer
``d`` (for example ``-sqrt(3)/2`` or ``2*sqrt(2)``).  Values of this
form admit exact signs, exact comparisons against rationals, and
rational interval enclosures of any requested width, so no verdict in
the package ever depends on floating point.

Mixing two different radicands (say sqrt(2) + sqrt(3)) is not needed
anywhere and raises :class:`UnsupportedNumberError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import UnsupportedNumberError, ValidationError

__all__ = [
    "ExactNumber",
    "Surd",
    "as_fraction",
    "exact_abs",
    "exact_min",
    "exact_sign",
    "enclosure",
    "make_exact",
    "sqrt_fraction",
]


def as_fraction(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an exact rational input. Floats are rejected on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational number: {value!r}") from exc
    raise ValidationError(f"not a rational number: {value!r}")


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n == s*s*d and d squarefree."""
    if n < 0:
        raise ValidationError("negative radicand")
    s, d, f = 1, n, 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


@dataclass(frozen=True)
class Surd:
    """The exact real number ``a + b*sqrt(d)``.

    Normalized so that ``b != 0`` and ``d`` is a squarefree integer > 1;
    purely rational values are plain :class:`Fraction` objects instead.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        if self.b == 0 or self.d <= 1:
            raise ValidationError("Surd requires b != 0 and squarefree d > 1")

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other: object) -> tuple[Fraction, Fraction]:
        if isinstance(other, Surd):
            if other.d != self.d:
                raise UnsupportedNumberError(
                    f"cannot combine sqrt({self.d}) with sqrt({other.d})"
                )
            return other.a, other.b
        return as_fraction(other), Fraction(0)  # type: ignore[arg-type]

    def __add__(self, other: object) -> "ExactNumber":
        oa, ob = self._coerce(other)
        return make_surd(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other: object) -> "ExactNumber":
        oa, ob = self._coerce(other)
        return make_surd(self.a - oa, self.b - ob, self.d)

    def __rsub__(self, other: object) -> "ExactNumber":
        oa, ob = self._coerce(other)
        return make_surd(oa - self.a, ob - self.b, self.d)

    def __mul__(self, other: object) -> "ExactNumber":
        oa, ob = self._coerce(other)
        return make_surd(
            self.a * oa + self.b * ob * self.d,
            self.a * ob + self.b * oa,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "ExactNumber":
        if isinstance(other, Surd):
            oa, ob = self._coerce(other)
            norm = oa * oa - ob * ob * other.d
            if norm == 0:  # pragma: no cover - zero is never a Surd
                raise ZeroDivisionError
            inv = make_surd(oa / norm, -ob / norm, other.d)
            return self * inv
        q = as_fraction(other)  # type: ignore[arg-type]
        return make_surd(self.a / q, self.b / q, self.d)

    # -- exact order ------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d); never consults floats."""
        a, b = self.a, self.b
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Mixed signs: compare a^2 with b^2 d. Equality cannot occur for
        # squarefree d > 1 because sqrt(d) is irrational.
        if a * a > b * b * self.d:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def _cmp(self, other: object) -> int:
        diff = self - other
        if isinstance(diff, Fraction):
            return (diff > 0) - (diff < 0)
        return diff.sign()

    def __lt__(self, other: object) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: object) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: object) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: object) -> bool:
        return self._cmp(other) >= 0

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


def exact_sign(value: ExactNumber) -> int:
    if isinstance(value, Surd):
        return value.sign()
    return (value > 0) - (value < 0)


def exact_abs(value: ExactNumber) -> ExactNumber:
    return value if exact_sign(value) >= 0 else -value


def exact_min(*values: ExactNumber) -> ExactNumber:
    best = values[0]
    for v in values[1:]:
        if exact_sign(_sub(v, best)) < 0:
            best = v
    return best


def _sub(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    if isinstance(x, Surd) or isinstance(y, Surd):
        if isinstance(x, Surd):
            return x - y
        return -(y - x)  # type: ignore[operator]
    return x - y


def enclosure(value: ExactNumber, width: Fraction = Fraction(1, 10**12)) -> tuple[Fraction, Fraction]:
    """Rational interval of at most the given width around an exact value."""
    if isinstance(value, Surd):
        return value.enclosure(width)
    return value, value

