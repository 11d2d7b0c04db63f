"""Exact scalars: a coefficient is a ``Fraction`` unless it is complex.

``exact`` is the one coefficient rule, and ``RationalComplex`` arithmetic
applies it to every result, so real problems never carry a zero imaginary
part.  Both types answer ``real``, ``imag`` and ``conjugate()``, so callers
read a coefficient the same way whatever its type.  A narrow pi enclosure
certifies inequalities mixing exact rationals with powers of pi.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

RationalLike = Union[int, Fraction]

# 40-digit enclosure of pi; wide enough for every certified comparison here,
# all of which carry percent-level slack.
PI_LO = Fraction("3.1415926535897932384626433832795028841971")
PI_HI = Fraction("3.1415926535897932384626433832795028841972")


class RationalComplex:
    """A complex number a + b*i with exact rational a, b."""

    __slots__ = ("real", "imag")

    def __init__(self, real: RationalLike = 0, imag: RationalLike = 0):
        self.real = Fraction(real)
        self.imag = Fraction(imag)

    def __add__(self, other):
        if not isinstance(other, _EXACT_TYPES):
            return NotImplemented
        return _from_parts(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, _EXACT_TYPES):
            return NotImplemented
        return _from_parts(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, _EXACT_TYPES):
            return NotImplemented
        return _from_parts(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, _EXACT_TYPES):
            return NotImplemented
        norm = other.real * other.real + other.imag * other.imag
        if norm == 0:
            raise ZeroDivisionError("division by zero RationalComplex")
        return _from_parts(
            (self.real * other.real + self.imag * other.imag) / norm,
            (self.imag * other.real - self.real * other.imag) / norm,
        )

    def __rtruediv__(self, other):
        return self.conjugate() * other / (self.real * self.real + self.imag * self.imag)

    def __neg__(self):
        return RationalComplex(-self.real, -self.imag)

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.real, -self.imag)

    def __bool__(self) -> bool:
        return self.real != 0 or self.imag != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, _EXACT_TYPES):
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        if self.imag == 0:
            return hash(self.real)
        return hash((self.real, self.imag))

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def __float__(self) -> float:
        if self.imag != 0:
            raise ValueError(f"value {self!r} has a nonzero imaginary part")
        return float(self.real)

    def __repr__(self):
        if self.imag == 0:
            return f"RationalComplex({self.real})"
        return f"RationalComplex({self.real}, {self.imag})"


Scalar = Union[Fraction, RationalComplex]

_EXACT_TYPES = (int, Fraction, RationalComplex)


def _from_parts(real: Fraction, imag: Fraction) -> Scalar:
    return RationalComplex(real, imag) if imag else real


def exact(value) -> Scalar:
    """The one coefficient rule: a Fraction, unless the imaginary part is nonzero."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, RationalComplex):
        return value if value.imag else value.real
    raise TypeError(f"{type(value).__name__} is not an exact rational or complex-rational value")


def format_fraction(value: Fraction) -> str:
    """Canonical decimal-free string for a rational ("3", "-5/2")."""
    return str(Fraction(value))


def parse_fraction(text: str) -> Fraction:
    return Fraction(str(text))


def fraction_sqrt(value: Fraction) -> Fraction:
    """Exact square root of a rational; raises if it is irrational."""
    if value < 0:
        raise ValueError("square root of a negative rational")
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{value} is not a perfect rational square")
    return Fraction(rn, rd)


def _pi_power_interval(coeff: Fraction, pi_exp: int) -> tuple[Fraction, Fraction]:
    if pi_exp == 0:
        return coeff, coeff
    lo_pow = PI_LO**pi_exp if pi_exp > 0 else 1 / PI_HI ** (-pi_exp)
    hi_pow = PI_HI**pi_exp if pi_exp > 0 else 1 / PI_LO ** (-pi_exp)
    if coeff >= 0:
        return coeff * lo_pow, coeff * hi_pow
    return coeff * hi_pow, coeff * lo_pow


def certified_leq_with_pi(
    lhs_coeff: Fraction,
    lhs_pi_exp: int,
    rhs_coeff: Fraction,
    rhs_pi_exp: int,
) -> bool:
    """Decide lhs_coeff*pi^a <= rhs_coeff*pi^b using the pi enclosure.

    Raises ArithmeticError when the enclosure is too coarse to decide, which
    cannot happen for the percent-level margins this package certifies.
    """
    lhs_lo, lhs_hi = _pi_power_interval(Fraction(lhs_coeff), lhs_pi_exp)
    rhs_lo, rhs_hi = _pi_power_interval(Fraction(rhs_coeff), rhs_pi_exp)
    if lhs_hi <= rhs_lo:
        return True
    if lhs_lo > rhs_hi:
        return False
    raise ArithmeticError(
        "pi enclosure cannot separate "
        f"{lhs_coeff}*pi^{lhs_pi_exp} and {rhs_coeff}*pi^{rhs_pi_exp}"
    )
