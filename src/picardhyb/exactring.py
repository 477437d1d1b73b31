"""Exact arithmetic in the imaginary quadratic orders O_d for d in {1, 3, 7}.

Elements are written a + b*tau_d with integer a, b, where

    tau_1 = i                (tau^2 = -1)
    tau_3 = w = (-1+i*sqrt3)/2   (tau^2 = -1 - tau)
    tau_7 = (1+i*sqrt7)/2    (tau^2 = tau - 2)

Coefficients are plain Python ints, so there is no overflow anywhere.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

# fractions is imported inside the functions that build a Fraction (here and
# in cxhyp): only the Mat-side reference geometry builds one, no command-line
# verb does, and importing fractions also loads decimal and numbers

SUPPORTED_D = (1, 3, 7)

# tau^2 = c0 + c1*tau; tau + conj(tau) = c1, so conj(tau) = c1 - tau and
# Re(tau) = c1/2
_TAU_SQ = {1: (-1, 0), 3: (-1, -1), 7: (-2, 1)}
# the units of O_d as (a, b) pairs: 4 for d=1, 6 for d=3, 2 for d=7
UNITS = {1: ((1, 0), (-1, 0), (0, 1), (0, -1)),
         3: ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1)),
         7: ((1, 0), (-1, 0))}
# tau = re + (imag coefficient) * i*sqrt(d), the coefficient as a
# (numerator, denominator) pair of ints
_TAU_ISQRTD = {1: (1, 1), 3: (1, 2), 7: (1, 2)}
_TAU_SYMBOL = {1: "i", 3: "w", 7: "t7"}


class RingMismatchError(ValueError):
    """Raised when combining elements of different rings O_d."""


def _check_d(d: int) -> None:
    if d not in SUPPORTED_D:
        raise ValueError(f"unsupported ring selector d={d!r}; must be one of {SUPPORTED_D}")


# The records of the package subclass collections.namedtuple, whose class
# costs a fraction of a typing.NamedTuple's to create. A record that checks
# or normalizes its fields does so in __new__, and overrides _make, which
# would otherwise build the tuple without calling __new__ and so skip the
# checks; namedtuple's _replace builds its copy with _make, so it runs them too.
class QuadInt(namedtuple("QuadInt", "d a b")):
    """a + b*tau_d with arbitrary-precision integer a, b."""

    __slots__ = ()

    def __new__(cls, d: int, a: int, b: int):
        _check_d(d)
        return tuple.__new__(cls, (d, a, b))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(d: int) -> "QuadInt":
        return QuadInt(d, 0, 0)

    @staticmethod
    def one(d: int) -> "QuadInt":
        return QuadInt(d, 1, 0)

    @staticmethod
    def of_int(d: int, n: int) -> "QuadInt":
        return QuadInt(d, n, 0)

    @staticmethod
    def tau(d: int) -> "QuadInt":
        return QuadInt(d, 0, 1)

    @staticmethod
    def sqrt_minus_d(d: int) -> "QuadInt":
        """i*sqrt(d) as an element of O_d."""
        _check_d(d)
        if d == 1:
            return QuadInt(1, 0, 1)
        if d == 3:
            return QuadInt(3, 1, 2)   # i*sqrt3 = 1 + 2w
        return QuadInt(7, -1, 2)      # i*sqrt7 = 2*tau7 - 1

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "QuadInt":
        if isinstance(other, QuadInt):
            if other.d != self.d:
                raise RingMismatchError(f"cannot mix O_{self.d} and O_{other.d}")
            return other
        if isinstance(other, int):
            return QuadInt(self.d, other, 0)
        return NotImplemented

    def __add__(self, other) -> "QuadInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.d, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other) -> "QuadInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.d, self.a - other.a, self.b - other.b)

    def __rsub__(self, other) -> "QuadInt":
        return (-self) + other

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.d, -self.a, -self.b)

    def __mul__(self, other) -> "QuadInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c0, c1 = _TAU_SQ[self.d]
        # (a + b t)(a' + b' t) = aa' + (ab' + a'b) t + bb' t^2
        bb = self.b * other.b
        return QuadInt(
            self.d,
            self.a * other.a + bb * c0,
            self.a * other.b + self.b * other.a + bb * c1,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadInt":
        c1 = _TAU_SQ[self.d][1]
        return QuadInt(self.d, self.a + self.b * c1, -self.b)

    def norm(self) -> int:
        """x * conj(x), always a nonnegative rational integer."""
        n = self * self.conj()
        assert n.b == 0, "norm left the rational integers"
        return n.a

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return not self.is_zero() and self.norm() == 1

    # -- real / imaginary decomposition -----------------------------------

    def real_part(self) -> Fraction:
        from fractions import Fraction
        return Fraction(2 * self.a + self.b * _TAU_SQ[self.d][1], 2)

    def isqrtd_coeff(self) -> Fraction:
        """Rational c with self = real_part + c * i*sqrt(d)."""
        from fractions import Fraction
        cn, cd = _TAU_ISQRTD[self.d]
        return Fraction(self.b * cn, cd)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render(self)

    def approx(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        cn, cd = _TAU_ISQRTD[self.d]
        re = (2 * self.a + self.b * _TAU_SQ[self.d][1]) / 2
        return complex(re) + 1j * (self.b * cn / cd) * math.sqrt(self.d)


def units(d: int) -> list[QuadInt]:
    """All units of O_d, in the order of UNITS."""
    _check_d(d)
    return [QuadInt(d, a, b) for a, b in UNITS[d]]


class QuadRat(namedtuple("QuadRat", "num den")):
    """num/den with num in O_d and positive integer denominator, reduced."""

    __slots__ = ()

    def __new__(cls, num: QuadInt, den: int):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num.a, num.b, den)
        if g > 1:
            num = QuadInt(num.d, num.a // g, num.b // g)
            den //= g
        return tuple.__new__(cls, (num, den))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @property
    def d(self) -> int:
        return self.num.d

    @staticmethod
    def of(x) -> "QuadRat":
        if isinstance(x, QuadRat):
            return x
        if isinstance(x, QuadInt):
            return QuadRat(x, 1)
        raise TypeError(f"cannot coerce {type(x).__name__} to QuadRat")

    @staticmethod
    def zero(d: int) -> "QuadRat":
        return QuadRat(QuadInt.zero(d), 1)

    @staticmethod
    def one(d: int) -> "QuadRat":
        return QuadRat(QuadInt.one(d), 1)

    @staticmethod
    def of_fraction(d: int, q: Fraction | int) -> "QuadRat":
        from fractions import Fraction
        q = Fraction(q)
        return QuadRat(QuadInt.of_int(d, q.numerator), q.denominator)

    # a QuadRat combines only with a QuadRat (Mat.from_entries converts)
    def _coerce(self, other):
        if not isinstance(other, QuadRat):
            return NotImplemented
        if other.d != self.d:
            raise RingMismatchError(f"cannot mix O_{self.d} and O_{other.d}")
        return other

    def __add__(self, other) -> "QuadRat":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadRat(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other) -> "QuadRat":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadRat(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "QuadRat":
        return QuadRat(-self.num, self.den)

    def __mul__(self, other) -> "QuadRat":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadRat(self.num * other.num, self.den * other.den)

    # tuple's repetition would turn 2 * x into a plain 4-tuple
    def __rmul__(self, other):
        return NotImplemented

    def __truediv__(self, other) -> "QuadRat":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(i sqrt d)")
        # 1/(n/d) = d * conj(n) / norm(n)
        return QuadRat(self.num * other.num.conj() * other.den, self.den * other.num.norm())

    def conj(self) -> "QuadRat":
        return QuadRat(self.num.conj(), self.den)

    def norm(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.num.norm(), self.den * self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_integral(self) -> bool:
        return self.den == 1

    def real_part(self) -> Fraction:
        return self.num.real_part() / self.den

    def isqrtd_coeff(self) -> Fraction:
        return self.num.isqrtd_coeff() / self.den

    def key(self) -> tuple[int, int, int]:
        """(numerator-a, numerator-b, denominator), the canonical sort key."""
        return (self.num.a, self.num.b, self.den)

    def approx(self) -> complex:
        return self.num.approx() / self.den

    def __str__(self) -> str:
        if self.den == 1:
            return render(self.num)
        return f"({render(self.num)})/{self.den}"


def render(x: QuadInt) -> str:
    """Textual form 'a+b*w' / 'a+b*i' / 'a+b*t7'; exact round-trip via parse."""
    sym = _TAU_SYMBOL[x.d]
    if x.b == 0:
        return str(x.a)
    tpart = f"{x.b}*{sym}" if abs(x.b) != 1 else (sym if x.b == 1 else f"-{sym}")
    if x.a == 0:
        return tpart
    sign = "+" if not tpart.startswith("-") else ""
    return f"{x.a}{sign}{tpart}"


_SYM = "i|w|t7"
_TERM = rf"(?:[0-9]+(?: *\* *(?:{_SYM}))?|{_SYM})"
# sign-separated terms N, SYM and N*SYM; spaces only around signs and '*'; compiled on first use
_ELEMENT_RE = rf"(?: *[+-] *)?{_TERM}(?: *[+-] *{_TERM})*"
_TERM_RE = rf"([+-]?) *(?:([0-9]+)(?: *\* *({_SYM}))?|({_SYM}))"


def parse(d: int, text: str) -> QuadInt:
    """Inverse of render: accepts forms like '3', '-w', '1+2*w', '2*t7 - 1'."""
    _check_d(d)
    if not re.fullmatch(_ELEMENT_RE, text):
        raise ValueError(f"cannot parse {text!r} as an element of O_{d}")
    a = b = 0
    for sign, digits, tau_after, tau_alone in re.findall(_TERM_RE, text):
        tau = tau_after or tau_alone
        if tau and tau != _TAU_SYMBOL[d]:
            raise ValueError(f"symbol {tau!r} does not belong to O_{d}")
        coef = int(sign + (digits or "1"))
        if tau:
            b += coef
        else:
            a += coef
    return QuadInt(d, a, b)
