"""Exact ground fields: prime fields F_p and the rationals Q.

Field elements are kept as raw values (ints for F_p, Fraction for Q) and all
arithmetic goes through a field context object.  This keeps the linear
algebra cheap while staying exact everywhere.  The one row update of every
elimination, `sub_scaled` (row[j] -= f*w over the nonzero entries (j, w) of a
pivot row), is a context method too: `Field` spells it with `sub` and `mul`,
and `PrimeField` inlines the reduction mod p, so `linalg` never asks which
field it has.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterator, Optional


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldError(ValueError):
    pass


class Field:
    """Common interface of the two ground-field contexts."""

    char: int

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def sub_scaled(self, row, f, nz):
        """row[j] -= f*w for each (j, w) in nz, in place."""
        sub, mul = self.sub, self.mul
        for j, w in nz:
            row[j] = sub(row[j], mul(f, w))

    def from_int(self, n: int):
        raise NotImplementedError

    def embed(self, c):
        """A scalar as an element of this coefficient ring: the identity, as
        `LocalizedRing.embed` is for k[x]_h."""
        return c

    def is_unit(self, a) -> bool:
        """True when a is invertible: in a field, when a is nonzero (as
        `LocalizedRing.is_unit` is for k[x]_h)."""
        return not self.is_zero(a)

    def is_zero(self, a) -> bool:
        # values are ints in [0, p) or Fractions: zero is the only falsy one
        return not a

    def elements(self) -> Optional[Iterator[Any]]:
        """Iterate all field elements, or None for an infinite field."""
        return None

    def random(self, rng):
        raise NotImplementedError

    def format(self, a) -> str:
        return str(a)

    def parse(self, s: str):
        raise NotImplementedError


class PrimeField(Field):
    """F_p with raw int values in [0, p).  The modulus must be prime."""

    __slots__ = ("p", "zero", "one", "char")

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p
        self.char = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub_scaled(self, row, f, nz):
        p = self.p
        for j, w in nz:
            row[j] = (row[j] - f * w) % p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def elements(self):
        return iter(range(self.p))

    def random(self, rng):
        return rng.randrange(self.p)

    def parse(self, s: str):
        return int(s, 10) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F{self.p}"


class RationalField(Field):
    """Q with Fraction values."""

    __slots__ = ("zero", "one", "char")

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.char = 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / Fraction(a)

    def from_int(self, n: int):
        return Fraction(n)

    def random(self, rng):
        num = rng.randrange(-6, 7)
        den = rng.randrange(1, 5)
        return Fraction(num, den)

    def parse(self, s: str):
        return Fraction(s)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "Q"


QQ = RationalField()


def field_from_name(name: str) -> Field:
    """'Q' or 'F<p>' (also accepts 'GF(p)')."""
    s = name.strip()
    if s in ("Q", "QQ", "rationals"):
        return QQ
    if s.startswith("GF(") and s.endswith(")"):
        return PrimeField(int(s[3:-1]))
    if s.startswith("F"):
        return PrimeField(int(s[1:]))
    raise FieldError(f"unknown field spec {name!r}")
