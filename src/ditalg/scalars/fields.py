"""Exact ground fields: prime fields F_p and the rationals Q.

Field elements are kept as raw values and all arithmetic goes through a
field context object.  An F_p value is an int in [0, p).  A Q value is an
int when it is integral and a `Fraction` only when its denominator is not 1:
almost every scalar of a reduction is 0, 1, -1 or another small integer, and
Python adds, multiplies and compares ints many times faster than
`Fraction`s.  Equal values compare, hash and print the same in either form,
so the representation shows in no output.  This keeps the linear algebra
cheap while staying exact everywhere.  The one row update of every
elimination, `sub_scaled` (row[j] -= f*w over the nonzero entries (j, w) of
a pivot row), is a context method too: `Field` spells it with `sub` and
`mul`, `PrimeField` inlines the reduction mod p and `RationalField` the
return of an integral result to an int, so `linalg` never asks which field
it has.
"""

from __future__ import annotations

from fractions import Fraction


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
        # values are ints or Fractions: zero is the only falsy one
        return not a

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

    def random(self, rng):
        return rng.randrange(self.p)

    def parse(self, s: str):
        """An integer or a quotient a/b of integers, read mod p, as a
        presentation file's coefficients are; ZeroDivisionError when b is 0
        mod p."""
        num, slash, den = s.partition("/")
        return self.div(int(num, 10) % self.p, int(den, 10) % self.p if slash else self.one)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F{self.p}"


class RationalField(Field):
    """Q in one canonical form: an integral value is always an int (so
    `zero` is 0 and `one` is 1), and only a value whose denominator is not 1
    is a `Fraction`.  Every operation that can make an integral `Fraction`
    (a sum, difference, product or quotient) turns it back into an int; a
    negation cannot.  No other module builds a `Fraction`: a Q value enters
    through `from_int`, `parse`, `random` or `div`."""

    __slots__ = ("zero", "one", "char")

    def __init__(self):
        self.zero = 0
        self.one = 1
        self.char = 0

    def add(self, a, b):
        c = a + b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        return -a

    def sub_scaled(self, row, f, nz):
        for j, w in nz:
            c = row[j] - f * w
            row[j] = c if c.__class__ is int or c.denominator != 1 else c.numerator

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero in Q")
        if a.__class__ is int and b.__class__ is int:
            # a / b would be a float
            return a // b if a % b == 0 else Fraction(a, b)
        c = a / b
        return c if c.denominator != 1 else c.numerator

    def from_int(self, n: int):
        return n

    def random(self, rng):
        num = rng.randrange(-6, 7)
        den = rng.randrange(1, 5)
        return self.div(num, den)

    def parse(self, s: str):
        """A decimal integer, quotient a/b or decimal fraction, as
        `Fraction` reads it; ZeroDivisionError when b is 0."""
        c = Fraction(s)
        return c if c.denominator != 1 else c.numerator

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
