"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

A number is stored as integer numerators on the power basis
1, z, ..., z^(phi(m)-1) over one positive common denominator, where z is a
fixed primitive m-th root of unity and phi is Euler's totient (the standard
representation; Cohen, *A Course in Computational Algebraic Number Theory*,
GTM 138, section 4.2).  Every result is reduced modulo the m-th cyclotomic
polynomial, which is monic with integer coefficients, so the reduction never
leaves the integers; and the denominator is kept coprime to the numerators,
so representations are canonical and equality is component-wise.

Two design rules hold throughout the package:

* no floating point anywhere; a scalar is integer numerators over one
  positive integer denominator, and arithmetic builds no `fractions.Fraction`
  (Fractions appear only at the boundary: `rational`, `from_poly`, the
  `coeffs` view and serialization),
* numbers of different orders never mix silently.  Arithmetic between two
  CycloNum values requires equal `order`; callers move into a common field
  with `embed` first.  Plain ints and Fractions coerce into the order of the
  other operand, since the rationals sit canonically inside every Q(zeta_m).

The compatible choice of roots (zeta_m = zeta_n^(n/m) whenever m | n) is what
`embed` implements, and the rest of the package relies on it when comparing
eigenvalues of automorphisms of different periods.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub
from typing import Sequence, Union

__all__ = [
    "CycloError",
    "CycloNum",
    "cyclotomic_polynomial",
    "euler_phi",
    "zeta_power",
]


class CycloError(ArithmeticError):
    """An exact-arithmetic invariant failed (a division that must be exact)."""


def _json_int(x: object) -> int:
    """x when it is a JSON integer; a float, bool or string raises TypeError."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, not {x!r}")
    return x


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Euler's totient; memoized, since every CycloNum construction asks."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


# Integer polynomials are dense tuples, constant term first, no trailing zeros.


def _poly_trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mul_int(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod_int(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not den or den[-1] != 1:
        raise CycloError("polynomial division needs a monic divisor")
    rem = list(num)
    quo = [0] * max(len(num) - len(den) + 1, 0)
    while len(rem) >= len(den):
        lead = rem[-1]
        if lead == 0:
            rem.pop()
            continue
        shift = len(rem) - len(den)
        quo[shift] = lead
        for i, d in enumerate(den):
            rem[shift + i] -= lead * d
        rem.pop()
    return _poly_trim(quo), _poly_trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, constant first.

    Computed by exact division of x^m - 1 by the product of Phi_d over the
    proper divisors d of m; the division must leave no remainder.
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    if m == 1:
        return (-1, 1)
    num = (-1,) + (0,) * (m - 1) + (1,)
    den: tuple[int, ...] = (1,)
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul_int(den, cyclotomic_polynomial(d))
    quo, rem = _poly_divmod_int(num, den)
    if rem != ():
        raise CycloError("cyclotomic division must be exact")
    if quo[-1] != 1:
        raise CycloError(f"cyclotomic polynomial {m} is not monic")
    return quo


@lru_cache(maxsize=None)
def _modulus_terms(order: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (power, coefficient) of Phi_order below its leading 1."""
    phi = cyclotomic_polynomial(order)
    return tuple((i, c) for i, c in enumerate(phi[:-1]) if c)


def _reduce(order: int, coeffs: list[int]) -> tuple[int, ...]:
    """Reduce an integer coefficient list modulo Phi_order, in place, and pad
    it to length phi(order).  Phi_order is monic, so the result is integral."""
    deg = euler_phi(order)
    if len(coeffs) > deg:
        terms = _modulus_terms(order)
        for top in range(len(coeffs) - 1, deg - 1, -1):
            lead = coeffs[top]
            if lead:
                shift = top - deg
                for i, c in terms:
                    coeffs[shift + i] -= lead * c
        del coeffs[deg:]
    else:
        coeffs.extend([0] * (deg - len(coeffs)))
    return tuple(coeffs)


def _poly_product(order: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced product of two integer coefficient vectors of one order."""
    return _reduce(order, list(_poly_mul_int(a, b)))


def _conjugate(order: int, a: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The image of sum a_i z^i under the Galois automorphism z -> z^k."""
    out = [0] * order
    for i, x in enumerate(a):
        if x:
            out[i * k % order] += x
    return _reduce(order, out)


_new = object.__new__


def _from_canonical(order: int, num: tuple[int, ...], den: int) -> "CycloNum":
    """The number num/den, given canonical: den > 0, gcd(den, *num) == 1.

    Every CycloNum is built here, so every one has a valid order and
    phi(order) numerators."""
    if len(num) != euler_phi(order):  # euler_phi raises on order < 1
        raise ValueError(
            f"coefficient vector must have length phi({order}) = "
            f"{euler_phi(order)}, got {len(num)}"
        )
    self = _new(CycloNum)
    self._order = order
    self._num = num
    self._den = den
    return self


def _make(order: int, num: tuple[int, ...], den: int) -> "CycloNum":
    """The number num/den in canonical form: den > 0, gcd(den, *num) == 1."""
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
    return _from_canonical(order, num, den)


Coercible = Union["CycloNum", int, Fraction]


class CycloNum:
    """An element of Q(zeta_order) on the power basis, always reduced.

    It is stored as `num`, the integer numerators of its power-basis
    coefficients, over one common denominator `den` > 0 with
    gcd(den, *num) == 1, so equal values have equal fields, equal objects
    and equal hashes.  Instances are immutable.  `coeffs` is the same vector
    as Fractions, for serialization and display.
    """

    __slots__ = ("_order", "_num", "_den")

    def __new__(cls, order: int, coeffs: Sequence[Union[int, Fraction]]) -> "CycloNum":
        values = [Fraction(c) for c in coeffs]
        den = lcm(*(v.denominator for v in values))
        num = tuple([v.numerator * (den // v.denominator) for v in values])
        return _from_canonical(order, num, den)

    @property
    def order(self) -> int:
        return self._order

    @property
    def num(self) -> tuple[int, ...]:
        return self._num

    @property
    def den(self) -> int:
        return self._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    @staticmethod
    def rational(order: int, value: Union[int, Fraction]) -> "CycloNum":
        if isinstance(value, int):
            num, den = value, 1
        else:
            if not isinstance(value, Fraction):
                value = Fraction(value)
            num, den = value.numerator, value.denominator
        return _from_canonical(order, (num,) + (0,) * (euler_phi(order) - 1), den)

    # CycloNum is immutable, so one zero and one one per order are shared

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(order: int) -> "CycloNum":
        return CycloNum.rational(order, 0)

    @staticmethod
    @lru_cache(maxsize=None)
    def one(order: int) -> "CycloNum":
        return CycloNum.rational(order, 1)

    @staticmethod
    def from_poly(order: int, coeffs) -> "CycloNum":
        """sum coeffs[i] z^i for ints or Fractions of any length, reduced."""
        values = list(coeffs)
        if all(type(c) is int for c in values):
            return _from_canonical(order, _reduce(order, values), 1)
        fracs = [Fraction(c) for c in values]
        den = lcm(*(f.denominator for f in fracs))
        num = _reduce(order, [f.numerator * (den // f.denominator) for f in fracs])
        return _make(order, num, den)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CycloNum:
            return NotImplemented
        return (
            self._num == other._num and self._den == other._den and self._order == other._order
        )

    def __hash__(self) -> int:
        return hash((self._order, self._num, self._den))

    def __reduce__(self):
        return (CycloNum, (self._order, self.coeffs))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: Coercible) -> "CycloNum":
        if isinstance(other, CycloNum):
            if other._order != self._order:
                raise ValueError(
                    f"order mismatch: {self._order} vs {other._order}; embed into a common order first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.rational(self._order, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Coercible) -> "CycloNum":
        if other.__class__ is not CycloNum or other._order != self._order:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self._den, other._den
        if da == db:
            return _make(self._order, tuple(map(add, self._num, other._num)), da)
        return _make(
            self._order, tuple([x * db + y * da for x, y in zip(self._num, other._num)]), da * db
        )

    __radd__ = __add__

    def __sub__(self, other: Coercible) -> "CycloNum":
        if other.__class__ is not CycloNum or other._order != self._order:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self._den, other._den
        if da == db:
            return _make(self._order, tuple(map(sub, self._num, other._num)), da)
        return _make(
            self._order, tuple([x * db - y * da for x, y in zip(self._num, other._num)]), da * db
        )

    def __rsub__(self, other: Coercible) -> "CycloNum":
        return (-self) + other

    def __neg__(self) -> "CycloNum":
        return _from_canonical(self._order, tuple([-x for x in self._num]), self._den)

    def __mul__(self, other: Coercible) -> "CycloNum":
        if other.__class__ is not CycloNum or other._order != self._order:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._num, other._num
        den = self._den * other._den
        # a rational factor scales the numerators, with nothing to reduce
        if not any(b[1:]):
            y = b[0]
            return _make(self._order, tuple([x * y for x in a]), den)
        if not any(a[1:]):
            x = a[0]
            return _make(self._order, tuple([x * y for y in b]), den)
        return _make(self._order, _poly_product(self._order, a, b), den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """1/a = (product of the other Galois conjugates of a) / N(a).

        With a = A/den and A integral, that product P and the norm N(A) = A*P
        are integral, so the inverse is den*P / N(A) with no rational
        arithmetic at all."""
        order, a = self._order, self._num
        if not any(a):
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if not any(a[1:]):
            return _make(order, (self._den,) + (0,) * (len(a) - 1), a[0])
        conj = None
        for k in range(2, order):
            if gcd(k, order) == 1:
                image = _conjugate(order, a, k)
                conj = image if conj is None else _poly_product(order, conj, image)
        norm = _poly_product(order, a, conj)
        if any(norm[1:]) or not norm[0]:
            raise CycloError("the norm of a nonzero number must be a nonzero rational")
        return _make(order, tuple([self._den * x for x in conj]), norm[0])

    def __truediv__(self, other: Coercible) -> "CycloNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: Coercible) -> "CycloNum":
        return self.inverse() * other

    def __pow__(self, exponent: int) -> "CycloNum":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycloNum.one(self._order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- change of field -----------------------------------------------

    def embed(self, n: int) -> "CycloNum":
        """Rewrite in Q(zeta_n) using zeta_m = zeta_n^(n/m); requires order | n."""
        if n % self._order != 0:
            raise ValueError(f"cannot embed order {self._order} into order {n}: not a divisor")
        if n == self._order:
            return self
        step = n // self._order
        out = [0] * ((len(self._num) - 1) * step + 1)
        for i, x in enumerate(self._num):
            out[i * step] = x
        return _make(n, _reduce(n, out), self._den)

    # -- serialization and display ---------------------------------------

    def to_obj(self) -> dict:
        return {"order": self._order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_obj(obj: dict) -> "CycloNum":
        """Read `to_obj` output.  The coefficients are a list of strings or
        integers, so no binary float or bool is read as a number."""
        coeffs = obj["coeffs"]
        if type(coeffs) is not list or not all(type(c) in (str, int) for c in coeffs):
            raise TypeError(f"coefficients must be a list of strings or integers, not {coeffs!r}")
        return CycloNum(_json_int(obj["order"]), tuple(Fraction(c) for c in coeffs))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = f"z{self._order}" if i == 1 else f"z{self._order}^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"CycloNum({self._order}, {self})"


def zeta_power(m: int, e: int) -> CycloNum:
    """zeta_m^e as a reduced element of Q(zeta_m)."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    e %= m
    return _from_canonical(m, _reduce(m, [0] * e + [1]), 1)
