"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

A number is stored as a vector of rational coefficients on the power basis
1, z, ..., z^(phi(m)-1), where z is a fixed primitive m-th root of unity and
phi is Euler's totient.  Every result is reduced modulo the m-th cyclotomic
polynomial, so representations are canonical and equality is coefficient-wise.

Two design rules hold throughout the package:

* no floating point anywhere; scalars are `fractions.Fraction`,
* numbers of different orders never mix silently.  Arithmetic between two
  CycloNum values requires equal `order`; callers move into a common field
  with `embed` first.  Plain ints and Fractions coerce into the order of the
  other operand, since the rationals sit canonically inside every Q(zeta_m).

The compatible choice of roots (zeta_m = zeta_n^(n/m) whenever m | n) is what
`embed` implements, and the rest of the package relies on it when comparing
eigenvalues of automorphisms of different periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

__all__ = [
    "CycloError",
    "CycloNum",
    "cyclotomic_polynomial",
    "embed",
    "euler_phi",
    "zeta_power",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CycloError(ArithmeticError):
    """An exact-arithmetic invariant failed (a division that must be exact)."""


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


def _reduce_mod_cyclotomic(order: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """Reduce a coefficient list modulo Phi_order and pad to length phi(order)."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rem = list(coeffs)
    while len(rem) > deg:
        lead = rem.pop()
        if lead == 0:
            continue
        shift = len(rem) - deg
        for i in range(deg):
            rem[shift + i] -= lead * phi[i]
    rem.extend([_ZERO] * (deg - len(rem)))
    return tuple(rem)


Coercible = Union["CycloNum", int, Fraction]


@dataclass(frozen=True)
class CycloNum:
    """An element of Q(zeta_order) on the power basis, always reduced."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be a positive integer")
        if len(self.coeffs) != euler_phi(self.order):
            raise ValueError(
                f"coefficient vector must have length phi({self.order}) = "
                f"{euler_phi(self.order)}, got {len(self.coeffs)}"
            )

    @staticmethod
    def rational(order: int, value: Union[int, Fraction]) -> "CycloNum":
        deg = euler_phi(order)
        coeffs = (Fraction(value),) + (_ZERO,) * (deg - 1)
        return CycloNum(order, coeffs)

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
        return CycloNum(order, _reduce_mod_cyclotomic(order, [Fraction(c) for c in coeffs]))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: Coercible) -> "CycloNum":
        if isinstance(other, CycloNum):
            if other.order != self.order:
                raise ValueError(
                    f"order mismatch: {self.order} vs {other.order}; embed into a common order first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.rational(self.order, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Coercible) -> "CycloNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNum(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other: Coercible) -> "CycloNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNum(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other: Coercible) -> "CycloNum":
        return (-self) + other

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: Coercible) -> "CycloNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        # a rational factor scales the coefficients, with nothing to reduce
        if not any(b[1:]):
            return CycloNum(self.order, tuple(x * b[0] for x in a))
        if not any(a[1:]):
            return CycloNum(self.order, tuple(a[0] * y for y in b))
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return CycloNum(self.order, _reduce_mod_cyclotomic(self.order, out))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if self.is_rational():
            return CycloNum.rational(self.order, 1 / self.coeffs[0])
        # extended Euclid against Phi_order, which is irreducible over Q
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, list(self.coeffs)
        s0: list[Fraction] = [_ZERO]
        s1: list[Fraction] = [_ONE]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if not r1:
                raise CycloError("gcd with an irreducible modulus cannot vanish")
            if len(r1) == 1:
                inv = [c / r1[0] for c in s1]
                return CycloNum(self.order, _reduce_mod_cyclotomic(self.order, inv))
            quo = [_ZERO] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            while len(rem) >= len(r1):
                lead = rem[-1]
                if lead == 0:
                    rem.pop()
                    continue
                shift = len(rem) - len(r1)
                q = lead / r1[-1]
                quo[shift] = q
                for i, d in enumerate(r1):
                    rem[shift + i] -= q * d
                rem.pop()
            snew = list(s0) + [_ZERO] * max(0, len(quo) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(quo):
                if qi:
                    for j, sj in enumerate(s1):
                        snew[i + j] -= qi * sj
            r0, r1 = r1, rem
            s0, s1 = s1, snew

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
        result = CycloNum.one(self.order)
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
        if n % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into order {n}: not a divisor")
        if n == self.order:
            return self
        step = n // self.order
        out = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] = c
        return CycloNum(n, _reduce_mod_cyclotomic(n, out))

    # -- serialization and display ---------------------------------------

    def to_obj(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_obj(obj: dict) -> "CycloNum":
        coeffs = tuple(Fraction(s) for s in obj["coeffs"])
        return CycloNum(int(obj["order"]), coeffs)

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
                mono = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"CycloNum({self.order}, {self})"


def zeta_power(m: int, e: int) -> CycloNum:
    """zeta_m^e as a reduced element of Q(zeta_m)."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    e %= m
    coeffs = [_ZERO] * e + [_ONE]
    return CycloNum(m, _reduce_mod_cyclotomic(m, coeffs))


def embed(a: CycloNum, n: int) -> CycloNum:
    return a.embed(n)
