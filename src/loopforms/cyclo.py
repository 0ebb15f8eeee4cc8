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
  positive integer denominator, nothing here builds a Fraction, and
  `fractions` is imported for annotations only.  Ints and Fractions are
  accepted as inputs (`rational`, `from_poly`, coercion), both read through
  their `numerator` and `denominator`; `num` and `den` are the one view of
  a number.
  Serialization writes and reads coefficient strings with ints alone,
* numbers of different orders never mix silently.  Arithmetic between two
  CycloNum values requires equal `order`.  Plain ints and Fractions coerce
  into the order of the other operand, since the rationals sit canonically
  inside every Q(zeta_m).

The package writes each table over the field its twist needs, so no number
moves between fields here; only the tests embed Q(zeta_m) in Q(zeta_n), by
the compatible choice of roots zeta_m = zeta_n^(n/m) whenever m | n, to
check those tables against the ones over Q.

Every layer imports this module, so it also holds the one vector type,
`Sparse` ({index: CycloNum} with no zero entry), and `sparse_add`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import TYPE_CHECKING, Mapping, Optional, Union

from .record import RequestError, is_int, read_int

if TYPE_CHECKING:
    from fractions import Fraction

    Coercible = Union["CycloNum", int, Fraction]

__all__ = [
    "CycloError",
    "CycloNum",
    "Sparse",
    "cyclotomic_polynomial",
    "euler_phi",
    "sparse_add",
    "zeta_power",
]


class CycloError(ArithmeticError):
    """An exact-arithmetic invariant failed (a division that must be exact)."""


def _ratio(value: object) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction, in lowest terms with
    a positive denominator.  Both types expose the two attributes, so a
    Fraction is read without importing `fractions`; anything else, a float
    included, raises TypeError."""
    if type(value) is int:
        return value, 1
    try:
        return value.numerator, value.denominator
    except AttributeError:
        raise TypeError(f"expected an int or a Fraction, not {value!r}") from None


def _parse_coeff(text: object) -> tuple[int, int]:
    """(numerator, denominator) of a serialized coefficient: a JSON integer,
    or a string p or p/q, each of p and q read by `record.read_int` and q
    positive, which is what `to_obj` writes.  The pair need not be in
    lowest terms.  Anything else raises RequestError naming the coefficient;
    no exponent, decimal point, sign but a leading minus, space or
    underscore is read, and a numeral too long to read is refused by its
    length, not echoed."""
    if is_int(text):
        return text, 1
    if type(text) is str:
        top, slash, bottom = text.partition("/")
        num = read_int(top)
        den = read_int(bottom) if slash else 1
        if num is not None and den is not None and den > 0:
            return num, den
    raise RequestError(
        f"coefficient {text!r} is not an integer or a string p or p/q "
        "of ASCII digits with a nonzero q"
    )


def _over_common_denominator(ratios: list[tuple[int, int]]) -> tuple[list[int], int]:
    """The numerators of (numerator, denominator) pairs over the least
    common multiple of their denominators, and that multiple."""
    den = lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _fraction_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, with no Fraction built."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


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

    Computed by division of x^m - 1 by the product of Phi_d over the proper
    divisors d of m.  x^m - 1 is the product of Phi_d over every divisor d,
    and every Phi_d is monic, so the division leaves no remainder and the
    quotient is monic.  m is an order that `euler_phi` has accepted:
    `_reduce`, which reads Phi_m through `_modulus_terms`, asks it first, and
    the recursion passes the proper divisors of m.
    """
    if m == 1:
        return (-1, 1)
    num = (-1,) + (0,) * (m - 1) + (1,)
    den: tuple[int, ...] = (1,)
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul_int(den, cyclotomic_polynomial(d))
    return _poly_divmod_int(num, den)[0]


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

    Every CycloNum is built here.  Each constructor checks its order and
    pads or reduces its input to phi(order) numerators, and arithmetic
    keeps its operands' length, so the length check below is reached only
    by a number whose numerators were altered after it was built: through
    arithmetic on it, or through unpickling it."""
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


class CycloNum:
    """An element of Q(zeta_order) on the power basis, always reduced.

    It is stored as `num`, the integer numerators of its power-basis
    coefficients, over one common denominator `den` > 0 with
    gcd(den, *num) == 1, so equal values have equal fields, equal objects
    and equal hashes.  Instances are immutable; `from_poly` is the
    constructor from coefficients, and serialization and display read `num`
    and `den`.
    """

    __slots__ = ("_order", "_num", "_den")

    @property
    def order(self) -> int:
        return self._order

    @property
    def num(self) -> tuple[int, ...]:
        return self._num

    @property
    def den(self) -> int:
        return self._den

    @staticmethod
    def rational(order: int, value: Union[int, Fraction]) -> "CycloNum":
        num, den = _ratio(value)
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
        num, den = _over_common_denominator([_ratio(c) for c in values])
        return _make(order, _reduce(order, num), den)

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
        return (_make, (self._order, self._num, self._den))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: Coercible) -> "CycloNum":
        if isinstance(other, CycloNum):
            if other._order != self._order:
                raise ValueError(
                    f"order mismatch: {self._order} vs {other._order}; embed into a common order first"
                )
            return other
        try:
            return CycloNum.rational(self._order, other)
        except TypeError:  # neither an int nor a Fraction
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
        return self + (-other)

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
        arithmetic at all.  N(A) is a rational integer, being fixed by every
        Galois automorphism, and it is nonzero, because A is."""
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

    # -- serialization and display ---------------------------------------

    def to_obj(self) -> dict:
        den = self._den
        return {"order": self._order, "coeffs": [_fraction_text(x, den) for x in self._num]}

    @staticmethod
    def from_obj(obj: dict) -> "CycloNum":
        """Read `to_obj` output: {"order": int, "coeffs": [...]}, phi(order)
        coefficients, each a JSON integer or a string p or p/q
        (`_parse_coeff`), so no binary float, bool, exponent or decimal is
        read as a number.  Any other shape raises RequestError."""
        if type(obj) is not dict:
            raise RequestError(f"a scalar must be a JSON object, not {obj!r}")
        for field in ("order", "coeffs"):
            if field not in obj:
                raise RequestError(f"missing field {field!r} in a scalar")
        order, coeffs = obj["order"], obj["coeffs"]
        if not is_int(order):
            raise RequestError(f"the order of a scalar must be an integer, not {order!r}")
        if type(coeffs) is not list:
            raise RequestError(
                f"coefficients must be a list of strings or integers, not {coeffs!r}"
            )
        if order < 1:
            raise RequestError(f"the order of a scalar must be positive, not {order}")
        # phi(m) >= sqrt(m/2), so a larger order cannot have len(coeffs)
        # coefficients; refusing it here keeps euler_phi's trial division
        # bounded by the size of the input
        if order > 2 * len(coeffs) ** 2:
            raise RequestError(
                f"a scalar of order {order} needs more than {len(coeffs)} coefficients"
            )
        if len(coeffs) != euler_phi(order):
            raise RequestError(
                f"{len(coeffs)} coefficients given for a scalar of order {order}, "
                f"which takes phi({order}) = {euler_phi(order)}"
            )
        num, den = _over_common_denominator([_parse_coeff(c) for c in coeffs])
        return _make(order, tuple(num), den)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        den = self._den
        for i, x in enumerate(self._num):
            if x == 0:
                continue
            if i == 0:
                parts.append(_fraction_text(x, den))
            else:
                mono = f"z{self._order}" if i == 1 else f"z{self._order}^{i}"
                if x == den:
                    parts.append(mono)
                elif x == -den:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{_fraction_text(x, den)}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"CycloNum({self._order}, {self})"


def zeta_power(m: int, e: int) -> CycloNum:
    """zeta_m^e as a reduced element of Q(zeta_m), a new number on each
    call, read off the table of its order (`_zeta_powers`)."""
    if m < 1:
        raise ValueError("a root of unity needs a positive order")
    return _from_canonical(m, _zeta_powers(m)[e % m], 1)


@lru_cache(maxsize=None)
def _zeta_powers(m: int) -> tuple[tuple[int, ...], ...]:
    """The reduced numerators of zeta_m^0, ..., zeta_m^(m-1), each the one
    before times z: a shift up, with the top coefficient folded back by
    z^phi(m) = -(the terms of Phi_m below its leading 1)."""
    terms = _modulus_terms(m)
    power = [1] + [0] * (euler_phi(m) - 1)
    powers = []
    for _ in range(m):
        powers.append(tuple(power))
        lead = power.pop()
        power.insert(0, 0)
        if lead:
            for i, c in terms:
                power[i] -= lead * c
    return tuple(powers)


Sparse = dict[int, CycloNum]


def sparse_add(acc: Sparse, v: Mapping[int, CycloNum], scale: Optional[CycloNum] = None) -> None:
    """acc += scale * v in place (scale 1 when omitted); entries that cancel
    are dropped."""
    for k, x in v.items():
        if scale is not None:
            x = scale * x
        old = acc.get(k)
        if old is None:
            acc[k] = x
            continue
        new = old + x
        if new.is_zero():
            del acc[k]
        else:
            acc[k] = new
