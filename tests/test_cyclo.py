import json
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from dense import FractionCyclo, zeta_power_by_reduction
from loopforms.cyclo import CycloNum, cyclotomic_polynomial, euler_phi, zeta_power
from loopforms.record import RequestError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_rational_embedding_matches_fraction_arithmetic():
    # oracle: fractions.Fraction on the same operation sequence
    rng = random.Random(20260815)
    for _ in range(200):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        x = CycloNum.rational(12, a)
        y = CycloNum.rational(12, b)
        assert (x + y).as_fraction() == a + b
        assert (x - y).as_fraction() == a - b
        assert (x * y).as_fraction() == a * b
        if b != 0:
            assert (x / y).as_fraction() == a / b


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 9, 12])
def test_zeta_is_primitive(m):
    z = zeta_power(m, 1)
    assert (z ** m) == CycloNum.one(m)
    for k in range(1, m):
        assert (z ** k) != CycloNum.one(m)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12])
def test_roots_of_unity_sum_to_zero(m):
    total = CycloNum.zero(m)
    for k in range(m):
        total = total + zeta_power(m, k)
    assert total.is_zero()


def test_zeta4_squares_to_minus_one():
    i = zeta_power(4, 1)
    assert i * i == CycloNum.rational(4, -1)


def test_inverse_on_random_elements():
    rng = random.Random(7)
    for _ in range(60):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(euler_phi(12))]
        x = CycloNum.from_poly(12, coeffs)
        if x.is_zero():
            continue
        assert x * x.inverse() == CycloNum.one(12)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        CycloNum.one(3) / CycloNum.zero(3)
    with pytest.raises(ZeroDivisionError):
        CycloNum.zero(3).inverse()


def test_embed_compatible_roots():
    # zeta_m = zeta_n^(n/m) whenever m | n, so embeddings commute with powers
    for m, n in [(2, 4), (2, 6), (3, 6), (3, 12), (4, 12), (6, 12)]:
        small = zeta_power(m, 1)
        assert small.embed(n) == zeta_power(n, n // m)
        # a rational stays rational through the embedding
        q = CycloNum.rational(m, Fraction(7, 3))
        assert q.embed(n).as_fraction() == Fraction(7, 3)


def test_negative_powers():
    z = zeta_power(12, 1)
    assert z ** -1 == z ** 11
    assert (z ** -5) * (z ** 5) == CycloNum.one(12)


def test_cyclotomic_polynomial_fixtures():
    # frozen low-order cyclotomic polynomials, constant term first
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_serialization_round_trip():
    rng = random.Random(99)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(4)]
        x = CycloNum.from_poly(12, coeffs)
        assert CycloNum.from_obj(x.to_obj()) == x


def test_mixed_order_arithmetic_rejected():
    with pytest.raises(ValueError, match="order mismatch: 3 vs 4; embed into a common order first"):
        zeta_power(3, 1) + zeta_power(4, 1)


def test_embedding_needs_a_multiple_of_the_order():
    assert zeta_power(3, 1).embed(6) == zeta_power(6, 2)
    with pytest.raises(ValueError, match="cannot embed order 3 into order 4: not a divisor"):
        zeta_power(3, 1).embed(4)


@pytest.mark.parametrize("m", [1, 3, 4, 5, 6, 12])
def test_rational_factor_product_equals_polynomial_product(m):
    # a rational factor takes the scaling shortcut in __mul__; the reduced
    # polynomial product is the reference
    rng = random.Random(m)
    deg = euler_phi(m)
    for _ in range(20):
        a = CycloNum.from_poly(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)])
        r = CycloNum.rational(m, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        want = [0] * (2 * deg - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(r.coeffs):
                want[i + j] += x * y
        assert a * r == r * a == CycloNum.from_poly(m, want)


def test_zero_and_one_are_shared_per_order():
    assert CycloNum.zero(6) is CycloNum.zero(6)
    assert CycloNum.one(6) is CycloNum.one(6)
    assert CycloNum.zero(6).is_zero() and not CycloNum.one(6).is_zero()
    assert CycloNum.zero(3) != CycloNum.zero(6)
    assert not zeta_power(6, 1).is_zero() and zeta_power(6, 1).is_rational() is False


# -- integer numerators against the Fraction oracle ------------------------------

ORACLE_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12, 24)


def _random_pair(rng, m):
    """The same seeded number as a CycloNum and as a FractionCyclo.

    Coefficients are non-integral, and the polynomial is sometimes longer
    than phi(m), so from_poly reduces it; sometimes it is rational."""
    deg = euler_phi(m)
    length = 1 if rng.random() < 0.2 else rng.randint(deg, 2 * deg)
    coeffs = [Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(length)]
    return CycloNum.from_poly(m, coeffs), FractionCyclo.from_poly(m, coeffs)


def _agrees(x, want):
    assert isinstance(x, CycloNum)
    assert x.order == want.order
    assert x.coeffs == want.coeffs
    assert x.to_obj() == want.to_obj()
    assert str(x) == str(want)
    # canonical form: positive denominator coprime to the numerators
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert all(type(a) is int for a in x.num)
    # equal values give equal objects and equal hashes
    rebuilt = CycloNum(want.order, want.coeffs)
    assert rebuilt == x and hash(rebuilt) == hash(x)
    assert CycloNum.from_obj(want.to_obj()) == x


@pytest.mark.parametrize("m", ORACLE_ORDERS)
def test_arithmetic_agrees_with_fraction_oracle(m):
    rng = random.Random(f"cyclo oracle {m}")
    for _ in range(30):
        (x, fx), (y, fy) = _random_pair(rng, m), _random_pair(rng, m)
        _agrees(x, fx)
        _agrees(x + y, fx + fy)
        _agrees(x - y, fx - fy)
        _agrees(x * y, fx * fy)
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        _agrees(x * q, fx * q)
        _agrees(x + q, fx + q)
        _agrees(-x, FractionCyclo.from_poly(m, []) - fx)
        if not y.is_zero():
            _agrees(y.inverse(), fy.inverse())
            _agrees(x / y, fx / fy)
        e = rng.randint(-3, 5)
        if e >= 0 or not x.is_zero():
            _agrees(x ** e, fx ** e)
        for k in (2, 3):
            _agrees(x.embed(k * m), fx.embed(k * m))


@pytest.mark.parametrize("m", ORACLE_ORDERS)
def test_equal_values_are_equal_objects(m):
    rng = random.Random(f"cyclo values {m}")
    for _ in range(20):
        (x, _), (y, _) = _random_pair(rng, m), _random_pair(rng, m)
        # the same value reached two ways
        a, b = (x + y) - y, x * CycloNum.one(m)
        assert a == b == x and hash(a) == hash(b) == hash(x)
        assert (a.num, a.den) == (x.num, x.den)
        if not y.is_zero():
            c = (x * y) / y
            assert c == x and hash(c) == hash(x)
    half = CycloNum(m, (Fraction(2, 4),) + (Fraction(0),) * (euler_phi(m) - 1))
    assert half == CycloNum.rational(m, Fraction(1, 2)) and (half.num[0], half.den) == (1, 2)
    assert (CycloNum.zero(m).num, CycloNum.zero(m).den) == ((0,) * euler_phi(m), 1)


def test_bad_constructions_raise():
    with pytest.raises(ValueError, match="order must be a positive integer"):
        CycloNum(0, ())
    with pytest.raises(
        ValueError, match=r"coefficient vector must have length phi\(3\) = 2, got 1"
    ):
        CycloNum(3, (Fraction(1),))
    with pytest.raises(ValueError, match="order must be a positive integer"):
        CycloNum.rational(0, 1)
    with pytest.raises(ValueError, match="order must be a positive integer"):
        CycloNum.from_poly(0, [1])
    with pytest.raises(ValueError, match="a root of unity needs a positive order"):
        zeta_power(0, 1)


def test_tampered_numerators_raise_inside_arithmetic():
    # a result built inside arithmetic is checked like any construction
    x = zeta_power(3, 1)
    x._num = (1,)
    for op in (lambda: x + x, lambda: x - x, lambda: x * x, lambda: -x):
        with pytest.raises(ValueError, match="length phi"):
            op()
    # zeta_power builds a new number on each call, so the tampered one is
    # not the one the next call returns
    assert zeta_power(3, 1) is not x and zeta_power(3, 1) * zeta_power(3, 2) == CycloNum.one(3)


@pytest.mark.parametrize("m", range(1, 61))
def test_zeta_power_equals_the_reduced_monomial(m):
    # the table of powers, built by stepping z, against one reduction each
    for e in range(-2 * m, 2 * m + 1):
        assert zeta_power(m, e) == zeta_power_by_reduction(m, e), e


def test_bad_constructions_raise_under_optimize():
    # the checks are raises, not asserts, so python -O keeps them
    code = (
        "from loopforms.cyclo import CycloNum, zeta_power\n"
        "x = zeta_power(3, 1)\n"
        "x._num = (1,)\n"
        "cases = [lambda: CycloNum(0, ()), lambda: CycloNum(3, (1,)), lambda: x * x,\n"
        "         lambda: CycloNum.from_poly(0, [1])]\n"
        "for case in cases:\n"
        "    try:\n"
        "        case()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('a bad construction passed')\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


# -- the Fraction-free boundary -------------------------------------------------


def _inputs(rng, length):
    """Coefficient lists of three kinds: nonnegative ints, ints of both
    signs, and Fractions mixed with ints."""
    return {
        "int": [rng.randint(0, 9) for _ in range(length)],
        "negative": [rng.randint(-9, -1) if rng.random() < 0.5 else rng.randint(0, 9) for _ in range(length)],
        "fraction": [
            Fraction(rng.randint(-12, 12), rng.randint(1, 9)) if rng.random() < 0.7 else rng.randint(-5, 5)
            for _ in range(length)
        ],
    }


@pytest.mark.parametrize("m", range(1, 13))
def test_scalar_boundary_agrees_with_fraction_arithmetic(m):
    # ints and Fractions are read through numerator and denominator, and the
    # strings and the Fraction views are built from integer numerators; each
    # must give what the Fraction coefficients give
    rng = random.Random(f"cyclo boundary {m}")
    deg = euler_phi(m)
    for _ in range(10):
        for kind, coeffs in _inputs(rng, deg).items():
            want = FractionCyclo(m, tuple(Fraction(c) for c in coeffs))
            x = CycloNum(m, coeffs)
            _agrees(x, want)
            assert CycloNum(m, iter(coeffs)) == x
            long = coeffs + _inputs(rng, rng.randint(0, deg))[kind]
            _agrees(CycloNum.from_poly(m, long), FractionCyclo.from_poly(m, long))
            value = coeffs[0]
            r = CycloNum.rational(m, value)
            _agrees(r, FractionCyclo.from_poly(m, [value]))
            assert r.as_fraction() == Fraction(value)
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            _agrees(x + q, want + q)
            _agrees(q + x, want + q)
            _agrees(x + value, want + value)
            assert pickle.loads(pickle.dumps(x)) == x
            assert str(pickle.loads(pickle.dumps(x))) == str(want)
            # a number pickles as its integer fields, with no Fraction in it
            assert b"fractions" not in pickle.dumps(x)
            assert json.loads(json.dumps(x.to_obj())) == want.to_obj()
            assert CycloNum.from_obj(json.loads(json.dumps(x.to_obj()))) == x
    if deg > 1:
        with pytest.raises(ValueError, match="is not rational"):
            zeta_power(m, 1).as_fraction()


@pytest.mark.parametrize("value", [0.5, "1/2", None])
def test_a_float_or_string_scalar_is_refused(value):
    # only ints and Fractions coerce; no binary float is read as a number
    with pytest.raises(TypeError, match=re.escape(f"expected an int or a Fraction, not {value!r}")):
        CycloNum.rational(3, value)
    with pytest.raises(TypeError, match="an int or a Fraction"):
        CycloNum(1, (value,))
    with pytest.raises(TypeError, match="an int or a Fraction"):
        CycloNum.from_poly(1, [1, value])
    assert zeta_power(3, 1).__add__(value) is NotImplemented


@pytest.mark.parametrize(
    "coeff, want",
    [(3, (3, 1)), (-3, (-3, 1)), ("7", (7, 1)), ("-7", (-7, 1)), ("-0", (0, 1)),
     ("2/4", (1, 2)), ("-6/4", (-3, 2)), ("0/5", (0, 1)), ("0012/0003", (4, 1))],
)
def test_coefficient_strings_follow_the_to_obj_grammar(coeff, want):
    x = CycloNum.from_obj({"order": 1, "coeffs": [coeff]})
    assert (x.num[0], x.den) == want
    assert x == CycloNum.rational(1, Fraction(*want))


@pytest.mark.parametrize(
    "coeff",
    ["1e999999", "1E5", "nan", "inf", "-inf", "0.5", ".5", "+1", " 1", "1 ", "1_0",
     "١", "１", "1/0", "-1/0", "1/-2", "--1", "-", "", "/2", "1/", "1/2/3",
     "0x10", True, 0.5, None, [1]],
)
def test_coefficient_outside_the_grammar_is_refused(coeff):
    # a decimal exponent is not read, so "1e999999" costs nothing
    with pytest.raises(RequestError, match="coefficient .* is not an integer or a string p or p/q"):
        CycloNum.from_obj({"order": 1, "coeffs": [coeff]})


def test_scalar_object_shape_is_checked():
    with pytest.raises(RequestError, match=r"a scalar must be a JSON object, not \[1"):
        CycloNum.from_obj([1, ["1"]])
    with pytest.raises(RequestError, match="expected an integer, not '3'"):
        CycloNum.from_obj({"order": "3", "coeffs": ["1", "0"]})
    with pytest.raises(
        RequestError, match="coefficients must be a list of strings or integers, not '1'"
    ):
        CycloNum.from_obj({"order": 1, "coeffs": "1"})
    for field in ("order", "coeffs"):
        obj = {"order": 1, "coeffs": ["1"]}
        del obj[field]
        with pytest.raises(RequestError, match=f"missing field '{field}' in a scalar"):
            CycloNum.from_obj(obj)
