import random
from fractions import Fraction

import pytest

from loopforms.cyclo import CycloNum, cyclotomic_polynomial, euler_phi, zeta_power


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
    with pytest.raises(ValueError):
        zeta_power(3, 1) + zeta_power(4, 1)


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
