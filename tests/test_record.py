"""`Record` keeps the contract of a frozen dataclass, with no generated code."""

import dataclasses
from fractions import Fraction

import pytest

from loopforms.algebra import AlgebraError, MultTableAlgebra, make_table
from loopforms.chevalley import (
    DiagramPermutation,
    LieConstructError,
    ToralCharge,
    type_twist_factors,
)
from loopforms.classify import OutGroup
from loopforms.cyclo import CycloNum
from loopforms.grading import FiniteOrderAutomorphism, GradedDecomposition, eigengrading, twist
from loopforms.record import Record


class Point(Record):
    x: int
    y: tuple = ()


class Pair(Record):
    x: int
    y: tuple = ()


@dataclasses.dataclass(frozen=True)
class FrozenPoint:
    x: int
    y: tuple = ()


def q(x):
    return CycloNum.rational(1, Fraction(x))


def _sl2() -> MultTableAlgebra:
    table = make_table({
        (0, 1): {1: q(2)}, (1, 0): {1: q(-2)},
        (0, 2): {2: q(-2)}, (2, 0): {2: q(2)},
        (1, 2): {0: q(1)}, (2, 1): {0: q(-1)},
    })
    return MultTableAlgebra(
        dim=3, scalar_order=1, kind="lie", constants=table, basis_labels=("h", "e", "f")
    )


def test_fields_are_the_annotations_in_order():
    assert Point._fields == ("x", "y")
    assert ToralCharge._fields == ("s", "modulus")
    assert MultTableAlgebra._fields == ("dim", "scalar_order", "kind", "constants", "basis_labels")


def test_assignment_and_deletion_raise():
    point = Point(1, (2,))
    charge = ToralCharge((1, 1), 3)
    for record, name in ((point, "x"), (point, "z"), (charge, "modulus")):
        with pytest.raises(AttributeError, match=f"cannot assign to '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete '{name}'"):
            delattr(record, name)
    assert (point.x, point.y, charge.modulus) == (1, (2,), 3)


def test_equality_and_hash_follow_class_and_fields():
    assert Point(1, (2,)) == Point(x=1, y=(2,))
    assert hash(Point(1, (2,))) == hash(Point(x=1, y=(2,))) == hash((1, (2,)))
    assert Point(1, (2,)) != Point(1, (3,))
    assert DiagramPermutation((1, 0)) == DiagramPermutation((1, 0))
    assert len({DiagramPermutation((1, 0)), DiagramPermutation((1, 0))}) == 1


def test_records_of_different_classes_are_unequal():
    assert Point(1) != Pair(1)
    assert Point(1).__eq__(Pair(1)) is NotImplemented
    assert Point(1).__eq__((1, ())) is NotImplemented
    assert Point(1) != (1, ())


def test_an_unhashable_field_makes_the_record_unhashable():
    with pytest.raises(TypeError):
        hash(Point(1, {}))


def test_repr_matches_a_frozen_dataclass():
    for args in ((1,), (1, (2, 3)), ("a", None)):
        record, frozen = Point(*args), FrozenPoint(*args)
        assert repr(record) == "Point" + repr(frozen)[len("FrozenPoint"):]
        assert hash(record) == hash(frozen)
    assert repr(ToralCharge((1, 0), 2)) == "ToralCharge(s=(1, 0), modulus=2)"


def test_defaults_apply():
    assert Point(1).y == ()
    assert OutGroup((DiagramPermutation((0,)),)).cartan is None


def test_arity_errors_raise():
    with pytest.raises(TypeError, match="takes 2 fields but 3"):
        Point(1, (), 2)
    with pytest.raises(TypeError, match=r"Point\(\) missing field 'x'"):
        Point()
    with pytest.raises(TypeError, match=r"Point\(\) got an unexpected or repeated field 'z'"):
        Point(1, z=2)
    with pytest.raises(TypeError, match="unexpected or repeated field 'x'"):
        Point(1, x=2)


def test_a_field_without_a_default_may_not_follow_a_default():
    with pytest.raises(TypeError, match="Bad: a field without a default follows a default"):
        type("Bad", (Record,), {"__annotations__": {"x": "int", "y": "int"}, "x": 0})


def test_post_init_still_refuses_bad_input():
    with pytest.raises(LieConstructError, match="modulus must be positive"):
        ToralCharge((1,), 0)
    with pytest.raises(LieConstructError, match="not a permutation"):
        DiagramPermutation((0, 0))
    alg = _sl2()
    twice = alg.constants + alg.constants[:1]
    with pytest.raises(AlgebraError, match="listed twice"):
        MultTableAlgebra(3, 1, "lie", twice, alg.basis_labels)


def test_caches_are_outside_equality_hash_and_repr():
    alg, fresh = _sl2(), _sl2()
    assert alg.validation.ok
    assert "validation" in alg.__dict__ and "validation" not in fresh.__dict__
    assert alg._table == fresh._table
    assert alg == fresh and hash(alg) == hash(fresh)
    assert "_table" not in repr(alg) and "validation" not in repr(alg)

    _, alg, *factors = type_twist_factors(
        "A1", DiagramPermutation.identity(1), ToralCharge(s=(1,), modulus=2)
    )
    sigma = twist(alg, *factors)
    used = eigengrading(alg, sigma)
    fresh = GradedDecomposition(used.period, used.scalar_order, used.dim, used.component_bases)
    # eigengrading builds no solver; asking for one fills the cache
    assert not used._solvers
    assert used.component_solver(1) is used.component_solver(1)
    assert used._solvers and not fresh._solvers
    assert used == fresh
    assert "_solvers" not in repr(used)
    # nor is the table an automorphism was certified on
    plain = FiniteOrderAutomorphism(sigma.images, sigma.scalars, sigma.period)
    assert sigma.certified_on(alg) and not plain.certified_on(alg)
    assert sigma == plain and hash(sigma) == hash(plain)
    assert "_certified_table" not in repr(sigma)


def test_cached_property_is_kept_on_the_instance():
    identity, charge = DiagramPermutation.identity(1), ToralCharge(s=(1,), modulus=2)
    _, alg, *factors = type_twist_factors("A1", identity, charge)
    sigma = twist(alg, *factors)
    assert sigma.matrix is sigma.matrix
    assert "matrix" in sigma.__dict__
    assert sigma == twist(alg, *factors)
