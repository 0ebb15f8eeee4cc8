"""`Record` keeps the contract of a frozen dataclass, with no generated code."""

import dataclasses
from fractions import Fraction

import pytest

from loopforms.affine import AffineLabel
from loopforms.algebra import MultTableAlgebra
from loopforms.chevalley import DiagramPermutation, type_twist_factors
from loopforms.classify import OutGroup
from loopforms.cyclo import CycloNum
from loopforms.grading import FiniteOrderAutomorphism, GradedDecomposition, eigengrading, twist
from loopforms.record import Record, RequestError


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
    table = {
        (0, 1): {1: q(2)}, (1, 0): {1: q(-2)},
        (0, 2): {2: q(-2)}, (2, 0): {2: q(2)},
        (1, 2): {0: q(1)}, (2, 1): {0: q(-1)},
    }
    return MultTableAlgebra(
        dim=3, scalar_order=1, kind="lie", products=table, basis_labels=("h", "e", "f")
    )


def test_fields_are_the_annotations_in_order():
    assert Point._fields == ("x", "y")
    assert AffineLabel._fields == ("base_type", "twist_order")
    assert MultTableAlgebra._fields == (
        "dim", "scalar_order", "kind", "products", "basis_labels", "weights"
    )


def test_assignment_and_deletion_raise():
    point = Point(1, (2,))
    label = AffineLabel("A2", 2)
    for record, name in ((point, "x"), (point, "z"), (label, "twist_order")):
        with pytest.raises(AttributeError, match=f"cannot assign to '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete '{name}'"):
            delattr(record, name)
    assert (point.x, point.y, label.twist_order) == (1, (2,), 2)


def test_equality_and_hash_follow_class_and_fields():
    assert Point(1, (2,)) == Point(x=1, y=(2,))
    assert hash(Point(1, (2,))) == hash(Point(x=1, y=(2,))) == hash((1, (2,)))
    assert Point(1, (2,)) != Point(1, (3,))
    assert DiagramPermutation((1, 0)) == DiagramPermutation((1, 0))
    assert len({DiagramPermutation((1, 0)), DiagramPermutation((1, 0))}) == 1
    assert AffineLabel("A2", 2) == AffineLabel(base_type="A2", twist_order=2)
    assert AffineLabel("A2", 2) != AffineLabel("A2", 1)


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
    assert repr(AffineLabel("A2", 2)) == "AffineLabel(base_type='A2', twist_order=2)"


def test_defaults_apply():
    assert Point(1).y == ()
    # a group of diagram symmetries names the matrix it preserves: no default
    with pytest.raises(TypeError, match=r"OutGroup\(\) missing field 'cartan'"):
        OutGroup((DiagramPermutation((0,)),))


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
    # a malformed input is a RequestError, which is a ValueError
    assert issubclass(RequestError, ValueError)
    with pytest.raises(RequestError, match=r"pi = \[1, 1\] is not a permutation of 1..2"):
        DiagramPermutation((0, 0))
    alg = _sl2()
    with pytest.raises(RequestError, match="scalar order must be a positive integer"):
        MultTableAlgebra(3, 0, "lie", alg.products, alg.basis_labels)
    with pytest.raises(RequestError, match=r"structure constant index \(0,3\) out of range"):
        MultTableAlgebra(3, 1, "lie", {**alg.products, (0, 3): {}}, alg.basis_labels)


def test_caches_are_outside_equality_hash_and_repr():
    alg, fresh = _sl2(), _sl2()
    assert alg.validation.ok
    assert "validation" in alg.__dict__ and "validation" not in fresh.__dict__
    assert alg == fresh
    assert "validation" not in repr(alg)
    # a table's products are a dict, so the table is unhashable
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(alg)

    alg, *factors = type_twist_factors("A1", DiagramPermutation((0,)), (1,), 2)
    sigma = twist(alg, *factors)
    used = eigengrading(alg, sigma)
    fresh = GradedDecomposition(used.component_bases)
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
    alg, *factors = type_twist_factors("A1", DiagramPermutation((0,)), (1,), 2)
    sigma = twist(alg, *factors)
    assert sigma.matrix is sigma.matrix
    assert "matrix" in sigma.__dict__
    assert sigma == twist(alg, *factors)
