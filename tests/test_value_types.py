"""The contracts of the four immutable value types: `GroupElement`,
`Signature`, `CoverTriple` and `Permutation`.

Each is compared, hashed or sorted somewhere (set membership in the
closure oracles, sorted orbits, equality of words), so each keeps one
equality, hash and order over its fields, rejects attribute assignment,
prints a fixed repr and validates its input.  The expected values are
written out literally, so a change in any of them fails here.  The
contract itself lives once, in `errors.Value` (and `errors.OrderedValue`
for the two ordered types); no class keeps its own copy, and no value
equals or is ordered against a value of another of the four types.
"""

import pickle

import pytest

from dicyclic_dessins import errors
from dicyclic_dessins.covers import CoverTriple
from dicyclic_dessins.errors import InadmissibleSignatureError, ParameterError
from dicyclic_dessins.group import GroupElement
from dicyclic_dessins.monodromy import Permutation
from dicyclic_dessins.search import Signature

# (value, an equal value built another way, a different value, its fields)
VALUES = [
    (GroupElement(3, 1, 1), GroupElement(3, 7, 3), GroupElement(4, 1, 1), (3, 1, 1)),
    (Signature(2, 0, (4, 4, 6)), Signature(2, 0, [4, 4, 6]),
     Signature(1, 0, (4, 4, 6)), (2, 0, (4, 4, 6))),
    (CoverTriple(3, "I", 3, 1, 5), CoverTriple(3, "I", 3, 1, 5),
     CoverTriple(3, "I", 3, 5, 1), (3, "I", 3, 1, 5)),
    (Permutation((2, 3, 1, 4)), Permutation.from_cycles(4, [[1, 2, 3]]),
     Permutation((2, 1, 3, 4)), ((2, 3, 1, 4),)),
]
IDS = ["GroupElement", "Signature", "CoverTriple", "Permutation"]
FIRST_FIELD = {GroupElement: "n", Signature: "handle", CoverTriple: "n",
               Permutation: "images"}


@pytest.mark.parametrize("value, same, other, fields", VALUES, ids=IDS)
def test_equality_and_hash_follow_the_fields(value, same, other, fields):
    assert value == same and not value != same
    assert value != other and not value == other
    # a value equals no tuple, even one of its own fields
    assert value != fields
    assert hash(value) == hash(same) == hash(fields)
    assert same in {value} and other not in {value}
    assert {value: "v"}[same] == "v"
    assert len({value, same, other}) == 2


def test_the_contract_is_inherited_not_copied():
    contract = {"__eq__", "__hash__", "__reduce__", "__setattr__", "__delattr__",
                "__lt__", "__le__", "__gt__", "__ge__"}
    for value, *_ in VALUES:
        assert contract.isdisjoint(vars(type(value))), type(value).__name__
    assert issubclass(GroupElement, errors.OrderedValue)
    assert issubclass(CoverTriple, errors.OrderedValue)
    for cls in (Signature, Permutation):
        assert issubclass(cls, errors.Value)
        assert not issubclass(cls, errors.OrderedValue)


def test_values_of_different_types_are_never_equal():
    for value, *_ in VALUES:
        for other, *_ in VALUES:
            if type(other) is not type(value):
                assert value != other and not value == other
    # the keys (3, 1, 1) < (4, "I", 4, 1, 7) would compare, the classes do not
    with pytest.raises(TypeError):
        GroupElement(3, 1, 1) < CoverTriple(4, "I", 4, 1, 7)
    with pytest.raises(TypeError):
        CoverTriple(4, "I", 4, 1, 7) >= GroupElement(3, 1, 1)

    class Twin(GroupElement):
        __slots__ = ()

    # equal keys, another class: still unequal
    assert Twin(3, 1, 1) != GroupElement(3, 1, 1)


@pytest.mark.parametrize("value, same, other, fields", VALUES, ids=IDS)
def test_attributes_cannot_be_assigned_or_deleted(value, same, other, fields):
    name = FIRST_FIELD[type(value)]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == before and value == same


@pytest.mark.parametrize("value, same, other, fields", VALUES, ids=IDS)
def test_values_survive_pickling(value, same, other, fields):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value)
    assert repr(copy) == repr(value)


def test_group_elements_are_normalised_and_ordered_as_n_a_b():
    e = GroupElement(3, 7, 3)
    assert (e.n, e.a, e.b) == (3, 1, 1)
    elements = [GroupElement(3, a, b) for a in (7, -1, 0, 2) for b in (0, 1)]
    assert repr(elements) == "[x, x*y, x^5, x^5*y, 1, y, x^2, x^2*y]"
    assert repr(sorted(elements)) == "[1, y, x, x*y, x^2, x^2*y, x^5, x^5*y]"
    assert GroupElement(2, 5, 1) < GroupElement(3, 0, 0)
    assert not GroupElement(3, 5, 0) < GroupElement(3, 1, 1)
    assert GroupElement(3, 5, 0) >= GroupElement(3, 1, 1)
    assert GroupElement(3, 1, 1) <= GroupElement(3, 7, 3)
    assert GroupElement(3, 1, 1) > GroupElement(3, 1, 0)
    with pytest.raises(TypeError):
        GroupElement(3, 1, 1) < (3, 1, 1)


def test_group_element_rejects_a_small_parameter():
    with pytest.raises(ParameterError, match="group parameter must be >= 2, got n=1"):
        GroupElement(1, 0, 0)


def test_signature_repr_validation_and_no_order():
    sig = Signature(2, 1, [2, 4])
    assert sig.cone_orders == (2, 4)
    assert repr(sig) == "Signature(handle=2, gamma=1, cone_orders=(2, 4))"
    assert repr(Signature(1, 0, ())) == "Signature(handle=1, gamma=0, cone_orders=())"
    for args, message in [((0, 0, ()), "handle must be 1 or 2"),
                          ((2, -1, ()), "gamma must be >= 0"),
                          ((2, 0, (1,)), "cone orders must be >= 2")]:
        with pytest.raises(InadmissibleSignatureError, match=message):
            Signature(*args)
    with pytest.raises(TypeError):
        sorted([sig, Signature(2, 0, ())])


def test_cover_triples_repr_and_order_as_n_case_a_b_c():
    triples = [CoverTriple(3, "II", 3, 2, 4), CoverTriple(3, "I", 3, 5, 1),
               CoverTriple(3, "I", 3, 1, 5), CoverTriple(2, "I", 2, 1, 3)]
    assert repr(sorted(triples)) == (
        "[CoverTriple(n=2, case='I', a=2, b=1, c=3), "
        "CoverTriple(n=3, case='I', a=3, b=1, c=5), "
        "CoverTriple(n=3, case='I', a=3, b=5, c=1), "
        "CoverTriple(n=3, case='II', a=3, b=2, c=4)]"
    )
    assert CoverTriple(3, "I", 3, 5, 1) > CoverTriple(3, "I", 3, 1, 5)
    assert CoverTriple(3, "II", 3, 2, 4) >= CoverTriple(3, "I", 3, 5, 1)
    assert CoverTriple(2, "I", 2, 1, 3) <= CoverTriple(2, "I", 2, 1, 3)
    assert CoverTriple(3, "I", 3, 1, 5).as_tuple() == (3, 1, 5)


def test_permutation_repr_validation_and_no_order():
    assert repr(Permutation((2, 3, 1, 4))) == "(1,2,3)"
    assert repr(Permutation((2, 1, 4, 3))) == "(1,2)(3,4)"
    assert repr(Permutation.identity(3)) == "()"
    with pytest.raises(ParameterError, match="images are not a bijection of 1..N"):
        Permutation((1, 1))
    built_from_a_list = Permutation([2, 1, 3])
    assert built_from_a_list == Permutation((2, 1, 3))
    assert hash(built_from_a_list) == hash(Permutation((2, 1, 3)))
    assert built_from_a_list.images == (2, 1, 3)
    with pytest.raises(TypeError):
        sorted([Permutation((1, 2)), Permutation((2, 1))])
