"""The contracts of the three immutable value types: `GroupElement`,
`Signature` and `Permutation`.

Each is compared or hashed somewhere (set membership in the closure
oracles, equality of words), so each keeps one equality and hash over
its fields, rejects attribute assignment, prints a fixed repr and
validates its input; none of them is ordered.  The expected values are
written out literally, so a change in any of them fails here.  The
contract itself lives once, in `errors.Value`; no class keeps its own
copy, and no value equals a value of another of the three types.
"""

import pickle

import pytest

from dicyclic_dessins import errors
from dicyclic_dessins.errors import InadmissibleSignatureError, ParameterError
from dicyclic_dessins.group import GroupElement
from dicyclic_dessins.monodromy import Permutation
from dicyclic_dessins.search import Signature

# (value, an equal value built another way, a different value, its fields)
VALUES = [
    (GroupElement(3, 1, 1), GroupElement(3, 7, 3), GroupElement(4, 1, 1), (3, 1, 1)),
    (Signature(2, 0, (4, 4, 6)), Signature(2, 0, [4, 4, 6]),
     Signature(1, 0, (4, 4, 6)), (2, 0, (4, 4, 6))),
    (Permutation((2, 3, 1, 4)), Permutation.from_cycles(4, [[1, 2, 3]]),
     Permutation((2, 1, 3, 4)), ((2, 3, 1, 4),)),
]
IDS = ["GroupElement", "Signature", "Permutation"]
FIRST_FIELD = {GroupElement: "n", Signature: "handle", Permutation: "images"}


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
        assert type(value).__bases__ == (errors.Value,), type(value).__name__


def test_values_of_different_types_are_never_equal():
    for value, *_ in VALUES:
        for other, *_ in VALUES:
            if type(other) is not type(value):
                assert value != other and not value == other

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


def test_group_elements_are_normalised_and_unordered():
    e = GroupElement(3, 7, 3)
    assert (e.n, e.a, e.b) == (3, 1, 1)
    elements = [GroupElement(3, a, b) for a in (7, -1, 0, 2) for b in (0, 1)]
    assert repr(elements) == "[x, x*y, x^5, x^5*y, 1, y, x^2, x^2*y]"
    with pytest.raises(TypeError):
        sorted(elements)
    with pytest.raises(TypeError):
        GroupElement(2, 5, 1) < GroupElement(3, 0, 0)
    with pytest.raises(TypeError):
        GroupElement(3, 1, 1) <= GroupElement(3, 7, 3)


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
