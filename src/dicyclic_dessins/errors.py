"""Exception types shared across the toolkit, `Value` and
`OrderedValue`, the one contract of its immutable value types, and
`cases` and `case_type`, the one rule for which of the paper's two
cases exist at n and of which type each is."""

from functools import total_ordering


def read_only(self: object, name: str, *value: object) -> None:
    """`__setattr__` and `__delattr__` of an immutable value type; its
    `__init__` sets the slots through `object.__setattr__`."""
    action = "assign to" if value else "delete"
    raise AttributeError(f"cannot {action} field {name!r}")


class Value:
    """An immutable value: equal, hashed, pickled and printed as the tuple
    `_key()` of its fields, in `__slots__` order; a value of another
    class is never equal."""

    __slots__ = ()
    __setattr__ = __delattr__ = read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return (self.__class__, self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(self.__slots__, self._key()))
        return f"{self.__class__.__name__}({fields})"


@total_ordering
class OrderedValue(Value):
    """A `Value` also ordered as its `_key()`, within its own class."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() < other._key()


class ParameterError(ValueError):
    """Elements of groups with different parameters were mixed, or a
    parameter is outside its documented domain."""


def cases(n: int) -> tuple[str, ...]:
    """The paper's cases at n, in order: case I for every n >= 2 and case
    II for odd n only; `case_type` gives the type of each."""
    return ("I",) if n % 2 == 0 else ("I", "II")


def check_case(n: int, case: str) -> None:
    """Raise `ParameterError` unless `case` is one of `cases(n)`."""
    if case not in cases(n):
        raise ParameterError(f"no case {case!r} at n={n}: case I holds for "
                             "every n >= 2, case II for odd n only")


def case_type(n: int, case: str) -> tuple[int, int, int]:
    """The type (4, 4, m) of one of `cases(n)`: m = 2n in case I, n in
    case II; any other case raises as `check_case` does."""
    check_case(n, case)
    return (4, 4, 2 * n if case == "I" else n)


class InadmissibleSignatureError(ValueError):
    """A genus formula produced a non-integral or negative value."""


class SamplingError(RuntimeError):
    """Rejection sampling of curve points failed within the retry budget."""


class ConstructionError(RuntimeError):
    """A construction whose invariants should hold by design failed one of
    them; this signals an implementation bug, not bad input."""
