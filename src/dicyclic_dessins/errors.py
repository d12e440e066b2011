"""Exception types shared across the toolkit, and the attribute guard of
its immutable value types."""


def read_only(self: object, name: str, *value: object) -> None:
    """`__setattr__` and `__delattr__` of an immutable value type; its
    `__init__` sets the slots through `object.__setattr__`."""
    action = "assign to" if value else "delete"
    raise AttributeError(f"cannot {action} field {name!r}")


class ParameterError(ValueError):
    """Elements of groups with different parameters were mixed, or a
    parameter is outside its documented domain."""


class InadmissibleSignatureError(ValueError):
    """A genus formula produced a non-integral or negative value."""


class SearchExhaustedError(RuntimeError):
    """An exhaustive search found no admissible object within its bounds."""


class SamplingError(RuntimeError):
    """Rejection sampling of curve points failed within the retry budget."""


class ConstructionError(RuntimeError):
    """A construction whose invariants should hold by design failed one of
    them; this signals an implementation bug, not bad input."""
