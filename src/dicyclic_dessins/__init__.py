"""Desk-scale verifier for triangular actions of the dicyclic groups.

Exact group arithmetic, covering-space bookkeeping, explicit permutation
monodromy, exponent-triple cover classification, real/anticonformal
actions, exact curve-model checks and minimal-genus searches, plus a
CLI that bundles everything into machine-readable reports.

The names in `__all__` are exported lazily (PEP 562): importing the
package loads no submodule, and the first access to a name imports the
submodule that defines it, so a command line run loads only the layers
its command uses.
"""

import importlib

_EXPORTS = {
    "ActionCensus": "covering",
    "DicyclicGroup": "group",
    "GeneratingVector": "covering",
    "GroupElement": "group",
    "Signature": "search",
    "Subgroup": "group",
    "fixed_point_count": "covering",
    "is_purely_non_free": "covering",
    "quotient_genus": "covering",
    "quotient_signature": "covering",
    "rh_genus": "search",
    "triangular_census": "covering",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
