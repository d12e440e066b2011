"""Minimal-genus searches by exhaustive generating-vector enumeration.

Finds the least genus over which the dicyclic group acts conformally
(strong symmetric genus), and the least genus of a purely-non-free
conformal action (pure symmetric genus).  At each genus the finitely
many orientable quotient signatures come from inverting Riemann-Hurwitz
(`search.quotient_signatures` with handle 2), and each is searched for
a realising generating vector by `covering.index_vectors`, the
enumerator that the census representatives use too; `real_forms`
shares the signature type, the inversion and the vector engine of
`search.py`.

Genus zero is impossible because the group is none of the sphere groups
(cyclic, dihedral, A4, S4, A5); genus one is excluded computationally
by exhausting the five flat signatures (see `torus_exclusion_report`).
The search therefore starts at genus two.  It ends by genus n: the
case-I census action (0; 4, 4, 2n) has genus n and is purely non-free.
So the walks stop at `last_genus(n)` = n + 2, and running out of genera
is a `SearchExhaustedError` that only a broken search can raise.
"""

from __future__ import annotations

from . import search
from .covering import GeneratingVector, free_classes, index_vectors
from .errors import SearchExhaustedError
from .group import DicyclicGroup
from .search import Signature

TORUS_SIGNATURES = (
    Signature(2, 0, (2, 2, 2, 2)),
    Signature(2, 0, (3, 3, 3)),
    Signature(2, 0, (2, 4, 4)),
    Signature(2, 0, (2, 3, 6)),
    Signature(2, 1, ()),
)


def generating_vectors(group: DicyclicGroup, sig: Signature):
    """Every generating vector with this signature, in index order."""
    for hyper, cones in index_vectors(group, sig):
        yield GeneratingVector(group, sig.gamma, hyper, cones)


def exists_generating_vector(
    group: DicyclicGroup, sig: Signature
) -> GeneratingVector | None:
    """The first generating vector with this signature, or None."""
    return next(generating_vectors(group, sig), None)


def last_genus(n: int) -> int:
    """The last genus the walks try, two past the case-I bound n."""
    return n + 2


def strong_symmetric_genus(n: int) -> tuple[int, GeneratingVector]:
    """Least genus >= 2 admitting any conformal action of the group."""
    group = DicyclicGroup(n)
    for g in range(2, last_genus(n) + 1):
        for sig in search.quotient_signatures(n, g, 2):
            witness = exists_generating_vector(group, sig)
            if witness is not None:
                return g, witness
    raise SearchExhaustedError(
        f"no action of G_{n} found up to genus {last_genus(n)}"
    )


def pure_symmetric_genus(n: int) -> tuple[int, GeneratingVector]:
    """Least genus >= 2 admitting a purely-non-free conformal action.

    Every vector of each candidate signature is tested, not just the
    first; purity was found constant on the vectors of every candidate
    signature up to genus n for n = 2..13, 27 and 33.  The test runs on
    the index vector: it is pure when no conjugacy class is disjoint from
    the union of the cone cyclic subgroups (`covering.free_classes`), and
    only the witness becomes a `GeneratingVector`.
    """
    group = DicyclicGroup(n)
    for g in range(2, last_genus(n) + 1):
        for sig in search.quotient_signatures(n, g, 2):
            for hyper, cones in index_vectors(group, sig):
                if not free_classes(group, cones):
                    return g, GeneratingVector(group, sig.gamma, hyper, cones)
    raise SearchExhaustedError(
        f"no purely-non-free action of G_{n} found up to genus {last_genus(n)}"
    )


def torus_exclusion_report(n: int) -> dict[str, bool]:
    """Check that none of the five flat signatures admits a generating
    vector, keeping the genus-one exclusion computational."""
    group = DicyclicGroup(n)
    out = {}
    for sig in TORUS_SIGNATURES:
        key = f"({sig.gamma};{','.join(map(str, sig.cone_orders)) or '-'})"
        out[key] = exists_generating_vector(group, sig) is None
    return out
