"""Minimal-genus searches by exhaustive generating-vector enumeration.

Finds the least genus over which the dicyclic group acts conformally
(strong symmetric genus), and the least genus of a purely-non-free
conformal action (pure symmetric genus), by inverting Riemann-Hurwitz
to list the finitely many candidate signatures at each genus and then
searching for a generating vector realising each one with the shared
engine of `search.py`, which also serves `real_forms`.

Genus zero is impossible because the group is none of the sphere groups
(cyclic, dihedral, A4, S4, A5); genus one is excluded computationally
by exhausting the five flat signatures (see `torus_exclusion_report`).
The search therefore starts at genus two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import search
from .covering import GeneratingVector, OrbifoldSignature, free_classes
from .errors import ParameterError, SearchExhaustedError
from .group import DicyclicGroup

TORUS_SIGNATURES = (
    OrbifoldSignature(0, (2, 2, 2, 2)),
    OrbifoldSignature(0, (3, 3, 3)),
    OrbifoldSignature(0, (2, 4, 4)),
    OrbifoldSignature(0, (2, 3, 6)),
    OrbifoldSignature(1, ()),
)


@dataclass(frozen=True)
class SignatureCandidate:
    """A signature whose Riemann-Hurwitz genus is exactly the target."""

    target_genus: int
    signature: OrbifoldSignature


def signature_candidates(n: int, g: int) -> list[SignatureCandidate]:
    """All (gamma', orders) with 2g-2 = 4n(2 gamma' - 2 + sum(1 - 1/m)).

    Orders are non-decreasing tuples from the order pool.  For each
    gamma' the defect target (2g - 2)/4n - (2 gamma' - 2) is matched
    exactly by `search.defect_partitions` in integers scaled by the lcm
    of the pool, so the list is finite and complete.
    """
    if n < 2:
        raise ParameterError(f"group parameter must be >= 2, got n={n}")
    if g < 2:
        raise ParameterError(f"search genus must be >= 2, got {g}")
    four_n = 4 * n
    pool = search.order_pool(n)
    out = []
    gamma = 0
    # numerator of the defect target over the denominator 4n
    while (numerator := 2 * g - 2 - four_n * (2 * gamma - 2)) >= 0:
        for orders in search.defect_partitions(Fraction(numerator, four_n), pool):
            out.append(
                SignatureCandidate(g, OrbifoldSignature(gamma, orders))
            )
        gamma += 1
    out.sort(key=lambda c: (c.signature.quotient_genus,
                            len(c.signature.cone_orders),
                            c.signature.cone_orders))
    return out


def _index_vectors(group: DicyclicGroup, sig: OrbifoldSignature):
    """Every generating vector with this signature as (hyper, cones) indices."""
    orders = group.order_table
    pools = [[i for i in range(group.order) if orders[i] == m] for m in sig.cone_orders]
    hyper_pools = [range(group.order)] * (2 * sig.quotient_genus)
    return search.vectors(group, hyper_pools, search.commutators, pools)


def _generating_vector(group: DicyclicGroup, sig: OrbifoldSignature,
                       hyper: tuple[int, ...], cones: tuple[int, ...]) -> GeneratingVector:
    return GeneratingVector(group, sig.quotient_genus,
                            tuple(map(group.element_at, hyper)),
                            tuple(map(group.element_at, cones)))


def generating_vectors(group: DicyclicGroup, candidate: SignatureCandidate):
    """Every generating vector with this signature, in index order."""
    sig = candidate.signature
    for hyper, cones in _index_vectors(group, sig):
        yield _generating_vector(group, sig, hyper, cones)


def exists_generating_vector(
    group: DicyclicGroup, candidate: SignatureCandidate
) -> GeneratingVector | None:
    """The first generating vector with this signature, or None."""
    return next(generating_vectors(group, candidate), None)


def strong_symmetric_genus(n: int, g_max: int) -> tuple[int, GeneratingVector]:
    """Least genus >= 2 admitting any conformal action of the group."""
    group = DicyclicGroup(n)
    for g in range(2, g_max + 1):
        for candidate in signature_candidates(n, g):
            witness = exists_generating_vector(group, candidate)
            if witness is not None:
                return g, witness
    raise SearchExhaustedError(
        f"no action of G_{n} found up to genus {g_max}"
    )


def pure_symmetric_genus(n: int, g_max: int) -> tuple[int, GeneratingVector]:
    """Least genus >= 2 admitting a purely-non-free conformal action.

    Every vector of each candidate signature is tested, not just the
    first; purity was found constant on the vectors of every candidate
    signature up to genus n for n = 2..13, 27 and 33.  The test runs on
    the index vector: it is pure when no conjugacy class is disjoint from
    the union of the cone cyclic subgroups (`covering.free_classes`), and
    only the witness becomes a `GeneratingVector`.
    """
    group = DicyclicGroup(n)
    for g in range(2, g_max + 1):
        for candidate in signature_candidates(n, g):
            sig = candidate.signature
            for hyper, cones in _index_vectors(group, sig):
                if not free_classes(group, cones):
                    return g, _generating_vector(group, sig, hyper, cones)
    raise SearchExhaustedError(
        f"no purely-non-free action of G_{n} found up to genus {g_max}"
    )


def torus_exclusion_report(n: int) -> dict[str, bool]:
    """Check that none of the five flat signatures admits a generating
    vector, keeping the genus-one exclusion computational."""
    group = DicyclicGroup(n)
    out = {}
    for sig in TORUS_SIGNATURES:
        key = f"({sig.quotient_genus};{','.join(map(str, sig.cone_orders)) or '-'})"
        out[key] = exists_generating_vector(group, SignatureCandidate(1, sig)) is None
    return out
