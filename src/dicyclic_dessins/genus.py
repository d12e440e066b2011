"""Minimal-genus searches by exhaustive generating-vector enumeration.

Finds the least genus over which the dicyclic group acts conformally
(strong symmetric genus), and the least genus of a purely-non-free
conformal action (pure symmetric genus).  At each genus the finitely
many orientable quotient signatures come from inverting Riemann-Hurwitz
(`search.quotient_signatures` with handle 2).  Closed forms decide
which of them to search: `search.admits` decides every signature the
strong walk lists, and `admits_pure` decides which signatures have a
purely-non-free vector.  The walks skip what these refute; each other
signature is searched for a realising generating vector by
`search.vectors`, through the `covering.exists_generating_vector` that
the census representatives use too, so the witness is the first vector
in index order.  `real_forms` shares the signature type, the inversion,
the decision, the vector engine of `search.py` and the
`GeneratingVector` record.

Genus zero is impossible because the group is none of the sphere groups
(cyclic, dihedral, A4, S4, A5); genus one is excluded in closed form:
`search.admits` refutes all five flat signatures (see
`torus_exclusion_report`), and the tests keep the exhaustive search of
each as its oracle.  The search therefore starts at genus two.  It ends
by genus n: the case-I census action (0; 4, 4, 2n) has genus n and is
purely non-free.  So the walks stop at `last_genus(n)` = n + 2, and
running out of genera is a `SearchExhaustedError` that only a broken
search can raise.
"""

from __future__ import annotations

from . import search
from .covering import GeneratingVector, exists_generating_vector, is_pure
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


def last_genus(n: int) -> int:
    """The last genus the walks try, two past the case-I bound n."""
    return n + 2


def strong_symmetric_genus(n: int) -> tuple[int, GeneratingVector]:
    """Least genus >= 2 admitting any conformal action of the group,
    searching only the signatures that `search.admits` does not refute."""
    group = DicyclicGroup(n)
    for g in range(2, last_genus(n) + 1):
        for sig in search.quotient_signatures(n, g, 2):
            if search.admits(group, sig) is False:
                continue
            witness = exists_generating_vector(group, sig)
            if witness is not None:
                return g, witness
    raise SearchExhaustedError(
        f"no action of G_{n} found up to genus {last_genus(n)}"
    )


def admits_pure(n: int, sig: Signature) -> bool:
    """Whether this orientable signature has a purely-non-free
    generating vector for G_n.

    `covering.is_pure` holds iff the <c_i> meet every conjugacy class.
    A class {x^a, x^-a} with gcd(a, 2n) = 1 lies only in <x>, so some
    cone is an x-cone of order 2n, whose <c_i> = <x> meets every class
    in <x>.  The classes {x^(2j) y} and {x^(2j+1) y} are met only by
    y-cones: for odd n one y-cone meets both, since <x^b y> holds
    x^(b+n) y, and for even n the y-exponents b_i must take both
    parities.  So the rule counts classes, not orders: at n = 2 an
    order-4 cone may be x^(+-1) or a y-element, and (0; 4, 4, 4, 4) has
    no pure vector although 2n = 4 is among its orders.

    So every order is 4 or divides 2n, some even number t >= 2 of the f
    order-4 cones are y-elements (all f for odd n, as in
    `search.admits`), and the other cones include an order 2n.  The
    x-cone of order 2n and one y-cone generate G_n.  With t >= 4 the
    y-exponents b_1 = 0 and b_2 = 1 meet both classes, and b_4 solves
    the relation.  With t = 2 the relation fixes b_1 - b_2 mod 2 to n
    plus the number of x-cones with 2n/m odd (those of odd exponent),
    and for even n it must be odd.  Over gamma >= 1 the commutators
    reach every element of <x^2>, so the relation asks for that parity
    alone.
    The tests keep the scan of every vector by `is_pure` as the oracle.
    """
    two_n, orders = 2 * n, sig.cone_orders
    if any(m != 4 and two_n % m for m in orders):
        return False
    fours = orders.count(4)
    for t in range(2, fours + 1, 2):
        if n % 2 and t < fours:
            continue
        rest = [m for m in orders if m != 4] + [4] * (fours - t)
        if two_n in rest and (t > 2 or n % 2 or sum(two_n // m % 2 for m in rest) % 2):
            return True
    return False


def pure_symmetric_genus(n: int) -> tuple[int, GeneratingVector]:
    """Least genus >= 2 admitting a purely-non-free conformal action.

    The walk searches only the signatures that `admits_pure` does not
    refute, and tests the vectors it draws from them in index order, so
    the witness is the first purely-non-free vector.  The test runs on
    the cone indices, one bit per conjugacy class (`covering.is_pure`),
    and only the witness becomes a `GeneratingVector`, whose fixed-point
    table is built when a report reads it.
    """
    group = DicyclicGroup(n)
    for g in range(2, last_genus(n) + 1):
        for sig in search.quotient_signatures(n, g, 2):
            if not admits_pure(n, sig):
                continue
            for hyper, cones in search.vectors(group, sig):
                if is_pure(group, cones):
                    return g, GeneratingVector(group, sig.gamma, hyper, cones)
    raise SearchExhaustedError(
        f"no purely-non-free action of G_{n} found up to genus {last_genus(n)}"
    )


def torus_exclusion_report(n: int) -> dict[str, bool]:
    """Whether each of the five flat signatures is refuted, read off
    `search.admits`, which decides all five in closed form: the four of
    genus 0 by their cone orders, and (1; -) because a generating pair
    has a commutator of order n.  It runs no search; the tests keep
    `exists_generating_vector` on each flat signature as its oracle."""
    group = DicyclicGroup(n)
    return {f"({sig.gamma};{','.join(map(str, sig.cone_orders)) or '-'})":
            search.admits(group, sig) is False for sig in TORUS_SIGNATURES}
