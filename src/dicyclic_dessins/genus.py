"""Minimal genera in closed form, each decided at run time.

Finds the least genus over which the dicyclic group acts conformally
(strong symmetric genus), and the least genus of a purely-non-free
conformal action (pure symmetric genus), as the least Riemann-Hurwitz
genus over a few candidate families, the way Harvey treats cyclic groups
(W. J. Harvey, Quart. J. Math. 1966) and Tucker defines the symmetric
genus (T. W. Tucker, J. Combin. Theory Ser. B 34, 1983).  Each function
proves in its docstring that no other signature of at most that genus is
realised; `search.admits` and `admits_pure` decide the candidates when
they run, and the engine then searches the winning signature alone,
through the `covering.exists_generating_vector` that the census
representatives use too, so the witness is the first vector in index
order.  A candidate that is decided but has no vector raises
`ConstructionError`: that is a bug, not an input.  `real_forms` shares
the signature type, the decision, the vector engine of `search.py` and
the `GeneratingVector` record.

Genus zero is impossible because the group is none of the sphere groups
(cyclic, dihedral, A4, S4, A5); genus one is excluded in closed form:
`search.admits` refutes all five flat signatures (see
`torus_exclusion_report`), and the tests keep the exhaustive search of
each as its oracle.  The tests also keep the genus-by-genus walks over
every Riemann-Hurwitz signature as the oracle of both formulas.
"""

from __future__ import annotations

from . import search
from .covering import GeneratingVector, exists_generating_vector, is_pure
from .errors import ConstructionError
from .group import DicyclicGroup
from .search import Signature

TORUS_SIGNATURES = (
    Signature(2, 0, (2, 2, 2, 2)),
    Signature(2, 0, (3, 3, 3)),
    Signature(2, 0, (2, 4, 4)),
    Signature(2, 0, (2, 3, 6)),
    Signature(2, 1, ()),
)


def _triangle(m: int) -> Signature:
    """The genus-0 signature (0; 4, 4, m), its orders sorted."""
    return Signature(2, 0, tuple(sorted((4, 4, m))))


def strong_symmetric_genus(n: int) -> tuple[int, GeneratingVector]:
    """Least genus >= 2 admitting any conformal action of the group:
    the lesser genus of (0; 4, 4, 2n) and (0; 4, 4, n) that
    `search.admits` accepts, with the first vector of that signature.

    Proof.  Riemann-Hurwitz reads g = 1 + 2n (2 gamma - 2 + sum(1 - 1/m)),
    each term at least 1/2.  Gamma >= 2 gives g >= 4n + 1, and gamma = 1
    gives g = 1 without a cone and g >= n + 1 with one.  At gamma = 0
    `admits` needs two cones of order 4, with which a third cone gives
    g = 1 + n - 2n/m, a fourth g >= n + 1, and none g < 1.  `admits`
    accepts (0; 4, 4, m) iff m = 2n (g = n), or m = n (g = n - 1) at odd
    n.  So sigma^0 = n at even n and n - 1 at odd n, and one signature
    has it.
    """
    group = DicyclicGroup(n)
    sig, _ = search.least_admitted(group, [(_triangle(2 * n), None), (_triangle(n), None)])
    witness = exists_generating_vector(group, sig)
    if witness is None:
        raise ConstructionError(f"{sig} is admitted but has no vector for G_{n}")
    return witness.genus(), witness


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
    """Least genus >= 2 admitting a purely-non-free conformal action:
    n, from (0; 4, 4, 2n), which `admits_pure` decides.

    Proof.  `admits_pure` needs two cones of order 4 and, among the
    others, one of order 2n.  With gamma >= 1 or a fourth cone,
    Riemann-Hurwitz g = 1 + 2n (2 gamma - 2 + sum(1 - 1/m)) gives
    g >= n + 1, so (0; 4, 4, 2n), of genus n, is the only signature of
    genus at most n that can carry a pure action.

    The vectors of that signature are tested in index order, so the
    witness is the first purely-non-free vector.  The test runs on the
    cone indices, one bit per conjugacy class (`covering.is_pure`), and
    only the witness becomes a `GeneratingVector`, whose fixed-point
    table is built when a report reads it.
    """
    group, sig = DicyclicGroup(n), _triangle(2 * n)
    if admits_pure(n, sig):
        for hyper, cones in search.vectors(group, sig):
            if is_pure(group, cones):
                witness = GeneratingVector(group, sig.gamma, hyper, cones)
                return witness.genus(), witness
    raise ConstructionError(f"{sig} has no purely-non-free vector for G_{n}")


def torus_exclusion_report(n: int) -> dict[str, bool]:
    """Whether each of the five flat signatures is refuted, read off
    `search.admits`, which decides all five in closed form: the four of
    genus 0 by their cone orders, and (1; -) because a generating pair
    has a commutator of order n.  It runs no search; the tests keep
    `exists_generating_vector` on each flat signature as its oracle."""
    group = DicyclicGroup(n)
    return {f"({sig.gamma};{','.join(map(str, sig.cone_orders)) or '-'})":
            search.admits(group, sig) is False for sig in TORUS_SIGNATURES}
