"""Combinatorial covering-space calculus, and the one action record.

`GeneratingVector` records an action with either quotient kind,
orientable or over an index-two plus part, and its `violations` is the
one validator of an action.  For a generating vector (a triangular
action is an orientable one with quotient genus 0 and three cone
images) this module computes the covering surface's genus through
`search.rh_genus`, one table per action of the fixed-point counts of
every element, the free elements and, for orientable quotients, (by
the Lefschetz formula) the genera of intermediate quotients read off
that table and their signatures from coset cycles; and the full census
of triangular actions of a dicyclic group.  It owns
`generating_vectors`, `search.vectors` as actions of either kind, which
the census, the genus searches and `real_forms` read.
Every element here is an index 2a + b: the images of an action, the
fixed-point table, the free elements and the coset cycles; the
command-line reports convert them to `GroupElement` values.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property
from itertools import filterfalse
from math import gcd

from . import search
from .errors import (ConstructionError, InadmissibleSignatureError, ParameterError,
                     case_type)
from .group import DicyclicGroup, Subgroup


class GeneratingVector:
    """Images of the standard Fuchsian or NEC generators under a surjection.

    Without a plus part the quotient is orientable of genus gamma'
    (handle 2), and hyperbolic_images holds the 2*gamma' images (a1, b1,
    ..., ag, bg) of the handle generators.  Over an index-two plus part
    it has gamma' + 1 crosscaps (handle 1), and hyperbolic_images holds
    the gamma' + 1 glide-reflection images, outside the plus part.
    cone_images holds the elliptic images, inside it, whose exact orders
    are the cone orders (torsion-free kernel).  All hold element indices.
    A triangular action is the orientable case gamma' = 0 with three cone
    images (c1, c2, c3): c1 c2 c3 = 1, so <c1, c2> = <c1, c2, c3> is the
    whole group, and the quotient is the sphere with three cone points.
    """

    def __init__(
        self,
        group: DicyclicGroup,
        quotient_genus: int,
        hyperbolic_images: tuple[int, ...],
        cone_images: tuple[int, ...],
        plus_part: Subgroup | None = None,
    ):
        group.check_indices((*hyperbolic_images, *cone_images))
        self.group, self.quotient_genus, self.plus_part = group, quotient_genus, plus_part
        self.hyperbolic_images, self.cone_images = hyperbolic_images, cone_images
        self.handle = 2 if plus_part is None else 1
        problems = self.violations()
        if problems:
            raise ParameterError("; ".join(problems))

    def violations(self) -> list[str]:
        group, plus_part = self.group, self.plus_part
        hyper, cones = self.hyperbolic_images, self.cone_images
        out = []
        if plus_part is not None and plus_part.index_in(group) != 2:
            out.append("plus part is not an index-two subgroup")
        count = 2 * self.quotient_genus if self.handle == 2 else self.quotient_genus + 1
        if len(hyper) != count:
            out.append(f"need {count} hyperbolic images, got {len(hyper)}")
        if 0 in cones:
            out.append("cone images must be nontrivial")
        if plus_part is not None:
            out += [f"glide-reflection image {group.element_at(a)!r} lies in the "
                    "plus part" for a in hyper if a in plus_part]
            out += [f"cone image {group.element_at(c)!r} lies outside the plus part"
                    for c in cones if c not in plus_part]
        if not search.relation_holds(group, self.handle, hyper, cones):
            out.append("long relation fails")
        # Generation settles the plus part too: with transversal {1, a_1},
        # Reidemeister-Schreier gives it the cone images, the a_i^2, the
        # a_i-conjugates of the cone images and the a_i a_j (i < j), since
        # a_j a_i = a_j^2 (a_i a_j)^-1 a_i^2.
        if len(group._closure_indices((*hyper, *cones))) != group.order:
            out.append("images do not generate the group")
        return out

    @cached_property
    def signature(self) -> search.Signature:
        table = self.group.order_table
        return search.Signature(
            self.handle, self.quotient_genus, tuple(table[c] for c in self.cone_images)
        )

    @cached_property
    def fixed_points(self) -> list[int]:
        return fixed_points(self.group, self.cone_images)

    def genus(self) -> int:
        return search.rh_genus(self.group.order, self.signature)


def generating_vectors(
    group: DicyclicGroup, sig: search.Signature, plus_part: Subgroup | None = None
):
    """Every generating vector of this signature, in index order; a
    handle-1 signature takes the index-two plus part.  A mismatched pair
    raises here, as in `search.vectors`, not when a vector is drawn."""
    return (GeneratingVector(group, sig.gamma, hyper, cones, plus_part)
            for hyper, cones in search.vectors(group, sig, plus_part))


def exists_generating_vector(
    group: DicyclicGroup, sig: search.Signature
) -> GeneratingVector | None:
    """The first generating vector with this signature, or None."""
    return next(generating_vectors(group, sig), None)


# -- fixed points ------------------------------------------------------


def fixed_points(group: DicyclicGroup, cones: Iterable[int]) -> list[int]:
    """fix(g) for every element index g of an action with these cone indices.

    The class function fix(g) = sum_i |C_G(g)| |cl(g) meet <c_i>| / m_i:
    g fixes a point over the i-th cone point for each coset h<c_i> with
    h^-1 g h in <c_i>, and every conjugate of g is h^-1 g h for exactly
    |C_G(g)| = |G| / |cl(g)| elements h.  The identity's entry counts the
    cone points, so it is 0 for an unramified action.
    """
    fix = [0] * group.order
    for c in cones:
        cyc = frozenset(group._closure_indices((c,)))  # & runs in C on a frozenset
        for cls in filterfalse(cyc.isdisjoint, group.conjugacy_classes):
            count = group.order // len(cls) * len(cls & cyc) // len(cyc)
            for g in cls:
                fix[g] += count
    return fix


def is_pure(group: DicyclicGroup, cones: Iterable[int]) -> bool:
    """Whether every nontrivial element has a fixed point, that is
    all(fixed_points(group, cones)[1:]), one bit per conjugacy class.

    A term of the class function in `fixed_points` is positive exactly
    when cl(g) meets <c_i>, so fix(g) > 0 iff some <c_i> meets cl(g): the
    test needs the union of the <c_i>, not the table.
    """
    covered = set()
    for c in cones:
        covered.update(group._closure_indices((c,)))
    return all(not covered.isdisjoint(cls) for cls in group.conjugacy_classes[1:])


def fixed_point_count(act: GeneratingVector, g: int) -> int:
    """Number of fixed points on the covering surface of the element g (an
    index): its entry in the table `GeneratingVector.fixed_points`."""
    act.group.check_indices((g,))
    if g == 0:
        raise ParameterError("the identity fixes every point")
    return act.fixed_points[g]


def free_elements(act: GeneratingVector) -> list[int]:
    """Indices of the nontrivial elements acting without fixed points, sorted."""
    return [g for g, fix in enumerate(act.fixed_points) if g and not fix]


def is_purely_non_free(act: GeneratingVector) -> tuple[bool, list[int]]:
    """True iff every nontrivial element has a fixed point.

    Returns the witness list of freely acting element indices (empty
    when the action is purely non-free).
    """
    witnesses = free_elements(act)
    return (len(witnesses) == 0, witnesses)


# -- intermediate quotients --------------------------------------------


def quotient_genus(act: GeneratingVector, H: Subgroup) -> int:
    """Genus of the intermediate quotient S/H, by the Lefschetz formula.

    H^1(S) has the character 2g at 1 and 2 - fix(h) at h != 1, and its
    H-invariant part has dimension 2 genus(S/H) (T. Breuer, "Characters
    and Automorphism Groups of Compact Riemann Surfaces", 2000).  It
    needs a conformal action: an anticonformal h has another trace.
    """
    if act.plus_part is not None:
        raise ParameterError("quotient_genus needs an orientable quotient")
    H.index_in(act.group)
    trace = 2 * act.genus() + sum(2 - act.fixed_points[h] for h in H if h)
    if trace % (2 * len(H)):
        raise ConstructionError(f"Lefschetz trace {trace} is not divisible by 2|H|")
    return trace // (2 * len(H))


def _coset_cycles(group: DicyclicGroup, H: Subgroup, c: int) -> list[int]:
    """Cycle lengths of left multiplication by the element of index c on
    the cosets G/H.

    One pass in index order names each coset gH by its least index, the
    first member the pass meets; the cycles start from those names in
    index order.
    """
    rep_of = [-1] * group.order
    reps = []
    for g in range(group.order):
        if rep_of[g] < 0:
            reps.append(g)
            for h in H:
                rep_of[group.mul(g, h)] = g
    lengths = []
    seen = set()
    for start in reps:
        if start in seen:
            continue
        length, cur = 0, start
        while cur not in seen:
            seen.add(cur)
            length += 1
            cur = rep_of[group.mul(c, cur)]
        lengths.append(length)
    return lengths


def quotient_signature(act: GeneratingVector, H: Subgroup) -> search.Signature:
    """Signature of S/H, from the cycles of the cone images on G/H.

    A cycle of length L of a cone image of order m yields a cone point
    of order m/L whenever m/L > 1 and adds L - 1 to the branching of
    S/H -> S/G, of degree [G:H]; Riemann-Hurwitz then gives the genus,
    a computation independent of the Lefschetz `quotient_genus`.
    """
    if act.plus_part is not None:
        raise ParameterError("quotient_signature needs an orientable quotient")
    group, sheets = act.group, H.index_in(act.group)
    branch, orders = 0, []
    for c in act.cone_images:
        m = group.order_table[c]
        for length in _coset_cycles(group, H, c):
            if m % length != 0:
                raise InadmissibleSignatureError(
                    "coset cycle length does not divide the cone order"
                )
            branch += length - 1
            if m // length > 1:
                orders.append(m // length)
    g2 = 2 * (1 + sheets * (act.quotient_genus - 1)) + branch
    if g2 % 2 != 0:
        raise InadmissibleSignatureError("odd Euler defect; H is not a subgroup?")
    return search.Signature(2, g2 // 2, tuple(sorted(orders)))


# -- triangular census -------------------------------------------------


class CensusEntry:
    """All generating pairs whose ordered signature is a fixed triple."""

    __slots__ = ("signature", "pair_count", "conjugacy_orbits",
                 "automorphism_orbits", "representative")

    def __init__(
        self,
        signature: tuple[int, int, int],
        pair_count: int,
        conjugacy_orbits: int,
        automorphism_orbits: int,
        representative: GeneratingVector,
    ):
        self.signature, self.pair_count = signature, pair_count
        self.conjugacy_orbits = conjugacy_orbits
        self.automorphism_orbits = automorphism_orbits
        self.representative = representative


class ActionCensus:
    """The census entries of G_n, one per ordered signature."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: list[CensusEntry]):
        self.n, self.entries = n, entries

    def unordered_types(self) -> dict[tuple[int, ...], dict[str, int]]:
        """Aggregate the ordered entries by unordered signature type."""
        out: dict[tuple[int, ...], dict[str, int]] = {}
        for entry in self.entries:
            key = tuple(sorted(entry.signature))
            agg = out.setdefault(
                key,
                {"pair_count": 0, "conjugacy_orbits": 0, "automorphism_orbits": 0,
                 "ordered_types": 0},
            )
            agg["pair_count"] += entry.pair_count
            agg["conjugacy_orbits"] += entry.conjugacy_orbits
            agg["automorphism_orbits"] += entry.automorphism_orbits
            agg["ordered_types"] += 1
        return out

    def total_pairs(self) -> int:
        return sum(e.pair_count for e in self.entries)


def _free_orbits(pairs: int, group_size: int, what: str) -> int:
    """Orbit count of a group of group_size acting freely on pairs."""
    if pairs % group_size:
        raise ConstructionError(
            f"{pairs} generating pairs do not split into free {what} orbits "
            f"of size {group_size}"
        )
    return pairs // group_size


def triangular_census(n: int) -> ActionCensus:
    """Classify all ordered generating pairs of the dicyclic group.

    Pairs are grouped by ordered signature (|g0|, |g1|, |(g0 g1)^-1|);
    the representative of a group is its least pair in index order.
    Each group reports its orbit counts both under simultaneous
    conjugation and under the full automorphism group.  The two counts
    genuinely differ (e.g. n=2 has 6 conjugacy orbits but a single
    automorphism orbit), which is why both are kept.

    The pair counts are closed form.  By `_closure_indices`,
    <x^a, x^b y> = <x^gcd(a, n)> plus its coset x^b y, <x^a y, x^b y> =
    <x^gcd(a - b, n)> plus x^a y, and <x^a, x^b> lies in <x>; so (x^a,
    x^b y) and (x^b y, x^a) generate iff gcd(a, n) = 1, (x^a y, x^b y)
    iff gcd(a - b, n) = 1, and (x^a, x^b) never.  As x^a has order
    2n/gcd(a, 2n), x^b y order 4 and x^a y x^b y = x^(a-b+n), each a
    mod 2n with gcd(a, n) = 1 adds 2n pairs (one per b) to each of
    (2n/gcd(a, 2n), 4, 4), (4, 2n/gcd(a, 2n), 4) and, with a - b for
    a, (4, 4, 2n/gcd(a + n, 2n)).  Only the representatives come from a
    search.

    Both actions are free, so the orbit counts are exact quotients
    (G. A. Jones, "Regular dessins with a given automorphism group",
    2014): an automorphism fixing a generating pair fixes the whole
    group, and an element centralising a generating pair is central, so
    Aut G and G/Z(G) act with orbits of full size.  Z(G_n) = {1, x^n}
    (y x^a y^-1 = x^-a, and x^a y never commutes with x), so |G/Z(G)| =
    2n, and |Aut G| is the closed form `DicyclicGroup.automorphism_count`.
    A count that does not divide is a bug, not a rounding matter.
    """
    group = DicyclicGroup(n)
    two_n = 2 * n
    counts: dict[tuple[int, int, int], int] = {}
    for a in range(two_n):
        if gcd(a, n) == 1:
            m, m3 = two_n // gcd(a, two_n), two_n // gcd(a + n, two_n)
            for sig in ((m, 4, 4), (4, m, 4), (4, 4, m3)):
                counts[sig] = counts.get(sig, 0) + two_n
    automorphisms = group.automorphism_count
    entries = [
        CensusEntry(
            signature=sig,
            pair_count=pairs,
            conjugacy_orbits=_free_orbits(pairs, two_n, "conjugacy"),
            automorphism_orbits=_free_orbits(pairs, automorphisms, "automorphism"),
            representative=exists_generating_vector(group, search.Signature(2, 0, sig)),
        )
        for sig, pairs in sorted(counts.items())
    ]
    return ActionCensus(n, entries)


def census_representative(n: int, case: str) -> GeneratingVector:
    """Representative triangular action for one of `errors.cases(n)`: the
    census entry's representative, the least vector of the ordered
    signature `errors.case_type(n, case)`.
    """
    group = DicyclicGroup(n)
    return exists_generating_vector(group, search.Signature(2, 0, case_type(n, case)))
