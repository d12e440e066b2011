"""Permutation monodromy of regular dessins.

Builds the explicit permutation pair on 4n points, the regular dessin
of any triangular action on |G| edges, the induced bipartite map graph
as its edge list, and a Graphviz DOT export.  Permutations act on
1-based points so the explicit cycles can be written down verbatim.

Convention (recorded in every report): white = first triple entry,
black = second, face = third, with the left-to-right product equal to
the identity.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .errors import ParameterError, Value, cases, check_case

CONVENTION = "white=c1, black=c2, face=c3; c1*c2*c3=1 read left to right"


class Permutation(Value):
    """A permutation of {1, ..., N}, stored as the tuple of images.

    Immutable; equal and hashed as the tuple (images,), and unordered.
    """

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ParameterError("images are not a bijection of 1..N")
        object.__setattr__(self, "images", tuple(images))

    def _key(self) -> tuple[tuple[int, ...]]:
        return (self.images,)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(1, degree + 1)))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        images = list(range(1, degree + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(i) = p(q(i))."""
        if self.degree != other.degree:
            raise ParameterError("degrees differ")
        return Permutation(tuple(self.images[q - 1] for q in other.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, img in enumerate(self.images, start=1):
            images[img - 1] = i
        return Permutation(tuple(images))

    def __pow__(self, k: int) -> "Permutation":
        """p^k in O(degree): each point moves k steps along its cycle."""
        images = [0] * self.degree
        for cycle in self.cycles():
            length = len(cycle)
            for pos, point in enumerate(cycle):
                images[point - 1] = cycle[(pos + k) % length]
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Every cycle, fixed points included, each from its least point."""
        images = self.images
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            cur = images[start - 1]
            while cur != start:
                cycle.append(cur)
                seen[cur - 1] = True
                cur = images[cur - 1]
            out.append(tuple(cycle))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def __repr__(self) -> str:
        cyc = [c for c in self.cycles() if len(c) > 1]
        if not cyc:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cyc)


def permutation_group_order(generators: list[Permutation]) -> int:
    """Order of the group generated, by plain closure: the test oracle of
    `DessinMonodromy.is_regular`; no report calls it, and it stays here
    for `monodromy_group_order`, which `bench/tracer.py` wraps."""
    if not generators:
        return 1
    members = {Permutation.identity(generators[0].degree)}
    frontier = list(members)
    while frontier:
        new = []
        for p in frontier:
            for g in generators:
                q = g * p
                if q not in members:
                    members.add(q)
                    new.append(q)
        frontier = new
    return len(members)


# -- the explicit permutation pair -------------------------------------


def build_remark_permutations(n: int) -> tuple[Permutation, Permutation]:
    """The explicit pair (eta, sigma) in S_4n.

    eta = (1,...,2n)(2n+1,...,4n) and sigma is the product over
    k = 1..n of the 4-cycles (k, 4n+1-k, n+k, 3n+1-k).
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    degree = 4 * n
    eta = Permutation.from_cycles(
        degree,
        [list(range(1, 2 * n + 1)), list(range(2 * n + 1, 4 * n + 1))],
    )
    sigma = Permutation.from_cycles(
        degree,
        [[k, 4 * n + 1 - k, n + k, 3 * n + 1 - k] for k in range(1, n + 1)],
    )
    return eta, sigma


def verify_remark_relations(n: int, pair: tuple | None = None,
                            dessins: dict | None = None) -> dict[str, bool]:
    """Check every stated identity for the explicit pair (eta, sigma).

    Returns a dict mapping each relation to a bool; "group_order_4n"
    confirms that eta -> x, sigma -> y extends to an isomorphism (the
    relations plus the matching order force one): the pair acts
    regularly on its 4n points, so it generates a group of order 4n
    (`DessinMonodromy.is_regular`).  The triple checks read each case's
    tau off the black permutation of its `remark_dessin`.  `pair` is
    `build_remark_permutations(n)` and `dessins` maps each of `cases(n)`
    to its dessin built from that pair; each is built here if not given.
    """
    if pair is None:
        pair = build_remark_permutations(n)
    if dessins is None:
        dessins = {case: remark_dessin(n, case, pair) for case in cases(n)}
    eta, sigma = pair
    degree = 4 * n
    eta_n_explicit = Permutation.from_cycles(
        degree,
        [[k, n + k] for k in range(1, n + 1)]
        + [[2 * n + k, 3 * n + k] for k in range(1, n + 1)],
    )
    checks = {
        "eta_power_2n_is_identity": (eta ** (2 * n)).is_identity(),
        "sigma_conjugates_eta_to_inverse":
            sigma.inverse() * eta * sigma == eta.inverse(),
        "eta_power_n_explicit_form": eta ** n == eta_n_explicit,
        "sigma_squared_equals_eta_power_n": sigma * sigma == eta ** n,
        "group_order_4n": DessinMonodromy(eta, sigma).is_regular(),
    }
    tau = dessins["I"].black
    checks["case_I_triple_tau_sigma_eta"] = (tau * sigma * eta).is_identity()
    if "II" in dessins:
        tau = dessins["II"].black
        checks["case_II_triple_tau_sigma_eta2"] = (
            tau * sigma * eta * eta
        ).is_identity()
    return checks


# -- regular dessins ----------------------------------------------------


class DessinMonodromy:
    """A dessin as a pair of permutations on its edge set; the edges are
    the points the permutations act on."""

    def __init__(self, white: Permutation, black: Permutation):
        self.white, self.black = white, black

    @property
    def edge_count(self) -> int:
        return self.white.degree

    @cached_property
    def graph(self) -> list[tuple[int, int]]:
        """The edge list of the bipartite map graph, built once per dessin
        by `graph_of`."""
        return graph_of(self)

    @cached_property
    def face(self) -> Permutation:
        return (self.white * self.black).inverse()

    def monodromy_group_order(self) -> int:
        """|<white, black>| by closure: the test oracle of `is_regular`, kept
        here, as no report calls it, because `bench/tracer.py` wraps it."""
        return permutation_group_order([self.white, self.black])

    def _extends(self, target: int) -> bool:
        """Whether an automorphism (a permutation commuting with white and
        black) sends edge 1 to `target`: it is determined by that image,
        so it is extended greedily and kept if a consistent bijection."""
        generators = (self.white.images, self.black.images)
        mapping = {1: target}
        frontier = [1]
        while frontier:
            e = frontier.pop()
            for images in generators:
                img = images[mapping[e] - 1]
                src = images[e - 1]
                if src not in mapping:
                    mapping[src] = img
                    frontier.append(src)
                elif mapping[src] != img:
                    return False
        return len(mapping) == self.edge_count and \
            len(set(mapping.values())) == self.edge_count

    def automorphism_count(self) -> int:
        """Permutations of the edges commuting with white and black."""
        return sum(map(self._extends, range(1, self.edge_count + 1)))

    def is_regular(self) -> bool:
        """Whether the monodromy group M acts regularly on the edges, that
        is (being transitive) has order edge_count, in O(edge_count).

        `_extends` holds only when its mapping, defined on the orbit of
        edge 1 under M, covers every edge, so it implies that M is
        transitive.  If automorphisms a, b send edge 1 to white(1) and
        black(1), then <a, b> is transitive: g(1) = h(1) with h in <a, b>
        gives white(g(1)) = h(white(1)) = (h a)(1), likewise for black,
        and inverses are powers.  So the centraliser C of M is
        transitive; as the centraliser of a transitive group it is
        semiregular, hence regular.  M centralises C, so M is semiregular
        and, being transitive, regular.  Conversely a regular M is
        transitive and has a regular C, which holds a and b.
        """
        return self._extends(self.white(1)) and self._extends(self.black(1))

    def euler_characteristic(self) -> int:
        v = len(self.white.cycles())
        v += len(self.black.cycles())
        f = len(self.face.cycles())
        return v - self.edge_count + f

    def genus(self) -> int:
        chi = self.euler_characteristic()
        if chi % 2 != 0:
            raise ParameterError("odd Euler characteristic; dessin is broken")
        return (2 - chi) // 2

    def passport(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        return (self.white.cycle_type(), self.black.cycle_type(),
                self.face.cycle_type())


def regular_dessin(act) -> DessinMonodromy:
    """The regular dessin of a triangular action act, a
    `covering.GeneratingVector`, on |G| edges.

    Edge i + 1 is the element of index i; white and black are left
    multiplication by the first two triple entries, so transitivity and
    |Aut| = |G| hold by construction and are verified by the tests
    rather than assumed.
    """
    group = act.group
    c1, c2, _ = act.cone_images

    def left_mult(c: int) -> Permutation:
        return Permutation(tuple(group.mul(c, i) + 1 for i in range(group.order)))

    return DessinMonodromy(left_mult(c1), left_mult(c2))


def remark_dessin(n: int, case: str, pair: tuple | None = None) -> DessinMonodromy:
    """The dessin generated by the explicit permutation pair, `pair` if
    given, else `build_remark_permutations(n)`.

    White is sigma and black is tau, where tau = sigma^3 * eta in case I
    and tau = eta^(n-2) * sigma in case II, for a case in
    `errors.cases(n)`; this is the one place that states tau.  The
    derived face permutation is then a power of eta of order m, the
    case's type being (4, 4, m) (`errors.case_type`).
    """
    check_case(n, case)
    eta, sigma = pair or build_remark_permutations(n)
    tau = sigma ** 3 * eta if case == "I" else eta ** (n - 2) * sigma
    return DessinMonodromy(sigma, tau)


# -- bipartite map graphs ----------------------------------------------


def graph_of(dessin: DessinMonodromy) -> list[tuple[int, int]]:
    """The underlying bipartite multigraph of a dessin, as its edge list.

    Vertices are the cycles of the white and the black permutation, each
    numbered in `Permutation.cycles` order; edge point e gives the pair
    (index of its white cycle, index of its black cycle), for e = 1..N,
    so parallel edges are kept and every vertex lies on an edge.
    """
    white_of, black_of = ({e: i for i, cyc in enumerate(p.cycles()) for e in cyc}
                          for p in (dessin.white, dessin.black))
    return [(white_of[e], black_of[e]) for e in range(1, dessin.edge_count + 1)]


def is_doubled_cycle(edges: list[tuple[int, int]], m: int) -> bool:
    """True iff the edge list is the cycle on m vertices with doubled edges.

    Once every vertex has exactly two distinct neighbours, each joined
    by two edges, the graph is a disjoint union of doubled cycles, so
    one walk from a start vertex decides whether it is a single one:
    it is iff the walk returns after visiting all m vertices.
    """
    doubled = Counter(edges)
    neighbours: dict[int, list[int]] = {}  # white vertex w is w, black b is ~b
    for w, b in doubled:
        neighbours.setdefault(w, []).append(~b)
        neighbours.setdefault(~b, []).append(w)
    if m < 3 or len(neighbours) != m or any(k != 2 for k in doubled.values()) \
            or any(len(nbrs) != 2 for nbrs in neighbours.values()):
        return False
    start = edges[0][0]
    prev, cur, length = start, ~edges[0][1], 1
    while cur != start:
        a, b = neighbours[cur]
        prev, cur, length = cur, b if a == prev else a, length + 1
    return length == m


# -- DOT export ---------------------------------------------------------


def export_dot(edges: list[tuple[int, int]]) -> str:
    """Deterministic Graphviz DOT text for a bipartite map graph, given as
    its edge list (`graph_of`)."""
    whites, blacks = (len(set(ends)) for ends in zip(*edges))
    lines = ["graph dessin {"]
    lines += [f"  w{i} [shape=circle, style=filled, fillcolor=white];" for i in range(whites)]
    lines += [f"  b{i} [shape=circle, style=filled, fillcolor=black];" for i in range(blacks)]
    lines += [f"  w{w} -- b{b};" for w, b in sorted(edges)]
    return "\n".join(lines + ["}"]) + "\n"
