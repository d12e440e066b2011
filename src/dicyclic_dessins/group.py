"""Exact arithmetic in the dicyclic groups of order 4n.

The group with parameter n >= 2 is presented by

    x^(2n) = 1,   y^2 = x^n,   y x y^(-1) = x^(-1).

Every element has a unique normal form x^a y^b with 0 <= a < 2n and
b in {0, 1}.  Elements are stored in that normal form, so equality and
hashing are structural.  All values here are immutable and all
operations are pure.  Indices multiply by the closed-form `mul`; the
4n-entry tables and the heavier enumerations (conjugacy classes,
subgroups, automorphisms) are cached on the group object, and the group
is shared per n: `DicyclicGroup(n)` returns the group it built last when
n is the same, so every report section for one n reuses them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Set
from functools import cached_property
from math import gcd

from .errors import ParameterError, Value


class GroupElement(Value):
    """Normal form x^a y^b of an element of the dicyclic group of order 4n.

    Immutable; equal and hashed as the tuple (n, a, b), and unordered.
    """

    __slots__ = ("n", "a", "b")

    def __init__(self, n: int, a: int, b: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        self.__post_init__()

    def __post_init__(self) -> None:
        # Every construction passes here: bench/tracer.py and the tests
        # count the elements built by wrapping this method.
        if self.n < 2:
            raise ParameterError(f"group parameter must be >= 2, got n={self.n}")
        object.__setattr__(self, "a", self.a % (2 * self.n))
        object.__setattr__(self, "b", self.b % 2)

    def _key(self) -> tuple[int, int, int]:
        return (self.n, self.a, self.b)

    def _check_same_group(self, other: "GroupElement") -> None:
        if self.n != other.n:
            raise ParameterError(
                f"cannot combine elements of groups with n={self.n} and n={other.n}"
            )

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        # x^a y^b * x^c y^d: move x^c through y^b (conjugation inverts x),
        # then fold y^2 = x^n when b + d = 2.
        a = self.a + (other.a if self.b == 0 else -other.a)
        b = self.b + other.b
        if b == 2:
            a += self.n
            b = 0
        return GroupElement(self.n, a, b)

    def inverse(self) -> "GroupElement":
        if self.b == 0:
            return GroupElement(self.n, -self.a, 0)
        # (x^a y)^-1 = x^(a+n) y since (x^a y)(x^(a+n) y) = x^(-n) y^2 = 1.
        return GroupElement(self.n, self.a + self.n, 1)

    def order(self) -> int:
        # x^a y squares to x^n, of order 2; x^a has order 2n / gcd(a, 2n)
        if self.b:
            return 4
        return 2 * self.n // gcd(self.a, 2 * self.n)

    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0

    def identity(self) -> "GroupElement":
        return GroupElement(self.n, 0, 0)

    def __repr__(self) -> str:
        if self.is_identity():
            return "1"
        parts = []
        if self.a:
            parts.append("x" if self.a == 1 else f"x^{self.a}")
        if self.b:
            parts.append("y")
        return "*".join(parts)


class Subgroup(Set):
    """The subgroup <x^d> union <x^d> x^s y of the dicyclic group G_n.

    s is None when there is no y-coset, and is kept reduced mod d, so
    (n, d, s) names the subgroup.  As a set it holds element indices
    2a + b: `len`, `in` and `==` between two subgroups are O(1),
    iteration lists <x^d> and then the coset, and `&`, `|` and `-`
    return plain frozensets; it is equal to, and hashes like, the
    frozenset of its members.  `g in H` for a `GroupElement` g and
    `generators` are the element edge.
    """

    __slots__ = ("n", "d", "s")

    def __init__(self, n: int, d: int, s: int | None):
        self.n, self.d, self.s = n, d, None if s is None else s % d

    def __len__(self) -> int:
        return 2 * self.n // self.d * (1 if self.s is None else 2)

    @property
    def order(self) -> int:
        return len(self)

    def __contains__(self, i: object) -> bool:
        # an index, or a GroupElement of the same group; a bool is neither
        if type(i) is not int:
            if not (isinstance(i, GroupElement) and i.n == self.n):
                return False
            i = 2 * i.a + i.b
        elif not 0 <= i < 4 * self.n:
            return False
        a, b = divmod(i, 2)
        if b:
            return self.s is not None and (a - self.s) % self.d == 0
        return a % self.d == 0

    def __iter__(self) -> Iterator[int]:
        step, order = 2 * self.d, 4 * self.n
        yield from range(0, order, step)
        if self.s is not None:
            yield from range(2 * self.s + 1, order, step)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Subgroup):
            return (self.n, self.d, self.s) == (other.n, other.d, other.s)
        return super().__eq__(other)

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, it: Iterable[int]) -> frozenset[int]:
        return frozenset(it)

    @property
    def generator_indices(self) -> tuple[int, ...]:
        """The least generating pair in combinations_with_replacement order
        of the member indices, stored as (i,) when i = j: the pairs (0, j)
        come first, so a cyclic subgroup is named by its least generator
        (x^d, or x^s y when d = n), and a non-cyclic one by its two least
        nonzero members, 2s + 1 < 2d."""
        d, s = self.d, self.s
        if s is None:
            return tuple(dict.fromkeys((0, 2 * d % (4 * self.n))))
        return (0, 2 * s + 1) if d == self.n else (2 * s + 1, 2 * d)

    @property
    def generators(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(self.n, *divmod(i, 2)) for i in self.generator_indices)

    def index_in(self, group: "DicyclicGroup") -> int:
        if group.n != self.n:
            raise ParameterError(f"subgroup of G_{self.n} passed to G_{group.n}")
        return group.order // self.order

    def is_trivial(self) -> bool:
        return self.order == 1

    def __repr__(self) -> str:
        gens = ",".join(repr(g) for g in self.generators)
        return f"<{gens}> (order {self.order})"


class DicyclicGroup:
    """The dicyclic group of order 4n, with enumeration helpers.

    Elements are also addressable by an integer index (2a + b), the one
    element representation of the layers above: `mul`, the tables, the
    closures, the subgroups and the conjugacy classes are indices, and
    GroupElement values only the input and output edge.

    The constructor keeps exactly one group: it returns the last group
    it built when n matches, and otherwise builds a new one and holds
    that instead.  Everything cached on a group depends on n alone.
    """

    _last: DicyclicGroup | None = None

    def __new__(cls, n: int) -> DicyclicGroup:
        last = cls._last
        if last is not None and last.n == n:
            return last
        if n < 2:
            raise ParameterError(f"group parameter must be >= 2, got n={n}")
        self = super().__new__(cls)
        self.n = n
        self.order = 4 * n
        cls._last = self
        return self

    def __getnewargs__(self) -> tuple[int]:
        return (self.n,)

    # -- basic elements -------------------------------------------------

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self.n, 0, 0)

    @property
    def x(self) -> GroupElement:
        return GroupElement(self.n, 1, 0)

    @property
    def y(self) -> GroupElement:
        return GroupElement(self.n, 0, 1)

    def element(self, a: int, b: int = 0) -> GroupElement:
        return GroupElement(self.n, a, b)

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(
            GroupElement(self.n, a, b)
            for a in range(2 * self.n)
            for b in (0, 1)
        )

    # -- index arithmetic (the enumeration cores) ------------------------

    def index_of(self, e: GroupElement) -> int:
        if e.n != self.n:
            raise ParameterError(f"element of G_{e.n} passed to G_{self.n}")
        return 2 * e.a + e.b

    def element_at(self, i: int) -> GroupElement:
        return GroupElement(self.n, i // 2, i % 2)

    def check_indices(self, indices: Iterable[object]) -> None:
        """Raise ParameterError unless every entry is a non-bool int in range(4n)."""
        for i in indices:
            if not (type(i) is int and 0 <= i < self.order):
                raise ParameterError(f"{i!r} is not an element index of G_{self.n}")

    def mul(self, i: int, j: int) -> int:
        """Index of the product of elements i and j: i + j for even i and
        i - j + 2n (j mod 2) for odd i, mod 4n, since x^a y^b * x^c y^d =
        x^(a + (-1)^b c + n b d) y^(b xor d) (`GroupElement.__mul__`)."""
        if i % 2:
            return (i - j + 2 * self.n * (j % 2)) % self.order
        return (i + j) % self.order

    @cached_property
    def mul_table(self) -> list[list[int]]:
        # `mul` as 16n^2 entries, for the two oracle scans below and the tests
        r = range(self.order)
        return [[self.mul(i, j) for j in r] for i in r]

    @cached_property
    def inverse_table(self) -> list[int]:
        # GroupElement.inverse on indices: x^a -> x^(-a), x^a y -> x^(a+n) y
        n, order = self.n, self.order
        return [(i + 2 * n if i % 2 else -i) % order for i in range(order)]

    @cached_property
    def order_table(self) -> list[int]:
        # GroupElement.order on indices: x^a y has order 4, x^a 2n / gcd(a, 2n)
        two_n = 2 * self.n
        return [4 if i % 2 else two_n // gcd(i // 2, two_n) for i in range(self.order)]

    # -- subgroups -------------------------------------------------------

    def _closure_indices(self, gen_indices: Iterable[int]) -> Subgroup:
        """The subgroup generated by the given indices, in closed form.

        With generators x^a y^b (index 2a + b), <S> = <x^d> union <x^d> x^s y,
        where x^s y is the first y-element of S (no coset if there is none)
        and d = gcd(2n, every a with b = 0, and with a coset n and every
        a - s over the y-elements).  Proof: <S> holds x^n = (x^s y)^2 and
        x^(a-s) = (x^a y)(x^s y)^-1, hence <x^d>; the y-elements normalise
        <x^d> and square into it, so the set is a subgroup.  The result is
        that (d, s) pair, never the member list, so a generation test
        `len(...) == order` costs one pass over the generators.
        """
        d, s = 2 * self.n, None
        for i in gen_indices:
            a, b = divmod(i, 2)
            if b and s is None:
                s, d = a, gcd(d, self.n)
            d = gcd(d, a - s if b else a)
        return Subgroup(self.n, d, s)

    def subgroup_generated(self, generators: Iterable[GroupElement]) -> Subgroup:
        return self._closure_indices(map(self.index_of, generators))

    def cyclic(self, e: GroupElement) -> Subgroup:
        return self.subgroup_generated([e])

    @cached_property
    def subgroups(self) -> tuple[Subgroup, ...]:
        """All subgroups: <x^d> for d | 2n, <x^d, x^i y> for d | n, 0 <= i < d.

        H meets <x> in <x^d>; a y-element of H squares to x^n, so d | n,
        and its coset mod <x^d> fixes i.  Sorted by order, then by members.
        """
        n = self.n
        divisors = [d for d in range(1, 2 * n + 1) if 2 * n % d == 0]
        result = [Subgroup(n, d, None) for d in divisors] + [
            Subgroup(n, d, i) for d in divisors if n % d == 0 for i in range(d)
        ]
        return tuple(sorted(result, key=lambda H: (H.order, sorted(H))))

    def index_two_subgroups(self) -> list[Subgroup]:
        """The subgroups of index two, in the order of `subgroups`: <x>,
        and for even n also <x^2, y> and <x^2, xy>, which sort around it.

        An index-two subgroup holds every square, x^2 among them, so d | 2:
        d = 1 gives <x> itself, and <x^2> has index four, so d = 2 needs a
        coset x^s y, s = 0 or 1, which needs d | n.
        """
        n = self.n
        if n % 2:
            return [Subgroup(n, 1, None)]
        return [Subgroup(n, 2, 0), Subgroup(n, 1, None), Subgroup(n, 2, 1)]

    # -- conjugacy classes ----------------------------------------------

    @cached_property
    def conjugacy_classes(self) -> tuple[frozenset[int], ...]:
        """The conjugacy classes as index sets, in order of least index.

        y x^a y^-1 = x^-a and x (x^a y) x^-1 = x^(a+2) y, so the classes
        are {1}, {x^n}, {x^a, x^-a} for 0 < a < n, {x^(2j) y} and
        {x^(2j+1) y}: n + 3 classes, of sizes 1, 1, 2 (n - 1 times), n, n.
        """
        order = self.order
        classes = [frozenset({0}), frozenset({order // 2}),
                   frozenset(range(1, order, 4)), frozenset(range(3, order, 4))]
        classes += [frozenset({2 * a, order - 2 * a}) for a in range(1, self.n)]
        return tuple(sorted(classes, key=min))

    # -- automorphisms ---------------------------------------------------

    @property
    def automorphism_count(self) -> int:
        """|Aut G|: 24 for n = 2 (Aut Q_8 = S_4), 2n * phi(2n) otherwise.

        For n >= 3, <x> is the only cyclic subgroup of order 2n, so an
        automorphism sends x to one of its phi(2n) generators and y to
        any of the 2n elements x^j y, and every such choice satisfies
        the relations.  `automorphisms` lists them all as the oracle.
        """
        if self.n == 2:
            return 24
        two_n = 2 * self.n
        return two_n * sum(1 for k in range(1, two_n) if gcd(k, two_n) == 1)

    @cached_property
    def automorphisms(self) -> tuple[tuple[GroupElement, GroupElement], ...]:
        """Every (image of x, image of y) pair that satisfies the three
        defining relations and generates G, in index (= element) order.

        Generation is the closed-form `_closure_indices`, and |Aut G| is
        never assumed: the scan tests all 16n^2 pairs, so it is the oracle
        for `automorphism_count` and for "up to isomorphisms", and the
        census does not build it.
        """
        n = self.n
        mul, inv = self.mul_table, self.inverse_table
        found = []
        for ix in range(self.order):
            powers = [0]
            for _ in range(2 * n):
                powers.append(mul[powers[-1]][ix])
            if powers[2 * n] != 0:
                continue
            for iy in range(self.order):
                if mul[iy][iy] != powers[n]:
                    continue
                if mul[mul[iy][ix]][inv[iy]] != inv[ix]:
                    continue
                if len(self._closure_indices((ix, iy))) != self.order:
                    continue
                found.append((self.element_at(ix), self.element_at(iy)))
        return tuple(found)

    def automorphism_index_perms(self) -> list[list[int]]:
        """Each automorphism as a permutation of element indices.

        phi sends x^a y^b (index 2a + b) to phi(x)^a phi(y)^b.
        """
        mul = self.mul_table
        perms = []
        for image_x, image_y in self.automorphisms:
            ix, iy = self.index_of(image_x), self.index_of(image_y)
            perm = []
            power = 0
            for _ in range(2 * self.n):
                perm += [power, mul[power][iy]]
                power = mul[power][ix]
            perms.append(perm)
        return perms

    def __repr__(self) -> str:
        return f"DicyclicGroup(n={self.n})"
