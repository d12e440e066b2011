"""The anticonformal side: non-orientable quotient data for dicyclic actions.

An action with anticonformal elements is encoded combinatorially by the
index-two conformal subgroup, a non-orientable quotient signature
(gamma + 1 crosscaps, r cone points) and the images of the glide
reflection and elliptic generators, subject to the long relation
alpha_1^2 ... alpha_(gamma+1)^2 beta_1 ... beta_r = 1 with torsion-free
kernel (exact cone orders).  Reflection generators are excluded
throughout: the quotients arising here have no boundary, because the
induced anticonformal involution acts without fixed points (the only
involution x^n lies in every index-two subgroup).

This module certifies the minimal hyperbolic genus values by exhaustive
search, with the engine of `search.py` that the orientable genus searches
share, and builds the pseudo-real family with all of its computable
properties.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import search
from .errors import (
    ConstructionError,
    InadmissibleSignatureError,
    ParameterError,
    SearchExhaustedError,
)
from .group import DicyclicGroup, GroupElement, Subgroup


@dataclass(frozen=True)
class NECSignature:
    """Non-orientable signature: gamma + 1 crosscaps and r cone orders."""

    gamma: int
    cone_orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise InadmissibleSignatureError("gamma must be >= 0")
        if any(m < 2 for m in self.cone_orders):
            raise InadmissibleSignatureError("cone orders must be >= 2")
        object.__setattr__(self, "cone_orders", tuple(self.cone_orders))

    @property
    def r(self) -> int:
        return len(self.cone_orders)


def nec_genus(n: int, sig: NECSignature) -> int:
    """Genus of the surface covering this non-orientable quotient.

    g = 1 + 2n * (gamma + r - 1 - sum 1/m_j); non-integral or negative
    values mean no dicyclic action with this quotient exists.
    """
    total = Fraction(sig.gamma + sig.r - 1)
    for m in sig.cone_orders:
        total -= Fraction(1, m)
    g = 1 + 2 * n * total
    if g.denominator != 1 or g < 0:
        raise InadmissibleSignatureError(
            f"signature {sig} gives genus {g} for n={n}"
        )
    return int(g)


@dataclass
class NECActionData:
    """A conformal/anticonformal dicyclic action, as a finite datum."""

    group: DicyclicGroup
    plus_part: Subgroup
    sig: NECSignature
    alpha_images: tuple[GroupElement, ...]
    beta_images: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        problems = self.violations()
        if problems:
            raise ParameterError("; ".join(problems))

    def violations(self) -> list[str]:
        group, H = self.group, self.plus_part
        out = []
        if H.index_in(group) != 2:
            out.append("plus part is not an index-two subgroup")
        if len(self.alpha_images) != self.sig.gamma + 1:
            out.append("wrong number of glide-reflection images")
        if len(self.beta_images) != self.sig.r:
            out.append("wrong number of elliptic images")
        for a in self.alpha_images:
            if a in H:
                out.append(f"alpha image {a!r} lies in the plus part")
        for b, m in zip(self.beta_images, self.sig.cone_orders):
            if b not in H:
                out.append(f"beta image {b!r} outside the plus part")
            if b.order() != m:
                out.append(f"beta image {b!r} has order {b.order()}, not {m}")
        prod = group.identity
        for a in self.alpha_images:
            prod = prod * a * a
        for b in self.beta_images:
            prod = prod * b
        if not prod.is_identity():
            out.append("long relation fails")
        gens = list(self.alpha_images) + list(self.beta_images)
        if group.subgroup_generated(gens).order != group.order:
            out.append("images do not generate the group")
        if self.plus_image().members != H.members:
            out.append("orientation-preserving images do not fill the plus part")
        return out

    def plus_image(self) -> Subgroup:
        """Image of the orientation-preserving half.

        Generated by the beta images, the alpha squares, the
        alpha-conjugates of the betas and the mixed alpha products.
        """
        gens = [b for b in self.beta_images]
        gens += [a * a for a in self.alpha_images]
        gens += [
            a * b * a.inverse()
            for a in self.alpha_images
            for b in self.beta_images
        ]
        gens += [
            a1 * a2
            for a1, a2 in itertools.combinations(self.alpha_images, 2)
        ]
        if not gens:
            gens = [self.group.identity]
        return self.group.subgroup_generated(gens)

    def betas_and_alpha_squares_generate_plus_part(self) -> bool:
        gens = list(self.beta_images) + [a * a for a in self.alpha_images]
        return self.group.subgroup_generated(gens).members == self.plus_part.members

    def genus(self) -> int:
        return nec_genus(self.group.n, self.sig)


def admissible_homomorphisms(
    group: DicyclicGroup,
    plus_part: Subgroup,
    sig: NECSignature,
    limit: int | None = None,
) -> list[NECActionData]:
    """Exhaustive list of admissible image tuples for one signature.

    `search.vectors` with the word of squares, glide-reflection images
    outside the plus part and elliptic images inside it; every vector
    must also pass `NECActionData.violations`.  Results come out in a
    fixed lexicographic order; `limit` truncates early when only
    existence (or one witness) is needed.
    """
    if plus_part.index_in(group) != 2:
        raise ParameterError("plus part must have index two")
    inside = sorted(group.index_of(h) for h in plus_part.members)
    outside = sorted(set(range(group.order)) - set(inside))
    orders = group.order_table
    beta_pools = [[i for i in inside if orders[i] == m] for m in sig.cone_orders]
    found: list[NECActionData] = []
    alpha_pools = [outside] * (sig.gamma + 1)
    for alphas, betas in search.vectors(group, alpha_pools, search.squares, beta_pools):
        try:
            found.append(NECActionData(group, plus_part, sig,
                                       tuple(map(group.element_at, alphas)),
                                       tuple(map(group.element_at, betas))))
        except ParameterError:
            continue
        if limit is not None and len(found) >= limit:
            break
    return found


def candidate_signatures(
    n: int, gamma_max: int, r_max: int
) -> list[tuple[int, NECSignature]]:
    """All integral-genus signatures within bounds, sorted by genus.

    Cone orders range over `search.order_pool(n)`; only signatures of
    genus >= 2 qualify for the hyperbolic genus.
    """
    pool = search.order_pool(n)
    out = []
    for gamma in range(gamma_max + 1):
        for r in range(r_max + 1):
            for orders in itertools.combinations_with_replacement(pool, r):
                sig = NECSignature(gamma, orders)
                try:
                    g = nec_genus(n, sig)
                except InadmissibleSignatureError:
                    continue
                if g >= 2:
                    out.append((g, sig))
    out.sort(key=lambda pair: (pair[0], pair[1].gamma, pair[1].cone_orders))
    return out


def sigma_hyp(
    n: int,
    gamma_max: int = 1,
    r_max: int = 3,
    prune: bool = True,
) -> tuple[int, NECActionData]:
    """Minimal genus >= 2 of a conformal/anticonformal dicyclic action.

    Searches every index-two plus part and every candidate signature
    within the bounds.  With `prune` the signatures are visited in
    increasing genus order and the search stops at the first admissible
    datum; without it every signature is searched and the minimum is
    taken, which is the no-pruning exhaustiveness check.
    """
    if gamma_max < 1 or r_max < 3:
        raise ParameterError("bounds must allow gamma_max >= 1 and r_max >= 3")
    group = DicyclicGroup(n)
    plus_parts = group.index_two_subgroups()
    candidates = candidate_signatures(n, gamma_max, r_max)
    best: tuple[int, NECActionData] | None = None
    for g, sig in candidates:
        if prune and best is not None and g >= best[0]:
            break
        for H in plus_parts:
            witnesses = admissible_homomorphisms(group, H, sig, limit=1)
            if witnesses and (best is None or g < best[0]):
                best = (g, witnesses[0])
    if best is None:
        raise SearchExhaustedError(
            f"no admissible action for n={n} within gamma<={gamma_max}, r<={r_max}"
        )
    return best


# -- pseudo-real construction ------------------------------------------


@dataclass
class PseudoRealCertificate:
    """Computable evidence for one member of the pseudo-real family."""

    n: int
    q: int
    l: int
    action: NECActionData
    genus: int
    genus_via_cyclic_cover: int
    obstruction_report: dict

    @property
    def expected_genus(self) -> int:
        return (self.l - 1) * (2 * self.n - 1)


def build_pseudo_real(n: int, q: int) -> PseudoRealCertificate:
    """The pseudo-real datum: one glide reflection to y, l elliptics to x.

    l = n(2q - 1) cone points of order 2n on a projective-plane
    quotient.  The genus is computed twice (the non-orientable genus
    formula, and Riemann-Hurwitz through the degree-2n cyclic cover
    with 2l cone points) and both must equal (l-1)(2n-1).  The
    pseudo-real obstruction is that the anticonformal elements, the
    coset outside <x>, all have order four; maximality of the group
    rests on a maximal-signature assumption recorded as such.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    if q < 2:
        raise ParameterError(f"need q >= 2, got q={q}")
    l = n * (2 * q - 1)
    group = DicyclicGroup(n)
    plus_part = group.cyclic(group.x)
    sig = NECSignature(0, (2 * n,) * l)
    action = NECActionData(
        group,
        plus_part,
        sig,
        alpha_images=(group.y,),
        beta_images=(group.x,) * l,
    )
    genus = nec_genus(n, sig)
    # Riemann-Hurwitz through S -> S/<x>: degree 2n, genus-zero base,
    # exactly 2l cone points of order 2n.
    g2 = Fraction(2 * n) * (-2 + 2 * l * (1 - Fraction(1, 2 * n)))
    genus_cyclic = 1 + g2 / 2
    if genus_cyclic.denominator != 1:
        raise ConstructionError("cyclic-cover genus is not an integer")
    genus_cyclic = int(genus_cyclic)
    expected = (l - 1) * (2 * n - 1)
    if genus != expected or genus_cyclic != expected:
        raise ConstructionError(
            f"genus mismatch: nec={genus}, cyclic={genus_cyclic}, "
            f"expected {expected}"
        )
    outside_orders = sorted(
        {g.order() for g in group.elements if g not in plus_part}
    )
    if outside_orders != [4]:
        raise ConstructionError(
            f"elements outside <x> have orders {outside_orders}, expected all 4"
        )
    report = {
        "unique_involution": "x^n",
        "involution_inside_plus_part": group.element(n) in plus_part,
        "orders_outside_plus_part": outside_orders,
        "cone_point_count_on_cyclic_quotient": 2 * l,
        "maximality": "assumed (maximal-signature list; 2l > 6 holds)",
    }
    return PseudoRealCertificate(
        n=n,
        q=q,
        l=l,
        action=action,
        genus=genus,
        genus_via_cyclic_cover=genus_cyclic,
        obstruction_report=report,
    )
