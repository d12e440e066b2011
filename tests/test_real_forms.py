"""Tests for the anticonformal action data and minimal hyperbolic genus."""

import itertools

import pytest

from dicyclic_dessins.covering import GeneratingVector
from dicyclic_dessins.errors import InadmissibleSignatureError, ParameterError
from dicyclic_dessins.group import DicyclicGroup, GroupElement
from dicyclic_dessins.real_forms import (
    admissible_homomorphisms,
    build_pseudo_real,
    sigma_hyp,
)
from dicyclic_dessins.search import Signature, rh_genus
from test_covering import check_rh_genus_against_oracle, indices
from test_genus import bounded_signatures, listed_signatures
from walks import quotient_signatures


# -- genus formula ------------------------------------------------------


def test_nec_genus_formula():
    # handle 1: g = 1 + 2n (gamma + r - 1 - sum 1/m)
    assert rh_genus(8, Signature(1, 0, (4, 4))) == 3
    assert rh_genus(12, Signature(1, 0, (3, 6))) == 4
    assert rh_genus(16, Signature(1, 0, (4, 4))) == 5


def test_nec_genus_rejects_non_integral():
    with pytest.raises(InadmissibleSignatureError):
        rh_genus(12, Signature(1, 0, (4,)))


def test_nec_genus_matches_fraction_oracle():
    check_rh_genus_against_oracle(1)


# -- action data --------------------------------------------------------


def test_action_data_requires_index_two_plus_part():
    G = DicyclicGroup(2)
    with pytest.raises(ParameterError):
        GeneratingVector(
            G,
            0,
            hyperbolic_images=indices(G, G.x),
            cone_images=indices(G, G.y, G.y),
            plus_part=G.cyclic(G.element(2)),  # order 2, index 4
        )


def betas_and_alpha_squares_generate_plus_part(datum: GeneratingVector) -> bool:
    """The plus-part test without the alpha-conjugates of the betas and
    the mixed alpha products, which the plus part can need (see below)."""
    G = datum.group
    gens = list(datum.cone_images)
    gens += [G.mul(a, a) for a in datum.hyperbolic_images]
    return G._closure_indices(gens) == datum.plus_part


def plus_generators(datum: GeneratingVector) -> list[int]:
    """The Reidemeister-Schreier images of the plus part: the beta images,
    the alpha squares, the alpha-conjugates of the betas and the mixed
    alpha products a_i a_j (i < j)."""
    mul, inv = datum.group.mul, datum.group.inverse_table
    alphas, betas = datum.hyperbolic_images, datum.cone_images
    gens = [*betas] + [mul(a, a) for a in alphas]
    gens += [mul(mul(a, b), inv[a]) for a in alphas for b in betas]
    gens += [mul(a1, a2) for a1, a2 in itertools.combinations(alphas, 2)]
    return gens or [0]


def plus_generators_fill_plus_part(datum: GeneratingVector) -> bool:
    G = datum.group
    return G._closure_indices(plus_generators(datum)) == datum.plus_part


def test_every_admissible_datum_fills_its_plus_part():
    # `GeneratingVector` checks generation only: generating images whose
    # alphas lie outside an index-two plus part and betas inside it fill
    # the plus part, by Reidemeister-Schreier with transversal {1, a_1}.
    # Every vector of every handle-1 signature of genus 2..2n+1 is a
    # datum (`admissible_homomorphisms` builds them all) and fills it.
    total = 0
    for n in range(2, 16):
        G = DicyclicGroup(n)
        for H in G.index_two_subgroups():
            for g in range(2, 2 * n + 2):
                for sig in quotient_signatures(n, g, 1):
                    for datum in admissible_homomorphisms(G, H, sig):
                        assert plus_generators_fill_plus_part(datum), (n, datum)
                        total += 1
    assert total == 12412


def test_action_data_accepts_known_witness():
    # n=2: alpha -> x outside <y>-side subgroup, betas (y, y)
    G = DicyclicGroup(2)
    H = G.subgroup_generated([G.element(2), G.y])
    datum = GeneratingVector(
        G, 0, hyperbolic_images=indices(G, G.x), cone_images=indices(G, G.y, G.y),
        plus_part=H,
    )
    assert datum.genus() == 3
    assert betas_and_alpha_squares_generate_plus_part(datum)
    assert plus_generators_fill_plus_part(datum)


def test_action_data_rejects_non_generating_images():
    # n=4, plus part <x^2, y>: alpha -> x and beta -> x^6 satisfy the long
    # relation but generate only <x>
    G = DicyclicGroup(4)
    H = G.subgroup_generated([G.element(2), G.y])
    with pytest.raises(ParameterError) as info:
        GeneratingVector(G, 0, hyperbolic_images=indices(G, G.x),
                         cone_images=indices(G, G.element(6)), plus_part=H)
    assert str(info.value) == "images do not generate the group"
    # and images that are no element index of G_4: out of range, an
    # element (of G_4 or of another group) or no number at all
    for bad in (-1, G.order, G.x, GroupElement(5, 1, 0), 2.0, None,
                True, False):
        with pytest.raises(ParameterError, match="is not an element index of G_4"):
            GeneratingVector(G, 0, hyperbolic_images=(bad,), cone_images=(12,),
                             plus_part=H)
        with pytest.raises(ParameterError, match="is not an element index of G_4"):
            GeneratingVector(G, 0, hyperbolic_images=(2,), cone_images=(bad,),
                             plus_part=H)


def test_action_data_rejects_a_failing_long_relation():
    # n=2, plus part <x^2, y>: alpha -> x and betas -> (y, x^2 y) meet every
    # other condition, but x^2 * y * x^2 y = x^2
    G = DicyclicGroup(2)
    H = G.subgroup_generated([G.element(2), G.y])
    with pytest.raises(ParameterError) as info:
        GeneratingVector(G, 0, hyperbolic_images=indices(G, G.x),
                         cone_images=indices(G, G.y, G.element(2, 1)), plus_part=H)
    assert str(info.value) == "long relation fails"


def test_alpha_squares_alone_can_miss_the_plus_part():
    # n=2, two crosscaps, alpha -> (y, xy): the plus part <x> needs the
    # mixed product y * xy = x, since both squares are x^2
    G = DicyclicGroup(2)
    datum = GeneratingVector(G, 1, hyperbolic_images=indices(G, G.y, G.x * G.y),
                             cone_images=(), plus_part=G.cyclic(G.x))
    plus_image = G._closure_indices(plus_generators(datum))
    assert plus_image == frozenset(range(0, G.order, 2))  # <x>, the even indices
    assert not betas_and_alpha_squares_generate_plus_part(datum)


def test_admissible_homomorphisms_empty_below_minimum():
    # no reflection-free datum exists over <x> with two cone points of
    # order 4 at n=2 on a projective plane minus discs analogue
    G = DicyclicGroup(3)
    H = G.cyclic(G.x)
    found = admissible_homomorphisms(G, H, Signature(1, 0, (2, 2)), limit=1)
    assert found == []


def test_admissible_homomorphisms_rejects_a_subgroup_of_another_group():
    # <x^2> of G_6 has order 6, index two in the order of G_3, but is no
    # subgroup of G_3
    G6 = DicyclicGroup(6)
    H = G6.cyclic(G6.element(2))
    with pytest.raises(ParameterError):
        admissible_homomorphisms(DicyclicGroup(3), H, Signature(1, 0, (3, 6)))


# -- minimal hyperbolic genus ------------------------------------------


def test_sigma_hyp_even_n():
    for n in (2, 4, 6):
        g, witness = sigma_hyp(n)
        assert g == n + 1
        assert not witness.violations()


def test_sigma_hyp_odd_n():
    for n in (3, 5):
        g, witness = sigma_hyp(n)
        assert g == 2 * n - 2
        assert witness.plus_part == DicyclicGroup(n).cyclic(DicyclicGroup(n).x)
        assert tuple(sorted(witness.signature.cone_orders)) == (n, 2 * n)


def test_sigma_hyp_even_witness_family():
    # the witness realises alpha -> x, betas -> (y, y x^(n-2))
    for n in (2, 4, 6):
        G = DicyclicGroup(n)
        _, witness = sigma_hyp(n)
        assert witness.hyperbolic_images == indices(G, G.x)
        assert witness.cone_images == indices(G, G.y, G.y * G.element(n - 2))


def non_orientable_genus(n: int, gamma: int, orders: tuple[int, ...]) -> int:
    return rh_genus(4 * n, Signature(1, gamma, orders))


def bounded_nec_signatures(n):
    """(g, sig) for every signature within the default bounds gamma <= 1,
    r <= 3 of genus >= 2, sorted."""
    return [(g, Signature(1, gamma, orders))
            for g, gamma, orders in bounded_signatures(n, non_orientable_genus, 1, 3)
            if g >= 2]


def test_sigma_hyp_matches_full_bounded_search():
    # every bounded signature up to the answer, over every plus part
    for n in range(2, 7):
        top = sigma_hyp(n)[0]
        group = DicyclicGroup(n)
        realised = [g for g, sig in bounded_nec_signatures(n) if g <= top
                    for H in group.index_two_subgroups()
                    if admissible_homomorphisms(group, H, sig, limit=1)]
        assert min(realised) == top, n


def sigma_hyp_by_plus_part(n):
    """Minimal genus per index-two plus part, each part searched alone."""
    group = DicyclicGroup(n)
    out = {}
    for H in group.index_two_subgroups():
        for g, sig in bounded_nec_signatures(n):
            if admissible_homomorphisms(group, H, sig, limit=1):
                out[repr(H)] = g
                break
    return out


def test_sigma_hyp_by_plus_part_attains_minimum_over_parts():
    for n in (2, 4):
        per_part = sigma_hyp_by_plus_part(n)
        assert min(per_part.values()) == sigma_hyp(n)[0]


def test_sigma_hyp_bounds_are_complete():
    # Up to genus 3n + 2, (g - 1)/2n = gamma - 1 + sum(1 - 1/m) < 2 gives
    # gamma <= 2 and r <= 5: the brute force within those bounds lists
    # every non-orientable signature there is.
    for n in range(2, 41):
        top = 3 * n + 2
        bounded = [s for s in bounded_signatures(n, non_orientable_genus, 2, 5)
                   if 2 <= s[0] <= top]
        assert listed_signatures(n, 1, range(2, top + 1)) == bounded, n
    # Below genus 2n every signature lies within the default bounds
    # gamma <= 1, r <= 3, which sigma_hyp relies on.
    for n in range(2, 41):
        for g in range(2, 2 * n):
            assert all(sig.gamma <= 1 and len(sig.cone_orders) <= 3
                       for sig in quotient_signatures(n, g, 1)), (n, g)


# -- pseudo-real family -------------------------------------------------


def test_pseudo_real_genus_formula():
    for n, q in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)):
        cert = build_pseudo_real(n, q)
        assert cert.l == n * (2 * q - 1)
        assert cert.genus == (cert.l - 1) * (2 * n - 1)
        assert cert.genus == cert.genus_via_cyclic_cover


def test_pseudo_real_action_is_admissible():
    cert = build_pseudo_real(3, 2)
    assert not cert.action.violations()
    assert cert.action.signature.gamma == 0
    assert set(cert.action.signature.cone_orders) == {2 * cert.n}


def test_pseudo_real_obstruction_report():
    cert = build_pseudo_real(2, 2)
    assert cert.obstruction_report["orders_outside_plus_part"] == [4]
    assert cert.obstruction_report["involution_inside_plus_part"]


def test_pseudo_real_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        build_pseudo_real(1, 2)
    with pytest.raises(ParameterError):
        build_pseudo_real(2, 1)
