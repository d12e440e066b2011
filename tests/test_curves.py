"""Tests of the exact curve layer, `dicyclic_dessins.curves`.

The numeric sampler of `sampler.py` is its second computation: on every
applicable model at n <= 16, and on a map with a wrong root, both must
give the same verdict on every word.
"""

import pytest

import sampler
from dicyclic_dessins import curves
from dicyclic_dessins.curves import (
    CurveModel,
    applicable_models,
    monomial,
    verify_anticonformal,
    verify_belyi,
    verify_dicyclic_relations,
)
from dicyclic_dessins.errors import ParameterError


def test_unknown_model_rejected():
    with pytest.raises(ParameterError):
        CurveModel("bogus", 2)


def test_r_models_need_odd_n():
    with pytest.raises(ParameterError):
        CurveModel("Rn_hyperelliptic", 4)
    with pytest.raises(ParameterError):
        CurveModel("Rn_cyclic", 2)


def test_sn_cyclic_needs_even_n():
    with pytest.raises(ParameterError):
        CurveModel("Sn_cyclic", 3)


def test_applicable_models_are_the_models_that_construct():
    # CurveModel.PARITY is the one statement of the model domains, so the
    # list of models and the constructor can never disagree
    for n in range(2, 13):
        accepted = []
        for name in curves.MODEL_NAMES:
            try:
                CurveModel(name, n)
            except ParameterError as exc:
                assert str(exc) == f"{name} needs n {'odd' if n % 2 == 0 else 'even'}"
            else:
                accepted.append(name)
        assert applicable_models(n) == accepted, n


def test_t_map_absent_for_larger_n():
    assert "t" in CurveModel("Sn_hyperelliptic", 2).maps
    assert "t" not in CurveModel("Sn_hyperelliptic", 3).maps


def test_checks_equate_words_of_equal_conjugation_parity():
    # tau is the only anticonformal map, so a word is anticonformal when
    # its tau exponents sum to an odd number; every check keeps both sides
    # of equal parity, so none can pass or fail on the flag alone
    for n in range(2, 9):
        for name in applicable_models(n):
            relations, anticonformal = curves._checks(CurveModel(name, n))
            for word, expected in relations + anticonformal:
                parities = [sum(e for m, e in w if m == "tau") % 2
                            for w in (word, expected)]
                assert parities[0] == parities[1], (n, name, word, expected)


def reports(model):
    """Every curve report of a model, in the order of its claims."""
    found = verify_dicyclic_relations(model)
    if model.hyperelliptic:
        found.append(verify_belyi(model))
        found += verify_anticonformal(model)
    return found


def test_every_claim_passes_at_n_2_to_40():
    for n in range(2, 41):
        for name in applicable_models(n):
            for report in reports(CurveModel(name, n)):
                assert report["pass"], (n, name, report)


def test_a_word_check_is_its_reduced_coordinates():
    # y^2 = x^n on Sn_cyclic at n = 4: both sides fix z and send w to
    # zeta_16^8 w = -w
    check = verify_dicyclic_relations(CurveModel("Sn_cyclic", 4))[1]
    side = {"anti": False, "z": list(monomial(z=1)), "w": list(monomial(8, w=1))}
    assert check == {"model": "Sn_cyclic", "n": 4, "word": "y^2 = x^4",
                     "image": side, "expected": side, "pass": True, "note": ""}


def test_belyi_report_is_exact():
    report = verify_belyi(CurveModel("Sn_hyperelliptic", 3))
    assert report["projection"] == [[3, 1, 0], [0, -2, 0], [-3, 1, 0]]
    assert report["fibre_values"] == [0, -4]
    assert all(report["checks"].values()) and report["pass"]
    with pytest.raises(ParameterError):
        verify_belyi(CurveModel("Sn_cyclic", 4))


def test_t_pulls_the_basis_back_through_its_moebius_map():
    # t = i (1 - z) / (1 + z) at n = 2 (zeta = zeta_8, 1 + i = sqrt2 zeta):
    # t - 1 = -(1 + i)(z - i)/(z + 1), t + 1 = (1 - i)(z + i)/(z + 1),
    # t - i = -2i z/(z + 1), t + i = 2i/(z + 1); t^3 = 1 moves no vector
    model = CurveModel("Sn_hyperelliptic", 2)
    anti, images = curves._table(model, model.maps["t"])
    assert not anti
    assert images == (monomial(6, zm1=1, zp1=-1), monomial(5, 1, zp1=-1, zmi=1),
                      monomial(7, 1, zp1=-1, zpi=1), monomial(6, 2, z=1, zp1=-1),
                      monomial(2, 2, zp1=-1), None, monomial(1, 3, zp1=-3, w=1))
    (check,) = [r for r in verify_dicyclic_relations(model) if r["word"] == "t^3 = 1"]
    assert check["pass"] and check["image"]["z"] == list(monomial(z=1))


def test_inversion_pulls_b_back_with_its_factor():
    # B(1/z) = z^-2n - 1 = -z^-2n B
    model = CurveModel("Sn_hyperelliptic", 5)
    _, images = curves._table(model, model.maps["y"])
    assert images[curves.B - curves.Z] == monomial(10, z=-10, b=1)


def test_sn_cyclic_y_map_equals_the_printed_formula():
    # y sends w to z (z^2 - 1) / w, which on the curve
    # w^(2n) = z^n (z-1) (z+1)^(2n-1) equals the printed
    # w^(2n-1) / (z^(n-1) (z+1)^(2n-2))
    for n in (2, 4, 6, 8, 100):
        model = CurveModel("Sn_cyclic", n)
        printed = [0, 0, 1 - n, 0, 2 - 2 * n, 0, 0, 0, 2 * n - 1]
        held = list(model.maps["y"][2])
        assert curves._reduce(model, held) == curves._reduce(model, printed), n


def test_sn_cyclic_y_leaves_the_curve_at_odd_n(monkeypatch):
    # the reason for the parity rule: at odd n, (w o y)^(2n) = -(R o y)
    monkeypatch.setitem(CurveModel.PARITY, "Sn_cyclic", 1)
    for n in (3, 5, 7, 101):
        verdicts = {r["word"]: (r["pass"], r["note"])
                    for r in verify_dicyclic_relations(CurveModel("Sn_cyclic", n))}
        assert verdicts == {f"x^{2 * n} = 1": (True, ""),
                            f"y^2 = x^{n}": (False, "off the curve: y"),
                            "y^-1*x*y = x^-1": (False, "off the curve: y")}, n


def shifted(model, name, coordinate):
    """The model with the root exponent k of one coordinate (1 for z, 2
    for w) of one map shifted by 1."""
    anti, *coordinates = model.maps[name]
    v = list(coordinates[coordinate - 1])
    v[curves.K] += 1
    coordinates[coordinate - 1] = tuple(v)
    model.maps[name] = (anti, *coordinates)
    return model


def test_a_map_with_a_shifted_root_fails_its_claims():
    # the exact control: every map of every model, either coordinate
    for n in range(2, 9):
        for name in applicable_models(n):
            for map_name in CurveModel(name, n).maps:
                for coordinate in (1, 2):
                    model = shifted(CurveModel(name, n), map_name, coordinate)
                    failed = [r for r in reports(model) if not r["pass"]]
                    assert failed, (n, name, map_name, coordinate)


def test_order_relations_are_not_vacuous():
    # x^(2n) = 1 composes 2n factors of x, so a root of order 4n fails it
    for n in range(2, 9):
        for name in applicable_models(n):
            model = shifted(CurveModel(name, n), "x", 2)
            (check,) = [r for r in verify_dicyclic_relations(model)
                        if r["word"] == f"x^{2 * n} = 1"]
            assert not check["pass"], (n, name)
            assert check["image"]["w"] != check["expected"]["w"], (n, name)


def sampled_shifted_x(model):
    """The sampler's model with x's w root shifted by one, the wrong map
    of `shifted(model, "x", 2)`."""
    x, root = model.maps["x"], sampler.root_of_unity(4 * model.n)
    model.maps["x"] = lambda p: (x(p)[0], root * x(p)[1])
    return model


def sampled_verdicts(model, seed):
    """The sampler's verdict on each claim of a model, in claim order."""
    found = sampler.verify_dicyclic_relations(model, seed=seed)
    if model.hyperelliptic:
        found.append(sampler.verify_belyi(model, seed=seed))
        found += sampler.verify_anticonformal(model, seed=seed)
    return [r["pass"] for r in found]


def test_the_exact_layer_and_the_sampler_agree_on_every_word():
    # two computations: the same verdict on every claim, all passing on
    # the true maps; with x's w root shifted by one, x leaves the curve,
    # and both fail exactly the words that contain it
    for n in range(2, 17):
        for name in applicable_models(n):
            exact = [r["pass"] for r in reports(CurveModel(name, n))]
            wrong = [r["pass"] for r in reports(shifted(CurveModel(name, n), "x", 2))]
            assert all(exact) and not all(wrong), (n, name)
            for seed in (0, 901):
                assert sampled_verdicts(sampler.CurveModel(name, n), seed) == exact
                model = sampled_shifted_x(sampler.CurveModel(name, n))
                assert sampled_verdicts(model, seed) == wrong, (n, name, seed)


def value(v, p, n):
    """The monomial vector v at the complex point p = (z, w)."""
    z, w = p
    basis = (z, z - 1, z + 1, z - 1j, z + 1j, z ** (2 * n) - 1, w)
    result = sampler.root_of_unity(4 * n) ** v[curves.K] * 2 ** (v[curves.J] / 2)
    for e, factor in zip(v[curves.Z:], basis):
        result *= factor ** e
    return result


def table_errors(model, table=curves._table):
    """(map, slot) for each image in the table of a map of the exact
    `model` that differs, at sample points, from that basis factor at the
    image point of the sampler's map: the slot's factor pulled back."""
    n, numeric = model.n, sampler.CurveModel(model.name, model.n)
    errors = []
    for name, m in model.maps.items():
        anti, images = table(model, m)
        for p in numeric.sample_points(5, 3):
            q = numeric.maps[name](p)
            for slot, image in enumerate(images):
                if image is None:
                    continue
                got, want = value(image, p, n), value(curves.IDENTITY[1][slot], q, n)
                if abs((got.conjugate() if anti else got) - want) > 1e-9 * (1 + abs(want)):
                    errors.append((name, slot))
    return sorted(set(errors))


def test_each_table_image_is_the_pulled_back_factor():
    # a second computation of every table: each image of a basis factor,
    # evaluated at a point, is that factor at the point's image under
    # the sampler's own map formula
    for n in range(2, 9):
        for name in applicable_models(n):
            assert table_errors(CurveModel(name, n)) == [], (n, name)
    # z -> zeta_16^9 z: its z image is wrong, and it sends no other
    # factor into the basis
    wrong = shifted(CurveModel("Sn_cyclic", 4), "y", 1)
    assert table_errors(wrong) == [("y", 0)]
    assert curves._table(wrong, wrong.maps["y"])[1][1:6] == (None,) * 5
