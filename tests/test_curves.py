"""Numeric tests for the explicit curve families."""

import cmath
import random

import pytest

from dicyclic_dessins import curves
from dicyclic_dessins.cli import curves_report
from dicyclic_dessins.curves import (
    ADMISSION_TOLERANCE,
    BRANCH_DISTANCE,
    CurveModel,
    applicable_models,
    belyi_projection,
    root_of_unity,
    verify_anticonformal,
    verify_belyi,
    verify_dicyclic_relations,
    verify_word,
)
from dicyclic_dessins.errors import ParameterError, SamplingError


def test_unknown_model_rejected():
    with pytest.raises(ParameterError):
        CurveModel("bogus", 2)


def test_r_models_need_odd_n():
    with pytest.raises(ParameterError):
        CurveModel("Rn_hyperelliptic", 4)
    with pytest.raises(ParameterError):
        CurveModel("Rn_cyclic", 2)


def test_sn_cyclic_needs_even_n():
    # for odd n the printed second-coordinate formula lands off the
    # curve by an exact sign: image relation value is (-1)^n times the
    # right-hand side
    with pytest.raises(ParameterError):
        CurveModel("Sn_cyclic", 3)


def test_sample_points_lie_on_curve():
    for n in (2, 3):
        for name in applicable_models(n):
            model = CurveModel(name, n)
            points = model.sample_points(100, seed=0)
            assert len(points) == 100
            assert all(model.residual(p) < ADMISSION_TOLERANCE for p in points)


def test_sample_points_deterministic():
    model = CurveModel("Sn_hyperelliptic", 2)
    assert model.sample_points(20, seed=7) == model.sample_points(20, seed=7)
    assert model.sample_points(20, seed=7) != model.sample_points(20, seed=8)


def test_sample_rejects_zero_count():
    with pytest.raises(ParameterError):
        CurveModel("Sn_hyperelliptic", 2).sample_points(0, seed=0)


def test_exact_branch_point_is_admissible():
    model = CurveModel("Sn_hyperelliptic", 2)
    assert model.on_curve((1 + 0j, 0j))


def test_dicyclic_relations_all_models_n_2_to_8():
    for n in range(2, 9):
        for name in applicable_models(n):
            model = CurveModel(name, n)
            for report in verify_dicyclic_relations(model):
                assert report.passed, (n, name, report.description,
                                       report.max_error)


def test_t_map_on_s2():
    model = CurveModel("Sn_hyperelliptic", 2)
    report = verify_word(model, [("t", 3)], "identity")
    assert report.passed


def test_t_map_absent_for_larger_n():
    assert "t" not in CurveModel("Sn_hyperelliptic", 3).maps


def test_belyi_reports():
    for n in (2, 3, 4):
        for name in ("Sn_hyperelliptic", "Rn_hyperelliptic"):
            if name.startswith("Rn") and n % 2 == 0:
                continue
            report = verify_belyi(CurveModel(name, n))
            assert report["pass"], report


def test_belyi_special_values():
    # z^n = 1 maps to 0 and z^n = -1 maps to 1
    assert abs(belyi_projection(3, (1 + 0j, 0j))) < 1e-15
    z = root_of_unity(6)  # z^3 = -1
    assert abs(belyi_projection(3, (z, 0j)) - 1) < 1e-12


def test_anticonformal_reports():
    for n in (2, 3, 5):
        for name in ("Sn_hyperelliptic", "Rn_hyperelliptic"):
            if name.startswith("Rn") and n % 2 == 0:
                continue
            for report in verify_anticonformal(CurveModel(name, n)):
                assert report.passed, report


def test_anticonformal_parity_guard():
    # equating tau to a conformal map must be rejected, not near-passed
    model = CurveModel("Sn_hyperelliptic", 2)
    report = verify_word(model, [("tau", 1)], [("x", 2)])
    assert not report.passed
    assert "parity" in report.note


def test_word_reports_are_seed_stable():
    model = CurveModel("Sn_hyperelliptic", 3)
    a = verify_word(model, [("x", 6)], "identity", seed=5)
    b = verify_word(model, [("x", 6)], "identity", seed=5)
    assert a.max_error == b.max_error


def test_perturbation_control_fails_loudly():
    # a 1e-2 coefficient perturbation must push errors past 1e-3 on
    # every applicable model: the checks have teeth
    for n in range(2, 9):
        for name in applicable_models(n):
            model = CurveModel(name, n).perturbed(1e-2)
            worst = max(
                r.max_error for r in verify_dicyclic_relations(model)
            )
            assert worst > 1e-3, (n, name, worst)


def test_cyclic_model_residuals_stay_relative():
    # at n=8 the cyclic right-hand sides are huge; the relative residual
    # keeps honest points admissible
    model = CurveModel("Sn_cyclic", 8)
    points = model.sample_points(50, seed=1)
    assert all(model.residual(p) < ADMISSION_TOLERANCE for p in points)


# -- the O(1) step path against the full scans it replaces ----------------


def _locus_probes(n, locus, rng):
    """Random points plus the edge cases of the rounded-argument lookup."""
    ring = locus[3:]
    probes = list(locus)  # exact branch points, -1 and zeta^n included
    for k in range(2 * n):
        # halfway between two roots, and a hair to either side
        for shift in (0.0, 1e-15, -1e-15):
            angle = (2 * k + 1) * cmath.pi / (2 * n) + shift
            for radius in (0.5, 1.0, 1.0 + 1e-3, 1.5):
                probes.append(cmath.rect(radius, angle))
    near = [locus[0], locus[1], locus[2], ring[rng.randrange(2 * n)]]
    for centre in near:
        for _ in range(8):
            direction = cmath.rect(1.0, rng.uniform(-cmath.pi, cmath.pi))
            for dist in (BRANCH_DISTANCE - 1e-12, BRANCH_DISTANCE + 1e-12):
                probes.append(centre + dist * direction)
    for _ in range(20):
        probes.append(cmath.rect(rng.uniform(0.0, 1e-3), rng.uniform(-4.0, 4.0)))
    for _ in range(400):
        probes.append(cmath.rect(rng.uniform(0.0, 2.5), rng.uniform(-4.0, 4.0)))
    return probes


def test_branch_distance_equals_full_scan():
    # the O(1) lookup must return the very float of the full min scan,
    # so the exclusion-zone boolean cannot differ either
    rng = random.Random(20)
    for n in range(2, 41):
        names = ["Sn_hyperelliptic"] + (["Rn_hyperelliptic"] if n % 2 else [])
        for name in names:
            model = CurveModel(name, n)
            locus = model.branch_locus()
            for z in _locus_probes(n, locus, rng):
                full = min(abs(z - b) for b in locus)
                assert model.branch_distance(z) == full, (name, n, z)
                assert ((model.branch_distance(z) < BRANCH_DISTANCE)
                        == (full < BRANCH_DISTANCE))


def _scan_apply_word(model, word, p):
    """The step loop before the O(1) path: full branch scan and the
    residual through curves._relative at every step."""
    locus = model.branch_locus()
    worst = 0.0
    for name, exponent in reversed(word):
        m = model.maps[name]
        steps = exponent % m.order
        for _ in range(steps):
            if min(abs(p[0] - b) for b in locus) < BRANCH_DISTANCE:
                raise curves._NearPole
            p = m(p)
            if not (cmath.isfinite(p[0]) and cmath.isfinite(p[1])):
                raise curves._NearPole
            lhs, rhs = model.relation_sides(p)
            worst = max(worst, curves._relative(lhs - rhs, lhs, rhs))
    return p, worst


def _scan_sample_points(model, count, seed):
    """Rejection sampling before the O(1) path: no memo, full scan."""
    if count < 1:
        raise ParameterError(f"need count >= 1, got {count}")
    rng = random.Random(seed)
    locus = model.branch_locus()
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        assert attempts <= 1000 * count
        radius = rng.uniform(0.4, 1.8)
        angle = rng.uniform(0.0, 2 * cmath.pi)
        z = radius * cmath.exp(1j * angle)
        if min(abs(z - b) for b in locus) < BRANCH_DISTANCE:
            continue
        p = model.lift(z)
        lhs, rhs = model.relation_sides(p)
        if not curves._relative(lhs - rhs, lhs, rhs) <= ADMISSION_TOLERANCE:
            continue
        points.append(p)
    return points


def test_curve_payloads_match_the_full_scan_oracles(monkeypatch):
    cases = [(n, name, seed) for n in range(2, 9)
             for name in applicable_models(n) for seed in range(3)]
    fast = [curves_report(n, name, seed, 100, 1e-9).payload_json()
            for n, name, seed in cases]
    monkeypatch.setattr(curves, "_apply_word", _scan_apply_word)
    monkeypatch.setattr(CurveModel, "sample_points", _scan_sample_points)
    for (n, name, seed), payload in zip(cases, fast):
        assert payload == curves_report(n, name, seed, 100, 1e-9).payload_json(), (
            n, name, seed)


def test_sample_memo_hands_out_fresh_lists():
    model = CurveModel("Sn_hyperelliptic", 3)
    first = model.sample_points(30, seed=4)
    expected = list(first)
    first[0] = (0j, 0j)
    first.pop()
    assert model.sample_points(30, seed=4) == expected
    assert expected == _scan_sample_points(model, 30, 4)


def test_perturbed_model_draws_its_own_samples():
    model = CurveModel("Sn_hyperelliptic", 3)
    model.sample_points(30, seed=4)
    other = model.perturbed(1e-2)
    assert other._samples == {}
    other.sample_points(30, seed=4)
    assert other._samples is not model._samples


def test_step_loop_stops_in_the_exclusion_zone():
    for name in ("Sn_hyperelliptic", "Rn_hyperelliptic"):
        model = CurveModel(name, 3)
        for b in model.branch_locus()[1:]:
            p = model.lift(b * (1 + BRANCH_DISTANCE / 2))
            with pytest.raises(curves._NearPole):
                curves._apply_word(model, [("x", 1)], p)


def test_sampler_rejects_points_in_the_exclusion_zone():
    model = CurveModel("Sn_hyperelliptic", 3)
    model.branch_distance = lambda z: 0.0  # every point is in the zone
    with pytest.raises(SamplingError):
        model.sample_points(2, seed=0)
