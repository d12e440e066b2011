"""Tests of the numeric sampler, `sampler.py`: the second computation of
the exact curve layer, kept with the tests as its oracle.  Its checks
are compared with a word-by-word oracle of their own below, and with
the exact layer in `test_sampler.py`."""

import cmath
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sampler
from sampler import (
    ADMISSION_TOLERANCE,
    BRANCH_DISTANCE,
    CurveModel,
    SamplingError,
    applicable_models,
    belyi_projection,
    root_of_unity,
    verify_anticonformal,
    verify_belyi,
    verify_dicyclic_relations,
)
from dicyclic_dessins.errors import ParameterError


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
    assert model.residual((1 + 0j, 0j)) <= ADMISSION_TOLERANCE


def test_dicyclic_relations_all_models_n_2_to_8():
    for n in range(2, 9):
        for name in applicable_models(n):
            model = CurveModel(name, n)
            for report in verify_dicyclic_relations(model):
                assert report["pass"], (n, name, report["word"], report["max_error"])


def test_t_map_on_s2():
    model = CurveModel("Sn_hyperelliptic", 2)
    (report,) = [r for r in verify_dicyclic_relations(model)
                 if r["word"] == "t^3 = 1"]
    assert report["pass"]


def test_t_map_absent_for_larger_n():
    assert "t" not in CurveModel("Sn_hyperelliptic", 3).maps


def test_belyi_reports():
    for n in (2, 3, 4):
        for name in ("Sn_hyperelliptic", "Rn_hyperelliptic"):
            if name.startswith("Rn") and n % 2 == 0:
                continue
            report = verify_belyi(CurveModel(name, n))
            assert report["pass"], report


def test_belyi_projection_overflow_is_a_sampling_error():
    # z^(-n) overflows at the sample points of large n; that is a
    # parameter range the projection cannot be evaluated in, not a crash
    with pytest.raises(SamplingError, match="n=800"):
        verify_belyi(CurveModel("Sn_hyperelliptic", 800))


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
                assert report["pass"], report


def test_word_reports_are_seed_stable():
    model = CurveModel("Sn_hyperelliptic", 3)
    a = verify_dicyclic_relations(model, seed=5)
    b = verify_dicyclic_relations(model, seed=5)
    assert a == b


def test_perturbation_control_fails_loudly():
    # a 1e-2 coefficient perturbation must push errors past 1e-3 on
    # every applicable model: the checks have teeth
    for n in range(2, 9):
        for name in applicable_models(n):
            model = CurveModel(name, n, perturb=1e-2)
            worst = max(
                r["max_error"] for r in verify_dicyclic_relations(model)
            )
            assert worst > 1e-3, (n, name, worst)


def test_cyclic_model_residuals_stay_relative():
    # at n=8 the cyclic right-hand sides are huge; the relative residual
    # keeps honest points admissible
    model = CurveModel("Sn_cyclic", 8)
    points = model.sample_points(50, seed=1)
    assert all(model.residual(p) < ADMISSION_TOLERANCE for p in points)


def test_cyclic_samples_start_from_a_normal_right_hand_side():
    # at n = 800 the seed-160 draw once started from |rhs| = 2.8e-321, a
    # subnormal whose 2n-th root keeps too few bits for the y map
    model = CurveModel("Sn_cyclic", 800)
    for seed in range(200):
        ((z, _),) = model.sample_points(1, seed)
        assert abs(model.sides(z, 0j)[1]) >= sys.float_info.min, seed


def test_sn_cyclic_y_map_equals_the_printed_formula():
    # y sends w to z (z^2 - 1) / w, which on the curve
    # w^(2n) = z^n (z-1) (z+1)^(2n-1) equals the printed
    # w^(2n-1) / (z^(n-1) (z+1)^(2n-2))
    for n in (2, 4, 6, 8):
        model = CurveModel("Sn_cyclic", n)
        for z, w in model.sample_points(100, seed=0):
            printed = w ** (2 * n - 1) / (z ** (n - 1) * (z + 1) ** (2 * n - 2))
            image = model.maps["y"]((z, w))
            assert image[0] == -z
            assert abs(image[1] - printed) <= 1e-9 * (1 + abs(printed)), (n, z, w)


# -- the exclusion-zone test against the oracle's full scan --------------


def _locus_probes(n, locus, rng):
    """Random points plus the edge cases of the zone: the branch points,
    the halfway angles between roots and points a hair inside and
    outside BRANCH_DISTANCE."""
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
    # the model's distance must be the very float of the oracle's own
    # min scan, so the exclusion-zone boolean cannot differ either
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


# The word-by-word oracle keeps its own copy of the defining relations,
# the relative error and the lift, so it shares no arithmetic with the
# per-model kernel it checks.


def _relation_sides(model, p):
    z, w = p
    n = model.n
    if model.name == "Sn_hyperelliptic":
        return w * w, z * (z ** (2 * n) - 1)
    if model.name == "Rn_hyperelliptic":
        return w * w, z ** (2 * n) - 1
    if model.name == "Sn_cyclic":
        return w ** (2 * n), z ** n * (z - 1) * (z + 1) ** (2 * n - 1)
    return w ** (2 * n), z ** n * (z - 1) ** 2 * (z + 1) ** (2 * n - 2)


def _relative(delta, *refs):
    scale = 1.0 + sum(abs(r) for r in refs)
    return abs(delta) / scale


def _lift(model, z):
    n = model.n
    if model.name == "Sn_hyperelliptic":
        return (z, cmath.sqrt(z * (z ** (2 * n) - 1)))
    if model.name == "Rn_hyperelliptic":
        return (z, cmath.sqrt(z ** (2 * n) - 1))
    _, rhs = _relation_sides(model, (z, 0j))
    return (z, cmath.exp(cmath.log(rhs) / (2 * n)))


def _one_step(model, name, p):
    """The slot that one step of the map `name` from p writes, through
    the bundle's own plan and walker: (image, drift), or None if the
    walk stopped."""
    trails, size, [(got, _)] = sampler._plan(model, [([(name, 1)], [])])
    return sampler._walk(model, trails, size, p)[got]


def test_step_zone_test_equals_full_scan():
    # the step loop asks for the branch distance only inside the shell
    # around |z| = 0 and |z| = 1; its verdict must be the full scan's
    rng = random.Random(21)
    edges = (0.0, sampler.SHELL, 1.0 - sampler.SHELL, 1.0 + sampler.SHELL,
             1.0 - BRANCH_DISTANCE, 1.0 + BRANCH_DISTANCE)
    for n in range(2, 13):
        ring = CurveModel("Sn_hyperelliptic", n).branch_locus()
        probes = _locus_probes(n, ring, rng)
        for edge in edges:
            for shift in (-1e-12, 0.0, 1e-12):
                for b in ring:
                    probes.append(b * (edge + shift) if b else edge + shift)
                probes.append(cmath.rect(edge + shift, rng.uniform(-4.0, 4.0)))
        for name in applicable_models(n):
            model = CurveModel(name, n)
            locus = model.branch_locus()
            for z in probes:
                full = min(abs(z - b) for b in locus)
                stopped = _one_step(model, "x", (z, 1 + 0j)) is None
                assert stopped == (full < BRANCH_DISTANCE), (name, n, z)


class _NearPole(Exception):
    """The oracle's trajectory entered the exclusion zone; resample."""


def _scan_apply_word(model, word, p):
    """One word, one factor after another: full branch scan and the
    residual through the oracle's own formulas at every step.  A
    nonnegative exponent is applied as written; only a negative one is
    rewritten modulo the map's order."""
    locus = model.branch_locus()
    worst = 0.0
    for name, exponent in reversed(word):
        steps = exponent if exponent >= 0 else exponent % model.orders[name]
        for _ in range(steps):
            if min(abs(p[0] - b) for b in locus) < BRANCH_DISTANCE:
                raise _NearPole
            p = model.maps[name](p)
            if not (cmath.isfinite(p[0]) and cmath.isfinite(p[1])):
                raise _NearPole
            lhs, rhs = _relation_sides(model, p)
            worst = max(worst, _relative(lhs - rhs, lhs, rhs))
    return p, worst


def _scan_sample_points(model, count, seed):
    """Rejection sampling with no memo and the full branch scan."""
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
        p = _lift(model, z)
        lhs, rhs = _relation_sides(model, p)
        if not _relative(lhs - rhs, lhs, rhs) <= ADMISSION_TOLERANCE:
            continue
        points.append(p)
    return points


def _scan_verify_word(model, word, expected, tolerance, trials, seed):
    """One word at a time over its own sample list: every point walks
    both words from scratch, and a trajectory in the exclusion zone
    redraws that point from seed + 1, seed + 2, ..."""
    description = (f"{sampler._word_description(word)} = "
                   f"{sampler._word_description(expected)}")
    points = model.sample_points(trials, seed)
    extra_seed = seed + 1
    max_error = 0.0
    resampled = 0
    done = 0
    while done < trials:
        p = points[done]
        try:
            got, drift_got = _scan_apply_word(model, word, p)
            want, drift_want = _scan_apply_word(model, expected, p)
        except _NearPole:
            resampled += 1
            assert resampled <= 10 * trials
            points[done] = model.sample_points(1, extra_seed)[0]
            extra_seed += 1
            continue
        err = max(
            _relative(got[0] - want[0], want[0]),
            _relative(got[1] - want[1], want[1]),
            drift_got,
            drift_want,
        )
        max_error = max(max_error, err)
        done += 1
    return {"model": model.name, "n": model.n, "word": description,
            "trials": trials, "max_error": max_error, "tolerance": tolerance,
            "pass": max_error < tolerance, "resampled": resampled, "note": ""}


def _scan_verify_bundle(model, checks, tolerance, trials, seed):
    return [_scan_verify_word(model, word, expected, tolerance, trials, seed)
            for word, expected in checks]


def _bundle_reports(model, seed):
    """Every curve report of a model, as JSON text (so NaN compares)."""
    reports = verify_dicyclic_relations(model, seed=seed)
    if model.name.endswith("hyperelliptic"):
        reports.append(verify_belyi(model, seed=seed))
        reports += verify_anticonformal(model, seed=seed)
    return json.dumps(reports, sort_keys=True)


def test_bundles_match_the_full_scan_oracles(monkeypatch):
    cases = [(n, name, seed, perturb) for n in range(2, 9) for name in applicable_models(n)
             for seed in range(3) for perturb in (0.0, 1e-2)]
    fast = [_bundle_reports(CurveModel(name, n, perturb), seed)
            for n, name, seed, perturb in cases]
    monkeypatch.setattr(sampler, "_verify_bundle", _scan_verify_bundle)
    monkeypatch.setattr(CurveModel, "sample_points", _scan_sample_points)
    for (n, name, seed, perturb), reports in zip(cases, fast):
        model = CurveModel(name, n, perturb)
        assert reports == _bundle_reports(model, seed), (n, name, seed, perturb)


def _reports_text(run):
    """The reports that run() returns, as JSON text, or the error that
    stopped them."""
    try:
        return json.dumps(run())
    except SamplingError as error:
        return repr(error)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(
           lambda n: st.tuples(st.just(n), st.sampled_from(applicable_models(n)))),
       st.integers(0, 10 ** 6), st.integers(1, 40), st.sampled_from([0.0, 1e-2]))
def test_model_words_equal_the_word_by_word_oracle(case, seed, trials, perturb):
    n, name = case
    model, other = CurveModel(name, n, perturb), CurveModel(name, n, perturb)
    fast = _reports_text(lambda: sum(sampler.verify_model_words(model, 1e-9, trials, seed), []))
    oracle = _reports_text(lambda: _scan_verify_bundle(
        other, sum(sampler._checks(other), []), 1e-9, trials, seed))
    assert fast == oracle


def _near(model, b, distance):
    """A curve point at `distance` from the branch value b, off its axis."""
    return model.lift(b + distance * cmath.exp(0.7j))


def test_bundles_resample_like_the_word_by_word_oracle(monkeypatch):
    # Normal runs never resample, so plant start points that do.  Points
    # 5e-4 from a branch point are in the zone before the first step of
    # every word.  On the perturbed S-model at n = 3 the x and u steps
    # scale z by 1.01, so a start at 1.01^-3 reaches the unit circle on
    # a ring root after three steps: x^3 (from y^2 = x^3) reads the
    # shared x chain, while x^6 and x^5 meet the zone on their fourth
    # step and resample.
    cases = []
    for n in (2, 3, 4, 5):
        for name in applicable_models(n):
            model = CurveModel(name, n)
            locus = model.branch_locus()
            planted = {3: _near(model, locus[1], 5e-4),
                       57: _near(model, locus[-1], 5e-4)}
            cases.append((model, planted, [2, 2, 2]))
    model = CurveModel("Sn_hyperelliptic", 3, perturb=1e-2)
    planted = {10: model.lift(1.01 ** -3 + 0j), 80: _near(model, 0j, 5e-4)}
    cases.append((model, planted, [2, 1, 2]))
    seed = 4
    fast = []
    for model, planted, _ in cases:
        points = model.sample_points(100, seed)
        for index, p in planted.items():
            assert model.branch_distance(p[0]) != 0.0
            points[index] = p
        model._samples[100, seed] = points
        fast.append(_bundle_reports(model, seed))
    monkeypatch.setattr(sampler, "_verify_bundle", _scan_verify_bundle)
    for (model, _, resampled), reports in zip(cases, fast):
        assert reports == _bundle_reports(model, seed), (model.name, model.n)
        # x^2n = 1, y^2 = x^n and y^-1 x y = x^-1 lead every bundle
        assert [r["resampled"] for r in json.loads(reports)[:3]] == resampled


def _count_steps(model):
    """Wrap every map of `model` to count its calls; returns the count."""
    calls = [0]
    for name, func in list(model.maps.items()):
        def counted(p, func=func):
            calls[0] += 1
            return func(p)
        model.maps[name] = counted
    return calls


def test_relations_bundle_shares_power_trajectories():
    # Per point, the Sn_hyperelliptic relations bundle walks one x chain
    # of 2n steps (x^2n, x^n, x^(2n-1) and x), one u chain of 4n steps
    # (u^4n, u^-1 = u^(4n-1) and u^2) and one y chain of 4 steps (y^4,
    # y^-1 = y^3, y^2 and y).  Beyond those first factors, y^-1 x y takes
    # 1 + 3 steps after y, u y^-1 one u step after y^3, and y u^-1 one y
    # step after u^(4n-1): 2n + 4n + 4 + 4 + 1 + 1 = 6n + 10.  Word by
    # word the same checks take 2n + (2 + n) + (5 + 2n - 1) + (2 + 1)
    # + 4n + 4 + (4 + 4n) = 13n + 17 steps per point.
    n = 8
    model = CurveModel("Sn_hyperelliptic", n)
    calls = _count_steps(model)
    reports = verify_dicyclic_relations(model)
    assert calls[0] == 100 * (6 * n + 10)
    calls[0] = 0
    alone = [sampler._verify_bundle(model, [check], 1e-9, 100, 0)[0]
             for check in (([("x", 2 * n)], []),
                           ([("y", 2)], [("x", n)]),
                           ([("y", -1), ("x", 1), ("y", 1)], [("x", -1)]),
                           ([("u", 2)], [("x", 1)]),
                           ([("u", 4 * n)], []),
                           ([("y", 4)], []),
                           ([("u", 1), ("y", -1)], [("y", 1), ("u", -1)]))]
    assert calls[0] == 100 * (13 * n + 17)
    assert alone == reports


def test_model_words_share_the_relation_trajectories():
    # On Sn_hyperelliptic the anticonformal words read u^-1 = u^(4n-1)
    # and y^-1 = y^3 off the relations' u and y chains: beyond the
    # relations' 6n + 10 steps per point they take tau^2 (2 steps) and
    # u then tau, y then tau after the shared tau (2 + 2), so 6n + 16.
    # Alone the anticonformal bundle takes 2 + 2 + (4n - 1) + 2 + 3
    # = 4n + 8, and the two bundles 10n + 18.  On Rn_hyperelliptic,
    # whose u has order 2n, the anticonformal words add those 6 steps
    # to the relations' 2n (x) + 4 (y) + 1 + 3 (y^-1 x y) + 2n (u)
    # + 2 (y^2 after u^2) = 4n + 10; alone they take 2n + 8.
    for name, n, relations_steps, joint_steps, two_bundles_steps in (
        ("Sn_hyperelliptic", 8, 6 * 8 + 10, 6 * 8 + 16, 10 * 8 + 18),
        ("Rn_hyperelliptic", 7, 4 * 7 + 10, 4 * 7 + 16, 4 * 7 + 10 + 2 * 7 + 8),
    ):
        model = CurveModel(name, n)
        calls = _count_steps(model)
        relations, anticonformal = sampler.verify_model_words(model)
        assert calls[0] == 100 * joint_steps, name
        calls[0] = 0
        alone = verify_dicyclic_relations(model)
        assert calls[0] == 100 * relations_steps, name
        alone_anticonformal = verify_anticonformal(model)
        assert calls[0] == 100 * two_bundles_steps, name
        assert relations + anticonformal == alone + alone_anticonformal
    relations, anticonformal = sampler.verify_model_words(CurveModel("Sn_cyclic", 4))
    assert anticonformal == [] and len(relations) == 3


def test_planted_redraws_resample_like_the_word_by_word_oracle(monkeypatch):
    # Redraw points planted at the first and the last trial and at
    # trials 9 and 10: each planted point is 5e-4 from a branch point, so
    # every word stops before its first step and each check redraws it
    # once, in trial order.
    cases = []
    for trials in (1, 9, 11, 37):
        slots = sorted({0, 9, 10, trials - 1} & set(range(trials)))
        for n, name in ((3, "Sn_hyperelliptic"), (3, "Rn_hyperelliptic"),
                        (4, "Sn_cyclic"), (5, "Rn_cyclic")):
            model = CurveModel(name, n)
            locus = model.branch_locus()
            points = model.sample_points(trials, 6)
            for slot in slots:
                points[slot] = _near(model, locus[1 + slot % 2], 5e-4)
            model._samples[trials, 6] = points
            cases.append((model, trials, len(slots)))

    def reports(model, trials):
        relations, anticonformal = sampler.verify_model_words(
            model, trials=trials, seed=6)
        alone = verify_dicyclic_relations(model, trials=trials, seed=6)
        if model.name.endswith("hyperelliptic"):
            alone += verify_anticonformal(model, trials=trials, seed=6)
        return json.dumps(relations + anticonformal + alone)

    fast = [reports(model, trials) for model, trials, _ in cases]
    monkeypatch.setattr(sampler, "_verify_bundle", _scan_verify_bundle)
    for (model, trials, planted), got in zip(cases, fast):
        assert got == reports(model, trials), (model.name, trials)
        assert all(r["resampled"] == planted for r in json.loads(got)), (
            model.name, trials)


def test_walker_state_per_point_does_not_grow_with_trials(monkeypatch):
    # Each start point walks into a state of its own, one slot per node
    # of the plan, so the state a bundle holds is the same size whatever
    # the number of trials.
    walk = sampler._walk
    sizes = []

    def recording(model, trails, size, start):
        state = walk(model, trails, size, start)
        sizes.append(len(state))
        return state

    monkeypatch.setattr(sampler, "_walk", recording)

    def walked(trials):
        sizes.clear()
        sampler.verify_model_words(CurveModel("Sn_hyperelliptic", 4), trials=trials)
        return list(sizes)

    ten, many = walked(10), walked(53)
    assert len(ten) == 10 and len(many) == 53
    assert set(ten) == set(many) and len(set(ten)) == 1


def test_order_relations_are_not_vacuous():
    # m^order = 1 applies its steps: a wrong root of unity fails it, and
    # on the true model the report is the error of an explicit loop of
    # `order` map steps from each sample point
    for n in range(2, 9):
        for name in applicable_models(n):
            model = CurveModel(name, n)
            wrong = {r["word"]: r
                     for r in verify_dicyclic_relations(
                         CurveModel(name, n, perturb=1e-2))}
            assert not wrong[f"x^{2 * n} = 1"]["pass"], (n, name)
            if name == "Sn_hyperelliptic":
                assert not wrong[f"u^{4 * n} = 1"]["pass"], n
            if name == "Rn_hyperelliptic":
                assert not wrong[f"u^{2 * n} = 1"]["pass"], n
            reports = verify_dicyclic_relations(model)
            if "tau" in model.maps:
                reports += verify_anticonformal(model)
            for map_name, m in model.maps.items():
                order = model.orders[map_name]
                description = f"{map_name}^{order} = 1"
                matching = [r for r in reports if r["word"] == description]
                if map_name == "xy" or not matching:
                    continue
                (report,) = matching
                errors = []
                for p in model.sample_points(100, 0):
                    q, drift = p, 0.0
                    for _ in range(order):
                        q = m(q)
                        lhs, rhs = _relation_sides(model, q)
                        drift = max(drift, _relative(lhs - rhs, lhs, rhs))
                    errors.append(max(_relative(q[0] - p[0], p[0]),
                                      _relative(q[1] - p[1], p[1]), drift))
                assert report["resampled"] == 0
                assert report["max_error"] == max(errors), (n, name, description)
                assert report["max_error"] > 0.0, (n, name, description)


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
    other = CurveModel(model.name, model.n, perturb=1e-2)
    assert other._samples == {}
    other.sample_points(30, seed=4)
    assert other._samples is not model._samples


def test_step_loop_stops_in_the_exclusion_zone():
    for name in ("Sn_hyperelliptic", "Rn_hyperelliptic"):
        model = CurveModel(name, 3)
        for b in model.branch_locus()[1:]:
            p = model.lift(b * (1 + BRANCH_DISTANCE / 2))
            assert _one_step(model, "x", p) is None, (name, b)


def test_sampler_rejects_points_in_the_exclusion_zone(monkeypatch):
    # every modulus counts as near the unit circle, and every point is in
    # the zone: a sampler that admits any point fails here
    monkeypatch.setattr(sampler, "SHELL", float("inf"))
    model = CurveModel("Sn_hyperelliptic", 3)
    model.branch_distance = lambda z: 0.0
    with pytest.raises(SamplingError):
        model.sample_points(2, seed=0)
