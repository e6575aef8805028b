import json
import math

import numpy as np
import pytest

from negoteam.domain import (
    BUILTIN_SCENARIOS,
    Direction,
    PreferenceProfile,
    Scenario,
    as_offer,
    hotel_booking,
    ideal_offer,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    utility,
    utility_unchecked,
)


def _profile(weights, directions, name="p"):
    return PreferenceProfile(name=name, weights=np.array(weights), directions=tuple(directions))


def test_profile_weight_validation():
    with pytest.raises(ValueError):
        _profile([0.5, 0.4], [Direction.INCREASING, Direction.INCREASING])
    with pytest.raises(ValueError):
        _profile([-0.1, 1.1], [Direction.INCREASING, Direction.INCREASING])
    with pytest.raises(ValueError):
        _profile([0.5, 0.5], [Direction.INCREASING])


def test_a_non_finite_weight_fails_at_load(scenario):
    doc = scenario_to_dict(scenario)
    # json writes and reads NaN; NaN < 0 and |NaN - 1| > tol are both false
    doc["profiles"][1]["weights"] = [float("nan"), 0.5, 0.25, 0.25]
    with pytest.raises(ValueError, match="weights of 'a2' must be finite"):
        scenario_from_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("index, name", [(1, "a1"), (0, "op")], ids=["team-twice", "team-and-opponent"])
def test_a_scenario_rejects_a_repeated_profile_name(scenario, index, name):
    doc = scenario_to_dict(scenario)
    doc["profiles"][index]["name"] = name
    with pytest.raises(ValueError, match=f"profile name '{name}' appears more than once"):
        scenario_from_dict(doc)


def test_utility_is_affine_form():
    p = _profile([0.6, 0.4], [Direction.INCREASING, Direction.DECREASING])
    # u(x) = 0.6 x0 + 0.4 (1 - x1) = 0.4 + 0.6 x0 - 0.4 x1
    assert p.offset == pytest.approx(0.4)
    offer = np.array([0.5, 0.25])
    expected = 0.6 * 0.5 + 0.4 * 0.75
    assert utility(p, offer) == pytest.approx(expected, abs=1e-15)
    assert utility_unchecked(p, offer) == utility(p, offer)


def test_utility_bounds_at_extremes():
    p = _profile([0.6, 0.4], [Direction.INCREASING, Direction.DECREASING])
    assert utility(p, ideal_offer(p)) == pytest.approx(1.0, abs=1e-15)
    worst = 1.0 - ideal_offer(p)
    assert utility(p, worst) == pytest.approx(0.0, abs=1e-15)


def test_as_offer_rejects_bad_vectors():
    with pytest.raises(ValueError):
        as_offer([0.1, 1.2])
    with pytest.raises(ValueError):
        as_offer([[0.1], [0.2]])
    with pytest.raises(ValueError):
        as_offer([0.1, 0.2], n_issues=3)


def test_hotel_booking_weights_match_published_table():
    s = hotel_booking()
    by_name = {p.name: p for p in s.team_profiles}
    assert np.allclose(by_name["a1"].weights, [0.50, 0.10, 0.05, 0.35])
    assert np.allclose(by_name["a2"].weights, [0.25, 0.25, 0.25, 0.25])
    assert np.allclose(by_name["a3"].weights, [0.30, 0.50, 0.05, 0.15])
    assert np.allclose(s.opponent_profile.weights, [0.10, 0.50, 0.25, 0.15])
    for p in list(s.team_profiles) + [s.opponent_profile]:
        assert math.fsum(p.weights.tolist()) == 1.0


def test_hotel_booking_directions_oppose_on_every_issue():
    s = hotel_booking()
    for team_profile in s.team_profiles:
        for d_team, d_opp in zip(team_profile.directions, s.opponent_profile.directions):
            assert d_team != d_opp


def test_team_ideal_scores_zero_for_opponent(scenario):
    a1 = scenario.profile_by_name("a1")
    offer = ideal_offer(a1)
    assert utility(a1, offer) == 1.0
    assert utility(scenario.opponent_profile, offer) == 0.0


def test_scenario_roundtrip_through_dict(scenario):
    doc = scenario_to_dict(scenario)
    back = scenario_from_dict(doc)
    assert back.name == scenario.name
    assert back.issues == scenario.issues
    for orig, rebuilt in zip(scenario.team_profiles, back.team_profiles):
        assert orig.name == rebuilt.name
        assert np.array_equal(orig.weights, rebuilt.weights)
        assert orig.directions == rebuilt.directions
    assert np.array_equal(back.opponent_profile.weights, scenario.opponent_profile.weights)


def test_a_profile_reservation_utility_loads_only_as_zero(scenario):
    doc = scenario_to_dict(scenario)
    assert [p["reservation_utility"] for p in doc["profiles"]] == [0.0] * 4
    assert scenario_to_dict(scenario_from_dict(doc)) == doc
    # no agent reads it: a member spec or a time_tactic opponent's params set one
    doc["profiles"][1]["reservation_utility"] = 0.9
    with pytest.raises(ValueError, match="profile 'a2': reservation_utility must be 0; .*member.*time_tactic"):
        scenario_from_dict(doc)


def test_scenario_roundtrip_through_file(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(scenario)), encoding="utf-8")
    back = load_scenario(path)
    assert back.name == scenario.name
    assert np.array_equal(back.opponent_profile.weights, scenario.opponent_profile.weights)


def test_builtin_scenario_lookup():
    assert "hotel-booking" in BUILTIN_SCENARIOS
    s = load_scenario("hotel-booking")
    assert isinstance(s, Scenario)
    with pytest.raises(FileNotFoundError):
        load_scenario("no-such-scenario")
