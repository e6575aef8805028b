"""Concession curves and iso-utility offer sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negoteam import _kernels
from negoteam.domain import PreferenceProfile, ideal_offer, utility
from negoteam.tactics import (
    UTILITY_TOLERANCE,
    SampleRequest,
    TimeTactic,
    demand,
    sample_iso_offer,
    sample_iso_offers,
)


def make_profile(weights, directions, name="p"):
    return PreferenceProfile(
        name=name,
        weights=np.asarray(weights, dtype=np.float64),
        directions=tuple(directions),
    )


# --- demand curve ---


def test_demand_closed_form():
    for beta, ru, t in [(0.2, 0.1, 0.3), (1.0, 0.0, 0.5), (3.0, 0.25, 0.9)]:
        tactic = TimeTactic(beta=beta, reservation_utility=ru)
        expected = 1.0 - (1.0 - ru) * t ** (1.0 / beta)
        assert demand(tactic, t) == pytest.approx(expected, abs=1e-15)


def test_demand_endpoints_exact():
    tactic = TimeTactic(beta=0.37, reservation_utility=0.42)
    assert demand(tactic, 0.0) == 1.0
    assert demand(tactic, 1.0) == 0.42


def test_demand_rejects_bad_time():
    tactic = TimeTactic(beta=1.0)
    with pytest.raises(ValueError):
        demand(tactic, -0.01)
    with pytest.raises(ValueError):
        demand(tactic, 1.01)


def test_tactic_validation():
    with pytest.raises(ValueError):
        TimeTactic(beta=0.0)
    with pytest.raises(ValueError):
        TimeTactic(beta=-2.0)
    with pytest.raises(ValueError):
        TimeTactic(beta=1.0, reservation_utility=1.5)


@given(
    beta=st.floats(0.01, 100.0),
    ru=st.floats(0.0, 1.0),
    t1=st.floats(0.0, 1.0),
    t2=st.floats(0.0, 1.0),
)
def test_demand_monotone_nonincreasing(beta, ru, t1, t2):
    tactic = TimeTactic(beta=beta, reservation_utility=ru)
    lo, hi = min(t1, t2), max(t1, t2)
    assert demand(tactic, lo) >= demand(tactic, hi) - 1e-12


@given(beta=st.floats(0.01, 100.0), ru=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
def test_demand_bounded(beta, ru, t):
    tactic = TimeTactic(beta=beta, reservation_utility=ru)
    d = demand(tactic, t)
    assert ru - 1e-12 <= d <= 1.0 + 1e-12


@given(
    b1=st.floats(0.01, 10.0),
    b2=st.floats(0.01, 10.0),
    ru=st.floats(0.0, 0.99),
    t=st.floats(0.0, 1.0),
)
def test_smaller_beta_demands_more(b1, b2, t, ru):
    # beta below 1 holds out (boulware), above 1 caves early (conceder)
    lo, hi = min(b1, b2), max(b1, b2)
    d_lo = demand(TimeTactic(beta=lo, reservation_utility=ru), t)
    d_hi = demand(TimeTactic(beta=hi, reservation_utility=ru), t)
    assert d_lo >= d_hi - 1e-12


# --- iso-utility sampling ---


def test_sample_hits_target_within_tolerance(scenario, rng):
    profile = scenario.opponent_profile
    for target in (0.2, 0.5, 0.85):
        offer = sample_iso_offer(profile, target, None, rng)
        assert abs(utility(profile, offer) - target) <= UTILITY_TOLERANCE
        assert np.all(offer >= 0.0) and np.all(offer <= 1.0)


def test_sample_is_deterministic_per_seed(scenario):
    profile = scenario.team_profiles[0]
    a = sample_iso_offer(profile, 0.6, None, np.random.default_rng(7))
    b = sample_iso_offer(profile, 0.6, None, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_target_one_returns_ideal(scenario, rng):
    profile = scenario.team_profiles[0]
    offer = sample_iso_offer(profile, 1.0, None, rng)
    assert np.array_equal(offer, ideal_offer(profile))
    assert utility(profile, offer) == pytest.approx(1.0)


def test_target_outside_unit_interval_rejected(scenario, rng):
    profile = scenario.team_profiles[0]
    with pytest.raises(ValueError):
        sample_iso_offer(profile, -0.1, None, rng)
    with pytest.raises(ValueError):
        sample_iso_offer(profile, 1.1, None, rng)


def test_references_pull_choice_toward_them(scenario):
    # among on-target candidates the reference-aware pick is never farther
    # from the reference than the reference-free pick
    profile = scenario.opponent_profile
    ref = np.full(profile.n_issues, 0.5)
    free = sample_iso_offer(profile, 0.5, None, np.random.default_rng(11))
    pulled = sample_iso_offer(profile, 0.5, [ref], np.random.default_rng(11))
    assert np.linalg.norm(pulled - ref) <= np.linalg.norm(free - ref) + 1e-12


def test_unreachable_target_falls_back_to_ideal(scenario, rng):
    # target 0.9999 lies in a sliver near the ideal corner; candidates there
    # project onto box faces, where each iteration closes only the share of
    # the gap held by the unclipped issues, so ten of them leave every one of
    # the drawn candidates off target by more than the tolerance
    profile = scenario.team_profiles[1]
    offer = sample_iso_offer(profile, 0.9999, None, rng)
    assert np.array_equal(offer, ideal_offer(profile))


@given(target=st.floats(0.0, 0.999), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sample_on_target_property(target, seed):
    profile = make_profile([0.3, 0.45, 0.25], ["increasing", "decreasing", "increasing"])
    offer = sample_iso_offer(profile, target, None, np.random.default_rng(seed))
    u = utility(profile, offer)
    # fallback to the ideal offer is legitimate only when off-target
    assert abs(u - target) <= 1e-6 or np.array_equal(offer, ideal_offer(profile))


def test_stacked_sampling_mixes_issue_counts_and_references(scenario, monkeypatch):
    # requests with different reference sets come in one batch, which the
    # kernel serves in one call, and each gets exactly what it would get alone
    profiles = [*scenario.team_profiles, scenario.opponent_profile]
    refs = [(), [np.full(4, 0.3)], [np.full(4, 0.3), np.full(4, 0.8)], [np.full(4, 0.5)]]
    requests = [
        SampleRequest(profiles[i % 4], target, refs[i % 4], np.random.default_rng(i))
        for i, target in enumerate([0.5, 0.7, 1.0, 0.2, 0.9, 0.6, 0.4, 0.8])
    ]
    offers = sample_iso_offers(requests)
    for i, req in enumerate(requests):
        rng = np.random.default_rng(i)
        alone = sample_iso_offer(req.profile, req.target, list(req.references), rng)
        assert np.array_equal(offers[i], alone)
        assert offers[i].shape == (req.profile.n_issues,)
    # an agent at target 1 draws nothing
    assert np.array_equal(offers[2], ideal_offer(profiles[2]))
    assert requests[2].rng.random() == np.random.default_rng(2).random()
    with pytest.raises(ValueError):
        sample_iso_offers([req._replace(target=1.5) for req in requests[:2]])
    # a scenario's profiles share their issues, so one batch never mixes issue counts
    two_issues = make_profile([0.6, 0.4], ["increasing", "decreasing"], name="two")
    mixed = [*requests[:2], SampleRequest(two_issues, 0.5, (), np.random.default_rng(9))]
    with pytest.raises(ValueError, match="issue count"):
        sample_iso_offers(mixed)
    # a batch of target-1 requests alone makes no kernel call
    monkeypatch.setattr(_kernels, "choose_iso", None)
    ideals = sample_iso_offers([req._replace(target=1.0) for req in mixed])
    for offer, req in zip(ideals, mixed):
        assert np.array_equal(offer, ideal_offer(req.profile))


# --- candidate selection (runs in _kernels.choose_iso) ---


def test_select_candidate_skips_invalid():
    # no projection steps: the candidates are scored where they stand
    grad = np.array([[0.5, -0.5]])
    cands = np.array([[0.2, 0.2], [0.6, 0.5], [0.9, 0.9]])  # utilities 0.5, 0.55, 0.5
    refs = np.array([[0.6, 0.55]])
    point, _, found = _kernels.choose_iso(cands, grad, [0.5], [0.5], [1e-9], 0, [refs])
    # the off-target middle candidate is nearest the reference but never wins
    assert found[0] and np.array_equal(point[0], cands[2])


def test_select_candidate_tie_goes_to_lowest_index():
    # equal utilities and no references: the lowest index wins
    cands = np.array([[0.4, 0.6], [0.6, 0.4]])
    grad = np.array([[0.5, 0.5]])
    point, u, found = _kernels.choose_iso(cands, grad, [0.0], [0.5], [0.1], 0, [np.empty((0, 2))])
    assert found[0] and u[0] == 0.5 and np.array_equal(point[0], cands[0])
