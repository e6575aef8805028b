"""Voting rules, agenda inference, offer building and the mediator strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negoteam.domain import PreferenceProfile
from negoteam.opponents import TimeTacticNegotiator
from negoteam.protocol import ActionKind, SessionConfig, run_session, score, transcripts_equal
from negoteam.tactics import TimeTactic, sample_iso_offer, sample_iso_offers
from negoteam.team import (
    STRATEGIES,
    BordaVotingTeam,
    MemberSpec,
    RepresentativeTeam,
    SimilarityVotingTeam,
    TeamConfig,
    TeamMember,
    UnanimityBuildTeam,
    borda_scores,
    borda_winner,
    build_unanimity_offer,
    derive_team_streams,
    infer_agenda,
    majority_accepts,
    make_team_party,
    plurality_winner,
    resolve_members,
    team_config_from_dict,
    team_config_to_dict,
    unanimity_accepts,
)


# --- acceptance votes ---


def test_majority_needs_strictly_more_than_half():
    assert majority_accepts([True, True, False])
    assert not majority_accepts([True, True, False, False])
    assert not majority_accepts([True, False, False])
    assert majority_accepts([True])
    assert not majority_accepts([False])
    with pytest.raises(ValueError):
        majority_accepts([])


def test_unanimity_needs_every_vote():
    assert unanimity_accepts([True, True, True])
    assert not unanimity_accepts([True, True, False])
    assert unanimity_accepts([True])
    with pytest.raises(ValueError):
        unanimity_accepts([])


# --- proposal votes against brute-force oracles ---


def brute_plurality(marks):
    counts = [sum(int(marks[v][p]) for v in range(len(marks))) for p in range(len(marks[0]))]
    best = 0
    for p, c in enumerate(counts):
        if c > counts[best]:
            best = p
    return best


def brute_borda(utilities):
    n_p = len(utilities[0])
    scores = [0] * n_p
    for row in utilities:
        order = sorted(range(n_p), key=lambda p: (-row[p], p))
        for position, proposal in enumerate(order):
            scores[proposal] += n_p - 1 - position
    best = 0
    for p, s in enumerate(scores):
        if s > scores[best]:
            best = p
    return scores, best


def test_plurality_against_brute_force(rng):
    for _ in range(300):
        voters = int(rng.integers(1, 7))
        proposals = int(rng.integers(1, 7))
        marks = rng.random((voters, proposals)) < 0.5
        assert plurality_winner(marks) == brute_plurality(marks.tolist())


@given(
    utilities=st.integers(1, 6).flatmap(
        # a few distinct values, so that a member often ties its own candidate
        lambda n: st.lists(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_similarity_pick_marks_what_each_member_finds_as_good_as_its_own(utilities):
    # member v's own candidate is proposal v; it marks every proposal worth
    # at least as much to it
    n = len(utilities)
    marks = np.empty((n, n), dtype=bool)
    for v in range(n):
        for p in range(n):
            marks[v, p] = utilities[v][p] >= utilities[v][v]
    assert SimilarityVotingTeam.pick(np.array(utilities)) == plurality_winner(marks)


def test_borda_against_brute_force(rng):
    for _ in range(300):
        voters = int(rng.integers(1, 6))
        proposals = int(rng.integers(1, 6))
        # quantised utilities force plenty of exact ties
        utilities = rng.integers(0, 4, size=(voters, proposals)) / 4.0
        ref_scores, ref_winner = brute_borda(utilities.tolist())
        assert borda_scores(utilities).tolist() == ref_scores
        assert borda_winner(utilities) == ref_winner


def test_borda_hand_example():
    utilities = np.array([[0.9, 0.5, 0.1], [0.2, 0.8, 0.5]])
    # voter 0 ranks 0>1>2, voter 1 ranks 1>2>0
    assert borda_scores(utilities).tolist() == [2.0, 3.0, 1.0]
    assert borda_winner(utilities) == 1


def test_borda_ties_favour_low_index():
    assert borda_scores(np.array([[0.5, 0.5]])).tolist() == [1.0, 0.0]
    assert borda_winner(np.array([[0.5, 0.5], [0.5, 0.5]])) == 0


def test_vote_matrix_shape_validation():
    with pytest.raises(ValueError):
        plurality_winner(np.empty((0, 0)))
    with pytest.raises(ValueError):
        borda_scores(np.array([0.5, 0.5]))


# --- agenda inference ---


def test_agenda_orders_by_observed_concession():
    signs = np.array([1.0, -1.0])
    offers = [np.array([0.2, 0.9]), np.array([0.5, 0.8]), np.array([0.5, 0.4])]
    # team gains 0.3 on issue 0, 0.1 + 0.4 on issue 1
    assert infer_agenda(offers, signs, window=5).tolist() == [1, 0]
    # a window of two only sees the first step, flipping the order
    assert infer_agenda(offers, signs, window=2).tolist() == [0, 1]


def test_agenda_falls_back_to_declaration_order():
    signs = np.array([1.0, 1.0, -1.0])
    assert infer_agenda([], signs, window=5).tolist() == [0, 1, 2]
    assert infer_agenda([np.zeros(3)], signs, window=5).tolist() == [0, 1, 2]
    still = [np.full(3, 0.5), np.full(3, 0.5), np.full(3, 0.5)]
    assert infer_agenda(still, signs, window=5).tolist() == [0, 1, 2]


def test_agenda_ignores_movement_against_the_team():
    signs = np.array([1.0, 1.0])
    offers = [np.array([0.5, 0.5]), np.array([0.1, 0.6])]
    # issue 0 moved against the team and must count as zero, not negative
    assert infer_agenda(offers, signs, window=5).tolist() == [1, 0]


# --- unanimity offer building ---


def test_build_single_member_stops_at_demand():
    values = build_unanimity_offer(
        weights=np.array([[0.5, 0.5]]),
        signs=np.array([1.0, 1.0]),
        demands=np.array([0.25]),
        agenda=[0, 1],
    )
    # issue 0 closes the whole gap; issue 1 is left at the team-worst extreme
    assert values.tolist() == [0.5, 0.0]


def test_build_leaves_unreached_issues_at_team_worst():
    values = build_unanimity_offer(
        weights=np.array([[0.5, 0.5]]),
        signs=np.array([1.0, -1.0]),
        demands=np.array([0.25]),
        agenda=[0, 1],
    )
    assert values.tolist() == [0.5, 1.0]


def test_build_two_members_keeps_most_demanding_request():
    values = build_unanimity_offer(
        weights=np.array([[0.6, 0.4], [0.2, 0.8]]),
        signs=np.array([1.0, -1.0]),
        demands=np.array([0.7, 0.6]),
        agenda=[0, 1],
    )
    # both want the full issue 0; on the decreasing issue 1 the lower value
    # (0.5 from the second member) is the stricter request
    assert values == pytest.approx([1.0, 0.5])
    # the build overshoots the first member: 0.6 + 0.4 * 0.5
    assert 0.6 * 1.0 + 0.4 * (1.0 - 0.5) == pytest.approx(0.8)


def test_build_respects_agenda_order():
    weights = np.array([[0.5, 0.5]])
    signs = np.array([1.0, 1.0])
    demands = np.array([0.25])
    first = build_unanimity_offer(weights, signs, demands, [0, 1])
    second = build_unanimity_offer(weights, signs, demands, [1, 0])
    assert first.tolist() == [0.5, 0.0]
    assert second.tolist() == [0.0, 0.5]


@st.composite
def build_instances(draw):
    n_members = draw(st.integers(1, 4))
    n_issues = draw(st.integers(1, 5))
    raw = draw(
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=n_issues, max_size=n_issues),
            min_size=n_members,
            max_size=n_members,
        )
    )
    weights = np.asarray(raw) + 1e-3  # keep every row summable
    weights /= weights.sum(axis=1, keepdims=True)
    signs = np.asarray(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n_issues, max_size=n_issues)))
    demands = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n_members, max_size=n_members)))
    agenda = draw(st.permutations(range(n_issues)))
    return weights, signs, demands, list(agenda)


@given(build_instances())
@settings(max_examples=200, deadline=None)
def test_build_meets_every_demand(instance):
    weights, signs, demands, agenda = instance
    values = build_unanimity_offer(weights, signs, demands, agenda)
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    valuations = np.where(signs > 0.0, values, 1.0 - values)
    achieved = weights @ valuations
    assert np.all(achieved >= demands - 1e-9)


# --- member plumbing ---


def linear_profile(name, weight_on_first, n=2, directions=None):
    weights = np.zeros(n)
    weights[0] = weight_on_first
    weights[1] = 1.0 - weight_on_first
    return PreferenceProfile(
        name=name,
        weights=weights,
        directions=tuple(directions or ["increasing"] * n),
    )


def make_members(betas, weight_on_first=(0.5, 0.5, 0.5)):
    return [
        TeamMember(
            profile=linear_profile(f"member_{i}", w),
            tactic=TimeTactic(beta=b),
        )
        for i, (b, w) in enumerate(zip(betas, weight_on_first))
    ]


def test_derive_team_streams_deterministic_and_distinct():
    med_a, members_a = derive_team_streams(99, 3)
    med_b, members_b = derive_team_streams(99, 3)
    assert med_a.random() == med_b.random()
    draws_a = [r.random() for r in members_a]
    draws_b = [r.random() for r in members_b]
    assert draws_a == draws_b
    assert len(set(draws_a)) == 3


def test_accept_votes_compare_utility_to_demand():
    team = SimilarityVotingTeam(make_members([1.0, 1.0, 1.0]), seed=1)
    offer = np.array([0.6, 0.6])
    # at t=0.5 every member demands 0.5 and the offer is worth 0.6
    assert team.accept_votes(offer, 0.5) == [True, True, True]
    assert team.accept_votes(offer, 0.1) == [False, False, False]


def test_majority_team_accepts_when_two_of_three_agree():
    # the third member weights the poor issue heavily and stays opposed
    members = make_members([1.0, 1.0, 1.0], weight_on_first=(0.9, 0.9, 0.0))
    team = SimilarityVotingTeam(members, seed=1)
    offer = np.array([0.7, 0.2])
    team.receive_offer(offer, 0.5)
    assert team.choose_action(0.5).kind is ActionKind.ACCEPT


def test_unanimity_team_rejects_on_a_single_holdout():
    members = make_members([1.0, 1.0, 1.0], weight_on_first=(0.9, 0.9, 0.0))
    holdout_offer = np.array([0.7, 0.2])
    for cls in (BordaVotingTeam, UnanimityBuildTeam):
        team = cls(members, seed=1)
        team.receive_offer(holdout_offer, 0.5)
        action = team.choose_action(0.5)
        assert action.kind is ActionKind.PROPOSE
        assert np.array_equal(team.last_team_offer, action.offer)


def test_proposals_track_member_demands(scenario):
    members = [
        TeamMember(profile=p, tactic=TimeTactic(beta=1.0)) for p in scenario.team_profiles
    ]
    team = SimilarityVotingTeam(members, seed=7)
    action = team.choose_action(0.3)
    assert action.kind is ActionKind.PROPOSE
    # the plurality winner is some member's candidate, on that member's
    # demand curve: at least one member values it at exactly its demand
    views = [m.utility(action.offer) for m in members]
    demands = [m.demand(0.3) for m in members]
    assert any(abs(v - d) <= 1e-6 for v, d in zip(views, demands))


@pytest.mark.parametrize("cls", [SimilarityVotingTeam, BordaVotingTeam])
def test_member_proposals_equal_one_sampler_call_per_member(scenario, cls):
    # the middle member demands 1 throughout, so it never draws; at t = 0
    # nobody draws
    tactics = [
        TimeTactic(beta=0.3),
        TimeTactic(beta=1.0, reservation_utility=1.0),
        TimeTactic(beta=2.0, reservation_utility=0.2),
    ]
    members = [TeamMember(profile=p, tactic=tt) for p, tt in zip(scenario.team_profiles, tactics)]
    team = cls(members, seed=11)
    _, clones = derive_team_streams(11, len(members))
    for t in (0.0, 0.2, 0.6, 0.95):
        got = sample_iso_offers(team.member_requests(t))
        refs = team.member_references()
        want = [
            sample_iso_offer(m.profile, m.demand(t), refs, rng)
            for m, rng in zip(members, clones)
        ]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        team.receive_offer(np.full(4, 0.4 + t / 4), t)
        team.last_team_offer = got[2]
    # every member stream was drawn from exactly as often
    assert [r.random() for r in team.member_rngs] == [r.random() for r in clones]


def test_unanimity_build_proposal_meets_every_member_demand():
    members = make_members([0.5, 1.0, 2.0], weight_on_first=(0.8, 0.5, 0.2))
    team = UnanimityBuildTeam(members, seed=3)
    for t in (0.0, 0.4, 0.9):
        action = team.choose_action(t)
        assert action.kind is ActionKind.PROPOSE
        for m in members:
            assert m.utility(action.offer) >= m.demand(t) - 1e-9


def test_unanimity_build_requires_aligned_directions():
    mismatched = [
        TeamMember(
            profile=linear_profile("a", 0.5, directions=["increasing", "increasing"]),
            tactic=TimeTactic(beta=1.0),
        ),
        TeamMember(
            profile=linear_profile("b", 0.5, directions=["increasing", "decreasing"]),
            tactic=TimeTactic(beta=1.0),
        ),
    ]
    with pytest.raises(ValueError):
        UnanimityBuildTeam(mismatched, seed=1)


def test_team_requires_members():
    with pytest.raises(ValueError):
        SimilarityVotingTeam([], seed=1)


# --- representative strategy ---


def opposing_profile(name="opponent", n=2):
    return PreferenceProfile(
        name=name, weights=np.full(n, 1.0 / n), directions=("decreasing",) * n
    )


def test_representative_draw_is_seed_stable():
    members = make_members([0.5, 1.0, 2.0])
    picks = {RepresentativeTeam(members, seed=5).representative_index for _ in range(3)}
    assert len(picks) == 1
    all_picks = {RepresentativeTeam(members, seed=s).representative_index for s in range(30)}
    assert all_picks == {0, 1, 2}


def test_representative_session_matches_lone_twin(lone_twin):
    members = make_members([0.5, 1.0, 2.0])
    config = SessionConfig(max_rounds=40)
    for seed in (3, 11, 29):
        team = RepresentativeTeam(members, seed=seed)
        opp = TimeTacticNegotiator(
            opposing_profile(), TimeTactic(beta=1.0), np.random.default_rng(seed + 1000)
        )
        with_team, _ = run_session(team, opp, config)

        twin = lone_twin(members, seed)
        opp2 = TimeTacticNegotiator(
            opposing_profile(), TimeTactic(beta=1.0), np.random.default_rng(seed + 1000)
        )
        alone, _ = run_session(twin, opp2, config)
        # the twin scores only its own agent; scored for the whole team, its
        # session must be the team's, outcome and all
        profiles = {**team.utility_profiles, **opp2.utility_profiles}
        alone.outcome.utilities, alone.outcome.joint_utility = score(alone.outcome.offer, profiles)
        assert transcripts_equal(with_team, alone)


def test_representative_can_run_an_archetype_behavior():
    members = make_members([1.0])
    team = RepresentativeTeam(
        members, seed=2, behavior="crazy_haggler", behavior_params={"threshold": 0.8}
    )
    action = team.choose_action(0.0)
    assert action.kind is ActionKind.PROPOSE
    assert members[0].utility(action.offer) >= 0.8 - 1e-6


# --- declarative configuration ---


def test_resolve_members_fixed_and_ranged(scenario):
    config = TeamConfig(
        name="mixed",
        strategy="SSV",
        beta_range=(0.5, 0.99),
        members=[MemberSpec(beta=0.7)] + [MemberSpec()] * (len(scenario.team_profiles) - 1),
    )
    members = resolve_members(config, scenario, np.random.default_rng(4))
    assert members[0].tactic.beta == 0.7
    for m in members[1:]:
        assert 0.5 <= m.tactic.beta <= 0.99


def test_resolve_members_validates_counts_and_ranges(scenario):
    too_many = TeamConfig(
        name="bad", strategy="SSV", members=[MemberSpec(beta=1.0)] * 99
    )
    with pytest.raises(ValueError):
        resolve_members(too_many, scenario, np.random.default_rng(0))
    # a team that leaves a member without a beta fails when it is configured
    with pytest.raises(ValueError, match="'bad' gives no members, so it needs a beta_range"):
        TeamConfig(name="bad", strategy="SSV")


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        TeamConfig(name="x", strategy="FULL_UNANIMITY")
    with pytest.raises(ValueError):
        TeamConfig(name="x", strategy="RE", representative_behavior="psychic")


def test_make_team_party_dispatches_per_strategy(scenario):
    rng = np.random.default_rng(6)
    for strategy, cls in STRATEGIES.items():
        config = TeamConfig(name=strategy.lower(), strategy=strategy, beta_range=(0.5, 0.99))
        members = resolve_members(config, scenario, rng)
        party = make_team_party(config, members, seed=8)
        assert isinstance(party, cls)
        assert party.strategy == strategy
    fum = TeamConfig(name="f", strategy="FUM", beta_range=(0.5, 0.99), agenda_observation_rounds=9)
    party = make_team_party(fum, resolve_members(fum, scenario, rng), seed=8)
    assert party.agenda_observation_rounds == 9


def test_team_config_roundtrips():
    configs = [
        TeamConfig(name="plain", strategy="SSV", beta_range=(0.5, 0.99)),
        TeamConfig(
            name="fixed",
            strategy="FUM",
            members=[MemberSpec(beta=0.8), MemberSpec(beta_range=(0.01, 0.4))],
            agenda_observation_rounds=7,
        ),
        TeamConfig(
            name="rep",
            strategy="RE",
            beta_range=(0.01, 0.4),
            representative_behavior="agent_k_like",
            representative_params={"gamma": 2.0},
        ),
    ]
    for config in configs:
        assert team_config_from_dict(team_config_to_dict(config)) == config
