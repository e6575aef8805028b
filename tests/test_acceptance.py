"""Acceptance gate: one test per contract the package must honour.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
contract. The comparison contracts (the three *_against_* tests) replay the
default experiment's pairings at twenty repetitions each and take a few
minutes; everything here is deterministic, seeded from the default master
seed.
"""

import math
import time

import numpy as np
import pytest

from negoteam.domain import hotel_booking
from negoteam.protocol import load_transcript, run_session, score, transcripts_equal
from negoteam.stats import anova_oneway, holm_adjust
from negoteam.tactics import TimeTactic, demand
from negoteam.team import TeamConfig, borda_scores, borda_winner, plurality_winner
from negoteam.tournament import (
    DEFAULT_MASTER_SEED,
    OpponentConfig,
    TournamentConfig,
    desk_config,
    rebuild_session,
    run_pairing_session,
    run_tournament,
    transcript_name,
)
from negoteam.report import sessions_to_csv

B_RANGE = (0.5, 0.99)
VB_RANGE = (0.01, 0.4)
COMPARISON_REPS = 20
FULL_ROUNDS = 1000

SCENARIO = hotel_booking()

DESK_OPPONENTS = {o.name: o for o in desk_config().opponents}
DESK_TEAMS = {t.name: t for t in desk_config().teams}
VOTING_TEAMS = ["SSV B", "SSV VB", "SBV B", "SBV VB"]
UNANIMITY_TEAMS = ["FUM B", "FUM VB"]


def run_cells(team_names, opponent_name, reps=COMPARISON_REPS, max_rounds=FULL_ROUNDS):
    """Each team's records against one desk opponent, played as a tournament.

    Every session derives its seed from the master seed and its own cell, so
    these are the records one ``run_pairing_session`` per cell gives.
    """
    config = TournamentConfig(
        scenario=SCENARIO,
        teams=[DESK_TEAMS[name] for name in team_names],
        opponents=[DESK_OPPONENTS[opponent_name]],
        repetitions=reps,
        max_rounds=max_rounds,
        master_seed=DEFAULT_MASTER_SEED,
    )
    out = {name: [] for name in team_names}
    for record in run_tournament(config):
        out[record.team].append(record)
    return out


def mean_team_utility(records):
    return sum(r.team_average for r in records) / len(records)


@pytest.fixture(scope="module")
def smith_cells():
    return run_cells(UNANIMITY_TEAMS + VOTING_TEAMS, "Smith")


@pytest.fixture(scope="module")
def crazy_cells():
    return run_cells(list(DESK_TEAMS), "Crazy")


@pytest.fixture(scope="module")
def tft_cells():
    return run_cells(UNANIMITY_TEAMS + VOTING_TEAMS, "TFT")


def test_concession_curves_follow_the_closed_form():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    for _ in range(10_000):
        beta = float(10.0 ** rng.uniform(-2.0, 2.0))
        ru = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 1.0))
        tactic = TimeTactic(beta=beta, reservation_utility=ru)
        expected = 1.0 - (1.0 - ru) * t ** (1.0 / beta)
        assert abs(demand(tactic, t) - expected) <= 1e-12
        assert demand(tactic, 0.0) == 1.0
        assert demand(tactic, 1.0) == ru
    assert time.perf_counter() - started < 1.0


def test_builtin_scenario_matches_the_published_weights():
    scenario = hotel_booking()
    expected = {
        "a1": [0.50, 0.10, 0.05, 0.35],
        "a2": [0.25, 0.25, 0.25, 0.25],
        "a3": [0.30, 0.50, 0.05, 0.15],
        "op": [0.10, 0.50, 0.25, 0.15],
    }
    profiles = {p.name: p for p in scenario.team_profiles}
    profiles[scenario.opponent_profile.name] = scenario.opponent_profile
    assert set(profiles) == set(expected)
    for name, weights in expected.items():
        assert profiles[name].weights.tolist() == weights
        assert math.fsum(weights) == 1.0


def test_voting_rules_agree_with_brute_force_on_1000_instances():
    rng = np.random.default_rng(31337)
    mismatches = 0
    for _ in range(1000):
        voters = int(rng.integers(1, 8))
        proposals = int(rng.integers(1, 8))
        marks = rng.random((voters, proposals)) < rng.uniform(0.2, 0.8)
        counts = marks.sum(axis=0)
        brute_plurality = min(p for p in range(proposals) if counts[p] == counts.max())
        if plurality_winner(marks) != brute_plurality:
            mismatches += 1

        utilities = rng.integers(0, 5, size=(voters, proposals)) / 4.0
        scores = [0] * proposals
        for row in utilities:
            order = sorted(range(proposals), key=lambda p: (-row[p], p))
            for position, proposal in enumerate(order):
                scores[proposal] += proposals - 1 - position
        brute_borda = min(p for p in range(proposals) if scores[p] == max(scores))
        if borda_scores(utilities).tolist() != scores or borda_winner(utilities) != brute_borda:
            mismatches += 1
    assert mismatches == 0


def test_unanimity_team_acceptances_clear_every_member_demand(tmp_path):
    teams = [
        TeamConfig(name="FUM acc B", strategy="FUM", beta_range=B_RANGE),
        TeamConfig(name="FUM acc VB", strategy="FUM", beta_range=VB_RANGE),
        TeamConfig(name="SBV acc B", strategy="SBV", beta_range=B_RANGE),
        TeamConfig(name="SBV acc VB", strategy="SBV", beta_range=VB_RANGE),
    ]
    opponents = [
        OpponentConfig(name=a, archetype=a)
        for a in (
            "crazy_haggler",
            "haggler_adaptive",
            "agent_k_like",
            "nice_tft_like",
            "smith_like",
            "time_tactic",
        )
    ]
    # every cell is the session run_pairing_session would play alone; the
    # tournament batches them and writes their transcripts
    config = TournamentConfig(
        scenario=SCENARIO,
        teams=teams,
        opponents=opponents,
        repetitions=9,
        max_rounds=200,
        master_seed=DEFAULT_MASTER_SEED,
    )
    sessions = 0
    team_acceptances = 0
    for record in run_tournament(config, transcripts_dir=tmp_path):
        rep = record.repetition
        transcript = load_transcript(tmp_path / transcript_name(record.team, record.opponent, rep))
        sessions += 1
        outcome = transcript.outcome
        if not (outcome.agreement and outcome.accepted_by == "team"):
            continue
        team_acceptances += 1
        for member in transcript.config["team"]["resolved_members"]:
            tactic = TimeTactic(
                beta=member["beta"],
                reservation_utility=member["reservation_utility"],
            )
            threshold = demand(tactic, outcome.accepted_at)
            achieved = record.member_utilities[member["profile"]]
            assert achieved >= threshold - 1e-9, (
                f"{record.team} vs {record.opponent} rep {rep}: member "
                f"{member['profile']} got {achieved:.6f}, demanded {threshold:.6f}"
            )
    assert sessions >= 200
    assert team_acceptances > 0


def test_representative_teams_reproduce_the_lone_negotiator(lone_twin):
    behaviors = ["time_tactic", "agent_k_like"]
    archetypes = list(DESK_OPPONENTS.values())
    for rep in range(50):
        team_cfg = TeamConfig(
            name=f"RE twin {rep % 2}",
            strategy="RE",
            beta_range=B_RANGE,
            representative_behavior=behaviors[rep % 2],
        )
        opp_cfg = archetypes[rep % len(archetypes)]
        _, transcript = run_pairing_session(
            SCENARIO, team_cfg, opp_cfg, rep, DEFAULT_MASTER_SEED, max_rounds=200
        )
        team_party, opponent_party, config = rebuild_session(transcript.config)
        twin = lone_twin(team_party.members, team_party.seed, team_cfg.representative_behavior)
        alone, _ = run_session(twin, opponent_party, config)
        # the twin scores only its own agent; scored for the whole team, its
        # session must be the team's, outcome and all
        profiles = {**team_party.utility_profiles, **opponent_party.utility_profiles}
        alone.outcome.utilities, alone.outcome.joint_utility = score(alone.outcome.offer, profiles)
        assert transcripts_equal(transcript, alone), f"rep {rep} diverged"


def test_very_boulware_outconcedes_boulware_against_the_endgame_mirror(smith_cells):
    means = {name: mean_team_utility(records) for name, records in smith_cells.items()}
    for strategy in ("FUM", "SSV", "SBV"):
        assert means[f"{strategy} VB"] > means[f"{strategy} B"], means
        assert means[f"{strategy} VB"] > 0.8, means


def test_stubborn_threshold_opponent_caps_team_gains(crazy_cells):
    for name, records in crazy_cells.items():
        for record in records:
            if record.agreement:
                assert record.opponent_utility >= 0.9 - 1e-9, (name, record.repetition)
        assert mean_team_utility(records) < 0.3, name


def test_reciprocator_rewards_unanimity_built_concessions(tft_cells):
    means = {name: mean_team_utility(records) for name, records in tft_cells.items()}
    best_voting = max(means[name] for name in VOTING_TEAMS)
    for name in UNANIMITY_TEAMS:
        assert means[name] > best_voting, means


def test_stonewalling_opponent_forces_an_all_zero_failure():
    team_cfg = TeamConfig(name="SSV walled", strategy="SSV", beta_range=B_RANGE)
    wall = OpponentConfig(name="wall", archetype="crazy_haggler", params={"threshold": 1.0})
    record, transcript = run_pairing_session(
        SCENARIO, team_cfg, wall, 0, DEFAULT_MASTER_SEED, max_rounds=FULL_ROUNDS
    )
    assert not record.agreement
    assert record.reason == "deadline"
    assert transcript.outcome.rounds_used == FULL_ROUNDS
    assert record.team_average == 0.0
    assert record.team_min == 0.0 and record.team_max == 0.0
    assert record.opponent_utility == 0.0
    assert record.joint_utility == 0.0
    assert set(record.member_utilities.values()) == {0.0}


def test_statistics_match_pinned_oracles():
    anova = anova_oneway([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0]])
    assert abs(anova.f_stat - 3.0) <= 1e-9
    adjusted = holm_adjust([0.01, 0.02, 0.03, 0.04])
    assert np.allclose(adjusted, [0.04, 0.06, 0.06, 0.06], atol=1e-12)


def test_default_experiment_is_fast_and_byte_reproducible():
    config = desk_config()
    started = time.perf_counter()
    records = run_tournament(config)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"default experiment took {elapsed:.1f}s"
    assert len(records) == 7 * 5 * 10
    first = sessions_to_csv(records)
    second = sessions_to_csv(run_tournament(desk_config()))
    assert first == second
