"""Seed derivation, session reproducibility and the tournament harness."""

import gc
import inspect
import json
import os
import re
import tracemalloc
from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negoteam import tournament
from negoteam.domain import hotel_booking
from negoteam.opponents import ARCHETYPES
from negoteam.protocol import ActionKind, load_transcript, run_session, transcript_to_dict, transcripts_equal
from negoteam.report import sessions_to_csv
from negoteam.team import STRATEGIES, MemberSpec, TeamConfig, team_config_from_dict
from negoteam.tournament import (
    DEFAULT_MASTER_SEED,
    OpponentConfig,
    TournamentConfig,
    derive_seed,
    desk_config,
    rebuild_session,
    run_pairing_session,
    run_tournament,
    tournament_config_from_dict,
    tournament_config_to_dict,
    transcript_name,
)


def test_derive_seed_is_stable_across_runs():
    # frozen value; a change here breaks replay of every stored transcript
    assert derive_seed(12345, "FUM B", "TFT", 0) == 442677396136203030
    assert derive_seed(12345) == 3031205927308465241


def test_derive_seed_separates_parts_and_order():
    assert derive_seed("a", "b") != derive_seed("b", "a")
    assert derive_seed(1, 2) != derive_seed(12)
    assert len({derive_seed(DEFAULT_MASTER_SEED, "t", "o", r) for r in range(50)}) == 50


def tiny_team(strategy="SSV", name="team-under-test"):
    return TeamConfig(name=name, strategy=strategy, beta_range=(0.5, 0.99))


def test_pairing_session_is_reproducible():
    scenario = hotel_booking()
    team = tiny_team()
    opp = OpponentConfig(name="tft", archetype="nice_tft_like")
    rec_a, tr_a = run_pairing_session(scenario, team, opp, 0, 99, max_rounds=60)
    rec_b, tr_b = run_pairing_session(scenario, team, opp, 0, 99, max_rounds=60)
    assert rec_a == rec_b
    assert transcripts_equal(tr_a, tr_b)


def test_repetition_parity_sets_the_initiator():
    scenario = hotel_booking()
    team = tiny_team()
    opp = OpponentConfig(name="smith", archetype="smith_like")
    rec0, _ = run_pairing_session(scenario, team, opp, 0, 7, max_rounds=40)
    rec1, _ = run_pairing_session(scenario, team, opp, 1, 7, max_rounds=40)
    assert rec0.initiator == "team"
    assert rec1.initiator == "opponent"
    assert rec0.seed != rec1.seed


@pytest.mark.parametrize("strategy", ["RE", "SSV", "SBV", "FUM"])
def test_rebuild_replays_the_identical_transcript(strategy):
    scenario = hotel_booking()
    team = tiny_team(strategy=strategy)
    opp = OpponentConfig(name="k", archetype="agent_k_like")
    _, transcript = run_pairing_session(scenario, team, opp, 3, 11, max_rounds=60)

    team_party, opponent_party, config = rebuild_session(transcript.config)
    replayed, _ = run_session(team_party, opponent_party, config)
    assert transcripts_equal(transcript, replayed)


# a representative archetype with one of its parameters off its default
REPRESENTATIVE_PARAMS = {
    "crazy_haggler": st.fixed_dictionaries({"threshold": st.floats(0.5, 1.0)}),
    "agent_k_like": st.fixed_dictionaries({"gamma": st.floats(0.5, 6.0)}),
    "haggler_adaptive": st.fixed_dictionaries({"base": st.floats(0.6, 1.0)}),
    "smith_like": st.fixed_dictionaries({"floor": st.floats(0.2, 0.9)}),
}


@st.composite
def random_cells(draw):
    """A (scenario, team, opponent, repetition, master seed, max rounds) cell."""
    scenario = hotel_booking()
    lows = st.floats(0.05, 2.0)
    members = [
        MemberSpec(
            beta=draw(st.none() | st.floats(0.05, 3.0)),
            beta_range=draw(st.tuples(lows, st.floats(0.0, 1.0)).map(lambda r: (r[0], r[0] + r[1]))),
            reservation_utility=draw(st.floats(0.05, 0.5)),
        )
        for _ in scenario.team_profiles
    ]
    strategy = draw(st.sampled_from(sorted(STRATEGIES)))
    # only the strategy that reads a field has it drawn, and stored
    only = {}
    if strategy == "FUM":
        only["agenda_observation_rounds"] = draw(st.integers(1, 6))
    if strategy == "RE":
        behavior = draw(st.sampled_from(["time_tactic", *REPRESENTATIVE_PARAMS]))
        only["representative_behavior"] = behavior
        if behavior in REPRESENTATIVE_PARAMS:
            only["representative_params"] = draw(REPRESENTATIVE_PARAMS[behavior])
    team = TeamConfig(
        name="drawn",
        strategy=strategy,
        members=members,
        **only,
    )
    opp = OpponentConfig(name="opp", archetype=draw(st.sampled_from(sorted(ARCHETYPES))))
    repetition = draw(st.integers(0, 50))
    master_seed = draw(st.integers(0, 2**63 - 1))
    return scenario, team, opp, repetition, master_seed, draw(st.integers(1, 30))


@settings(max_examples=60, deadline=None)
@given(cell=random_cells())
def test_the_metadata_alone_determines_the_session(cell):
    scenario, team, opp, repetition, master_seed, _ = cell
    record, transcript = run_pairing_session(*cell)
    assert (record.team, record.opponent, record.repetition) == (team.name, opp.name, repetition)
    assert record.seed == derive_seed(master_seed, team.name, opp.name, repetition)
    # through JSON, as a transcript file carries the metadata
    meta = json.loads(json.dumps(transcript.config))
    # the metadata drops nothing of the config the session was played from,
    # and adds to it only the members the session resolved
    team_doc = dict(meta["team"])
    assert len(team_doc.pop("resolved_members")) == len(scenario.team_profiles)
    assert team_config_from_dict(team_doc) == team
    assert OpponentConfig(**meta["opponent"]) == opp
    replayed, outcome = run_session(*rebuild_session(meta))
    assert transcripts_equal(transcript, replayed)
    assert tournament._record_from_outcome(meta, outcome) == record
    # the protocol's invariants: an accept takes the other side's standing
    # offer and ends the session; agreements score in [0, 1], failures zero
    entries = transcript.entries
    for i, entry in enumerate(entries):
        if entry.action.kind is ActionKind.ACCEPT:
            standing = entries[i - 1]
            assert i == len(entries) - 1 and i > 0
            assert standing.action.kind is ActionKind.PROPOSE and standing.party != entry.party
            assert np.array_equal(outcome.offer, standing.action.offer)
    assert outcome.agreement == (entries[-1].action.kind is ActionKind.ACCEPT)
    if outcome.agreement:
        assert all(0.0 <= u <= 1.0 for u in outcome.utilities.values())
        assert 0.0 <= outcome.joint_utility <= 1.0
    else:
        assert set(outcome.utilities.values()) == {0.0} and outcome.joint_utility == 0.0
        assert record.team_average == record.opponent_utility == 0.0


def test_a_finished_session_keeps_its_actions_compactly():
    # bytes per action still allocated once a 1000-round session has
    # finished, its record and transcript kept: columns hold about 53, an
    # entry, action and offer array per action held 383
    config = desk_config(repetitions=1)
    team = next(t for t in config.teams if t.name == "FUM VB")
    crazy = next(o for o in config.opponents if o.name == "Crazy")

    def play():
        return run_pairing_session(config.scenario, team, crazy, 0, config.master_seed, 1000)

    play()  # imports and caches settle outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = play()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    actions = len(kept[1])
    assert actions > 1500
    assert retained / actions <= 128


def test_stonewalling_pairing_fails_with_all_zeros():
    scenario = hotel_booking()
    team = tiny_team()
    wall = OpponentConfig(name="wall", archetype="crazy_haggler", params={"threshold": 1.0})
    record, transcript = run_pairing_session(scenario, team, wall, 0, 5, max_rounds=50)
    assert not record.agreement
    assert record.reason == "deadline"
    assert record.team_average == 0.0
    assert record.team_min == 0.0 and record.team_max == 0.0
    assert record.opponent_utility == 0.0
    assert record.joint_utility == 0.0
    assert set(record.member_utilities.values()) == {0.0}
    assert transcript.outcome.rounds_used == 50


def test_record_summarises_member_utilities():
    scenario = hotel_booking()
    team = tiny_team()
    opp = OpponentConfig(name="tft", archetype="nice_tft_like")
    record, transcript = run_pairing_session(scenario, team, opp, 0, 123, max_rounds=400)
    assert record.agreement
    values = list(record.member_utilities.values())
    assert record.team_average == pytest.approx(sum(values) / len(values))
    assert record.team_min == pytest.approx(min(values))
    assert record.team_max == pytest.approx(max(values))
    product = record.opponent_utility
    for v in values:
        product *= v
    assert record.joint_utility == pytest.approx(product)
    assert set(record.member_utilities) == {p.name for p in scenario.team_profiles}


def test_run_tournament_covers_the_grid_in_order(monkeypatch, tmp_path):
    config = TournamentConfig(
        scenario=hotel_booking(),
        teams=[tiny_team(name="one"), tiny_team(strategy="FUM", name="two")],
        opponents=[
            OpponentConfig(name="tft", archetype="nice_tft_like"),
            OpponentConfig(name="smith", archetype="smith_like"),
        ],
        repetitions=2,
        max_rounds=30,
        master_seed=1,
    )
    # a session that raises stops the run the same way on any CPU count; the
    # bad team is swapped in after loading, which would have rejected it
    short = TeamConfig(name="short", strategy="SSV", members=[MemberSpec(beta=1.0)])
    failing = TournamentConfig(
        scenario=config.scenario, teams=[tiny_team()], opponents=config.opponents, repetitions=2
    )
    failing.teams = [short]
    # one CPU plays in this process, two through a pool of two workers; chunks
    # of two cells give each run several chunks to hand to the pool
    handed = []

    class CountingPool(futures.ProcessPoolExecutor):
        def map(self, fn, chunks):
            chunks = list(chunks)
            handed.append(len(chunks))
            return super().map(fn, chunks)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(tournament, "CHUNK_CELLS", 2)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        written = tmp_path / f"cpus{cpus}"
        records = run_tournament(config, transcripts_dir=written)
        files = {p.name: p.read_bytes() for p in written.iterdir()}
        assert sorted(files) == sorted(transcript_name(r.team, r.opponent, r.repetition) for r in records)
        runs[cpus] = records, files
        with pytest.raises(ValueError, match="'short' declares 1 members for 3 team profiles"):
            run_tournament(failing)
    # only the two-CPU runs use the pool: the grid's 8 cells and the failing 4
    assert handed == [4, 2]
    records, files = runs[2]
    assert len(records) == 2 * 2 * 2
    assert [(r.team, r.opponent, r.repetition) for r in records] == [
        (t, o, rep)
        for t in ("one", "two")
        for o in ("tft", "smith")
        for rep in (0, 1)
    ]
    in_process, files_in_process = runs[1]
    assert records == in_process
    assert sessions_to_csv(records) == sessions_to_csv(in_process)
    # the workers wrote the same files, byte for byte, as this process did
    assert files == files_in_process
    # each cell matches the session run standalone
    solo, _ = run_pairing_session(
        config.scenario, config.teams[1], config.opponents[0], 1, 1, max_rounds=30
    )
    assert records[5] == solo


def test_chunks_are_capped_and_spread_over_the_cpus():
    def sizes(n_cells, cpus):
        return [len(chunk) for chunk in tournament._chunk_cells(list(range(n_cells)), cpus)]

    assert tournament.CHUNK_CELLS == 10
    assert sizes(350, 2) == [10] * 35
    assert sizes(70, 4) == [10] * 7
    assert sizes(8, 2) == [4, 4]
    assert sizes(13, 2) == [7, 6]
    assert sizes(13, 1) == [10, 3]
    assert sizes(3, 8) == [1, 1, 1]
    assert sizes(0, 2) == []


def test_lockstep_chunks_match_sessions_played_one_at_a_time(monkeypatch, tmp_path):
    # every strategy against every desk opponent, both initiators, in chunks
    # whose sessions end at different rounds
    desk = desk_config()
    teams = [t for t in desk.teams if t.name in ("FUM B", "RE K", "SSV VB", "SBV B")]
    teams.append(TeamConfig(name="RE T", strategy="RE", beta_range=(0.5, 0.99)))
    config = TournamentConfig(
        scenario=desk.scenario,
        teams=teams,
        opponents=desk.opponents,
        repetitions=2,
        max_rounds=80,
        master_seed=5,
    )
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    records = run_tournament(config, transcripts_dir=tmp_path)
    assert len(records) == 5 * 5 * 2 > tournament.CHUNK_CELLS
    assert {r.initiator for r in records} == {"team", "opponent"}
    assert len({r.rounds_used for r in records}) > 5
    for record in records:
        team = next(t for t in teams if t.name == record.team)
        opp = next(o for o in desk.opponents if o.name == record.opponent)
        alone, alone_transcript = run_pairing_session(
            config.scenario, team, opp, record.repetition, config.master_seed, config.max_rounds
        )
        assert record == alone
        written = load_transcript(tmp_path / transcript_name(record.team, record.opponent, record.repetition))
        assert transcripts_equal(written, alone_transcript)
        # through JSON, as the file went: it turns the metadata's tuples into lists
        assert transcript_to_dict(written) == json.loads(json.dumps(transcript_to_dict(alone_transcript)))


def test_config_validation():
    scenario = hotel_booking()
    with pytest.raises(ValueError):
        TournamentConfig(
            scenario=scenario,
            teams=[tiny_team(name="dup")],
            opponents=[OpponentConfig(name="dup", archetype="smith_like")],
        )
    with pytest.raises(ValueError):
        TournamentConfig(scenario=scenario, teams=[], opponents=[], repetitions=0)


def test_desk_config_shape():
    config = desk_config()
    assert [t.name for t in config.teams] == [
        "FUM B",
        "FUM VB",
        "RE K",
        "SSV B",
        "SSV VB",
        "SBV B",
        "SBV VB",
    ]
    assert [o.name for o in config.opponents] == ["Crazy", "Haggler", "K", "TFT", "Smith"]
    assert config.repetitions == 10
    assert config.max_rounds == 1000
    assert config.master_seed == DEFAULT_MASTER_SEED == 12345
    assert config.scenario.name == "hotel-booking"
    by_name = {t.name: t for t in config.teams}
    assert by_name["SSV B"].beta_range == (0.5, 0.99)
    assert by_name["SSV VB"].beta_range == (0.01, 0.4)
    assert by_name["RE K"].representative_behavior == "agent_k_like"
    assert by_name["FUM B"].strategy == "FUM"


def test_tournament_config_roundtrips_through_dict():
    doc = tournament_config_to_dict(desk_config(repetitions=3, max_rounds=77))
    assert tournament_config_to_dict(tournament_config_from_dict(doc)) == doc
    assert doc["tournament"] == {"repetitions": 3, "max_rounds": 77, "seed": 12345}


# --- load-time validation ---


def desk_doc():
    return tournament_config_to_dict(desk_config(repetitions=1, max_rounds=10))


def test_load_rejects_an_unknown_opponent_archetype():
    doc = desk_doc()
    doc["opponents"][0]["archetype"] = "crazy_hagler"
    with pytest.raises(ValueError, match="opponent 'Crazy': unknown archetype 'crazy_hagler'"):
        tournament_config_from_dict(doc)


def test_load_rejects_an_unknown_representative_behavior():
    doc = desk_doc()
    doc["teams"][2]["representative_behavior"] = "agent_kk"
    with pytest.raises(ValueError, match="unknown representative behavior 'agent_kk'"):
        tournament_config_from_dict(doc)


def test_load_rejects_an_opponent_params_key_the_archetype_does_not_take():
    doc = desk_doc()
    doc["opponents"][0]["params"] = {"treshold": 0.9}
    with pytest.raises(ValueError, match="takes no parameter 'treshold'"):
        tournament_config_from_dict(doc)


def test_load_rejects_a_representative_params_key_the_archetype_does_not_take():
    doc = desk_doc()
    doc["teams"][2]["representative_params"] = {"gama": 2.0}
    with pytest.raises(ValueError, match="'RE K' representative: .* no parameter 'gama'"):
        tournament_config_from_dict(doc)
    # a time-tactic representative runs its member tactic and takes no params
    doc = desk_doc()
    doc["teams"][2].update(representative_behavior="time_tactic", representative_params={"beta": 0.2})
    with pytest.raises(ValueError, match="representative_params"):
        tournament_config_from_dict(doc)


@pytest.mark.parametrize("beta_range", [[0.99, 0.5], [0.0, 0.5], [-0.1, 0.5], [0.5, float("inf")]])
def test_load_rejects_a_beta_range_outside_zero_lo_hi(beta_range):
    doc = desk_doc()
    doc["teams"][0]["beta_range"] = beta_range
    with pytest.raises(ValueError, match="beta_range"):
        tournament_config_from_dict(doc)
    doc = desk_doc()
    doc["teams"][3]["members"] = [{"beta_range": beta_range}, {"beta": 1.0}, {"beta": 1.0}]
    with pytest.raises(ValueError, match="'SSV B' member 0 beta_range"):
        tournament_config_from_dict(doc)


def test_load_rejects_a_fixed_member_beta_that_is_not_positive():
    doc = desk_doc()
    doc["teams"][3]["members"] = [{"beta": 1.0}, {"beta": 0.0}, {"beta": 1.0}]
    with pytest.raises(ValueError, match="'SSV B' member 1 beta must be positive"):
        tournament_config_from_dict(doc)


def test_load_rejects_a_member_left_without_a_beta():
    doc = desk_doc()
    del doc["teams"][3]["beta_range"]
    doc["teams"][3]["members"] = [{"beta": 1.0}, {"reservation_utility": 0.1}, {"beta_range": [0.5, 0.9]}]
    with pytest.raises(ValueError, match="'SSV B' member 1 needs a beta or a beta_range"):
        tournament_config_from_dict(doc)
    del doc["teams"][3]["members"]
    with pytest.raises(ValueError, match="'SSV B' gives no members, so it needs a beta_range"):
        tournament_config_from_dict(doc)


def test_load_rejects_a_member_reservation_utility_outside_zero_one():
    doc = desk_doc()
    doc["teams"][3]["members"] = [{"beta": 1.0}, {"beta": 1.0}, {"beta": 1.0, "reservation_utility": 2.0}]
    with pytest.raises(ValueError, match=r"'SSV B' member 2 reservation_utility must lie in \[0, 1\]"):
        tournament_config_from_dict(doc)


def test_load_rejects_a_unanimity_team_whose_members_disagree_on_a_direction():
    doc = desk_doc()
    doc["scenario"]["profiles"][1]["directions"][2] = "decreasing"
    with pytest.raises(ValueError, match="team 'FUM B': .*'a1' and 'a2' disagree on 'payment_deadline'"):
        tournament_config_from_dict(doc)
    # voting and representative teams take members of any direction
    doc["teams"] = [t for t in doc["teams"] if t["strategy"] != "FUM"]
    tournament_config_from_dict(doc)


@pytest.mark.parametrize("key", ["base", "slope", "sigma_mult"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_load_rejects_non_finite_haggler_parameters(key, value):
    doc = desk_doc()
    doc["opponents"][1]["params"] = {key: value}
    with pytest.raises(ValueError, match="opponent 'Haggler': .*finite"):
        tournament_config_from_dict(doc)


# every parameter of every archetype, as a config names it
ARCHETYPE_PARAMETERS = [
    (archetype, key)
    for archetype, factory in ARCHETYPES.items()
    for key in inspect.signature(factory).parameters
    if key not in ("profile", "rng")
]


@pytest.mark.parametrize("archetype, key", ARCHETYPE_PARAMETERS)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_load_rejects_a_non_finite_archetype_parameter(archetype, key, value):
    doc = desk_doc()
    doc["opponents"][0].update(archetype=archetype, params={key: value})
    message = f"opponent 'Crazy': archetype '{archetype}' parameter '{key}' must be finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        tournament_config_from_dict(doc)
    if archetype == "time_tactic":
        return  # a time-tactic representative takes no params
    doc = desk_doc()
    doc["teams"][2].update(representative_behavior=archetype, representative_params={key: value})
    message = f"team 'RE K' representative: archetype '{archetype}' parameter '{key}' must be finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        tournament_config_from_dict(doc)


def test_load_rejects_a_member_list_that_does_not_match_the_team_profiles():
    doc = desk_doc()
    doc["teams"][3]["members"] = [{"beta": 1.0}]
    with pytest.raises(ValueError, match="team 'SSV B' declares 1 members for 3 team profiles"):
        tournament_config_from_dict(doc)


def test_load_rejects_names_that_give_the_same_transcript_file_name():
    doc = desk_doc()
    doc["teams"][4]["name"] = "ssv-b"
    with pytest.raises(ValueError, match="team names 'SSV B' and 'ssv-b' give the same transcript file name"):
        tournament_config_from_dict(doc)
    doc = desk_doc()
    doc["opponents"][2]["name"] = "crazy!"
    with pytest.raises(ValueError, match="opponent names 'Crazy' and 'crazy!' give the same transcript"):
        tournament_config_from_dict(doc)
    # a team may share a slug with an opponent: the two sit in different parts of the name
    doc = desk_doc()
    doc["opponents"][2]["name"] = "fum-b"
    tournament_config_from_dict(doc)


@pytest.mark.parametrize("key", ["teams", "opponents"])
def test_load_rejects_an_empty_team_or_opponent_list(key):
    doc = desk_doc()
    doc[key] = []
    with pytest.raises(ValueError, match="at least one team and one opponent"):
        tournament_config_from_dict(doc)


def test_load_rejects_max_rounds_below_one():
    doc = desk_doc()
    doc["tournament"]["max_rounds"] = 0
    with pytest.raises(ValueError, match="max_rounds must be positive"):
        tournament_config_from_dict(doc)


def test_load_rejects_agenda_observation_rounds_below_one():
    doc = desk_doc()
    doc["teams"][0]["agenda_observation_rounds"] = 0
    with pytest.raises(ValueError, match="'FUM B': agenda_observation_rounds must be positive"):
        tournament_config_from_dict(doc)


@pytest.mark.parametrize(
    "path, key, value, message",
    [
        ((), "reps", 3, "config: unknown key 'reps'"),
        (("tournament",), "reps", 3, "tournament: unknown key 'reps'"),
        (("teams", 3), "beta_rnage", [0.1, 0.2], "team 'SSV B': unknown key 'beta_rnage'"),
        (("teams", 3, "members", 1), "bta", 0.5, "team 'SSV B' member 1: unknown key 'bta'"),
        (("opponents", 0), "parms", {"threshold": 0.5}, "opponent 'Crazy': unknown key 'parms'"),
        (("scenario",), "issue", [], "scenario: unknown key 'issue'"),
        (("scenario", "profiles", 0), "weight", 1.0, "profile 'a1': unknown key 'weight'"),
        # the sampler's parameters are constants of negoteam.tactics
        (("teams", 3), "sampler", {"utility_tolerence": 1e-3}, "team 'SSV B': unknown key 'sampler'"),
    ],
    ids=["top-level", "tournament", "team", "member", "opponent", "scenario", "profile", "sampler"],
)
def test_load_rejects_a_key_no_block_reads(path, key, value, message):
    doc = desk_doc()
    doc["teams"][3]["members"] = [{"beta": 0.5} for _ in range(3)]
    block = doc
    for step in path:
        block = block[step]
    block[key] = value
    with pytest.raises(ValueError, match=message):
        tournament_config_from_dict(doc)


@pytest.mark.parametrize(
    "path, key, value, message",
    [
        (("tournament",), "max_rounds", 99.9, "tournament: max_rounds must be an integer, got 99.9"),
        (("teams", 0), "agenda_observation_rounds", 2.5, "team 'FUM B': agenda_observation_rounds must be an integer"),
        (("tournament",), "repetitions", True, "tournament: repetitions must be an integer, got True"),
        (("tournament",), "seed", "7", "tournament: seed must be an integer, got '7'"),
        (
            ("opponents", 0, "params"),
            "threshold",
            True,
            "opponent 'Crazy': archetype 'crazy_haggler': parameter 'threshold' must be a number, got True",
        ),
        (("teams", 3, "members", 0), "beta", True, "team 'SSV B' member 0: beta must be a number, got True"),
        (
            ("opponents", 0, "params"),
            "threshold",
            10**400,
            "opponent 'Crazy': archetype 'crazy_haggler': parameter 'threshold' must be a number, "
            "got an integer too large for a float",
        ),
        (("teams", 0), "beta_range", [0.1, 10**400], "team 'FUM B': beta_range must be a number, got an integer too"),
    ],
    ids=[
        "fractional-max-rounds",
        "fractional-agenda-rounds",
        "bool-repetitions",
        "string-seed",
        "bool-param",
        "bool-beta",
        "huge-int-param",
        "huge-int-beta-range",
    ],
)
def test_load_rejects_a_number_of_the_wrong_kind(path, key, value, message):
    # JSON's true and "7" are not numbers, and 99.9 is not an integer: each
    # would otherwise load as 1, 7 or 99, or be written as given into transcripts
    doc = desk_doc()
    doc["teams"][3]["members"] = [{"beta": 0.5} for _ in range(3)]
    block = doc
    for step in path:
        block = block[step]
    block[key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        tournament_config_from_dict(doc)


@pytest.mark.parametrize(
    "index, key, value",
    [
        (3, "agenda_observation_rounds", 9),
        (0, "representative_behavior", "agent_k_like"),
        (2, "agenda_observation_rounds", 3),
    ],
    ids=["ssv-agenda-rounds", "fum-representative-behavior", "re-agenda-rounds"],
)
def test_load_rejects_a_team_key_its_strategy_never_reads(index, key, value):
    # only FUM infers an agenda, and only RE has a representative
    doc = desk_doc()
    doc["teams"][index][key] = value
    name = doc["teams"][index]["name"]
    with pytest.raises(ValueError, match=f"team '{name}': unknown key '{key}'"):
        tournament_config_from_dict(doc)
