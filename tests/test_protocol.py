"""Alternating-offers mechanics, scoring and transcript serialization."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from negoteam.domain import ideal_offer, utility
from negoteam.protocol import (
    Action,
    ActionKind,
    Outcome,
    Party,
    ProtocolViolation,
    SessionConfig,
    Transcript,
    first_divergence,
    load_transcript,
    run_session,
    run_sessions,
    save_transcript,
    score,
    transcript_from_dict,
    transcript_to_dict,
    transcripts_equal,
)
from negoteam.tactics import SampleRequest


class Scripted(Party):
    """Plays a fixed list of actions and records what it is shown."""

    def __init__(self, name, actions, profiles):
        self.name = name
        self._actions = iter(actions)
        self._profiles = profiles
        self.received = []

    @property
    def utility_profiles(self):
        return self._profiles

    def receive_offer(self, offer, t):
        self.received.append((t, offer.copy()))

    def decide(self, t):
        return next(self._actions)
        yield  # asks for no offers


def scripted_pair(scenario, team_actions, opp_actions):
    team = Scripted("team", team_actions, {"member_0": scenario.team_profiles[0]})
    opp = Scripted("opponent", opp_actions, {"opponent": scenario.opponent_profile})
    return team, opp


def test_entries_alternate_in_initiator_order(scenario):
    x = np.full(4, 0.5)
    team, opp = scripted_pair(scenario, [Action.propose(x)] * 3, [Action.propose(x)] * 3)
    transcript, _ = run_session(team, opp, SessionConfig(max_rounds=3, initiator="team"))
    assert [e.party for e in transcript.entries] == ["team", "opponent"] * 3
    assert [e.round for e in transcript.entries] == [0, 0, 1, 1, 2, 2]
    assert [e.t for e in transcript.entries] == [0.0, 0.0, 1 / 3, 1 / 3, 2 / 3, 2 / 3]

    team, opp = scripted_pair(scenario, [Action.propose(x)] * 3, [Action.propose(x)] * 3)
    transcript, _ = run_session(team, opp, SessionConfig(max_rounds=3, initiator="opponent"))
    assert [e.party for e in transcript.entries] == ["opponent", "team"] * 3


def test_accepting_the_standing_offer_ends_in_agreement(scenario):
    x = np.array([0.3, 0.4, 0.5, 0.6])
    team, opp = scripted_pair(scenario, [Action.propose(x)], [Action.accept()])
    _, outcome = run_session(team, opp, SessionConfig(max_rounds=10))
    assert outcome.agreement and outcome.reason == "accepted"
    assert np.array_equal(outcome.offer, x)
    assert outcome.accepted_by == "opponent"
    assert outcome.accepted_at == 0.0
    assert outcome.rounds_used == 1
    assert outcome.utilities["member_0"] == pytest.approx(
        utility(scenario.team_profiles[0], x)
    )
    assert outcome.utilities["opponent"] == pytest.approx(
        utility(scenario.opponent_profile, x)
    )
    assert outcome.joint_utility == pytest.approx(
        outcome.utilities["member_0"] * outcome.utilities["opponent"]
    )


def test_counter_proposal_replaces_standing_offer(scenario):
    x = np.full(4, 0.2)
    y = np.full(4, 0.8)
    team, opp = scripted_pair(
        scenario, [Action.propose(x), Action.accept()], [Action.propose(y)]
    )
    _, outcome = run_session(team, opp, SessionConfig(max_rounds=10))
    assert np.array_equal(outcome.offer, y)
    assert outcome.accepted_by == "team"
    assert outcome.rounds_used == 2


def test_accept_without_standing_offer_is_a_violation(scenario):
    team, opp = scripted_pair(scenario, [Action.accept()], [])
    with pytest.raises(ProtocolViolation):
        run_session(team, opp, SessionConfig(max_rounds=10))


def test_deadline_scores_everyone_zero(scenario):
    x = np.full(4, 0.5)
    team, opp = scripted_pair(scenario, [Action.propose(x)] * 3, [Action.propose(x)] * 3)
    _, outcome = run_session(team, opp, SessionConfig(max_rounds=3))
    assert not outcome.agreement and outcome.reason == "deadline"
    assert outcome.offer is None
    assert set(outcome.utilities.values()) == {0.0}
    assert outcome.joint_utility == 0.0
    assert outcome.rounds_used == 3


def test_walking_away_scores_everyone_zero(scenario):
    x = np.full(4, 0.5)
    team, opp = scripted_pair(scenario, [Action.propose(x)], [Action.end()])
    _, outcome = run_session(team, opp, SessionConfig(max_rounds=10))
    assert not outcome.agreement and outcome.reason == "ended"
    assert set(outcome.utilities.values()) == {0.0}


def test_offers_are_relayed_to_the_other_party(scenario):
    x = np.full(4, 0.25)
    y = np.full(4, 0.75)
    team, opp = scripted_pair(
        scenario, [Action.propose(x), Action.accept()], [Action.propose(y)]
    )
    run_session(team, opp, SessionConfig(max_rounds=10))
    assert len(opp.received) == 1 and np.array_equal(opp.received[0][1], x)
    assert len(team.received) == 1 and np.array_equal(team.received[0][1], y)
    assert team.received[0][0] == 0.0


def test_duplicate_agent_names_rejected(scenario):
    team = Scripted("team", [], {"twin": scenario.team_profiles[0]})
    opp = Scripted("opponent", [], {"twin": scenario.opponent_profile})
    with pytest.raises(ValueError):
        run_session(team, opp, SessionConfig(max_rounds=1))


def test_action_shape_validation():
    with pytest.raises(ValueError):
        Action(ActionKind.PROPOSE, None)
    with pytest.raises(ValueError):
        Action(ActionKind.ACCEPT, np.zeros(2))


def test_session_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(max_rounds=0)
    with pytest.raises(ValueError):
        SessionConfig(initiator="nobody")


def test_score_failure_is_all_zeros(scenario):
    utilities, joint = score(None, {"a": scenario.team_profiles[0]})
    assert utilities == {"a": 0.0} and joint == 0.0


def finished_transcript(scenario):
    x = np.array([0.3, 0.4, 0.5, 0.6])
    y = np.full(4, 0.7)
    team, opp = scripted_pair(
        scenario, [Action.propose(x), Action.accept()], [Action.propose(y)]
    )
    transcript, _ = run_session(team, opp, SessionConfig(max_rounds=10), meta={"tag": 1})
    return transcript


def test_transcript_roundtrips_through_json(scenario, tmp_path):
    transcript = finished_transcript(scenario)
    path = tmp_path / "session.json"
    save_transcript(transcript, path)
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text) == transcript_to_dict(transcript)
    back = load_transcript(path)
    assert transcripts_equal(transcript, back)
    assert back.config == {"tag": 1}
    assert back.outcome.utilities == pytest.approx(transcript.outcome.utilities)
    assert back.outcome.accepted_by == "team"
    # files written indented, as earlier versions did, load the same
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(transcript_to_dict(transcript), indent=2) + "\n", encoding="utf-8")
    old = load_transcript(indented)
    assert transcripts_equal(transcript, old)
    assert transcript_to_dict(old) == transcript_to_dict(back)


def test_transcript_dict_roundtrip_is_stable(scenario):
    transcript = finished_transcript(scenario)
    doc = transcript_to_dict(transcript)
    assert doc == transcript_to_dict(transcript_from_dict(doc))


def test_transcripts_equal_detects_differences(scenario):
    a = finished_transcript(scenario)
    b = finished_transcript(scenario)
    assert transcripts_equal(a, b)
    b.entries[0].action.offer[0] += 1e-9
    assert not transcripts_equal(a, b)


def _edited(transcript, edit):
    doc = json.loads(json.dumps(transcript_to_dict(transcript)))
    edit(doc)
    return transcript_from_dict(doc)


def _set_outcome(key, value):
    return lambda doc: doc["outcome"].__setitem__(key, value)


def _set_utility(doc):
    doc["utilities"]["member_0"] += 1e-9


def _set_joint(doc):
    doc["joint_utility"] += 1e-9


def _swap_party(doc):
    doc["actions"][1]["party"] = doc["actions"][0]["party"]


@pytest.mark.parametrize(
    "edit",
    [
        _swap_party,
        _set_outcome("accepted_by", "opponent"),
        _set_outcome("accepted_at", 0.2),
        _set_utility,
        _set_joint,
    ],
    ids=["party", "accepted_by", "accepted_at", "utilities", "joint_utility"],
)
def test_transcripts_equal_compares_parties_and_the_whole_outcome(scenario, edit):
    a = finished_transcript(scenario)
    assert transcripts_equal(a, _edited(a, lambda doc: None))
    assert not transcripts_equal(a, _edited(a, edit))


def test_outcomes_compare_their_offers_element_wise():
    def outcome(offer):
        return Outcome(True, "accepted", offer, {"m": 0.5}, 0.25, 3, "team", 0.2)

    assert outcome(np.zeros(4)) == outcome(np.zeros(4))
    assert outcome(np.zeros(4)) != outcome(np.array([0.0, 0.0, 1e-9, 0.0]))
    assert outcome(None) == outcome(None)
    assert outcome(None) != outcome(np.zeros(4))
    assert outcome(np.zeros(4)) != None  # noqa: E711


def test_first_divergence_names_the_first_differing_action(scenario):
    a = finished_transcript(scenario)
    assert len(a) == 3 and first_divergence(a, a) is None

    def nudge_last_offer(doc):
        doc["actions"][1]["offer"][2] += 1e-12

    assert first_divergence(a, _edited(a, nudge_last_offer)) == 1
    assert first_divergence(a, _edited(a, _swap_party)) == 1
    assert first_divergence(a, _edited(a, lambda doc: doc["actions"][2].__setitem__("t", 0.5))) == 2

    def widen_offers(doc):
        for action in doc["actions"]:
            if "offer" in action:
                action["offer"].append(0.5)

    assert first_divergence(a, _edited(a, widen_offers)) == 0
    shorter = _edited(a, lambda doc: doc["actions"].pop())
    assert first_divergence(a, shorter) == first_divergence(shorter, a) == 2
    # actions that agree leave an outcome's difference to transcripts_equal
    assert first_divergence(a, _edited(a, _set_joint)) is None


def test_unfinished_transcript_refuses_to_serialize(scenario):
    with pytest.raises(ValueError):
        transcript_to_dict(Transcript(config={}))


def test_the_store_takes_only_what_fits(scenario):
    transcript = Transcript(config={}, capacity=2)
    transcript.append(0, 0.0, "team", Action.propose(np.full(4, 0.5)))
    with pytest.raises(ValueError):
        transcript.append(0, 0.0, "opponent", Action.propose(np.full(3, 0.5)))
    with pytest.raises(ValueError):  # entries only once no action can follow
        transcript.entries
    transcript.append(0, 0.0, "opponent", Action.propose(np.full(4, 0.25)))
    with pytest.raises(ValueError):
        transcript.append(1, 0.5, "team", Action.accept())
    transcript.finish(Outcome(False, "deadline", None, {}, 0.0, 1))
    assert [e.party for e in transcript.entries] == ["team", "opponent"]
    with pytest.raises(ValueError):
        transcript.finish(Outcome(False, "deadline", None, {}, 0.0, 1))


# offers of 1-6 issues; the endpoints and the smallest subnormal round-trip too
_values = st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0))


@st.composite
def _appended_sessions(draw):
    n_issues = draw(st.integers(1, 6))
    offers = st.lists(_values, min_size=n_issues, max_size=n_issues).map(np.array)
    parties = draw(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True))
    actions = []
    for kind in draw(st.lists(st.sampled_from(list(ActionKind)), max_size=24)):
        offer = draw(offers) if kind is ActionKind.PROPOSE else None
        rnd, t, party = draw(st.integers(0, 10**6)), draw(st.floats(0.0, 1.0)), draw(st.sampled_from(parties))
        actions.append((rnd, t, party, Action(kind, offer)))
    agreement = draw(st.booleans())
    outcome = Outcome(
        agreement=agreement,
        reason="accepted" if agreement else draw(st.sampled_from(["deadline", "ended"])),
        offer=draw(offers) if agreement else None,
        utilities={name: draw(_values) for name in parties},
        joint_utility=draw(_values),
        rounds_used=draw(st.integers(1, 10**6)),
        accepted_by=draw(st.sampled_from(parties)) if agreement else None,
        accepted_at=draw(st.floats(0.0, 1.0)) if agreement else None,
    )
    return actions, outcome, draw(st.integers(0, 5))


@given(_appended_sessions())
def test_the_store_gives_back_what_was_appended(session):
    actions, outcome, spare = session
    transcript = Transcript(config={"spare": spare}, capacity=len(actions) + spare)
    for action in actions:
        transcript.append(*action)
    transcript.finish(outcome)
    assert len(transcript) == len(actions)
    entries = transcript.entries
    assert [(e.round, e.t, e.party, e.action.kind) for e in entries] == [a[:3] + (a[3].kind,) for a in actions]
    for entry, (_, _, _, action) in zip(entries, actions):
        if action.offer is None:
            assert entry.action.offer is None
        else:
            assert entry.action.offer.tolist() == action.offer.tolist()
    text = json.dumps(transcript_to_dict(transcript), separators=(",", ":"))
    back = transcript_from_dict(json.loads(text))
    assert transcripts_equal(transcript, back)
    assert json.dumps(transcript_to_dict(back), separators=(",", ":")) == text


def test_a_transcript_written_by_an_earlier_version_loads_unchanged(tmp_path):
    # written by `negoteam run` at commit bc6f9b0, which kept each action as its
    # own object, from a one-team config of 12-round sessions
    path = Path(__file__).parent / "data" / "ssv-b__tft__001.json"
    transcript = load_transcript(path)
    assert len(transcript) == 16 and transcript.outcome.accepted_by == "team"
    save_transcript(transcript, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_lockstep_sessions_match_each_session_alone(scenario):
    # sessions of different lengths and endings, played together and alone
    x, y = np.full(4, 0.5), np.full(4, 0.25)

    def pairs():
        return [
            scripted_pair(scenario, [Action.propose(x)] * 4, [Action.propose(y)] * 4),
            scripted_pair(scenario, [Action.propose(x), Action.accept()], [Action.propose(y)] * 2),
            scripted_pair(scenario, [Action.end()], []),
        ]

    configs = [
        SessionConfig(max_rounds=4),
        SessionConfig(max_rounds=9, initiator="opponent"),
        SessionConfig(),
    ]
    together = run_sessions(
        [(team, opp, cfg, {"i": i}) for i, ((team, opp), cfg) in enumerate(zip(pairs(), configs))]
    )
    assert [o.reason for _, o in together] == ["deadline", "accepted", "ended"]
    for i, ((team, opp), cfg) in enumerate(zip(pairs(), configs)):
        transcript, outcome = run_session(team, opp, cfg, {"i": i})
        assert transcripts_equal(transcript, together[i][0])
        assert transcript.config == together[i][0].config == {"i": i}
        assert outcome.utilities == together[i][1].utilities


class Asking(Party):
    """Asks the sampler ``asks[k % len(asks)]`` times in its k-th decision, the
    i-th time for i + 1 offers, and proposes the last offer it got; it never
    looks at what it is shown, so its k-th decision is the same alone."""

    def __init__(self, name, profile, seed, asks):
        self.name = name
        self._profile = profile
        self._rng = np.random.default_rng(seed)
        self._asks = asks
        self.decisions = 0

    @property
    def utility_profiles(self):
        return {f"{self.name}_agent": self._profile}

    def receive_offer(self, offer, t):
        pass

    def decide(self, t):
        asks = self._asks[self.decisions % len(self._asks)]
        self.decisions += 1
        offers = [ideal_offer(self._profile)]
        for i in range(asks):
            offers = yield [SampleRequest(self._profile, 0.5 + 0.4 * t, [], self._rng)] * (i + 1)
        return Action.propose(offers[-1])


def test_lockstep_decisions_asking_several_times_match_each_decision_alone(scenario):
    # in every step the deciding parties ask 0, 1 or 2 times, so some requests
    # are served in the driver's second round while others have their actions
    team_profile, opponent_profile = scenario.team_profiles[0], scenario.opponent_profile
    plans = [((0, 1, 2), (2, 0)), ((2, 2, 1), (1,)), ((1, 0), (0, 2, 1))]

    def pairs():
        return [
            (Asking("team", team_profile, 10 + i, team), Asking("opponent", opponent_profile, 20 + i, opponent))
            for i, (team, opponent) in enumerate(plans)
        ]

    configs = [SessionConfig(3), SessionConfig(5, initiator="opponent"), SessionConfig(4)]
    together = run_sessions([(team, opp, cfg, None) for (team, opp), cfg in zip(pairs(), configs)])
    for i, ((team, opp), cfg) in enumerate(zip(pairs(), configs)):
        transcript, outcome = run_session(team, opp, cfg)
        assert transcripts_equal(transcript, together[i][0])
        assert outcome == together[i][1] and outcome.reason == "deadline"
        # the same parties, driven one decision at a time, act as they did in the session
        for party in pairs()[i]:
            for entry in transcript.entries:
                if entry.party == party.name:
                    action = party.choose_action(entry.t)
                    assert action.kind is ActionKind.PROPOSE
                    assert action.offer.tobytes() == entry.action.offer.tobytes()
