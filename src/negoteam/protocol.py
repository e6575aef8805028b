"""Alternating-offers protocol between two parties.

One side is a negotiation team fronted by its mediator, the other a single
opponent; the protocol itself is symmetric and only sees two parties. Each
round both parties act once, in initiator order, at normalised time
t = round / max_rounds. A proposal becomes the standing offer; accepting the
standing offer ends the session in agreement; the deadline or an explicit
end action terminates it in failure, scoring zero for everyone.

Sessions are played by one loop, :func:`run_sessions`, which moves any
number of independent sessions forward in lockstep, one action each per
step; one driver, :func:`_settle`, runs the decisions there and in
:meth:`Party.choose_action`. :func:`run_session` is the one-session case.
"""
from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Generator, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .domain import PreferenceProfile, utility
from .tactics import SampleRequest, sample_iso_offers


class ProtocolViolation(Exception):
    """A party acted illegally (e.g. accepted when no offer was standing)."""


class ActionKind(str, Enum):
    PROPOSE = "propose"
    ACCEPT = "accept"
    END = "end"


@dataclass(frozen=True, slots=True)
class Action:
    kind: ActionKind
    offer: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind is ActionKind.PROPOSE and self.offer is None:
            raise ValueError("a proposal carries an offer")
        if self.kind is not ActionKind.PROPOSE and self.offer is not None:
            raise ValueError("only proposals carry offers")

    @classmethod
    def propose(cls, offer: np.ndarray) -> "Action":
        return cls(ActionKind.PROPOSE, np.asarray(offer, dtype=np.float64))

    @classmethod
    def accept(cls) -> "Action":
        return cls(ActionKind.ACCEPT)

    @classmethod
    def end(cls) -> "Action":
        return cls(ActionKind.END)


# how a party acts: it yields lists of sampler requests, is sent the offers
# for each list, and returns its action
Decision = Generator[list[SampleRequest], list[np.ndarray], Action]


class Party(ABC):
    """A negotiating party: deterministic given its seed and what it has seen."""

    name: str  # "team" or "opponent", as a transcript records the party's actions

    @property
    @abstractmethod
    def utility_profiles(self) -> Mapping[str, PreferenceProfile]:
        """Profiles of every agent this party answers for, keyed by agent name."""

    @abstractmethod
    def receive_offer(self, offer: np.ndarray, t: float) -> None:
        """Observe the other party's proposal at normalised time t."""

    @abstractmethod
    def decide(self, t: float) -> Decision:
        """Act at normalised time t, as a :data:`Decision` generator.

        The offers it asks for are drawn by the code that runs the generator,
        so that the requests of many parties can share one kernel call.
        """

    def choose_action(self, t: float) -> Action:
        """Act at normalised time t, driven as one decision of a lockstep step."""
        return _settle([self.decide(t)])[0]


@dataclass(frozen=True)
class SessionConfig:
    max_rounds: int = 1000
    initiator: str = "team"  # which party proposes first: "team" or "opponent"

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        if self.initiator not in ("team", "opponent"):
            raise ValueError("initiator must be 'team' or 'opponent'")


@dataclass(frozen=True, slots=True)
class TranscriptEntry:
    round: int
    t: float
    party: str
    action: Action


@dataclass
class Outcome:
    agreement: bool
    reason: str  # "accepted", "deadline" or "ended"
    offer: np.ndarray | None
    utilities: dict[str, float]
    joint_utility: float
    rounds_used: int
    accepted_by: str | None = None
    accepted_at: float | None = None

    def __eq__(self, other: object) -> bool:
        """Field-by-field equality; offers compare element-wise."""
        if not isinstance(other, Outcome):
            return NotImplemented
        fields = ("agreement", "reason", "rounds_used", "accepted_by", "accepted_at", "utilities", "joint_utility")
        if any(getattr(self, f) != getattr(other, f) for f in fields):
            return False
        if self.offer is None or other.offer is None:
            return self.offer is other.offer
        return np.array_equal(self.offer, other.offer)


# an action's kind code is its index here
_KINDS = tuple(ActionKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_PROPOSE = _KIND_CODES[ActionKind.PROPOSE]


class Transcript:
    """A session's actions, held as columns, and its outcome.

    Action ``i`` is row ``i`` of the round, ``t``, party-code and kind-code
    columns; a party code indexes the names in order of first appearance.
    The k-th proposal's offer is row k of one float64 array. The columns are
    allocated for ``capacity`` actions, and :meth:`finish` trims them once to
    the actions appended; the store is not resized after that, so the views
    that :attr:`entries` hands out stay views of it.
    """

    __slots__ = (
        "config",
        "_outcome",
        "_parties",
        "_rounds",
        "_ts",
        "_party_codes",
        "_kind_codes",
        "_offers",
        "_size",
        "_proposals",
    )

    def __init__(self, config: dict, capacity: int = 0) -> None:
        self.config = config
        self._outcome: Outcome | None = None
        self._parties: list[str] = []
        self._rounds = np.empty(capacity, dtype=np.int64)
        self._ts = np.empty(capacity, dtype=np.float64)
        self._party_codes = np.empty(capacity, dtype=np.uint8)
        self._kind_codes = np.empty(capacity, dtype=np.uint8)
        self._offers = np.empty((capacity, 0))  # reallocated at the first proposal, whose length sets its width
        self._size = 0
        self._proposals = 0

    def __len__(self) -> int:
        return self._size

    @property
    def outcome(self) -> Outcome | None:
        return self._outcome

    def append(self, round: int, t: float, party: str, action: Action) -> None:
        """Record ``party``'s ``action`` in ``round``, at normalised time ``t``."""
        i = self._size
        if i == len(self._kind_codes):  # a finished transcript is trimmed full
            raise ValueError(f"transcript is full at {i} actions")
        offer = action.offer
        if offer is not None and self._proposals and offer.shape != self._offers.shape[1:]:
            raise ValueError(f"offer of shape {offer.shape} in a transcript of {self._offers.shape[1:]}")
        if party not in self._parties:
            if len(self._parties) == 256:
                raise ValueError("a transcript holds at most 256 parties")
            self._parties.append(party)
        if offer is not None:
            if not self._proposals:
                self._offers = np.empty((len(self._kind_codes), *offer.shape))
            self._offers[self._proposals] = offer
            self._proposals += 1
        self._rounds[i] = round
        self._ts[i] = t
        self._party_codes[i] = self._parties.index(party)
        self._kind_codes[i] = _KIND_CODES[action.kind]
        self._size = i + 1

    def finish(self, outcome: Outcome) -> None:
        """Set the outcome and trim the columns to the actions appended."""
        if self._outcome is not None:
            raise ValueError("transcript is already finished")
        n = self._size
        self._rounds, self._ts, self._party_codes, self._kind_codes = (
            column[:n].copy() for column in (self._rounds, self._ts, self._party_codes, self._kind_codes)
        )
        self._offers = self._offers[: self._proposals].copy()
        self._outcome = outcome

    def round_and_party(self, i: int) -> tuple[int, str]:
        """The round of action ``i`` and the party that took it."""
        return int(self._rounds[i]), self._parties[self._party_codes[i]]

    @property
    def entries(self) -> list[TranscriptEntry]:
        """The actions as entries, built on each call from the columns.

        A proposal's offer is a view of its row in the store. Only a finished
        transcript has entries, so that no view outlives the trim.
        """
        if self._outcome is None:
            raise ValueError("transcript has no outcome; session did not finish")
        return [
            TranscriptEntry(rnd, t, party, Action(kind, offer))
            for rnd, t, party, kind, offer in self._rows(self._offers)
        ]

    def _rows(self, offers: Iterable) -> Iterator[tuple[int, float, str, ActionKind, object]]:
        """Each action's round, ``t``, party, kind and offer: the next of
        ``offers`` for a proposal, None otherwise."""
        offers = iter(offers)
        for rnd, t, party, kind in zip(
            self._rounds.tolist(), self._ts.tolist(), self._party_codes.tolist(), self._kind_codes.tolist()
        ):
            yield rnd, t, self._parties[party], _KINDS[kind], next(offers) if kind == _PROPOSE else None


def score(offer: np.ndarray | None, profiles: Mapping[str, PreferenceProfile]) -> tuple[dict[str, float], float]:
    """Per-agent utilities and their product; a failed session scores all zeros."""
    if offer is None:
        return {name: 0.0 for name in profiles}, 0.0
    utilities = {name: utility(profile, offer) for name, profile in profiles.items()}
    joint = 1.0
    for u in utilities.values():
        joint *= u
    return utilities, joint


def _all_profiles(team: Party, opponent: Party) -> dict[str, PreferenceProfile]:
    profiles: dict[str, PreferenceProfile] = {}
    for party in (team, opponent):
        for name, profile in party.utility_profiles.items():
            if name in profiles:
                raise ValueError(f"duplicate agent name {name!r} across parties")
            profiles[name] = profile
    return profiles


class _LiveSession:
    """One session's state between the steps of :func:`run_sessions`."""

    __slots__ = ("max_rounds", "profiles", "transcript", "turns", "turn", "round", "standing")

    def __init__(self, team_party: Party, opponent_party: Party, config: SessionConfig, meta: dict | None) -> None:
        self.max_rounds = config.max_rounds
        self.profiles = _all_profiles(team_party, opponent_party)
        self.transcript = Transcript(dict(meta or {}), capacity=2 * config.max_rounds)
        if config.initiator == "team":
            self.turns = ((team_party, opponent_party), (opponent_party, team_party))
        else:
            self.turns = ((opponent_party, team_party), (team_party, opponent_party))
        self.turn = 0
        self.round = 0
        self.standing: np.ndarray | None = None

    def decide(self) -> Decision:
        return self.turns[self.turn][0].decide(self.round / self.max_rounds)

    def act(self, action: Action) -> None:
        """Record the acting party's action and move on to the next turn."""
        actor, other = self.turns[self.turn]
        rnd = self.round
        t = rnd / self.max_rounds
        self.transcript.append(rnd, t, actor.name, action)
        if action.kind is ActionKind.ACCEPT:
            if self.standing is None:
                raise ProtocolViolation(f"{actor.name} accepted with no standing offer")
            self._end("accepted", rnd + 1, self.standing.copy(), actor.name, t)
        elif action.kind is ActionKind.END:
            self._end("ended", rnd + 1)
        else:
            self.standing = action.offer
            other.receive_offer(self.standing.copy(), t)
            self.turn ^= 1
            if self.turn == 0:
                self.round += 1
                if self.round == self.max_rounds:
                    self._end("deadline", self.max_rounds)

    def _end(self, reason: str, rounds_used: int, offer=None, accepted_by=None, accepted_at=None) -> None:
        """Score ``offer`` (a failure has none and scores zero) and finish the transcript."""
        utilities, joint = score(offer, self.profiles)
        self.transcript.finish(
            Outcome(offer is not None, reason, offer, utilities, joint, rounds_used, accepted_by, accepted_at)
        )


def _settle(decisions: Sequence[Decision]) -> list[Action]:
    """Run ``decisions`` to their actions, in input order.

    Each round serves every decision still asking with one sampler call, its
    requests in decision order; each draws from its own agent's stream.
    """
    actions: list = [None] * len(decisions)
    answers: list = [None] * len(decisions)
    pending: Sequence[int] = range(len(decisions))
    while pending:
        asking, requests, bounds = [], [], [0]
        for i in pending:
            try:
                requests.extend(decisions[i].send(answers[i]))
            except StopIteration as done:
                actions[i] = done.value
            else:
                asking.append(i)
                bounds.append(len(requests))
        if asking:
            served = sample_iso_offers(requests)
            for i, lo, hi in zip(asking, bounds, bounds[1:]):
                answers[i] = served[lo:hi]
        pending = asking
    return actions


def run_sessions(
    sessions: Sequence[tuple[Party, Party, SessionConfig, dict | None]],
) -> list[tuple[Transcript, Outcome]]:
    """Play independent sessions to termination, in lockstep.

    Each ``(team_party, opponent_party, config, meta)`` session alternates
    as :func:`run_session` describes. A step runs the decisions of every
    unfinished session's acting party through :func:`_settle`, then records
    each action. Sessions share no party, stream or transcript, so acting
    once the whole step has decided changes nothing: each session's
    transcript is the one it would have alone. Results are in input order.
    """
    played = live = [_LiveSession(*session) for session in sessions]
    while live:
        for session, action in zip(live, _settle([session.decide() for session in live])):
            session.act(action)
        live = [session for session in live if session.transcript.outcome is None]
    return [(session.transcript, session.transcript.outcome) for session in played]


def run_session(
    team_party: Party,
    opponent_party: Party,
    config: SessionConfig,
    meta: dict | None = None,
) -> tuple[Transcript, Outcome]:
    """Play one alternating-offers session to termination.

    Each round both parties act once, in initiator order. Deterministic: the
    same parties (same seeds) and config reproduce the transcript action
    for action. This is :func:`run_sessions` with one session.
    """
    return run_sessions([(team_party, opponent_party, config, meta)])[0]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def transcript_to_dict(transcript: Transcript) -> dict:
    if transcript.outcome is None:
        raise ValueError("transcript has no outcome; session did not finish")
    actions = []
    for rnd, t, party, kind, offer in transcript._rows(transcript._offers.tolist()):
        doc = {"round": rnd, "t": t, "party": party, "kind": kind.value}
        if offer is not None:
            doc["offer"] = offer
        actions.append(doc)
    out = transcript.outcome
    return {
        "config": transcript.config,
        "actions": actions,
        "outcome": {
            "agreement": out.agreement,
            "reason": out.reason,
            "offer": None if out.offer is None else [float(v) for v in out.offer],
            "rounds_used": out.rounds_used,
            "accepted_by": out.accepted_by,
            "accepted_at": out.accepted_at,
        },
        "utilities": {k: float(v) for k, v in out.utilities.items()},
        "joint_utility": float(out.joint_utility),
    }


def transcript_from_dict(doc: dict) -> Transcript:
    actions = doc["actions"]
    transcript = Transcript(dict(doc["config"]), capacity=len(actions))
    for adoc in actions:
        kind = ActionKind(adoc["kind"])
        offer = np.asarray(adoc["offer"], dtype=np.float64) if "offer" in adoc else None
        transcript.append(int(adoc["round"]), float(adoc["t"]), str(adoc["party"]), Action(kind, offer))
    for block in ("outcome", "utilities"):
        if not isinstance(doc[block], dict):
            raise ValueError(f"{block}: must be a JSON object, got {type(doc[block]).__name__}")
    odoc = doc["outcome"]
    transcript.finish(
        Outcome(
            agreement=bool(odoc["agreement"]),
            reason=str(odoc["reason"]),
            offer=None if odoc["offer"] is None else np.asarray(odoc["offer"], dtype=np.float64),
            utilities={k: float(v) for k, v in doc["utilities"].items()},
            joint_utility=float(doc["joint_utility"]),
            rounds_used=int(odoc["rounds_used"]),
            accepted_by=odoc.get("accepted_by"),
            accepted_at=odoc.get("accepted_at"),
        )
    )
    return transcript


def save_transcript(transcript: Transcript, path: str | Path) -> None:
    """Write the transcript as one line of compact JSON.

    ``json.dumps`` without indentation runs CPython's C encoder; ``indent``
    or ``json.dump`` to a file would run the pure-Python one. Indented
    files load the same.
    """
    text = json.dumps(transcript_to_dict(transcript), separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_transcript(path: str | Path) -> Transcript:
    with Path(path).open("r", encoding="utf-8") as fh:
        return transcript_from_dict(json.load(fh))


def first_divergence(a: Transcript, b: Transcript) -> int | None:
    """The index of the first action at which ``a`` and ``b`` differ, or None.

    Actions differ in round, ``t``, party, kind or offer. Where one
    transcript holds the other's actions and more, they diverge at the
    shorter one's length.
    """
    n = min(len(a), len(b))
    # b's party codes in a's numbering; a name a lacks gets a code it never uses
    remap = np.array([a._parties.index(p) if p in a._parties else 256 for p in b._parties], dtype=np.int64)
    differs = (
        (a._rounds[:n] != b._rounds[:n])
        | (a._ts[:n] != b._ts[:n])
        | (a._kind_codes[:n] != b._kind_codes[:n])
        | (a._party_codes[:n] != remap[b._party_codes[:n]])
    )
    stop = int(np.argmax(differs)) if differs.any() else n
    # before ``stop`` both take the same kinds, so their k-th proposals are the same action
    proposals = np.flatnonzero(a._kind_codes[:stop] == _PROPOSE)
    if len(proposals):
        offers_a = a._offers[: len(proposals)]
        offers_b = b._offers[: len(proposals)]
        if offers_a.shape != offers_b.shape:
            return int(proposals[0])
        rows = np.flatnonzero((offers_a != offers_b).any(axis=1))
        if len(rows):
            return int(proposals[rows[0]])
    return stop if stop < max(len(a), len(b)) else None


def transcripts_equal(a: Transcript, b: Transcript) -> bool:
    """Action-for-action and outcome equality, ignoring the metadata block."""
    return first_divergence(a, b) is None and a.outcome == b.outcome
