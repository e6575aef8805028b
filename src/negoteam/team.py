"""Negotiation teams: a mediator fronting several members with private tactics.

The opponent only ever sees the mediator, which turns member opinions into a
single accept/propose decision per round. Four intra-team decision rules are
provided:

* ``RE``  - a representative member, drawn once per session, decides alone.
* ``SSV`` - similarity voting: majority acceptance, plurality over the
  members' candidate proposals.
* ``SBV`` - unanimous acceptance, Borda scoring over candidate proposals.
* ``FUM`` - unanimous acceptance, proposals built attribute by attribute
  along an agenda inferred from the opponent's concessions.

Voting primitives are exposed as standalone functions so they can be checked
against brute-force oracles; every tie breaks toward the lowest index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Generator, Mapping, Sequence

import numpy as np

from .domain import PreferenceProfile, Scenario, check_keys, check_number, utility_unchecked
from .opponents import ARCHETYPES, TimeTacticNegotiator, build_opponent
from .protocol import Action, Decision, Party
from .tactics import SampleRequest, TimeTactic, demand

# a team's proposal, asked for as a Decision asks, returning the offer
Proposal = Generator[list[SampleRequest], list[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# voting primitives
# ---------------------------------------------------------------------------

def majority_accepts(votes: Sequence[bool]) -> bool:
    """True iff strictly more than half the votes are in favour."""
    votes = list(votes)
    if not votes:
        raise ValueError("no votes cast")
    return 2 * sum(bool(v) for v in votes) > len(votes)


def unanimity_accepts(votes: Sequence[bool]) -> bool:
    """True iff every vote is in favour."""
    votes = list(votes)
    if not votes:
        raise ValueError("no votes cast")
    return all(bool(v) for v in votes)


def plurality_winner(marks: np.ndarray) -> int:
    """Index of the proposal with the most approval marks.

    ``marks[v, p]`` says voter v finds proposal p acceptable. Ties go to the
    lowest proposal index.
    """
    marks = np.asarray(marks, dtype=bool)
    if marks.ndim != 2 or marks.size == 0:
        raise ValueError("marks must be a non-empty voters x proposals matrix")
    return int(np.argmax(marks.sum(axis=0)))


def borda_scores(utilities: np.ndarray) -> np.ndarray:
    """Total Borda score per proposal.

    Each voter ranks the proposals by utility, best first; rank position r
    is worth (P - 1 - r) points. Equal utilities rank the lower proposal
    index first, so it collects the larger score of the tied block.
    """
    utilities = np.asarray(utilities, dtype=np.float64)
    if utilities.ndim != 2 or utilities.size == 0:
        raise ValueError("utilities must be a non-empty voters x proposals matrix")
    n_proposals = utilities.shape[1]
    scores = np.zeros(n_proposals)
    indices = np.arange(n_proposals)
    for row in utilities:
        order = np.lexsort((indices, -row))
        for position, proposal in enumerate(order):
            scores[proposal] += n_proposals - 1 - position
    return scores


def borda_winner(utilities: np.ndarray) -> int:
    """Proposal with the highest total Borda score; ties to the lowest index."""
    return int(np.argmax(borda_scores(utilities)))


# ---------------------------------------------------------------------------
# agenda inference and unanimity offer building
# ---------------------------------------------------------------------------

def infer_agenda(
    opponent_offers: Sequence[np.ndarray],
    signs: np.ndarray,
    window: int,
) -> np.ndarray:
    """Order attributes by how much the opponent has conceded on each.

    Concession on an attribute between consecutive opponent offers is the
    positive part of the value change in the team-favourable direction,
    totalled over the first ``window`` offers. Most-conceded attributes come
    first; ties and a too-short history fall back to declaration order.
    """
    n = int(np.asarray(signs).size)
    if len(opponent_offers) < 2 or window < 2:
        return np.arange(n)
    observed = np.asarray(opponent_offers[:window], dtype=np.float64)
    deltas = np.diff(observed, axis=0)
    concession = np.maximum(np.asarray(signs) * deltas, 0.0).sum(axis=0)
    return np.argsort(-concession, kind="stable")


def build_unanimity_offer(
    weights: np.ndarray,
    signs: np.ndarray,
    demands: np.ndarray,
    agenda: Sequence[int],
) -> np.ndarray:
    """Construct an offer attribute by attribute so every member reaches its demand.

    At each agenda attribute every still-active member requests the value
    that would close its remaining utility gap; the mediator keeps the most
    demanding request (max under increasing valuations, min under
    decreasing). Members whose accumulated partial utility reaches their
    demand drop out. Attributes the loop never reaches are set to the
    team-worst extreme, leaving them to the opponent.
    """
    weights = np.asarray(weights, dtype=np.float64)
    signs = np.asarray(signs, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    n_members, n_issues = weights.shape
    values = np.empty(n_issues)
    assigned = np.zeros(n_issues, dtype=bool)
    partial = np.zeros(n_members)
    active = np.ones(n_members, dtype=bool)

    for j in agenda:
        if not active.any():
            break
        increasing = signs[j] > 0.0
        chosen: float | None = None
        for i in np.flatnonzero(active):
            w = weights[i, j]
            if w > 0.0:
                gap = demands[i] - partial[i]
                v_target = min(max(gap / w, 0.0), 1.0)
            else:
                v_target = 0.0  # indifferent: request nothing
            value = v_target if increasing else 1.0 - v_target
            if chosen is None:
                chosen = value
            else:
                chosen = max(chosen, value) if increasing else min(chosen, value)
        values[j] = chosen
        assigned[j] = True
        valuation_at_j = chosen if increasing else 1.0 - chosen
        for i in np.flatnonzero(active):
            partial[i] += weights[i, j] * valuation_at_j
            if partial[i] >= demands[i]:
                active[i] = False

    for j in np.flatnonzero(~assigned):
        values[j] = 0.0 if signs[j] > 0.0 else 1.0
    return values


# ---------------------------------------------------------------------------
# members and mediators
# ---------------------------------------------------------------------------

@dataclass
class TeamMember:
    profile: PreferenceProfile
    tactic: TimeTactic

    def demand(self, t: float) -> float:
        return demand(self.tactic, t)

    def utility(self, offer: np.ndarray) -> float:
        # offers here come from the protocol loop or the sampler, both clean
        return utility_unchecked(self.profile, offer)


def derive_team_streams(seed: int, n_members: int) -> tuple[np.random.Generator, list[np.random.Generator]]:
    """Mediator RNG plus one private RNG per member, all from one seed."""
    children = np.random.SeedSequence(seed).spawn(n_members + 1)
    return np.random.default_rng(children[0]), [np.random.default_rng(c) for c in children[1:]]


class TeamParty(Party):
    """Base mediator: the members and their streams; a strategy decides."""

    name = "team"
    strategy = "?"

    def __init__(self, members: Sequence[TeamMember], seed: int) -> None:
        if not members:
            raise ValueError("a team needs at least one member")
        self.members = list(members)
        self.seed = int(seed)
        self.mediator_rng, self.member_rngs = derive_team_streams(self.seed, len(self.members))

    @property
    def utility_profiles(self) -> Mapping[str, PreferenceProfile]:
        return {m.profile.name: m.profile for m in self.members}


class VotingTeam(TeamParty):
    """A mediator that accepts when ``accepts`` passes its members' votes, else
    proposes the member candidate that ``pick`` chooses from the members x
    proposals utility matrix, unless a subclass overrides :meth:`_propose`."""

    accepts = staticmethod(unanimity_accepts)

    def __init__(self, members: Sequence[TeamMember], seed: int) -> None:
        super().__init__(members, seed)
        self.opponent_offers: list[np.ndarray] = []
        self.last_team_offer: np.ndarray | None = None

    @property
    def last_opponent_offer(self) -> np.ndarray | None:
        return self.opponent_offers[-1] if self.opponent_offers else None

    def receive_offer(self, offer: np.ndarray, t: float) -> None:
        self.opponent_offers.append(offer)

    def member_references(self) -> list[np.ndarray]:
        return [offer for offer in (self.last_opponent_offer, self.last_team_offer) if offer is not None]

    def member_requests(self, t: float) -> list[SampleRequest]:
        """Every member's ask for a candidate offer at its demand, near the same references."""
        refs = self.member_references()
        return [SampleRequest(m.profile, m.demand(t), refs, rng) for m, rng in zip(self.members, self.member_rngs)]

    def accept_votes(self, offer: np.ndarray, t: float) -> list[bool]:
        return [m.utility(offer) >= m.demand(t) for m in self.members]

    def decide(self, t: float) -> Decision:
        standing = self.last_opponent_offer
        if standing is not None and self.accepts(self.accept_votes(standing, t)):
            return Action.accept()
        offer = yield from self._propose(t)
        self.last_team_offer = offer
        return Action.propose(offer)

    def _propose(self, t: float) -> Proposal:
        """The team's proposal at t, asked for as :meth:`decide` asks."""
        proposals = yield self.member_requests(t)
        utilities = np.array([[m.utility(p) for p in proposals] for m in self.members])
        return proposals[self.pick(utilities)]


class SimilarityVotingTeam(VotingTeam):
    """Majority acceptance; plurality over member proposals.

    A member marks a candidate proposal acceptable when it is worth at least
    as much to it as its own candidate from the same round.
    """

    strategy = "SSV"
    accepts = staticmethod(majority_accepts)

    @staticmethod
    def pick(utilities: np.ndarray) -> int:
        # member v's own candidate is proposal v
        return plurality_winner(utilities >= utilities.diagonal()[:, None])


class BordaVotingTeam(VotingTeam):
    """Unanimous acceptance; Borda count over member proposals."""

    strategy = "SBV"
    pick = staticmethod(borda_winner)


class UnanimityBuildTeam(VotingTeam):
    """Unanimous acceptance; offers built jointly along the inferred agenda.

    Requires all members to pull in the same direction on every issue,
    otherwise max/min aggregation of their requests is meaningless.
    """

    strategy = "FUM"

    def __init__(
        self,
        members: Sequence[TeamMember],
        seed: int,
        agenda_observation_rounds: int = 5,
    ) -> None:
        super().__init__(members, seed)
        if agenda_observation_rounds < 1:
            raise ValueError("agenda_observation_rounds must be positive")
        self.agenda_observation_rounds = agenda_observation_rounds
        first = self.members[0].profile
        for m in self.members[1:]:
            if m.profile.directions != first.directions:
                raise ValueError("unanimity building requires identical issue directions")
        self._signs = first.signs
        self._weights = np.vstack([m.profile.weights for m in self.members])

    def _propose(self, t: float) -> Proposal:
        agenda = infer_agenda(self.opponent_offers, self._signs, self.agenda_observation_rounds)
        demands = np.array([m.demand(t) for m in self.members])
        return build_unanimity_offer(self._weights, self._signs, demands, agenda)
        yield  # the offer is built, not sampled: a generator that asks for nothing


class RepresentativeTeam(TeamParty):
    """One member, drawn once per session, negotiates on the team's behalf.

    The representative runs its regular member behaviour, or any bilateral
    archetype. The mediator hands it every offer and every turn, so the
    session is the representative negotiating alone.
    """

    strategy = "RE"

    def __init__(
        self,
        members: Sequence[TeamMember],
        seed: int,
        behavior: str = "time_tactic",
        behavior_params: dict | None = None,
    ) -> None:
        super().__init__(members, seed)
        self.representative_index = int(self.mediator_rng.integers(len(self.members)))
        member = self.members[self.representative_index]
        rng = self.member_rngs[self.representative_index]
        if behavior == "time_tactic":
            self._representative = TimeTacticNegotiator(member.profile, member.tactic, rng, use_own_reference=True)
        else:
            self._representative = build_opponent(behavior, member.profile, rng, behavior_params)

    def receive_offer(self, offer: np.ndarray, t: float) -> None:
        self._representative.receive_offer(offer, t)

    def decide(self, t: float) -> Decision:
        return self._representative.decide(t)


STRATEGIES: dict[str, type[TeamParty]] = {
    "RE": RepresentativeTeam,
    "SSV": SimilarityVotingTeam,
    "SBV": BordaVotingTeam,
    "FUM": UnanimityBuildTeam,
}


# ---------------------------------------------------------------------------
# declarative team configuration
# ---------------------------------------------------------------------------

@dataclass
class MemberSpec:
    """How one member's tactic is parameterised.

    Either a fixed ``beta`` or a ``beta_range`` to draw from per session; a
    missing range falls back to the team-level one.
    """

    beta: float | None = None
    beta_range: tuple[float, float] | None = None
    reservation_utility: float = 0.0


def _check_beta_range(beta_range: tuple[float, float] | None, owner: str) -> None:
    if beta_range is None:
        return
    if len(beta_range) != 2:
        raise ValueError(f"{owner} beta_range must be [lo, hi], got {list(beta_range)!r}")
    lo, hi = beta_range
    if not (0.0 < lo <= hi and math.isfinite(hi)):
        raise ValueError(f"{owner} beta_range must satisfy 0 < lo <= hi, finite; got [{lo!r}, {hi!r}]")


@dataclass
class TeamConfig:
    name: str
    strategy: str
    beta_range: tuple[float, float] | None = None
    members: list[MemberSpec] | None = None
    agenda_observation_rounds: int = 5
    representative_behavior: str = "time_tactic"
    representative_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; known: {sorted(STRATEGIES)}")
        if self.representative_behavior not in ARCHETYPES:
            raise ValueError(
                f"team {self.name!r}: unknown representative behavior {self.representative_behavior!r}; "
                f"known: {', '.join(sorted(ARCHETYPES))}"
            )
        if self.representative_behavior == "time_tactic" and self.representative_params:
            # a time-tactic representative runs its own member tactic
            raise ValueError(f"team {self.name!r}: representative_params need an archetype behavior")
        if self.agenda_observation_rounds < 1:
            raise ValueError(
                f"team {self.name!r}: agenda_observation_rounds must be positive, "
                f"got {self.agenda_observation_rounds!r}"
            )
        _check_beta_range(self.beta_range, f"team {self.name!r}")
        if self.members is None and self.beta_range is None:
            raise ValueError(f"team {self.name!r} gives no members, so it needs a beta_range")
        for i, spec in enumerate(self.members or ()):
            owner = f"team {self.name!r} member {i}"
            if spec.beta is not None and not (math.isfinite(spec.beta) and spec.beta > 0.0):
                raise ValueError(f"{owner} beta must be positive and finite, got {spec.beta!r}")
            _check_beta_range(spec.beta_range, owner)
            if spec.beta is None and spec.beta_range is None and self.beta_range is None:
                raise ValueError(f"{owner} needs a beta or a beta_range, as the team gives none")
            if not 0.0 <= spec.reservation_utility <= 1.0:
                raise ValueError(
                    f"{owner} reservation_utility must lie in [0, 1], got {spec.reservation_utility!r}"
                )


def member_specs(config: TeamConfig, scenario: Scenario) -> list[MemberSpec]:
    """The team's member specs, one per team profile of ``scenario``."""
    if config.members is None:
        return [MemberSpec() for _ in scenario.team_profiles]
    if len(config.members) != len(scenario.team_profiles):
        raise ValueError(
            f"team {config.name!r} declares {len(config.members)} members for "
            f"{len(scenario.team_profiles)} team profiles"
        )
    return config.members


def resolve_members(
    config: TeamConfig,
    scenario: Scenario,
    rng: np.random.Generator,
) -> list[TeamMember]:
    """Fix each member's tactic for one session, drawing betas where ranged."""
    specs = member_specs(config, scenario)
    members = []
    for profile, spec in zip(scenario.team_profiles, specs):
        if spec.beta is not None:
            beta = float(spec.beta)
        else:
            beta_range = spec.beta_range or config.beta_range
            beta = float(rng.uniform(beta_range[0], beta_range[1]))
        tactic = TimeTactic(beta=beta, reservation_utility=spec.reservation_utility)
        members.append(TeamMember(profile=profile, tactic=tactic))
    return members


def make_team_party(config: TeamConfig, members: Sequence[TeamMember], seed: int) -> TeamParty:
    cls = STRATEGIES[config.strategy]
    if cls is UnanimityBuildTeam:
        return UnanimityBuildTeam(members, seed, agenda_observation_rounds=config.agenda_observation_rounds)
    if cls is RepresentativeTeam:
        return RepresentativeTeam(members, seed, config.representative_behavior, config.representative_params)
    return cls(members, seed)


def team_config_to_dict(config: TeamConfig) -> dict:
    doc: dict = {"name": config.name, "strategy": config.strategy}
    if config.beta_range is not None:
        doc["beta_range"] = [float(config.beta_range[0]), float(config.beta_range[1])]
    if config.members is not None:
        doc["members"] = [
            {
                k: v
                for k, v in (
                    ("beta", spec.beta),
                    ("beta_range", list(spec.beta_range) if spec.beta_range else None),
                    ("reservation_utility", spec.reservation_utility),
                )
                if v is not None
            }
            for spec in config.members
        ]
    if config.strategy == "FUM":
        doc["agenda_observation_rounds"] = config.agenda_observation_rounds
    if config.strategy == "RE":
        doc["representative_behavior"] = config.representative_behavior
        if config.representative_params:
            doc["representative_params"] = config.representative_params
    return doc


def _beta_range_from_dict(doc: dict, owner: str) -> tuple[float, float] | None:
    bounds = doc.get("beta_range")
    return tuple(check_number(bound, owner, "beta_range") for bound in bounds) if bounds else None


def _member_spec_from_dict(doc: dict, owner: str) -> MemberSpec:
    check_keys(doc, [f.name for f in fields(MemberSpec)], owner)
    return MemberSpec(
        beta=None if doc.get("beta") is None else check_number(doc["beta"], owner, "beta"),
        beta_range=_beta_range_from_dict(doc, owner),
        reservation_utility=float(check_number(doc.get("reservation_utility", 0.0), owner, "reservation_utility")),
    )


def team_config_from_dict(doc: dict) -> TeamConfig:
    owner = f"team {doc['name']!r}"
    strategy = str(doc["strategy"])
    # a team document holds the fields of a TeamConfig that its strategy reads
    only = {"agenda_observation_rounds": "FUM", "representative_behavior": "RE", "representative_params": "RE"}
    check_keys(doc, [f.name for f in fields(TeamConfig) if only.get(f.name, strategy) == strategy], owner)
    members = None
    if "members" in doc:
        members = [_member_spec_from_dict(spec, f"{owner} member {i}") for i, spec in enumerate(doc["members"])]
    return TeamConfig(
        name=str(doc["name"]),
        strategy=strategy,
        beta_range=_beta_range_from_dict(doc, owner),
        members=members,
        agenda_observation_rounds=check_number(
            doc.get("agenda_observation_rounds", 5), owner, "agenda_observation_rounds", integer=True
        ),
        representative_behavior=str(doc.get("representative_behavior", "time_tactic")),
        representative_params=dict(doc.get("representative_params", {})),
    )
