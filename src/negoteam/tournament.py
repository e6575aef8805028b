"""Tournament harness: teams x opponents x repetitions, fully reproducible.

Every session derives its own seed by stable hashing of the master seed with
the pairing names and the repetition index, so runs are independent of
execution order and identical across processes. Repetition parity decides
who opens (even: the team). A run writes each session's metadata first and
builds the session from it with :func:`rebuild_session`, the function a
replay uses. Failed sessions score zero for everyone and stay in the
averages.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
from concurrent import futures
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .domain import Scenario, check_keys, check_number, load_scenario, scenario_from_dict, scenario_to_dict
from .opponents import build_opponent
from .protocol import Outcome, Party, SessionConfig, Transcript, run_sessions, save_transcript
from .tactics import TimeTactic
from .team import (
    TeamConfig,
    TeamMember,
    make_team_party,
    member_specs,
    resolve_members,
    team_config_from_dict,
    team_config_to_dict,
)

DEFAULT_MASTER_SEED = 12345

# the most consecutive cells a tournament plays in lockstep: enough sessions
# to fill the kernel's stacks, few enough to spread the work over the CPUs
CHUNK_CELLS = 10


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in text.lower()).strip("-")


def transcript_name(team: str, opponent: str, repetition: int) -> str:
    """The file name a run gives a session's transcript: ``team__opponent__NNN.json``.

    Names are lower-cased with every other character than a letter or digit
    turned into ``-``, so a slug holds no ``__`` and two cells share a file
    name only where two team or two opponent names share a slug.
    """
    return f"{_slug(team)}__{_slug(opponent)}__{repetition:03d}.json"


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from arbitrary labelled parts (not order-free)."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class OpponentConfig:
    name: str
    archetype: str
    params: dict = field(default_factory=dict)


@dataclass
class TournamentConfig:
    scenario: Scenario
    teams: list[TeamConfig]
    opponents: list[OpponentConfig]
    repetitions: int = 10
    max_rounds: int = 1000
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be positive, got {self.max_rounds!r}")
        if not self.teams or not self.opponents:
            raise ValueError("a tournament needs at least one team and one opponent")
        names = [t.name for t in self.teams] + [o.name for o in self.opponents]
        if len(set(names)) != len(names):
            raise ValueError("team and opponent names must be unique")
        # workers write their cells' transcripts side by side, named by slug
        for kind, group in (("team", self.teams), ("opponent", self.opponents)):
            by_slug: dict[str, str] = {}
            for item in group:
                other = by_slug.setdefault(_slug(item.name), item.name)
                if other != item.name:
                    raise ValueError(
                        f"{kind} names {other!r} and {item.name!r} give the same transcript file name"
                    )
        # build every opponent and archetype representative once, untouched,
        # so that a bad archetype, parameter name or value fails on load
        # rather than when its first session runs
        probe = np.random.default_rng(0)
        for opp in self.opponents:
            try:
                build_opponent(opp.archetype, self.scenario.opponent_profile, probe, opp.params)
            except ValueError as exc:
                raise ValueError(f"opponent {opp.name!r}: {exc}") from None
        first, *others = self.scenario.team_profiles
        misaligned = [
            (profile.name, issue)
            for profile in others
            for issue, mine, theirs in zip(self.scenario.issues, profile.directions, first.directions)
            if mine != theirs
        ]
        for team in self.teams:
            member_specs(team, self.scenario)
            if team.strategy == "FUM" and misaligned:
                name, issue = misaligned[0]
                raise ValueError(
                    f"team {team.name!r}: unanimity building requires identical issue "
                    f"directions, but {first.name!r} and {name!r} disagree on {issue!r}"
                )
            if team.strategy == "RE" and team.representative_behavior != "time_tactic":
                try:
                    build_opponent(
                        team.representative_behavior,
                        self.scenario.team_profiles[0],
                        probe,
                        team.representative_params,
                    )
                except ValueError as exc:
                    raise ValueError(f"team {team.name!r} representative: {exc}") from None


@dataclass
class SessionRecord:
    team: str
    opponent: str
    repetition: int
    seed: int
    initiator: str
    agreement: bool
    reason: str
    rounds_used: int
    member_utilities: dict[str, float]
    opponent_utility: float
    team_average: float
    team_min: float
    team_max: float
    joint_utility: float


def _session_meta(
    scenario: Scenario,
    team_cfg: TeamConfig,
    opp_cfg: OpponentConfig,
    repetition: int,
    master_seed: int,
    max_rounds: int,
) -> dict:
    """The metadata of one (team, opponent, repetition) cell.

    It holds everything :func:`rebuild_session` needs to build the session,
    the member betas included: they are drawn here and nowhere else.
    """
    session_seed = derive_seed(master_seed, team_cfg.name, opp_cfg.name, repetition)
    beta_rng = np.random.default_rng(derive_seed(session_seed, "betas"))
    members = resolve_members(team_cfg, scenario, beta_rng)
    team_doc = team_config_to_dict(team_cfg)
    team_doc["resolved_members"] = [
        {
            "profile": m.profile.name,
            "beta": m.tactic.beta,
            "reservation_utility": m.tactic.reservation_utility,
        }
        for m in members
    ]
    return {
        "scenario": scenario_to_dict(scenario),
        "team": team_doc,
        "opponent": {"name": opp_cfg.name, "archetype": opp_cfg.archetype, "params": opp_cfg.params},
        "session": {
            "seed": session_seed,
            "repetition": repetition,
            "max_rounds": max_rounds,
            "initiator": "team" if repetition % 2 == 0 else "opponent",
            "master_seed": master_seed,
        },
    }


def _play_cells(cells: Sequence[tuple]) -> list[tuple[SessionRecord, Transcript]]:
    """Play packed cells in lockstep, one session each; results in cell order."""
    metas = [_session_meta(*cell) for cell in cells]
    played = run_sessions([(*rebuild_session(meta), meta) for meta in metas])
    return [
        (_record_from_outcome(meta, outcome), transcript)
        for meta, (transcript, outcome) in zip(metas, played)
    ]


def _play_chunk(cells: Sequence[tuple], transcripts_dir: Path | None) -> list[SessionRecord]:
    """Play a chunk, write its transcripts into ``transcripts_dir`` if given,
    and return only the records, which are all a worker sends back."""
    records = []
    for record, transcript in _play_cells(cells):
        if transcripts_dir is not None:
            name = transcript_name(record.team, record.opponent, record.repetition)
            save_transcript(transcript, transcripts_dir / name)
        records.append(record)
    return records


def run_pairing_session(
    scenario: Scenario,
    team_cfg: TeamConfig,
    opp_cfg: OpponentConfig,
    repetition: int,
    master_seed: int,
    max_rounds: int,
) -> tuple[SessionRecord, Transcript]:
    """Play one (team, opponent, repetition) cell of the tournament."""
    return _play_cells([(scenario, team_cfg, opp_cfg, repetition, master_seed, max_rounds)])[0]


def rebuild_session(meta: dict) -> tuple[Party, Party, SessionConfig]:
    """Build the two parties and config of the session ``meta`` describes.

    This is the only code that builds a session: a run builds each one from
    :func:`_session_meta`, a replay from the transcript's stored copy.
    Member tactics come from the resolved values in the metadata, so nothing
    is redrawn; replaying yields the identical transcript.
    """
    scenario = scenario_from_dict(meta["scenario"])
    # the team's config, less the members its session resolved
    team_doc = dict(meta["team"])
    resolved = team_doc.pop("resolved_members")
    team_cfg = team_config_from_dict(team_doc)
    session = meta["session"]
    session_seed = int(session["seed"])

    members = [
        TeamMember(
            profile=scenario.profile_by_name(m["profile"]),
            tactic=TimeTactic(beta=float(m["beta"]), reservation_utility=float(m["reservation_utility"])),
        )
        for m in resolved
    ]
    team_party = make_team_party(team_cfg, members, seed=derive_seed(session_seed, "team"))
    opp_doc = meta["opponent"]
    opponent_party = build_opponent(
        opp_doc["archetype"],
        scenario.opponent_profile,
        np.random.default_rng(derive_seed(session_seed, "opponent")),
        params=opp_doc.get("params", {}),
    )
    config = SessionConfig(max_rounds=int(session["max_rounds"]), initiator=str(session["initiator"]))
    return team_party, opponent_party, config


def _record_from_outcome(meta: dict, outcome: Outcome) -> SessionRecord:
    """The record of a session played from ``meta``."""
    session = meta["session"]
    member_names = [m["profile"] for m in meta["team"]["resolved_members"]]
    (opponent_profile,) = [p["name"] for p in meta["scenario"]["profiles"] if p["role"] == "opponent"]
    member_utilities = {name: outcome.utilities[name] for name in member_names}
    values = list(member_utilities.values())
    return SessionRecord(
        team=meta["team"]["name"],
        opponent=meta["opponent"]["name"],
        repetition=session["repetition"],
        seed=session["seed"],
        initiator=session["initiator"],
        agreement=outcome.agreement,
        reason=outcome.reason,
        rounds_used=outcome.rounds_used,
        member_utilities=member_utilities,
        opponent_utility=outcome.utilities[opponent_profile],
        team_average=sum(values) / len(values),
        team_min=min(values),
        team_max=max(values),
        joint_utility=outcome.joint_utility,
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_cells(cells: list, cpus: int) -> list[list]:
    """Cut ``cells`` into consecutive chunks of ``CHUNK_CELLS``, smaller where a CPU would get none."""
    size = max(1, min(CHUNK_CELLS, math.ceil(len(cells) / cpus)))
    return [cells[i : i + size] for i in range(0, len(cells), size)]


def run_tournament(
    config: TournamentConfig, transcripts_dir: str | Path | None = None
) -> list[SessionRecord]:
    """Run every (team, opponent, repetition) session, in canonical order.

    The canonical list of cells is cut into chunks of consecutive cells, and
    each chunk's sessions are played in lockstep, so that they share their
    kernel calls. A chunk holds ``CHUNK_CELLS`` cells, or fewer where that
    would leave a CPU idle. Chunks are played on every CPU this process may
    use, one worker process each; with one CPU or one chunk they run in this
    process. Records come back in canonical order, so they depend neither on
    the CPU count nor on the chunking.

    With ``transcripts_dir``, the process that plays a chunk writes each of
    its sessions' transcripts there, under :func:`transcript_name`; the
    directory is created if missing.
    """
    cells = [
        (config.scenario, team_cfg, opp_cfg, repetition, config.master_seed, config.max_rounds)
        for team_cfg in config.teams
        for opp_cfg in config.opponents
        for repetition in range(config.repetitions)
    ]
    if transcripts_dir is not None:
        transcripts_dir = Path(transcripts_dir)
        transcripts_dir.mkdir(parents=True, exist_ok=True)
    cpus = _usable_cpus()
    chunks = _chunk_cells(cells, cpus)
    play = functools.partial(_play_chunk, transcripts_dir=transcripts_dir)
    workers = min(cpus, len(chunks))
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # futures loads its process module, with multiprocessing, only on
            # this first attribute access, so a run that plays in this
            # process never imports it
            pool = futures.ProcessPoolExecutor(max_workers=workers)
            # cancel what has not started if a session or a write raises
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(play, chunks)
        else:
            results = map(play, chunks)
        return [record for chunk in results for record in chunk]


# ---------------------------------------------------------------------------
# the default desk experiment
# ---------------------------------------------------------------------------

BOULWARE_RANGE = (0.5, 0.99)
VERY_BOULWARE_RANGE = (0.01, 0.4)


def desk_config(repetitions: int = 10, max_rounds: int = 1000) -> TournamentConfig:
    """The default experiment: seven team setups against five archetypes.

    B teams draw member betas from U(0.5, 0.99), VB teams from
    U(0.01, 0.4). The representative setup fields a statistics-driven
    mirror negotiator instead of a time tactic.
    """
    b, vb = BOULWARE_RANGE, VERY_BOULWARE_RANGE
    teams = [
        TeamConfig(name="FUM B", strategy="FUM", beta_range=b),
        TeamConfig(name="FUM VB", strategy="FUM", beta_range=vb),
        TeamConfig(name="RE K", strategy="RE", beta_range=b, representative_behavior="agent_k_like"),
        TeamConfig(name="SSV B", strategy="SSV", beta_range=b),
        TeamConfig(name="SSV VB", strategy="SSV", beta_range=vb),
        TeamConfig(name="SBV B", strategy="SBV", beta_range=b),
        TeamConfig(name="SBV VB", strategy="SBV", beta_range=vb),
    ]
    opponents = [
        OpponentConfig(name="Crazy", archetype="crazy_haggler", params={"threshold": 0.9}),
        OpponentConfig(name="Haggler", archetype="haggler_adaptive"),
        OpponentConfig(name="K", archetype="agent_k_like"),
        OpponentConfig(name="TFT", archetype="nice_tft_like"),
        OpponentConfig(name="Smith", archetype="smith_like"),
    ]
    return TournamentConfig(
        scenario=load_scenario("hotel-booking"),
        teams=teams,
        opponents=opponents,
        repetitions=repetitions,
        max_rounds=max_rounds,
    )


def tournament_config_to_dict(config: TournamentConfig) -> dict:
    return {
        "scenario": scenario_to_dict(config.scenario),
        "teams": [team_config_to_dict(t) for t in config.teams],
        "opponents": [
            {"name": o.name, "archetype": o.archetype, "params": o.params} for o in config.opponents
        ],
        "tournament": {
            "repetitions": config.repetitions,
            "max_rounds": config.max_rounds,
            "seed": config.master_seed,
        },
    }


def _opponent_config_from_dict(doc: dict) -> OpponentConfig:
    check_keys(doc, [f.name for f in fields(OpponentConfig)], f"opponent {doc['name']!r}")
    return OpponentConfig(
        name=str(doc["name"]),
        archetype=str(doc["archetype"]),
        params=dict(doc.get("params", {})),
    )


def tournament_config_from_dict(doc: dict) -> TournamentConfig:
    """Load a config document; every block rejects a key it does not know."""
    check_keys(doc, ("scenario", "teams", "opponents", "tournament"), "config")
    scenario_doc = doc["scenario"]
    if isinstance(scenario_doc, str):
        scenario = load_scenario(scenario_doc)
    else:
        scenario = scenario_from_dict(scenario_doc)
    meta = doc.get("tournament", {})
    check_keys(meta, ("repetitions", "max_rounds", "seed"), "tournament")
    return TournamentConfig(
        scenario=scenario,
        teams=[team_config_from_dict(t) for t in doc["teams"]],
        opponents=[_opponent_config_from_dict(o) for o in doc["opponents"]],
        repetitions=check_number(meta.get("repetitions", 10), "tournament", "repetitions", integer=True),
        max_rounds=check_number(meta.get("max_rounds", 1000), "tournament", "max_rounds", integer=True),
        master_seed=check_number(meta.get("seed", DEFAULT_MASTER_SEED), "tournament", "seed", integer=True),
    )
