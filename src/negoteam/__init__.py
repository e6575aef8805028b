"""Deterministic simulator for team-versus-single-opponent negotiations.

A negotiation team (a mediator plus members with private preferences and
concession tactics) faces one opponent under the alternating-offers
protocol. The package provides four intra-team decision rules, a set of
opponent archetypes, and a reproducible tournament pipeline with ANOVA-based
reporting.
"""
from .domain import (
    Direction,
    PreferenceProfile,
    Scenario,
    as_offer,
    hotel_booking,
    ideal_offer,
    load_scenario,
    utility,
)
from .protocol import (
    Action,
    ActionKind,
    Outcome,
    Party,
    ProtocolViolation,
    SessionConfig,
    Transcript,
    load_transcript,
    run_session,
    run_sessions,
    save_transcript,
    score,
)
from .tactics import SampleRequest, TimeTactic, demand
from .team import (
    MemberSpec,
    TeamConfig,
    TeamMember,
    borda_scores,
    borda_winner,
    build_unanimity_offer,
    infer_agenda,
    majority_accepts,
    make_team_party,
    plurality_winner,
    resolve_members,
    unanimity_accepts,
)
from .opponents import build_opponent, ARCHETYPES
from .stats import anova_oneway, holm_adjust, posthoc_best_groups, welch_t_test
from .tournament import (
    OpponentConfig,
    SessionRecord,
    TournamentConfig,
    desk_config,
    run_pairing_session,
    run_tournament,
)
from .report import build_report, render_report, read_sessions_csv, write_sessions_csv

__version__ = "0.1.0"
