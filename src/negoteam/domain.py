"""Negotiation domains: issues, offers, and additive preference profiles.

An offer assigns every issue a value in [0, 1]. Agents score offers with
weighted additive utilities built from per-issue linear valuations, so the
whole utility surface is affine and spans exactly [0, 1].
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

WEIGHT_SUM_TOL = 1e-9


class Direction(str, Enum):
    """Per-issue monotonicity of an agent's valuation."""

    INCREASING = "increasing"
    DECREASING = "decreasing"


@dataclass
class PreferenceProfile:
    """Additive utility over the domain issues.

    weights must be finite, non-negative and sum to one (tolerance WEIGHT_SUM_TOL),
    one weight and one direction per issue.
    """

    name: str
    weights: np.ndarray
    directions: tuple[Direction, ...]

    # derived, set in __post_init__
    signs: np.ndarray = field(init=False, repr=False)
    gradient: np.ndarray = field(init=False, repr=False)
    offset: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.directions = tuple(Direction(d) for d in self.directions)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D vector")
        if len(self.directions) != self.weights.size:
            raise ValueError("one direction required per weight")
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0.0)):
            raise ValueError(f"weights of {self.name!r} must be finite and non-negative")
        if abs(float(self.weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights of {self.name!r} must sum to 1")
        self.signs = np.array(
            [1.0 if d is Direction.INCREASING else -1.0 for d in self.directions]
        )
        # utility(x) = offset + gradient . x, an affine map onto [0, 1]
        self.gradient = self.weights * self.signs
        self.offset = float(self.weights[self.signs < 0.0].sum())

    @property
    def n_issues(self) -> int:
        return int(self.weights.size)


def as_offer(values: Iterable[float], n_issues: int | None = None) -> np.ndarray:
    """Validate and normalise an offer vector: one float in [0, 1] per issue."""
    offer = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                       dtype=np.float64)
    if offer.ndim != 1:
        raise ValueError("an offer must be a 1-D vector")
    if n_issues is not None and offer.size != n_issues:
        raise ValueError(f"offer has {offer.size} values, domain has {n_issues} issues")
    if np.any(offer < 0.0) or np.any(offer > 1.0):
        raise ValueError("offer values must lie in [0, 1]")
    return offer


def utility(profile: PreferenceProfile, offer: np.ndarray) -> float:
    """Weighted additive utility of a complete offer, always in [0, 1]."""
    return utility_unchecked(profile, as_offer(offer, profile.n_issues))


def utility_unchecked(profile: PreferenceProfile, offer: np.ndarray) -> float:
    """``utility`` minus input validation, for hot loops on trusted vectors."""
    return float(profile.offset + profile.gradient @ offer)


def ideal_offer(profile: PreferenceProfile) -> np.ndarray:
    """The unique offer with utility exactly 1 for this profile."""
    return np.where(profile.signs > 0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """A named domain plus the team-side and opponent-side profiles."""

    name: str
    issues: tuple[str, ...]
    team_profiles: tuple[PreferenceProfile, ...]
    opponent_profile: PreferenceProfile

    def __post_init__(self) -> None:
        n = len(self.issues)
        names: set[str] = set()
        for p in (*self.team_profiles, self.opponent_profile):
            if p.n_issues != n:
                raise ValueError(f"profile {p.name!r} does not cover all {n} issues")
            if p.name in names:
                raise ValueError(f"profile name {p.name!r} appears more than once in the scenario")
            names.add(p.name)
        if not self.team_profiles:
            raise ValueError("a scenario needs at least one team profile")

    @property
    def n_issues(self) -> int:
        return len(self.issues)

    def profile_by_name(self, name: str) -> PreferenceProfile:
        for p in (*self.team_profiles, self.opponent_profile):
            if p.name == name:
                return p
        raise KeyError(name)


def hotel_booking() -> Scenario:
    """Built-in four-issue booking domain with three team members and one opponent.

    The team wants low prices, low cancellation fees, late payment and a high
    discount; the opponent wants the exact opposite on every issue.
    """
    team_dirs = (
        Direction.DECREASING,  # price_per_person
        Direction.DECREASING,  # cancellation_fee
        Direction.INCREASING,  # payment_deadline
        Direction.INCREASING,  # bar_discount
    )
    opp_dirs = (
        Direction.INCREASING,
        Direction.INCREASING,
        Direction.DECREASING,
        Direction.DECREASING,
    )
    return Scenario(
        name="hotel-booking",
        issues=("price_per_person", "cancellation_fee", "payment_deadline", "bar_discount"),
        team_profiles=(
            PreferenceProfile("a1", np.array([0.50, 0.10, 0.05, 0.35]), team_dirs),
            PreferenceProfile("a2", np.array([0.25, 0.25, 0.25, 0.25]), team_dirs),
            PreferenceProfile("a3", np.array([0.30, 0.50, 0.05, 0.15]), team_dirs),
        ),
        opponent_profile=PreferenceProfile("op", np.array([0.10, 0.50, 0.25, 0.15]), opp_dirs),
    )


BUILTIN_SCENARIOS = {
    "hotel-booking": hotel_booking,
}


def check_keys(doc: dict, known: Iterable[str], block: str) -> None:
    """Reject a config block holding a key its loader would not read.

    Raises ValueError naming ``block`` and the first unknown key, so that a
    misspelt key fails at load instead of being ignored. A ``doc`` that is
    not a dict (a JSON object) fails too.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{block}: must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(f"{block}: unknown key {unknown[0]!r}; known: {', '.join(known)}")


def check_number(value: object, block: str, key: str, integer: bool = False):
    """Return ``value`` when it is an int (or, unless ``integer``, a float) and not a bool;
    else raise ValueError naming ``block`` and ``key``, so ``true`` or ``"7"`` fails at load.
    Unless ``integer``, an int must also convert to a float: JSON reads ``1e400`` as
    inf but a 1 followed by 400 zeros as an int that ``float()`` cannot hold."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{block}: {key} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if not integer and isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{block}: {key} must be a number, got an integer too large for a float") from None
    return value


def _profile_to_dict(profile: PreferenceProfile, role: str) -> dict:
    return {
        "name": profile.name,
        "role": role,
        "weights": [float(w) for w in profile.weights],
        "directions": [d.value for d in profile.directions],
        # kept, always 0.0, so that documents and transcripts keep their bytes
        "reservation_utility": 0.0,
    }


def _profile_from_dict(doc: dict) -> PreferenceProfile:
    block = f"profile {doc['name']!r}"
    check_keys(doc, ("name", "role", "weights", "directions", "reservation_utility"), block)
    if check_number(doc.get("reservation_utility", 0.0), block, "reservation_utility") != 0.0:
        # no agent reads a profile's reservation utility; accepting one would ignore it
        raise ValueError(
            f"{block}: reservation_utility must be 0; set a reservation utility "
            "in a team member's spec, or in a time_tactic opponent's params"
        )
    return PreferenceProfile(
        name=str(doc["name"]),
        weights=np.asarray(doc["weights"], dtype=np.float64),
        directions=tuple(doc["directions"]),
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    profiles = [_profile_to_dict(p, "team") for p in scenario.team_profiles]
    profiles.append(_profile_to_dict(scenario.opponent_profile, "opponent"))
    return {"name": scenario.name, "issues": list(scenario.issues), "profiles": profiles}


def scenario_from_dict(doc: dict) -> Scenario:
    check_keys(doc, ("name", "issues", "profiles"), "scenario")
    team: list[PreferenceProfile] = []
    opponent: PreferenceProfile | None = None
    for pdoc in doc["profiles"]:
        profile = _profile_from_dict(pdoc)
        if pdoc.get("role", "team") == "opponent":
            if opponent is not None:
                raise ValueError("scenario declares more than one opponent profile")
            opponent = profile
        else:
            team.append(profile)
    if opponent is None:
        raise ValueError("scenario declares no opponent profile")
    return Scenario(
        name=str(doc.get("name", "scenario")),
        issues=tuple(doc["issues"]),
        team_profiles=tuple(team),
        opponent_profile=opponent,
    )


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario by built-in name or from a JSON file."""
    key = str(source)
    if key in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[key]()
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(f"no built-in scenario or file named {key!r}")
    with path.open("r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))

