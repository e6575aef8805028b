"""Correctness checks computed apart from the program.

Utilities are recomputed from the scenario's weights and directions, accept
decisions from the concession formula and the resolved member tactics stored
in each transcript's metadata, and the report's statistics with scipy from
the written ``sessions.csv``. Each check returns a list of problems; an empty
list means the output holds.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOL = 1e-9  # slack for the same sum taken in another order
STATS_RTOL = 1e-6  # the program's betainc tails against scipy's distributions


@dataclass
class SessionView:
    """One finished session in plain values, from memory or from a JSON file."""

    meta: dict
    actions: list  # (party, kind, t, offer or None)
    agreement: bool
    reason: str
    offer: np.ndarray | None
    rounds_used: int
    accepted_by: str | None
    utilities: dict
    joint: float

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.meta["team"]["name"], self.meta["opponent"]["name"], int(self.meta["session"]["repetition"]))


def view_from_transcript(transcript) -> SessionView:
    out = transcript.outcome
    actions = [(e.party, e.action.kind.value, e.t, e.action.offer) for e in transcript.entries]
    return SessionView(
        meta=transcript.config,
        actions=actions,
        agreement=out.agreement,
        reason=out.reason,
        offer=out.offer,
        rounds_used=out.rounds_used,
        accepted_by=out.accepted_by,
        utilities=dict(out.utilities),
        joint=out.joint_utility,
    )


def view_from_doc(doc: dict) -> SessionView:
    def arr(v):
        return None if v is None else np.asarray(v, dtype=np.float64)

    actions = [(a["party"], a["kind"], a["t"], arr(a.get("offer"))) for a in doc["actions"]]
    out = doc["outcome"]
    return SessionView(
        meta=doc["config"],
        actions=actions,
        agreement=out["agreement"],
        reason=out["reason"],
        offer=arr(out["offer"]),
        rounds_used=out["rounds_used"],
        accepted_by=out["accepted_by"],
        utilities=doc["utilities"],
        joint=doc["joint_utility"],
    )


class Utilities:
    """Σ wᵢ·vᵢ(xᵢ) per profile, with vᵢ(x) = x for increasing issues and 1 − x otherwise."""

    def __init__(self, scenario_doc: dict) -> None:
        self.profiles = {}
        self.opponent = None
        for p in scenario_doc["profiles"]:
            increasing = np.array([d == "increasing" for d in p["directions"]])
            self.profiles[p["name"]] = (np.asarray(p["weights"], dtype=np.float64), increasing)
            if p.get("role") == "opponent":
                self.opponent = p["name"]
        self.n_issues = len(scenario_doc["issues"])

    def __call__(self, name: str, x: np.ndarray) -> float:
        w, increasing = self.profiles[name]
        return float(np.sum(w * np.where(increasing, x, 1.0 - x)))


def _in_box(offer, n: int) -> bool:
    return (
        offer is not None
        and offer.shape == (n,)
        and bool(np.all(np.isfinite(offer)))
        and bool(np.all((offer >= 0.0) & (offer <= 1.0)))
    )


def _demand(beta: float, reservation: float, t: float) -> float:
    return 1.0 - (1.0 - reservation) * t ** (1.0 / beta)


def _team_accept_problem(view: SessionView, util: Utilities, offer: np.ndarray, t: float) -> str | None:
    team = view.meta["team"]
    strategy = team["strategy"]
    if strategy not in ("SSV", "SBV", "FUM"):
        return None
    clears = [
        util(m["profile"], offer) >= _demand(m["beta"], m["reservation_utility"], t) - TOL
        for m in team["resolved_members"]
    ]
    if strategy == "SSV":
        if 2 * sum(clears) <= len(clears):
            return f"SSV accepted at t={t} with {sum(clears)}/{len(clears)} members clearing their demand"
    elif not all(clears):
        return f"{strategy} accepted at t={t} with {sum(clears)}/{len(clears)} members clearing their demand"
    return None


def _opponent_accept_problem(view: SessionView, util: Utilities, offer: np.ndarray) -> str | None:
    opp = view.meta["opponent"]
    if opp["archetype"] != "crazy_haggler":
        return None
    threshold = float(opp.get("params", {}).get("threshold", 0.9))
    u = util(util.opponent, offer)
    if u < threshold - TOL:
        return f"Crazy accepted an offer worth {u} below its threshold {threshold}"
    return None


def check_session(view: SessionView) -> list[str]:
    util = Utilities(view.meta["scenario"])
    n = util.n_issues
    problems: list[str] = []
    standing, standing_party = None, None
    accepted = None
    for i, (party, kind, t, offer) in enumerate(view.actions):
        if accepted is not None:
            problems.append("actions follow the session's end")
            break
        if kind == "propose":
            if not _in_box(offer, n):
                problems.append(f"proposal {i} by {party} lies outside [0, 1]^{n}")
            standing, standing_party = offer, party
        elif kind == "accept":
            accepted = (party, t)
            if standing is None or standing_party == party:
                problems.append(f"{party} accepted at action {i} without a standing proposal from the other party")
                continue
            rule = (
                _team_accept_problem(view, util, standing, t)
                if party == "team"
                else _opponent_accept_problem(view, util, standing)
            )
            if rule:
                problems.append(rule)
        elif kind == "end":
            accepted = (party, t)
        else:
            problems.append(f"unknown action kind {kind!r}")

    max_rounds = int(view.meta["session"]["max_rounds"])
    if not 1 <= view.rounds_used <= max_rounds:
        problems.append(f"rounds_used {view.rounds_used} outside [1, {max_rounds}]")
    names = set(util.profiles)
    if set(view.utilities) != names:
        problems.append(f"utilities cover {sorted(view.utilities)}, not {sorted(names)}")
        return problems

    if view.agreement:
        if view.reason != "accepted" or accepted is None or view.actions[-1][1] != "accept":
            problems.append("an agreement that does not end on an accept")
            return problems
        if view.accepted_by != accepted[0]:
            problems.append(f"accepted_by {view.accepted_by!r} but {accepted[0]!r} accepted")
        if not _in_box(view.offer, n):
            problems.append("the accepted offer lies outside the box")
            return problems
        if standing is None or not np.array_equal(view.offer, standing):
            problems.append("the outcome's offer is not the accepted proposal")
        expected = {name: util(name, view.offer) for name in names}
        for name in names:
            if abs(view.utilities[name] - expected[name]) > TOL:
                problems.append(f"utility of {name} is {view.utilities[name]}, recomputed {expected[name]}")
        joint = math.prod(expected.values())
        if abs(view.joint - joint) > TOL:
            problems.append(f"joint utility {view.joint}, product of utilities {joint}")
    else:
        if view.reason not in ("deadline", "ended") or view.offer is not None:
            problems.append(f"a failed session with reason {view.reason!r} and an offer")
        if view.reason == "deadline" and view.rounds_used != max_rounds:
            problems.append("a deadline before max_rounds")
        if view.joint != 0.0 or any(v != 0.0 for v in view.utilities.values()):
            problems.append("a failed session does not score zero for everyone")
    return problems


def check_sessions_csv(path: Path, views: list[SessionView]) -> dict[tuple, list[str]]:
    """Each row of ``sessions.csv`` against its session; problems keyed by session."""
    by_key = {v.key: v for v in views}
    problems: dict[tuple, list[str]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    seen = set()
    for row in rows:
        key = (row["team"], row["opponent"], int(row["repetition"]))
        seen.add(key)
        view = by_key.get(key)
        if view is None:
            problems.setdefault(key, []).append("sessions.csv row for a session that did not run")
            continue
        members = [c[2:] for c in row if c.startswith("u_")]
        mu = [float(row[f"u_{m}"]) for m in members]
        found = []
        if (bool(int(row["agreement"])), row["reason"], int(row["rounds_used"])) != (
            view.agreement,
            view.reason,
            view.rounds_used,
        ):
            found.append("sessions.csv outcome differs from the transcript")
        for m, u in zip(members, mu):
            if u != view.utilities[m]:
                found.append(f"sessions.csv u_{m} differs from the transcript")
        opp = Utilities(view.meta["scenario"]).opponent
        derived = {
            "opponent_utility": view.utilities[opp],
            "team_average": sum(mu) / len(mu),
            "team_min": min(mu),
            "team_max": max(mu),
            "joint_utility": view.joint,
        }
        for col, value in derived.items():
            if abs(float(row[col]) - value) > TOL:
                found.append(f"sessions.csv {col} is {row[col]}, expected {value}")
        if found:
            problems[key] = found
    for key in set(by_key) - seen:
        problems.setdefault(key, []).append("session missing from sessions.csv")
    return problems


# ---------------------------------------------------------------------------
# statistics against scipy

def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= STATS_RTOL * max(abs(a), abs(b)) + 1e-12


def holm(p: list[float]) -> list[float]:
    """Holm step-down: the k-th smallest p times (m − k), running max, capped at 1."""
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    adjusted = [0.0] * m
    running = 0.0
    for k, i in enumerate(order):
        running = max(running, (m - k) * p[i])
        adjusted[i] = min(running, 1.0)
    return adjusted


def _welch_p(a: np.ndarray, b: np.ndarray) -> float:
    from scipy import stats

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = float(stats.ttest_ind(a, b, equal_var=False).pvalue)
    if math.isnan(p):
        # both groups constant: identical means are no evidence, distinct ones are certain
        return 1.0 if a.mean() == b.mean() else 0.0
    return p


def _best_set(groups: list[np.ndarray], alpha: float) -> tuple[set[int], list[float], list[float]]:
    means = [float(g.mean()) for g in groups]
    champion = means.index(max(means))
    pairs = [(i, j) for i in range(len(groups)) for j in range(i + 1, len(groups))]
    raw = [_welch_p(groups[i], groups[j]) for i, j in pairs]
    adjusted = holm(raw)
    best = {champion}
    for (i, j), p in zip(pairs, adjusted):
        if champion in (i, j) and p >= alpha:
            best.add(j if i == champion else i)
    return best, raw, adjusted


def check_report_stats(csv_path: Path, report: dict) -> list[str]:
    """ANOVA, Welch tests and Holm adjustment of a report against scipy."""
    from scipy import stats

    from negoteam.stats import posthoc_best_groups

    with csv_path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    teams = list(dict.fromkeys(r["team"] for r in rows))
    problems = []
    if report["teams"] != teams:
        problems.append(f"report teams {report['teams']} differ from sessions.csv {teams}")
        return problems
    alpha = report["alpha"]
    for col in report["columns"]:
        opponent = col["opponent"]
        for metric, best_key in (("team_average", "best_team_average"), ("joint_utility", "best_joint")):
            groups = [
                np.array([float(r[metric]) for r in rows if r["team"] == t and r["opponent"] == opponent])
                for t in teams
            ]
            if metric == "team_average":
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    f, p = stats.f_oneway(*groups)
                anova = col["anova_team_average"]
                if not (_close(anova["f_stat"], float(f)) and _close(anova["p_value"], float(p))):
                    problems.append(
                        f"{opponent}: ANOVA F={anova['f_stat']} p={anova['p_value']}, scipy F={f} p={p}"
                    )
            best, raw, adjusted = _best_set(groups, alpha)
            if sorted(teams[i] for i in best) != col[best_key]:
                problems.append(f"{opponent}: {best_key} {col[best_key]}, recomputed {sorted(teams[i] for i in best)}")
            program = posthoc_best_groups(groups, alpha).comparisons
            for comp, p_raw, p_adj in zip(program, raw, adjusted):
                if not (_close(comp.p_raw, p_raw) and _close(comp.p_adjusted, p_adj)):
                    problems.append(
                        f"{opponent} {metric} {teams[comp.group_a]} vs {teams[comp.group_b]}: "
                        f"Welch/Holm p {comp.p_raw}/{comp.p_adjusted}, scipy {p_raw}/{p_adj}"
                    )
    return problems
