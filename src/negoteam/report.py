"""Tournament outputs: the per-session CSV and aggregated reports.

``sessions.csv`` carries the full per-session data and is byte-stable for a
given record list (floats serialised via repr). Reports aggregate it into
per-opponent columns with one-way ANOVA across team setups and bold marks on
the statistically best group(s) per column.
"""
from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

from .stats import DEFAULT_ALPHA, anova_oneway, posthoc_best_groups
from .tournament import SessionRecord

_FIXED_COLUMNS = [
    "team",
    "opponent",
    "repetition",
    "seed",
    "initiator",
    "agreement",
    "reason",
    "rounds_used",
]
_TAIL_COLUMNS = ["opponent_utility", "team_average", "team_min", "team_max", "joint_utility"]


def _member_columns(records: Sequence[SessionRecord]) -> list[str]:
    names = list(records[0].member_utilities)
    for rec in records:
        if list(rec.member_utilities) != names:
            raise ValueError("records mix different member sets")
    return names


def _csv_line(fields: list) -> str:
    """One CSV row, ending in a newline.

    The writer quotes a field for the characters of its line terminator, and
    a reader also ends a row at a lone carriage return, so the row is
    written with ``\r\n`` and its ending cut back to ``\n``.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def sessions_to_csv(records: Sequence[SessionRecord]) -> str:
    """Render the canonical per-session CSV text."""
    if not records:
        raise ValueError("no records to render")
    members = _member_columns(records)
    lines = [_csv_line(_FIXED_COLUMNS + [f"u_{m}" for m in members] + _TAIL_COLUMNS)]
    for rec in records:
        row = [
            rec.team,
            rec.opponent,
            rec.repetition,
            rec.seed,
            rec.initiator,
            int(rec.agreement),
            rec.reason,
            rec.rounds_used,
            *[repr(rec.member_utilities[m]) for m in members],
            repr(rec.opponent_utility),
            repr(rec.team_average),
            repr(rec.team_min),
            repr(rec.team_max),
            repr(rec.joint_utility),
        ]
        lines.append(_csv_line(row))
    return "".join(lines)


def write_sessions_csv(records: Sequence[SessionRecord], path: str | Path) -> None:
    Path(path).write_text(sessions_to_csv(records), encoding="utf-8")


def read_sessions_csv(path: str | Path) -> list[SessionRecord]:
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        member_cols = [c for c in fields if c.startswith("u_")]
        records = []
        for row in reader:
            records.append(
                SessionRecord(
                    team=row["team"],
                    opponent=row["opponent"],
                    repetition=int(row["repetition"]),
                    seed=int(row["seed"]),
                    initiator=row["initiator"],
                    agreement=bool(int(row["agreement"])),
                    reason=row["reason"],
                    rounds_used=int(row["rounds_used"]),
                    member_utilities={c[2:]: float(row[c]) for c in member_cols},
                    opponent_utility=float(row["opponent_utility"]),
                    team_average=float(row["team_average"]),
                    team_min=float(row["team_min"]),
                    team_max=float(row["team_max"]),
                    joint_utility=float(row["joint_utility"]),
                )
            )
    return records


# ---------------------------------------------------------------------------
# aggregated report
# ---------------------------------------------------------------------------

def _ordered(records: Sequence[SessionRecord], attr: str) -> list[str]:
    seen: list[str] = []
    for rec in records:
        value = getattr(rec, attr)
        if value not in seen:
            seen.append(value)
    return seen


def build_report(records: Sequence[SessionRecord]) -> dict:
    """Aggregate records into a JSON-ready report document.

    Per opponent column: each team setup's cell means over its sessions,
    failures included as zeros, a one-way ANOVA on team utility across the
    setups, and the statistically-best set per metric from the
    Holm-corrected Welch post-hoc at ``DEFAULT_ALPHA``.
    """
    if not records:
        raise ValueError("no records to report on")
    teams = _ordered(records, "team")
    opponents = _ordered(records, "opponent")
    by_cell: dict[tuple[str, str], list[SessionRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.team, rec.opponent), []).append(rec)

    columns = []
    for opponent in opponents:
        cell_records = [by_cell[(team, opponent)] for team in teams]
        team_avg_groups = [[r.team_average for r in recs] for recs in cell_records]
        joint_groups = [[r.joint_utility for r in recs] for recs in cell_records]
        # a single team or single-repetition cells leave nothing to test
        can_test = len(teams) >= 2 and min(len(g) for g in team_avg_groups) >= 2
        if can_test:
            anova = anova_oneway(team_avg_groups)
            best_avg = posthoc_best_groups(team_avg_groups, DEFAULT_ALPHA).best
            best_joint = posthoc_best_groups(joint_groups, DEFAULT_ALPHA).best
        else:
            anova = None
            best_avg = set()
            best_joint = set()
        cells = {}
        for team, recs in zip(teams, cell_records):
            n = len(recs)
            cells[team] = {
                "mean_team_average": sum(r.team_average for r in recs) / n,
                "mean_team_min": sum(r.team_min for r in recs) / n,
                "mean_team_max": sum(r.team_max for r in recs) / n,
                "mean_opponent": sum(r.opponent_utility for r in recs) / n,
                "mean_joint": sum(r.joint_utility for r in recs) / n,
                "agreement_rate": sum(r.agreement for r in recs) / n,
                "n_sessions": n,
            }
        columns.append(
            {
                "opponent": opponent,
                "cells": cells,
                "anova_team_average": None
                if anova is None
                else {
                    "f_stat": anova.f_stat,
                    "p_value": anova.p_value,
                    "df_between": anova.df_between,
                    "df_within": anova.df_within,
                },
                "best_team_average": sorted(teams[i] for i in best_avg),
                "best_joint": sorted(teams[i] for i in best_joint),
            }
        )
    return {"teams": teams, "opponents": opponents, "alpha": DEFAULT_ALPHA, "columns": columns}


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _markdown_table(report: dict, metric: str, best_key: str, title: str) -> list[str]:
    teams = report["teams"]
    lines = [f"## {title}", ""]
    header = "| Team | " + " | ".join(col["opponent"] for col in report["columns"]) + " |"
    rule = "|---" * (len(report["columns"]) + 1) + "|"
    lines += [header, rule]
    for team in teams:
        cells = []
        for col in report["columns"]:
            value = col["cells"][team][metric]
            text = f"{value:.3f}"
            if team in col[best_key]:
                text = f"**{text}**"
            cells.append(text)
        lines.append("| " + " | ".join([team] + cells) + " |")
    lines.append("")
    return lines


def render_markdown(report: dict) -> str:
    lines = [
        "# Tournament report",
        "",
        f"Bold marks the statistically best group(s) per opponent column "
        f"(Holm-corrected pairwise Welch tests, alpha = {report['alpha']}).",
        "",
    ]
    lines += _markdown_table(report, "mean_team_average", "best_team_average", "Mean team utility")
    lines += _markdown_table(report, "mean_joint", "best_joint", "Mean joint utility")
    lines.append("## One-way ANOVA on team utility, per opponent")
    lines.append("")
    lines.append("| Opponent | F | p | df |")
    lines.append("|---|---|---|---|")
    for col in report["columns"]:
        anova = col["anova_team_average"]
        if anova is None:
            lines.append(f"| {col['opponent']} | n/a | n/a | n/a |")
            continue
        lines.append(
            "| {} | {:.4f} | {:.3g} | ({}, {}) |".format(
                col["opponent"],
                anova["f_stat"],
                anova["p_value"],
                anova["df_between"],
                anova["df_within"],
            )
        )
    lines.append("")
    return "\n".join(lines)


def render_report(records: Sequence[SessionRecord], fmt: str) -> str:
    """Render records in one of the supported formats: csv, json, markdown."""
    if fmt == "csv":
        return sessions_to_csv(records)
    report = build_report(records)
    if fmt == "json":
        return render_json(report)
    if fmt == "markdown":
        return render_markdown(report)
    raise ValueError(f"unknown report format {fmt!r}")
