"""Command line front end.

Subcommands:
  run     play a tournament and write sessions.csv, transcripts and report.md
  report  re-render a finished run in csv, json or markdown
  replay  re-execute a stored transcript and verify it reproduces exactly
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .protocol import first_divergence, load_transcript, run_session, transcripts_equal
from .report import read_sessions_csv, render_markdown, render_report, build_report, write_sessions_csv
from .tournament import (
    desk_config,
    rebuild_session,
    run_tournament,
    tournament_config_from_dict,
)


def _error(source: object, exc: Exception) -> int:
    """Report ``exc`` as one ``error:`` line about ``source``; the exit code is 2."""
    print(f"error: {source}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = tournament_config_from_dict(json.load(fh))
        else:
            config = desk_config()
        # replace() checks the overridden config as loading checks a file
        overrides = {"master_seed": args.seed, "repetitions": args.reps, "max_rounds": args.max_rounds}
        config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _error(args.config or "built-in experiment", exc)

    out_dir = Path(args.out)
    transcripts_dir = None if args.no_transcripts else out_dir / "transcripts"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if transcripts_dir is not None:
            transcripts_dir.mkdir(exist_ok=True)
        # a directory where an output file goes would fail only after the run
        for path in (out_dir / "sessions.csv", out_dir / "report.md"):
            if path.is_dir():
                raise IsADirectoryError(f"{path} is a directory, not a file the run can write")
    except OSError as exc:
        return _error(out_dir, exc)
    records = run_tournament(config, transcripts_dir=transcripts_dir)

    write_sessions_csv(records, out_dir / "sessions.csv")
    (out_dir / "report.md").write_text(render_markdown(build_report(records)), encoding="utf-8")
    agreements = sum(r.agreement for r in records)
    print(
        f"{len(records)} sessions ({agreements} agreements) -> "
        f"{out_dir / 'sessions.csv'}, {out_dir / 'report.md'}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    csv_path = Path(args.in_dir) / "sessions.csv"
    if not csv_path.exists():
        print(f"error: {csv_path} not found", file=sys.stderr)
        return 2
    try:
        text = render_report(read_sessions_csv(csv_path), args.format)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _error(csv_path, exc)
    if args.out is not None:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            return _error(args.out, exc)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        stored = load_transcript(args.transcript)
        team_party, opponent_party, config = rebuild_session(stored.config)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # exit 1 is kept for a replay that diverges
        return _error(args.transcript, exc)
    replayed, outcome = run_session(team_party, opponent_party, config, stored.config)
    if not transcripts_equal(stored, replayed):
        index = first_divergence(stored, replayed)
        if index is None:
            where = "in its outcome"
        else:
            rnd, party = (stored if index < len(stored) else replayed).round_and_party(index)
            where = f"at action {index} (round {rnd}, party {party})"
        print(f"MISMATCH: replay diverged from the stored transcript {where}", file=sys.stderr)
        return 1
    status = "agreement" if outcome.agreement else f"failure ({outcome.reason})"
    print(
        f"replay OK: {len(replayed)} actions, {status} "
        f"after {outcome.rounds_used} rounds, joint utility {outcome.joint_utility:.4f}"
    )
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negoteam",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a tournament")
    p_run.add_argument("--config", help="tournament config JSON (default: built-in experiment)")
    p_run.add_argument("--seed", type=int, help="master seed override")
    p_run.add_argument("--reps", type=int, help="repetitions per pairing override")
    p_run.add_argument("--max-rounds", type=int, help="rounds per session override")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--no-transcripts", action="store_true", help="skip per-session JSON files")
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="render a finished run")
    p_report.add_argument("--in", dest="in_dir", required=True, help="directory with sessions.csv")
    p_report.add_argument("--format", choices=("csv", "json", "markdown"), default="markdown")
    p_report.add_argument("--out", help="write to file instead of stdout")
    p_report.set_defaults(func=_cmd_report)

    p_replay = sub.add_parser("replay", help="verify a stored transcript reproduces")
    p_replay.add_argument("--transcript", required=True, help="transcript JSON file")
    p_replay.set_defaults(func=_cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
