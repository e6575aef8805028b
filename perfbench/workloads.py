"""The benchmark's workloads: what one batch runs, times and checks.

Every workload uses the built-in ``hotel-booking`` scenario with the desk
experiment's team and opponent setups. A batch is one whole round of the
workload's operations under one master seed; a run repeats batches with
fresh master seeds until its time is up. ``play`` runs and times a batch,
``check`` then checks it untimed and untraced. An operation is one session
or one replay; it fails when it raises or when a check finds a problem.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# calls go through the modules so that a traced run sees its wrappers
from negoteam import _kernels, cli, protocol, report, tournament

import checks


@dataclass
class Batch:
    master_seed: int
    out: Path
    sessions: int = 0
    replays: int = 0
    failed: int = 0
    rounds: int = 0
    run_s: float = 0.0
    replay_s: float = 0.0
    wall_s: float = 0.0
    output_bytes: int = 0
    digest: str = ""
    endings: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)  # faults of the batch as a whole
    transcripts: list = field(default_factory=list)  # kept in memory for ``check``

    @property
    def attempted(self) -> int:
        return self.sessions + self.replays

    def summary(self) -> str:
        return (
            f"batch seed={self.master_seed} sessions={self.sessions} replays={self.replays} "
            f"failed={self.failed} rounds={self.rounds} endings={dict(sorted(self.endings.items()))} "
            f"sessions.csv sha256={self.digest}"
        )


def _quiet(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in this process and return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _replay_all(batch: Batch, items: list, replay_one) -> None:
    """Replay every item; ``replay_one(item)`` returns None when the replay
    reproduced its session, else what went wrong."""
    t0 = perf_counter()
    for item in items:
        batch.replays += 1
        try:
            problem = replay_one(item)
        except Exception:
            traceback.print_exc()
            problem = "raised"
        if problem is not None:
            batch.failed += 1
            print(f"FAILED replay: {problem}", file=sys.stderr)
    batch.replay_s = perf_counter() - t0


def _tally(batch: Batch, views: list[checks.SessionView], session_problems: dict) -> None:
    """Check every session and count rounds and endings."""
    for view in views:
        found = checks.check_session(view) + session_problems.get(view.key, [])
        if found:
            batch.failed += 1
            print(f"FAILED {view.key}: {'; '.join(found[:3])}", file=sys.stderr)
        batch.rounds += view.rounds_used
        if view.agreement:
            batch.endings[f"accepted_{view.accepted_by}"] += 1
        else:
            batch.endings[view.reason] += 1
    extra = set(session_problems) - {v.key for v in views}
    batch.failed += len(extra)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _size(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _replay_in_memory(transcript) -> str | None:
    """What ``negoteam replay`` does, on a transcript still in memory."""
    team_party, opponent_party, session_config = tournament.rebuild_session(transcript.config)
    replayed, _ = protocol.run_session(team_party, opponent_party, session_config, transcript.config)
    if protocol.transcripts_equal(transcript, replayed):
        return None
    return f"{transcript.config['team']['name']} vs {transcript.config['opponent']['name']} diverged"


def _replay_file(path: Path) -> str | None:
    code, text = _quiet(["replay", "--transcript", str(path)])
    if code == 0 and text.startswith("replay OK"):
        return None
    return f"{path.name}: {text.strip()!r}"


class TournamentWorkload:
    """One repetition of some desk teams against all five opponents at 1000 rounds.

    Runs through the library as ``run_tournament`` does, writes ``sessions.csv``
    and ``report.md`` as ``negoteam run --no-transcripts`` does, and replays
    every session against Smith in memory. Smith sessions all end near round 2/3 · max_rounds, where its final
    phase starts, so the replay set's size hardly depends on the seed.
    """

    REPLAYED_OPPONENT = "Smith"

    def __init__(self, teams: tuple[str, ...], max_rounds: int = 1000) -> None:
        self.teams = teams
        self.max_rounds = max_rounds

    def setup(self, workdir: Path):
        config = tournament.desk_config(repetitions=1, max_rounds=self.max_rounds)
        config.teams = [t for t in config.teams if t.name in self.teams]
        _kernels.warm_up()
        return config

    def play(self, config, master_seed: int, out: Path) -> Batch:
        batch = Batch(master_seed, out)
        out.mkdir(parents=True)
        records = []
        start = perf_counter()
        for team_cfg in config.teams:
            for opp_cfg in config.opponents:
                batch.sessions += 1
                try:
                    record, transcript = tournament.run_pairing_session(
                        config.scenario, team_cfg, opp_cfg, 0, master_seed, config.max_rounds
                    )
                except Exception:
                    traceback.print_exc()
                    batch.failed += 1
                    continue
                records.append(record)
                batch.transcripts.append(transcript)
        report.write_sessions_csv(records, out / "sessions.csv")
        (out / "report.md").write_text(report.render_markdown(report.build_report(records)), encoding="utf-8")
        batch.run_s = perf_counter() - start
        batch.output_bytes = _size(out)
        smith = [t for t in batch.transcripts if t.config["opponent"]["name"] == self.REPLAYED_OPPONENT]
        _replay_all(batch, smith, _replay_in_memory)
        batch.wall_s = perf_counter() - start
        return batch

    def check(self, batch: Batch) -> None:
        views = [checks.view_from_transcript(t) for t in batch.transcripts]
        csv_path = batch.out / "sessions.csv"
        batch.digest = _sha256(csv_path)
        _tally(batch, views, checks.check_sessions_csv(csv_path, views))
        batch.transcripts.clear()  # so that peak_rss_mb is one batch's, however many run


class CliWorkload:
    """The seven desk teams against five opponents through the command line.

    ``negoteam run`` on a config file with full transcripts and a short
    deadline, then ``negoteam report``, then ``negoteam replay`` on every
    transcript. Short sessions raise the share of per-session and output work.
    """

    def __init__(self, repetitions: int = 2, max_rounds: int = 100) -> None:
        # two repetitions is the fewest the report's ANOVA and Welch tests accept
        self.repetitions = repetitions
        self.max_rounds = max_rounds

    def setup(self, workdir: Path) -> Path:
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "config.json"
        config = tournament.desk_config(repetitions=self.repetitions, max_rounds=self.max_rounds)
        doc = tournament.tournament_config_to_dict(config)
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        tournament.tournament_config_from_dict(json.loads(path.read_text(encoding="utf-8")))
        _kernels.warm_up()
        return path

    def play(self, config_path: Path, master_seed: int, out: Path) -> Batch:
        batch = Batch(master_seed, out)
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        batch.sessions = len(doc["teams"]) * len(doc["opponents"]) * self.repetitions
        start = perf_counter()
        try:
            code, _ = _quiet(["run", "--config", str(config_path), "--out", str(out), "--seed", str(master_seed)])
        except Exception:
            traceback.print_exc()
            code = -1
        batch.run_s = perf_counter() - start
        if code != 0:
            batch.failed = batch.sessions
            batch.problems.append(f"negoteam run exited {code}")
            return batch
        batch.output_bytes = _size(out)
        code, _ = _quiet(["report", "--in", str(out), "--format", "json", "--out", str(out / "report.json")])
        if code != 0:
            batch.problems.append(f"negoteam report exited {code}")
        _replay_all(batch, sorted((out / "transcripts").glob("*.json")), _replay_file)
        batch.wall_s = perf_counter() - start
        return batch

    def check(self, batch: Batch) -> None:
        out = batch.out
        if not (out / "sessions.csv").exists():  # negoteam run failed; play counted it
            return
        views = [
            checks.view_from_doc(json.loads(p.read_text(encoding="utf-8")))
            for p in sorted((out / "transcripts").glob("*.json"))
        ]
        batch.failed += max(0, batch.sessions - len(views))
        csv_path = out / "sessions.csv"
        batch.digest = _sha256(csv_path)
        _tally(batch, views, checks.check_sessions_csv(csv_path, views))
        if batch.problems:  # negoteam report failed
            return
        report_doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        batch.problems += checks.check_report_stats(csv_path, report_doc)


WORKLOADS = {
    "voting-teams": TournamentWorkload(("SSV B", "SSV VB", "SBV B", "SBV VB")),
    "fum-re-teams": TournamentWorkload(("FUM B", "FUM VB", "RE K")),
    "cli-run-replay": CliWorkload(),
}
