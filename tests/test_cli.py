"""End-to-end command line runs on a miniature tournament."""

import json
from pathlib import Path

import pytest

from negoteam import cli
from negoteam.cli import main
from negoteam.domain import hotel_booking, scenario_to_dict

STORED_TRANSCRIPT = Path(__file__).parent / "data" / "ssv-b__tft__001.json"

MINI_CONFIG = {
    "scenario": "hotel-booking",
    "teams": [
        {"name": "ssv", "strategy": "SSV", "beta_range": [0.5, 0.99]},
        {"name": "fum", "strategy": "FUM", "beta_range": [0.5, 0.99]},
    ],
    "opponents": [
        {"name": "tft", "archetype": "nice_tft_like"},
        {"name": "smith", "archetype": "smith_like"},
    ],
    "tournament": {"repetitions": 2, "max_rounds": 40, "seed": 321},
}


@pytest.fixture()
def mini_run(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(MINI_CONFIG), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0
    return out_dir


def test_run_writes_all_outputs(mini_run, capsys):
    csv_text = (mini_run / "sessions.csv").read_text(encoding="utf-8")
    assert len(csv_text.splitlines()) == 1 + 2 * 2 * 2
    assert (mini_run / "report.md").read_text(encoding="utf-8").startswith("# Tournament report")
    transcripts = sorted(p.name for p in (mini_run / "transcripts").glob("*.json"))
    assert transcripts == [
        "fum__smith__000.json",
        "fum__smith__001.json",
        "fum__tft__000.json",
        "fum__tft__001.json",
        "ssv__smith__000.json",
        "ssv__smith__001.json",
        "ssv__tft__000.json",
        "ssv__tft__001.json",
    ]


def test_run_can_skip_transcripts_and_override_reps(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(MINI_CONFIG), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(
        ["run", "--config", str(config_path), "--out", str(out_dir), "--no-transcripts", "--reps", "1"]
    )
    assert code == 0
    assert list((out_dir / "transcripts").glob("*.json")) == []
    assert len((out_dir / "sessions.csv").read_text(encoding="utf-8").splitlines()) == 1 + 4


@pytest.mark.parametrize(
    "flag, message",
    [("--reps", "repetitions must be positive"), ("--max-rounds", "max_rounds must be positive")],
)
def test_run_rejects_an_override_below_one_before_playing(tmp_path, capsys, flag, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(MINI_CONFIG), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir), flag, "0"]) == 2
    assert message in capsys.readouterr().err
    assert not (out_dir / "sessions.csv").exists()


def _without(key):
    return {k: v for k, v in MINI_CONFIG.items() if k != key}


def _with_profile(index, **fields):
    """MINI_CONFIG on the built-in scenario written inline, profile ``index`` holding ``fields``."""
    scenario = scenario_to_dict(hotel_booking())
    scenario["profiles"][index].update(fields)
    return {**MINI_CONFIG, "scenario": scenario}


@pytest.mark.parametrize(
    "doc",
    [
        None,
        _without("teams"),
        {**MINI_CONFIG, "scenario": "no-such-scenario"},
        {**MINI_CONFIG, "teams": [], "opponents": []},
        {**MINI_CONFIG, "tournament": {"reps": 3}},
        {**MINI_CONFIG, "teams": ["ssv"]},
        {**MINI_CONFIG, "teams": [{"name": "ssv", "strategy": "SSV"}]},
        {
            **MINI_CONFIG,
            "teams": [
                {"name": "ssv", "strategy": "SSV", "members": [{"beta": 1.0, "reservation_utility": 2.0}] * 3}
            ],
        },
        # json writes and reads NaN, which Python's float() takes
        {
            **MINI_CONFIG,
            "opponents": [{"name": "tt", "archetype": "time_tactic", "params": {"beta": float("nan")}}],
        },
        # json reads a 1 followed by 400 zeros as an int that float() cannot hold
        {**MINI_CONFIG, "opponents": [{"name": "c", "archetype": "crazy_haggler", "params": {"threshold": 10**400}}]},
        {**MINI_CONFIG, "teams": [{"name": "ssv", "strategy": "SSV", "beta_range": [0.5, 10**400]}]},
        _with_profile(1, name="a1"),
        _with_profile(0, name="op"),
        _with_profile(0, weights=[float("nan"), 0.5, 0.25, 0.25]),
        {**MINI_CONFIG, "tournament": []},
    ],
    ids=[
        "missing",
        "no-teams-key",
        "unknown-scenario",
        "empty-lists",
        "unknown-key",
        "team-not-an-object",
        "member-without-beta",
        "member-reservation-utility-above-one",
        "non-finite-archetype-parameter",
        "huge-int-archetype-parameter",
        "huge-int-beta-range",
        "repeated-team-profile-name",
        "team-profile-named-as-the-opponent",
        "nan-weight",
        "tournament-not-an-object",
    ],
)
def test_run_fails_cleanly_on_a_bad_config(tmp_path, capsys, doc):
    config_path = tmp_path / "config.json"
    if doc is not None:
        config_path.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: ")
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_run_fails_cleanly_on_an_out_path_that_is_a_file(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(MINI_CONFIG), encoding="utf-8")
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")

    def play(*args, **kwargs):
        raise AssertionError("a session was played")

    monkeypatch.setattr(cli, "run_tournament", play)
    assert main(["run", "--config", str(config_path), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {taken}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "blocker, make",
    [("transcripts", lambda path: path.write_text("", encoding="utf-8")), ("sessions.csv", Path.mkdir)],
    ids=["file-where-transcripts-go", "directory-where-sessions-csv-goes"],
)
def test_run_fails_cleanly_on_an_unusable_path_inside_out(tmp_path, capsys, monkeypatch, blocker, make):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(MINI_CONFIG), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    make(out_dir / blocker)

    def play(*args, **kwargs):
        raise AssertionError("a session was played")

    monkeypatch.setattr(cli, "run_tournament", play)
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out_dir}: ")
    assert len(err.splitlines()) == 1


def test_report_renders_from_a_finished_run(mini_run, capsys):
    assert main(["report", "--in", str(mini_run), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == (mini_run / "sessions.csv").read_text(encoding="utf-8")

    assert main(["report", "--in", str(mini_run), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["teams"] == ["ssv", "fum"]
    assert report["opponents"] == ["tft", "smith"]

    target = mini_run / "again.md"
    assert main(["report", "--in", str(mini_run), "--format", "markdown", "--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text(encoding="utf-8").startswith("# Tournament report")


def test_report_fails_cleanly_on_an_out_path_in_a_missing_directory(mini_run, capsys):
    target = mini_run / "missing" / "x.md"
    assert main(["report", "--in", str(mini_run), "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: ")
    assert len(err.splitlines()) == 1
    assert not target.parent.exists()


def test_report_fails_cleanly_without_a_run(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("drop_column", [False, True], ids=["header-only", "missing-column"])
def test_report_fails_cleanly_on_a_bad_sessions_csv(mini_run, capsys, drop_column):
    csv_path = mini_run / "sessions.csv"
    header, first, *_ = csv_path.read_text(encoding="utf-8").splitlines()
    if drop_column:
        # every row loses its last field, joint_utility
        text = "\n".join(line.rsplit(",", 1)[0] for line in (header, first)) + "\n"
    else:
        text = header + "\n"
    csv_path.write_text(text, encoding="utf-8")
    assert main(["report", "--in", str(mini_run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv_path}: ")
    assert "Traceback" not in err


def test_replay_verifies_stored_transcripts(mini_run, capsys):
    transcript = mini_run / "transcripts" / "fum__tft__000.json"
    assert main(["replay", "--transcript", str(transcript)]) == 0
    assert "replay OK" in capsys.readouterr().out


def test_replay_accepts_an_indented_transcript(mini_run, capsys):
    path = mini_run / "transcripts" / "ssv__tft__001.json"
    assert path.read_text(encoding="utf-8").count("\n") == 1
    # earlier versions wrote transcripts with indent=2; those runs still replay
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    assert main(["replay", "--transcript", str(path)]) == 0
    assert "replay OK" in capsys.readouterr().out


def test_replay_detects_tampering(mini_run, capsys):
    path = mini_run / "transcripts" / "ssv__smith__001.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    for action in doc["actions"]:
        if action.get("offer"):
            value = action["offer"][0]
            action["offer"][0] = 0.123456 if value > 0.5 else 0.876543
            break
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["replay", "--transcript", str(path)]) == 1
    assert "MISMATCH" in capsys.readouterr().err


def test_replay_names_the_first_diverging_action(mini_run, capsys):
    path = mini_run / "transcripts" / "ssv__smith__001.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    index = max(i for i, a in enumerate(doc["actions"][:6]) if "offer" in a)
    action = doc["actions"][index]
    action["offer"][1] = 0.5 if action["offer"][1] != 0.5 else 0.25
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["replay", "--transcript", str(path)]) == 1
    assert capsys.readouterr().err == (
        "MISMATCH: replay diverged from the stored transcript at action "
        f"{index} (round {action['round']}, party {action['party']})\n"
    )


def test_replay_tells_an_outcome_that_alone_differs(mini_run, capsys):
    path = mini_run / "transcripts" / "fum__tft__000.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["joint_utility"] += 1e-9
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["replay", "--transcript", str(path)]) == 1
    assert capsys.readouterr().err == "MISMATCH: replay diverged from the stored transcript in its outcome\n"


def test_replay_verifies_a_transcript_written_by_an_earlier_version(capsys):
    assert main(["replay", "--transcript", str(STORED_TRANSCRIPT)]) == 0
    assert capsys.readouterr().out.startswith("replay OK: 16 actions, agreement after 8 rounds")


@pytest.mark.parametrize(
    "text",
    [
        None,
        "not json {",
        '{"config": {}}',
        json.dumps({**json.loads(STORED_TRANSCRIPT.read_text(encoding="utf-8")), "utilities": []}),
    ],
    ids=["missing", "not-json", "no-actions", "utilities-not-an-object"],
)
def test_replay_fails_cleanly_on_an_unreadable_transcript(tmp_path, capsys, text):
    path = tmp_path / "transcript.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert main(["replay", "--transcript", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err
