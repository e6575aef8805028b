"""CSV stability, report aggregation and rendering."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negoteam.report import (
    build_report,
    read_sessions_csv,
    render_json,
    render_markdown,
    render_report,
    sessions_to_csv,
    write_sessions_csv,
)
from negoteam.tournament import SessionRecord


def record(team, opponent, repetition, avg, joint=None, agreement=True):
    return SessionRecord(
        team=team,
        opponent=opponent,
        repetition=repetition,
        seed=1000 + repetition,
        initiator="team" if repetition % 2 == 0 else "opponent",
        agreement=agreement,
        reason="accepted" if agreement else "deadline",
        rounds_used=17,
        member_utilities={"m0": avg - 0.01, "m1": avg + 0.01},
        opponent_utility=0.5 if agreement else 0.0,
        team_average=avg,
        team_min=avg - 0.01,
        team_max=avg + 0.01,
        joint_utility=joint if joint is not None else avg * 0.5,
    )


def synthetic_records():
    records = []
    for opponent in ("alpha", "beta"):
        for rep, avg in enumerate([0.78, 0.80, 0.82, 0.80]):
            records.append(record("good", opponent, rep, avg))
        for rep, avg in enumerate([0.10, 0.12, 0.08, 0.10]):
            records.append(record("bad", opponent, rep, avg))
    return records


def test_csv_is_byte_stable():
    records = synthetic_records()
    assert sessions_to_csv(records) == sessions_to_csv(records)


def test_csv_header_layout():
    text = sessions_to_csv(synthetic_records())
    header = text.splitlines()[0]
    assert header == (
        "team,opponent,repetition,seed,initiator,agreement,reason,rounds_used,"
        "u_m0,u_m1,opponent_utility,team_average,team_min,team_max,joint_utility"
    )


def test_csv_roundtrips_exactly(tmp_path):
    records = synthetic_records()
    path = tmp_path / "sessions.csv"
    write_sessions_csv(records, path)
    assert read_sessions_csv(path) == records
    # writing what was read reproduces the file byte for byte
    assert sessions_to_csv(read_sessions_csv(path)) == path.read_text(encoding="utf-8")


# names with the characters CSV quotes, and text beyond ASCII; no surrogates,
# which UTF-8 cannot encode
NAMES = st.text(
    st.characters(blacklist_categories=("Cs",)) | st.sampled_from([",", '"', "\n", "\r", "é", "日"]),
    max_size=12,
)
# floats that repr must carry exactly: the least subnormal and 0.1 + 0.2 among them
UTILITIES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([5e-324, 0.0, 1.0, 0.1 + 0.2])


@st.composite
def record_lists(draw):
    members = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    return [
        SessionRecord(
            team=draw(NAMES),
            opponent=draw(NAMES),
            repetition=draw(st.integers(0, 10**6)),
            seed=draw(st.integers(0, 2**64 - 1)),
            initiator=draw(NAMES),
            agreement=draw(st.booleans()),
            reason=draw(NAMES),
            rounds_used=draw(st.integers(0, 10**6)),
            member_utilities={m: draw(UTILITIES) for m in members},
            opponent_utility=draw(UTILITIES),
            team_average=draw(UTILITIES),
            team_min=draw(UTILITIES),
            team_max=draw(UTILITIES),
            joint_utility=draw(UTILITIES),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]


@settings(max_examples=200, deadline=None)
@given(records=record_lists())
def test_csv_roundtrips_any_records_exactly(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("csv") / "sessions.csv"
    write_sessions_csv(records, path)
    assert read_sessions_csv(path) == records
    # bytes, not read_text: universal newlines would turn a quoted "\r" into "\n"
    assert sessions_to_csv(read_sessions_csv(path)) == path.read_bytes().decode("utf-8")


def test_csv_rejects_empty_or_mixed_member_sets():
    with pytest.raises(ValueError):
        sessions_to_csv([])
    mixed = synthetic_records()
    mixed[1].member_utilities = {"someone_else": 0.5}
    with pytest.raises(ValueError):
        sessions_to_csv(mixed)


def test_report_structure_and_best_sets():
    report = build_report(synthetic_records())
    assert report["teams"] == ["good", "bad"]
    assert report["opponents"] == ["alpha", "beta"]
    assert report["alpha"] == 0.05
    assert len(report["columns"]) == 2
    for column in report["columns"]:
        assert set(column["cells"]) == {"good", "bad"}
        cell = column["cells"]["good"]
        assert cell["mean_team_average"] == pytest.approx(0.80)
        assert cell["agreement_rate"] == 1.0
        assert cell["n_sessions"] == 4
        assert column["best_team_average"] == ["good"]
        assert column["best_joint"] == ["good"]
        anova = column["anova_team_average"]
        assert anova["f_stat"] > 100.0
        assert anova["p_value"] < 1e-6
        assert anova["df_between"] == 1
        assert anova["df_within"] == 6
    with pytest.raises(ValueError):
        build_report([])


def test_failures_drag_down_the_aggregates():
    records = synthetic_records()
    records += [record("good", "alpha", 4, 0.0, joint=0.0, agreement=False)]
    report = build_report(records)
    cell = report["columns"][0]["cells"]["good"]
    assert cell["agreement_rate"] == pytest.approx(0.8)
    assert cell["mean_team_average"] == pytest.approx(0.64)


def test_a_cell_keeps_failures_in_the_means():
    base = dict(
        team="t",
        opponent="o",
        seed=0,
        initiator="team",
        rounds_used=5,
        member_utilities={},
    )
    records = [
        SessionRecord(
            repetition=0,
            agreement=True,
            reason="accepted",
            opponent_utility=0.8,
            team_average=0.6,
            team_min=0.5,
            team_max=0.7,
            joint_utility=0.24,
            **base,
        ),
        SessionRecord(
            repetition=1,
            agreement=False,
            reason="deadline",
            opponent_utility=0.0,
            team_average=0.0,
            team_min=0.0,
            team_max=0.0,
            joint_utility=0.0,
            **base,
        ),
    ]
    cell = build_report(records)["columns"][0]["cells"]["t"]
    assert cell["n_sessions"] == 2
    assert cell["agreement_rate"] == 0.5
    assert cell["mean_team_average"] == pytest.approx(0.3)
    assert cell["mean_team_min"] == pytest.approx(0.25)
    assert cell["mean_opponent"] == pytest.approx(0.4)
    assert cell["mean_joint"] == pytest.approx(0.12)


def test_single_repetition_report_skips_statistics():
    records = [record("good", "alpha", 0, 0.8), record("bad", "alpha", 0, 0.1)]
    report = build_report(records)
    column = report["columns"][0]
    assert column["anova_team_average"] is None
    assert column["best_team_average"] == []
    assert column["best_joint"] == []
    text = render_markdown(report)
    assert "| alpha | n/a | n/a | n/a |" in text
    assert "**" not in text.split("## Mean team utility")[1]


def test_render_json_parses_back():
    report = build_report(synthetic_records())
    text = render_json(report)
    assert text.endswith("\n")
    assert json.loads(text) == report


def test_render_markdown_marks_winners():
    text = render_markdown(build_report(synthetic_records()))
    assert "| Team | alpha | beta |" in text
    assert "**0.800**" in text
    assert "## Mean team utility" in text
    assert "## Mean joint utility" in text
    assert "## One-way ANOVA on team utility, per opponent" in text
    assert "| alpha | " in text


def test_render_report_dispatch():
    records = synthetic_records()
    assert render_report(records, "csv") == sessions_to_csv(records)
    assert json.loads(render_report(records, "json")) == build_report(records)
    assert render_report(records, "markdown").startswith("# Tournament report")
    with pytest.raises(ValueError):
        render_report(records, "yaml")
