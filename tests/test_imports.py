"""What a process loads: scipy and the process pool only where they are used,
and the names perfbench's tracer wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import negoteam

HEAVY = ("scipy.special", "concurrent.futures.process")

STEPS = """
import dataclasses, json, sys

def loaded():
    return {name: name in sys.modules for name in sys.argv[1:]}

steps = {}
import negoteam, negoteam.cli
steps["import"] = loaded()

from negoteam.domain import hotel_booking
from negoteam.report import build_report
from negoteam.team import TeamConfig
from negoteam.tournament import OpponentConfig, TournamentConfig, run_tournament

config = TournamentConfig(
    scenario=hotel_booking(),
    teams=[TeamConfig(name="ssv", strategy="SSV", beta_range=(0.5, 0.99))],
    opponents=[OpponentConfig(name="tft", archetype="nice_tft_like")],
    repetitions=1,
    max_rounds=20,
)
(record,) = run_tournament(config)
build_report([record])
steps["one repetition"] = loaded()

records = [
    dataclasses.replace(record, team=team, repetition=rep, team_average=value, joint_utility=value)
    for team, values in (("a", (0.2, 0.3)), ("b", (0.6, 0.8)))
    for rep, value in enumerate(values)
]
build_report(records)
steps["two repetitions"] = loaded()
print(json.dumps(steps))
"""


TRACED_SESSION = """
import json, sys

sys.path.insert(0, sys.argv[1])
import tracing
from negoteam import protocol, tournament
from negoteam.domain import hotel_booking
from negoteam.team import TeamConfig
from negoteam.tournament import OpponentConfig

def play():
    team = TeamConfig(name="ssv", strategy="SSV", beta_range=(0.5, 0.99))
    opponent = OpponentConfig(name="k", archetype="agent_k_like")
    meta = tournament._session_meta(hotel_booking(), team, opponent, 0, 7, 20)
    transcript, _ = protocol.run_session(*tournament.rebuild_session(meta), meta)
    return protocol.transcript_to_dict(transcript)

def act_once():
    # an RE K team's representative and its opponent are both agent_k_like
    teams = [
        TeamConfig(name="re k", strategy="RE", beta_range=(0.5, 0.99), representative_behavior="agent_k_like"),
        TeamConfig(name="ssv", strategy="SSV", beta_range=(0.5, 0.99)),
        TeamConfig(name="fum", strategy="FUM", beta_range=(0.5, 0.99)),
    ]
    opponent = OpponentConfig(name="k", archetype="agent_k_like")
    for team in teams:
        meta = tournament._session_meta(hotel_booking(), team, opponent, 0, 7, 20)
        team_party, opponent_party, _ = tournament.rebuild_session(meta)
        team_party.choose_action(0.0)
    opponent_party.choose_action(0.0)

untraced = play()
tracer = tracing.install()
traced = play()
act_once()
tracer.uninstall()
layers = tracer.layer_times()
print(json.dumps({
    "equal": traced == untraced,
    "sessions": layers["protocol.run_session"]["calls"],
    "rounds": tracer.counts["protocol.rounds"],
    "choose_action": {name: row["calls"] for name, row in layers.items() if name.endswith(".choose_action")},
}))
"""


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(negoteam.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120, check=True
    )


def test_scipy_and_the_process_pool_load_only_where_they_are_used():
    done = _run(STEPS, *HEAVY)
    steps = json.loads(done.stdout.splitlines()[-1])
    nothing = {name: False for name in HEAVY}
    assert steps["import"] == nothing
    assert steps["one repetition"] == nothing
    # two repetitions per cell give the report statistics to compute
    assert steps["two repetitions"]["scipy.special"]


def test_perfbench_tracer_wraps_a_session_without_changing_it():
    # the tracer patches negoteam's names from outside; one it can no longer
    # find fails here, not only when the benchmark runs
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    done = _run(TRACED_SESSION, str(perfbench))
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["equal"]
    assert result["sessions"] == 1 and 0 < result["rounds"] <= 20
    # the tracer finds each team class by its strategy, whatever its base
    # class, and tells an opponent by its name
    assert result["choose_action"] == {
        "team.RE.choose_action": 1,
        "team.SSV.choose_action": 1,
        "team.FUM.choose_action": 1,
        "opponents.agent_k_like.choose_action": 1,
    }
