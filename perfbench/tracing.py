"""In-memory span tracer that wraps negoteam's layers from the outside.

Nothing under ``src/`` knows about tracing: :func:`install` replaces the
public functions and ``choose_action`` methods of each layer with timing
wrappers and :meth:`Tracer.uninstall` puts the originals back. A span is
(name, parent, start, end); spans stay in memory until :meth:`Tracer.write`.
A layer's self time is its span time minus the time of its child spans.
"""
from __future__ import annotations

import os
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from negoteam import _kernels, cli, opponents, protocol, report, tactics, team, tournament

# the five archetypes of the desk experiment, by the class that implements each
ARCHETYPE_CLASSES = {
    "crazy_haggler": opponents.CrazyHaggler,
    "haggler_adaptive": opponents.HagglerAdaptive,
    "agent_k_like": opponents.AgentKLike,
    "nice_tft_like": opponents.NiceTitForTat,
    "smith_like": opponents.SmithLike,
}
STRATEGIES = ("SSV", "SBV", "FUM", "RE")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, float, float] | None] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, after=None):
        """``fn`` inside a span; ``name`` is a string or a function of the call's
        arguments (None runs the call without a span); ``after(args, result)``
        records counts once the call returns."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if label is None:
                return fn(*args, **kwargs)
            nid = self._name_id(label)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, parent, t0, t1)
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch_function(self, original, name, after=None) -> None:
        """Rebind every negoteam module attribute that is ``original``."""
        wrapper = self.wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "negoteam" or mod_name.startswith("negoteam.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original, True))

    def patch_method(self, cls, method, name, after=None) -> None:
        own = method in cls.__dict__
        original = getattr(cls, method)
        setattr(cls, method, self.wrap(original, name, after))
        self._undo.append((cls, method, original, own))

    def uninstall(self) -> None:
        for holder, attr, original, own in reversed(self._undo):
            if own:
                setattr(holder, attr, original)
            else:
                delattr(holder, attr)
        self._undo.clear()

    # ------------------------------------------------------------------
    # summaries

    def _closed(self) -> list[tuple[int, int, float, float]]:
        return [s for s in self.spans if s is not None]

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, and durations."""
        spans = self._closed()
        child = [0.0] * len(spans)
        for nid, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for (nid, _, t0, t1), ch in zip(spans, child):
            row = out.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - ch
            row["durations"].append(t1 - t0)
        return out

    def covered_s(self) -> float:
        """Seconds covered by root spans (single thread, so roots never overlap)."""
        return sum(t1 - t0 for _, parent, t0, t1 in self._closed() if parent < 0)

    def write(self, path: str) -> None:
        """Spans as tab-separated rows: index, parent, name, start and end in µs."""
        spans = self._closed()
        base = spans[0][2] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_us\tend_us\n")
            for i, (nid, parent, t0, t1) in enumerate(spans):
                fh.write(f"{i}\t{parent}\t{self.names[nid]}\t{(t0 - base) * 1e6:.1f}\t{(t1 - base) * 1e6:.1f}\n")


def _sampler_after(tracer: Tracer):
    # keyed by id; holding the profile keeps its id from being reused
    profiles: dict[int, tuple] = {}

    def after(args, offer) -> None:
        # args: profile, target_u, references, rng[, config]
        profile, target = args[0], args[1]
        config = args[4] if len(args) > 4 else tactics.DEFAULT_SAMPLER
        key = id(profile)
        if key not in profiles:
            increasing = np.array([d.value == "increasing" for d in profile.directions])
            profiles[key] = (profile, np.asarray(profile.weights, dtype=np.float64), increasing)
        _, weights, increasing = profiles[key]
        u = float(weights @ np.where(increasing, offer, 1.0 - offer))
        if abs(u - target) > config.utility_tolerance:
            tracer.counts["sampler.off_target"] += 1

    return after


def install() -> Tracer:
    """Wrap every traced layer and return the live tracer."""
    tracer = Tracer()
    counts = tracer.counts

    def count_candidates(args, result) -> None:
        counts["kernel.candidates"] += args[0].shape[0]

    def count_rounds(args, result) -> None:
        counts["protocol.rounds"] += result[1].rounds_used

    def count_bytes(args, result) -> None:
        counts["transcript.bytes"] += os.path.getsize(args[1])

    tracer.patch_function(_kernels.choose_iso, "_kernels.choose_iso", count_candidates)
    tracer.patch_function(tactics.sample_iso_offer, "tactics.sample_iso_offer", _sampler_after(tracer))
    tracer.patch_function(protocol.run_session, "protocol.run_session", count_rounds)
    tracer.patch_function(protocol.save_transcript, "protocol.save_transcript", count_bytes)
    tracer.patch_function(protocol.load_transcript, "protocol.load_transcript")
    tracer.patch_function(tournament.run_pairing_session, "tournament.run_pairing_session")
    tracer.patch_function(tournament.rebuild_session, "tournament.rebuild_session")
    for fn in ("write_sessions_csv", "read_sessions_csv", "build_report"):
        tracer.patch_function(getattr(report, fn), f"report.{fn}")
    for fn in ("render_report", "render_markdown", "render_json"):
        tracer.patch_function(getattr(report, fn), "report.render")
    for cmd in ("run", "report", "replay"):
        tracer.patch_function(getattr(cli, f"_cmd_{cmd}"), f"cli.{cmd}")
    for strategy in STRATEGIES:
        tracer.patch_method(team.STRATEGIES[strategy], "choose_action", f"team.{strategy}.choose_action")
    for archetype, cls in ARCHETYPE_CLASSES.items():
        # an RE representative runs an archetype too; its time stays in team.RE
        label = f"opponents.{archetype}.choose_action"
        tracer.patch_method(
            cls, "choose_action", lambda args, label=label: label if args[0].name == "opponent" else None
        )
    return tracer


def _metric(out: dict, name: str, value: float, unit: str) -> None:
    out[name] = {"value": value, "unit": unit}


def per_layer_metrics(tracer: Tracer, endings: Counter, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric, zero where the workload does not reach the layer."""
    layers = tracer.layer_times()
    counts = tracer.counts
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}

    def layer(name: str) -> dict:
        return layers.get(name, empty)

    out: dict = {}
    kernel = layer("_kernels.choose_iso")
    _metric(out, "kernels.choose_iso.calls", kernel["calls"], "count")
    _metric(out, "kernels.choose_iso.s", kernel["s"], "s")
    p50 = statistics.median(kernel["durations"]) * 1e6 if kernel["durations"] else 0.0
    _metric(out, "kernels.choose_iso.us_p50", p50, "us")
    _metric(out, "kernels.choose_iso.candidates", counts["kernel.candidates"], "count")

    sampler = layer("tactics.sample_iso_offer")
    off = counts["sampler.off_target"]
    _metric(out, "tactics.sample_iso_offer.calls", sampler["calls"], "count")
    _metric(out, "tactics.sample_iso_offer.self_s", sampler["self_s"], "s")
    _metric(out, "tactics.sample_iso_offer.off_target", off, "count")
    ratio = 1.0 - off / sampler["calls"] if sampler["calls"] else 0.0
    _metric(out, "tactics.sample_iso_offer.on_target_ratio", ratio, "ratio")

    for strategy in STRATEGIES:
        row = layer(f"team.{strategy}.choose_action")
        _metric(out, f"team.{strategy}.choose_action.calls", row["calls"], "count")
        _metric(out, f"team.{strategy}.choose_action.self_s", row["self_s"], "s")
    for archetype in ARCHETYPE_CLASSES:
        row = layer(f"opponents.{archetype}.choose_action")
        _metric(out, f"opponents.{archetype}.choose_action.calls", row["calls"], "count")
        _metric(out, f"opponents.{archetype}.choose_action.self_s", row["self_s"], "s")

    session = layer("protocol.run_session")
    rounds = counts["protocol.rounds"]
    _metric(out, "protocol.run_session.rounds", rounds, "count")
    _metric(out, "protocol.run_session.self_s", session["self_s"], "s")
    _metric(out, "protocol.run_session.self_us_per_round", session["self_s"] / rounds * 1e6 if rounds else 0.0, "us")
    save = layer("protocol.save_transcript")
    _metric(out, "protocol.save_transcript.calls", save["calls"], "count")
    _metric(out, "protocol.save_transcript.s", save["s"], "s")
    _metric(out, "protocol.save_transcript.bytes", counts["transcript.bytes"], "B")
    _metric(out, "protocol.load_transcript.s", layer("protocol.load_transcript")["s"], "s")
    _metric(out, "tournament.rebuild_session.s", layer("tournament.rebuild_session")["s"], "s")
    _metric(out, "tournament.run_pairing_session.self_s", layer("tournament.run_pairing_session")["self_s"], "s")
    for ending in ("accepted_team", "accepted_opponent", "deadline", "ended"):
        _metric(out, f"tournament.endings.{ending}", endings[ending], "count")
    for fn in ("write_sessions_csv", "read_sessions_csv", "build_report"):
        _metric(out, f"report.{fn}.s", layer(f"report.{fn}")["s"], "s")
    _metric(out, "report.render.s", layer("report.render")["self_s"], "s")

    _metric(out, "trace.overhead_s", traced_wall_s - untraced_wall_s, "s")
    uncovered = 1.0 - tracer.covered_s() / traced_wall_s if traced_wall_s > 0 else 0.0
    _metric(out, "trace.uncovered_share", uncovered, "ratio")
    return out
