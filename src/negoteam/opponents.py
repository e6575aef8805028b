"""Bilateral negotiator archetypes used on the opposite side of the table.

These are compact, configurable stand-ins for well-known negotiation agent
styles: a time-based conceder, a take-it-or-leave-it haggler, a
statistics-driven estimator that mirrors good offers back, a learner that
seeks offers similar to what it has received, a reciprocator that concedes
in proportion to the concessions it observes, and an adaptive haggler.
Every archetype is deterministic given its RNG seed and the offers it has
seen, and all thresholds are constructor parameters.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .domain import PreferenceProfile, check_number, utility_unchecked
from .protocol import Action, Decision, Party
from .tactics import SampleRequest, TimeTactic, demand

_EPS = 1e-9


@dataclass
class OfferBeliefs:
    """Running statistics over the utilities of offers received so far.

    Mean and variance use Welford updates (population variance); the best
    offer is kept verbatim together with its utility, ties resolved in favour
    of the earliest offer.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    first_utility: float | None = None
    last_utility: float | None = None
    best_utility: float = -math.inf
    best_offer: np.ndarray | None = None
    offer_sum: np.ndarray | None = None
    movement: float = 0.0

    def observe(self, offer: np.ndarray, u: float) -> None:
        self.count += 1
        delta = u - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (u - self.mean)
        if self.first_utility is None:
            self.first_utility = u
        if self.last_utility is not None:
            self.movement += abs(u - self.last_utility)
        self.last_utility = u
        if u > self.best_utility:
            self.best_utility = u
            self.best_offer = offer.copy()
        if self.offer_sum is None:
            self.offer_sum = offer.astype(np.float64).copy()
        else:
            self.offer_sum += offer

    @property
    def std(self) -> float:
        if self.count == 0:
            return 0.0
        return math.sqrt(self._m2 / self.count)

    @property
    def mean_offer(self) -> np.ndarray | None:
        if self.offer_sum is None:
            return None
        return self.offer_sum / self.count

    @property
    def consistency(self) -> float:
        """Net concession as a share of total offer-to-offer movement.

        A monotone conceding stream scores 1; an oscillating stream covers
        far more ground than it nets and scores near 0. Streams without two
        observations (no movement yet) count as fully consistent.
        """
        if self.movement <= 0.0:
            return 1.0
        net = max(0.0, self.best_utility - (self.first_utility or 0.0))
        return min(1.0, net / self.movement)


class _BilateralAgent(Party):
    """Shared plumbing: profile, RNG, received-offer tracking."""

    name = "opponent"

    def __init__(self, profile: PreferenceProfile, rng: np.random.Generator) -> None:
        self.profile = profile
        self.rng = rng
        self.beliefs = OfferBeliefs()
        self.last_received: np.ndarray | None = None

    @property
    def utility_profiles(self) -> Mapping[str, PreferenceProfile]:
        return {self.profile.name: self.profile}

    def receive_offer(self, offer: np.ndarray, t: float) -> None:
        self.last_received = offer
        self.beliefs.observe(offer, utility_unchecked(self.profile, offer))

    def _propose(self, target: float, references: list[np.ndarray]) -> Decision:
        """Ask for an offer at ``target`` near ``references`` and propose it."""
        (offer,) = yield [SampleRequest(self.profile, target, references, self.rng)]
        return Action.propose(offer)


class TimeTacticNegotiator(_BilateralAgent):
    """Concedes along a time tactic; proposes near the last offer received.

    With ``use_own_reference`` the last offer it sent itself joins the
    reference set, which is how a team member behaves when embedded in a
    team (stay close to the opponent and to the team's own last offer).
    """

    def __init__(
        self,
        profile: PreferenceProfile,
        tactic: TimeTactic,
        rng: np.random.Generator,
        use_own_reference: bool = False,
    ) -> None:
        super().__init__(profile, rng)
        self.tactic = tactic
        self.use_own_reference = use_own_reference
        self.last_sent: np.ndarray | None = None

    def decide(self, t: float) -> Decision:
        s = demand(self.tactic, t)
        if self.last_received is not None and self.beliefs.last_utility >= s:
            return Action.accept()
        refs = []
        if self.last_received is not None:
            refs.append(self.last_received)
        if self.use_own_reference and self.last_sent is not None:
            refs.append(self.last_sent)
        action = yield from self._propose(s, refs)
        self.last_sent = action.offer
        return action


class CrazyHaggler(_BilateralAgent):
    """Take-it-or-leave-it: random offers above a high threshold, no concession.

    Both its own proposals and its acceptance test stay at or above
    ``threshold`` for the whole session, independent of time.
    """

    # proposal targets keep this fraction of the headroom above the
    # threshold as a safety margin over the sampler tolerance
    TARGET_MARGIN = 0.01

    def __init__(
        self,
        profile: PreferenceProfile,
        rng: np.random.Generator,
        threshold: float = 0.9,
    ) -> None:
        super().__init__(profile, rng)
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")
        self.threshold = threshold

    def decide(self, t: float) -> Decision:
        if self.last_received is not None and self.beliefs.last_utility >= self.threshold:
            return Action.accept()
        headroom = 1.0 - self.threshold
        target = self.threshold + headroom * self.rng.uniform(self.TARGET_MARGIN, 1.0)
        return (yield from self._propose(target, []))


class AgentKLike(_BilateralAgent):
    """Estimates what the other side might concede and mirrors good offers back.

    The expected ceiling emax is the running mean plus one standard deviation
    of the received-offer utilities. The demand target decays from 1 toward
    emax polynomially in time; when the best offer received already meets the
    target it is re-proposed verbatim.
    """

    def __init__(
        self,
        profile: PreferenceProfile,
        rng: np.random.Generator,
        gamma: float = 3.0,
    ) -> None:
        super().__init__(profile, rng)
        if gamma <= 0.0:
            raise ValueError("gamma must be positive")
        self.gamma = gamma

    def target(self, t: float) -> float:
        emax = min(max(self.beliefs.mean + self.beliefs.std, 0.0), 1.0) if self.beliefs.count else 0.0
        return max(emax, 1.0 - (1.0 - emax) * t**self.gamma)

    def decide(self, t: float) -> Decision:
        target = self.target(t)
        if self.last_received is not None and self.beliefs.last_utility >= target:
            return Action.accept()
        if self.beliefs.best_offer is not None and self.beliefs.best_utility >= target:
            return Action.propose(self.beliefs.best_offer.copy())
        refs = [self.last_received] if self.last_received is not None else []
        return (yield from self._propose(target, refs))


class SmithLike(_BilateralAgent):
    """Concedes linearly while proposing near the average offer received,
    then spends the final phase pushing the best offer it has seen.

    During the final phase any standing offer at least as good as the best
    received is accepted.
    """

    def __init__(
        self,
        profile: PreferenceProfile,
        rng: np.random.Generator,
        final_phase: float = 2.0 / 3.0,
        floor: float = 0.5,
    ) -> None:
        super().__init__(profile, rng)
        if not 0.0 < final_phase < 1.0:
            raise ValueError("final_phase must lie in (0, 1)")
        if not 0.0 <= floor <= 1.0:
            raise ValueError("floor must lie in [0, 1]")
        self.final_phase = final_phase
        self.floor = floor

    def target(self, t: float) -> float:
        return 1.0 - (1.0 - self.floor) * t

    def decide(self, t: float) -> Decision:
        if t >= self.final_phase and self.beliefs.best_offer is not None:
            if self.last_received is not None and self.beliefs.last_utility >= self.beliefs.best_utility:
                return Action.accept()
            return Action.propose(self.beliefs.best_offer.copy())
        target = self.target(t)
        if self.last_received is not None and self.beliefs.last_utility >= target:
            return Action.accept()
        mean_offer = self.beliefs.mean_offer
        refs = [mean_offer] if mean_offer is not None else []
        return (yield from self._propose(target, refs))


class NiceTitForTat(_BilateralAgent):
    """Reciprocates: concedes toward a floor in proportion to the relative
    concession observed from the other side, and takes any offer matching
    the best seen once the deadline is close.

    Reciprocation has to be earned by a *steady* stream: the measured
    concession is weighted by the squared share of offer-to-offer movement
    that is net progress, so an oscillating counterpart reads as barely
    conceding at all while a monotone conceder gets full credit (amplified
    by ``reciprocity_gain``).
    """

    def __init__(
        self,
        profile: PreferenceProfile,
        rng: np.random.Generator,
        nash_floor: float = 0.5,
        endgame: float = 0.95,
        reciprocity_gain: float = 3.0,
    ) -> None:
        super().__init__(profile, rng)
        if not 0.0 <= nash_floor <= 1.0:
            raise ValueError("nash_floor must lie in [0, 1]")
        if not 0.0 < endgame <= 1.0:
            raise ValueError("endgame must lie in (0, 1]")
        if reciprocity_gain <= 0.0:
            raise ValueError("reciprocity_gain must be positive")
        self.nash_floor = nash_floor
        self.endgame = endgame
        self.reciprocity_gain = reciprocity_gain

    def relative_concession(self) -> float:
        if self.beliefs.count == 0 or self.beliefs.first_utility is None:
            return 0.0
        gained = self.beliefs.best_utility - self.beliefs.first_utility
        r = gained / max(_EPS, 1.0 - self.beliefs.first_utility)
        # squared so that half-consistent streams earn a quarter of the credit
        r *= self.reciprocity_gain * self.beliefs.consistency**2
        return min(max(r, 0.0), 1.0)

    def target(self, t: float) -> float:
        return 1.0 - self.relative_concession() * (1.0 - self.nash_floor)

    def decide(self, t: float) -> Decision:
        target = self.target(t)
        if self.last_received is not None:
            u = self.beliefs.last_utility
            if u >= target:
                return Action.accept()
            if t >= self.endgame and u >= self.beliefs.best_utility:
                return Action.accept()
        refs = [self.last_received] if self.last_received is not None else []
        return (yield from self._propose(target, refs))


class HagglerAdaptive(_BilateralAgent):
    """Linear conceder whose demand never drops below the statistics of what
    it has already been offered (mean plus two standard deviations)."""

    def __init__(
        self,
        profile: PreferenceProfile,
        rng: np.random.Generator,
        base: float = 0.85,
        slope: float = 0.25,
        sigma_mult: float = 2.0,
    ) -> None:
        super().__init__(profile, rng)
        self.base = base
        self.slope = slope
        self.sigma_mult = sigma_mult

    def target(self, t: float) -> float:
        floor = self.beliefs.mean + self.sigma_mult * self.beliefs.std if self.beliefs.count else 0.0
        return max(self.base - self.slope * t, floor)

    def decide(self, t: float) -> Decision:
        target = self.target(t)
        if self.last_received is not None and self.beliefs.last_utility >= target:
            return Action.accept()
        refs = [self.last_received] if self.last_received is not None else []
        return (yield from self._propose(min(max(target, 0.0), 1.0), refs))


def _build_time_tactic(profile, rng, beta=1.0, reservation_utility=0.0):
    tactic = TimeTactic(beta=beta, reservation_utility=reservation_utility)
    return TimeTacticNegotiator(profile, tactic, rng)


# each archetype's constructor; its keyword parameters are the archetype's params
ARCHETYPES = {
    "time_tactic": _build_time_tactic,
    "crazy_haggler": CrazyHaggler,
    "agent_k_like": AgentKLike,
    "smith_like": SmithLike,
    "nice_tft_like": NiceTitForTat,
    "haggler_adaptive": HagglerAdaptive,
}


def build_opponent(
    archetype: str,
    profile: PreferenceProfile,
    rng: np.random.Generator,
    params: dict | None = None,
) -> Party:
    """Instantiate an archetype by name with its parameter map.

    Raises ValueError for an unknown archetype, a parameter the archetype
    does not take, a value that is not a finite int or float (a bool is
    not), or a value its constructor rejects.
    """
    try:
        factory = ARCHETYPES[archetype]
    except KeyError:
        known = ", ".join(sorted(ARCHETYPES))
        raise ValueError(f"unknown archetype {archetype!r}; known: {known}") from None
    accepted = [p for p in inspect.signature(factory).parameters if p not in ("profile", "rng")]
    params = dict(params or {})
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"archetype {archetype!r} takes no parameter {unknown[0]!r}; it takes: {', '.join(accepted)}"
        )
    values = {}
    for key, value in params.items():
        values[key] = float(check_number(value, f"archetype {archetype!r}", f"parameter {key!r}"))
        if not math.isfinite(values[key]):
            raise ValueError(f"archetype {archetype!r} parameter {key!r} must be finite, got {values[key]!r}")
    return factory(profile, rng, **values)
