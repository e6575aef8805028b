"""Time-dependent concession and iso-utility offer sampling.

A time tactic maps normalised time t in [0, 1] to the utility an agent
demands. Offers at a demanded utility level are drawn by sampling random
points in the issue box and projecting them onto the target iso-utility
hyperplane; among the on-target candidates the agent keeps the one nearest
its reference offers.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .domain import PreferenceProfile, ideal_offer

logger = logging.getLogger(__name__)

PROJECTION_ITERATIONS = 10
# candidates drawn per request, and how far from the target an offer may lie
CANDIDATE_COUNT = 500
UTILITY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TimeTactic:
    """Concession curve parameters.

    beta < 1 concedes late (boulware), beta == 1 linearly, beta > 1 early
    (conceder). Time is normalised, so the deadline is t == 1.
    """

    beta: float
    reservation_utility: float = 0.0

    def __post_init__(self) -> None:
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if not 0.0 <= self.reservation_utility <= 1.0:
            raise ValueError("reservation utility must lie in [0, 1]")


def demand(tactic: TimeTactic, t: float) -> float:
    """Utility demanded at normalised time t.

    demand(0) == 1 and demand(1) == the reservation utility, exactly.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"normalised time {t!r} outside [0, 1]")
    if t == 1.0:
        # the closed form lands here up to round-off; pin the endpoint
        return tactic.reservation_utility
    return 1.0 - (1.0 - tactic.reservation_utility) * t ** (1.0 / tactic.beta)


class SampleRequest(NamedTuple):
    """One agent's ask for an offer at ``target`` utility to ``profile``.

    The candidates are drawn from ``rng``; ``references`` (zero or more
    offers) steer the choice among the on-target ones.
    """

    profile: PreferenceProfile
    target: float
    references: Sequence[np.ndarray]
    rng: np.random.Generator


def sample_iso_offer(
    profile: PreferenceProfile,
    target_u: float,
    references: Sequence[np.ndarray] | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw an offer whose utility to ``profile`` is ``target_u`` within tolerance.

    references steer the choice among on-target candidates toward familiar
    ground; an empty reference list keeps the candidate with the largest
    utility margin instead. target_u == 1 pins the ideal offer (the iso
    surface degenerates to a single point there).
    """
    return sample_iso_offers([SampleRequest(profile, target_u, references or (), rng)])[0]


def sample_iso_offers(requests: Sequence[SampleRequest]) -> list[np.ndarray]:
    """One :func:`sample_iso_offer` per request, in one kernel call.

    Every request draws its candidates from its own ``rng``, in request
    order, and gets exactly the offer ``sample_iso_offer`` would return for
    it alone. A request whose target is 1 draws nothing and gets its ideal
    offer. The kernel stacks the clouds of the others, which must all have
    the same issue count: a scenario's profiles cover all its issues.
    """
    offers: list = [None] * len(requests)
    drawing = []
    for i, req in enumerate(requests):
        if not 0.0 <= req.target <= 1.0:
            raise ValueError("target utility must lie in [0, 1]")
        if req.target >= 1.0:
            offers[i] = ideal_offer(req.profile)
        else:
            drawing.append(i)
    if not drawing:
        return offers
    stacked = [requests[i] for i in drawing]
    if len({req.profile.n_issues for req in stacked}) > 1:
        raise ValueError("requests served together must share their issue count")
    # one row per drawing agent: offset, target
    scalars = np.array([(req.profile.offset, req.target) for req in stacked])
    # each cloud drawn in place: the same values as rng.random((CANDIDATE_COUNT, n))
    cands = np.empty((len(stacked), CANDIDATE_COUNT, stacked[0].profile.n_issues))
    for cloud, req in zip(cands, stacked):
        req.rng.random(out=cloud)
    points, _, found = _kernels.choose_iso(
        cands.reshape(-1, cands.shape[2]),
        np.array([req.profile.gradient for req in stacked]),
        scalars[:, 0],
        scalars[:, 1],
        np.full(len(stacked), UTILITY_TOLERANCE),
        PROJECTION_ITERATIONS,
        [req.references for req in stacked],
    )
    for point, ok, i, req in zip(points, found, drawing, stacked):
        if ok:
            # a copy, so that an offer kept in a transcript holds no other agent's
            offers[i] = point.copy()
        else:
            # target effectively unreachable from the sampled cloud; concede nothing
            logger.debug("no on-target candidate at u=%.6f for %s", req.target, req.profile.name)
            offers[i] = ideal_offer(req.profile)
    return offers
