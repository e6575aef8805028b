import numpy as np
import pytest

from negoteam.domain import hotel_booking
from negoteam.opponents import TimeTacticNegotiator, build_opponent
from negoteam.team import derive_team_streams


@pytest.fixture(scope="session")
def scenario():
    return hotel_booking()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def build_lone_twin(members, seed, behavior="time_tactic", params=None):
    """The representative that ``RepresentativeTeam(members, seed, behavior, params)``
    draws, built apart from any team and named as the team.

    It draws the team's streams from ``seed`` itself, so playing it alone
    against an identically seeded opponent reproduces the team's session.
    """
    mediator_rng, member_rngs = derive_team_streams(seed, len(members))
    index = int(mediator_rng.integers(len(members)))
    member, member_rng = members[index], member_rngs[index]
    if behavior == "time_tactic":
        twin = TimeTacticNegotiator(member.profile, member.tactic, member_rng, use_own_reference=True)
    else:
        twin = build_opponent(behavior, member.profile, member_rng, params)
    twin.name = "team"
    return twin


@pytest.fixture(scope="session")
def lone_twin():
    return build_lone_twin
