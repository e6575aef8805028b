import numpy as np
import pytest

from negoteam.domain import hotel_booking


@pytest.fixture(scope="session")
def scenario():
    return hotel_booking()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
