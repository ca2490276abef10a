import pytest

from cloud_helpers import make_wave


@pytest.fixture
def wave():
    return make_wave()


@pytest.fixture
def tilted_wave():
    return make_wave(kappa=1.3, theta=(1.0, 2.0, -0.5))
