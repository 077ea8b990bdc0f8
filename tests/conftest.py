import numpy as np
import pytest


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
