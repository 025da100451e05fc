"""Shared fixtures: the worked two-dimensional example and field helpers.

The golden tensors are written out entry by entry so the tests that build
them through library operations compare against independent tables.
"""

import warnings

import numpy as np
import pytest

from ciph import BracketMatrix, PolynomialField, Tensor4, integrate
from ciph.verify import loop_trajectory

# Product tensor of the standard 2x2 skew bracket with itself.
EJ_ENTRIES = {
    (1, 1, 2, 2): 1.0,
    (2, 2, 1, 1): 1.0,
    (1, 2, 2, 1): -1.0,
    (2, 1, 1, 2): -1.0,
}

# Its doubled symmetrization: the golden conservative-irreversible tensor.
EPS_ENTRIES = {
    (1, 1, 2, 2): 2.0,
    (2, 2, 1, 1): 2.0,
    (1, 2, 1, 2): -1.0,
    (1, 2, 2, 1): -1.0,
    (2, 1, 1, 2): -1.0,
    (2, 1, 2, 1): -1.0,
}


@pytest.fixture
def j_std() -> BracketMatrix:
    return BracketMatrix([[0.0, 1.0], [-1.0, 0.0]])


@pytest.fixture
def e_j() -> Tensor4:
    return Tensor4.from_entries(2, EJ_ENTRIES)


@pytest.fixture
def golden_eps() -> Tensor4:
    return Tensor4.from_entries(2, EPS_ENTRIES)


@pytest.fixture
def x1() -> PolynomialField:
    return PolynomialField.coordinate(2, 1)


@pytest.fixture
def x2() -> PolynomialField:
    return PolynomialField.coordinate(2, 2)


@pytest.fixture
def x1_plus_x2(x1, x2) -> PolynomialField:
    return x1 + x2


def random_unit_scaled_skew(rng: np.random.Generator, n: int) -> BracketMatrix:
    """Dense skew matrix rescaled so its max-abs entry is exactly 1."""
    upper = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), k=1)
    arr = upper - upper.T
    return BracketMatrix(arr / np.max(np.abs(arr)))


TRAJECTORY_COLUMNS = ("times", "states", "H_values", "S_values", "sigma_int", "p", "q", "supplied")


def assert_matches_reference(model, x0, t_end, dt):
    """integrate agrees with the loop reference ``loop_trajectory`` bit for
    bit on every column, on the fault and on the prefix length, without a
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate(model, x0, t_end=t_end, dt=dt)
    want = loop_trajectory(model, x0, t_end=t_end, dt=dt)
    assert (got.fault, len(got)) == (want.fault, len(want))
    for name in TRAJECTORY_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    return got

