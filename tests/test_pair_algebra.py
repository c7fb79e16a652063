import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entroute.pair_algebra import (
    inverse_pseudo_fidelity,
    pseudo_fidelity,
    purification_success_prob,
    purified_fidelity,
    swap_fidelity,
)


def test_purified_fidelity_hand_values():
    assert purified_fidelity(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert purified_fidelity(0.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    # 10*0.5625 - 1.5 + 1 = 5.125 over 8*0.5625 - 3 + 5 = 6.5
    assert purified_fidelity(0.75, 0.75) == pytest.approx(5.125 / 6.5, abs=1e-12)


def test_purification_success_hand_values():
    assert purification_success_prob(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert purification_success_prob(0.75, 0.75) == pytest.approx(0.5 - 1.0 / 3.0 + 5.0 / 9.0, abs=1e-12)
    assert purification_success_prob(0.25, 0.25) == pytest.approx(0.5, abs=1e-12)


def test_fixed_points():
    for f in (0.25, 0.5, 1.0):
        assert abs(purified_fidelity(f, f) - f) < 1e-12


def test_symmetry():
    assert purified_fidelity(0.6, 0.9) == pytest.approx(purified_fidelity(0.9, 0.6), abs=1e-12)
    assert purification_success_prob(0.6, 0.9) == pytest.approx(
        purification_success_prob(0.9, 0.6), abs=1e-12
    )


def test_domain_rejection():
    with pytest.raises(ValueError):
        purified_fidelity(0.2, 0.9)
    with pytest.raises(ValueError):
        purified_fidelity(0.9, 1.1)
    with pytest.raises(ValueError):
        purification_success_prob(-0.1, 0.5)
    with pytest.raises(ValueError):
        swap_fidelity([])
    with pytest.raises(ValueError):
        pseudo_fidelity(0.25)
    with pytest.raises(ValueError):
        inverse_pseudo_fidelity(0.5)


def test_swap_hand_values():
    assert swap_fidelity([0.9]) == pytest.approx(0.9, abs=1e-12)
    assert swap_fidelity([1.0, 1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    w = (4 * 0.9 - 1) / 3
    assert swap_fidelity([0.9, 0.9]) == pytest.approx((1 + 3 * w * w) / 4, abs=1e-12)
    assert swap_fidelity([0.9, 0.9]) == pytest.approx(0.8133333333, abs=1e-9)


def test_swap_order_independent():
    fids = [0.8, 0.95, 0.7, 0.99]
    assert swap_fidelity(fids) == pytest.approx(swap_fidelity(list(reversed(fids))), abs=1e-15)


def test_swap_contraction():
    rng = np.random.default_rng(7)
    for _ in range(200):
        fids = rng.uniform(0.26, 0.999, size=rng.integers(2, 6)).tolist()
        assert swap_fidelity(fids) < min(fids)


def test_pseudo_fidelity_hand_values():
    assert pseudo_fidelity(1.0) == 0.0
    assert pseudo_fidelity(0.85) == pytest.approx(math.log(0.8), abs=1e-12)
    assert inverse_pseudo_fidelity(math.log(0.8)) == pytest.approx(0.85, abs=1e-12)


@given(st.floats(min_value=0.2500001, max_value=1.0))
def test_pseudo_roundtrip(f):
    assert inverse_pseudo_fidelity(pseudo_fidelity(f)) == pytest.approx(f, abs=1e-10)


def test_pseudo_additivity():
    rng = np.random.default_rng(11)
    for _ in range(300):
        fids = rng.uniform(0.3, 1.0, size=rng.integers(1, 6)).tolist()
        total = sum(pseudo_fidelity(f) for f in fids)
        assert abs(pseudo_fidelity(swap_fidelity(fids)) - total) < 1e-10


def test_gain_region():
    # strict gain above 0.5, strict loss between the floor and 0.5
    for f in np.arange(0.501, 1.0, 0.001):
        assert purified_fidelity(f, f) > f
    for f in np.arange(0.251, 0.5, 0.001):
        assert purified_fidelity(f, f) < f


def test_monotone_in_each_argument():
    grid = np.arange(0.5, 1.0 + 1e-9, 0.01)
    a, b = np.meshgrid(grid, grid, indexing="ij")
    vals = (10 * a * b - a - b + 1) / (8 * a * b - 2 * a - 2 * b + 5)
    assert np.all(np.diff(vals, axis=0) >= -1e-12)
    assert np.all(np.diff(vals, axis=1) >= -1e-12)


def test_diminishing_returns():
    # the equal-input gain peaks just below 0.78 and falls off monotonically
    # after that, which is the "gain decreases with input fidelity" effect
    grid = np.arange(0.75, 1.0, 0.001)
    gain = np.array([purified_fidelity(f, f) - f for f in grid])
    peak = grid[np.argmax(gain)]
    assert 0.75 <= peak <= 0.78
    after = gain[grid >= 0.78]
    assert np.all(np.diff(after) < 0)


def test_werner_map_not_associative():
    a, b, c = 0.7, 0.8, 0.9
    wl = purified_fidelity(purified_fidelity(a, b), c)
    wr = purified_fidelity(a, purified_fidelity(b, c))
    assert abs(wl - wr) > 1e-6  # witness triple: the Werner map is not associative
