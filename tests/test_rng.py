import numpy as np
import pytest

from mixlab.errors import BadRange
from mixlab.rng import LANE, RngStream


def test_same_stream_replays_identical_draws():
    a = RngStream(123, 5).generator().random(16)
    b = RngStream(123, 5).generator().random(16)
    assert np.array_equal(a, b)


def test_distinct_indices_give_distinct_draws():
    a = RngStream(123, 0).generator().random(16)
    b = RngStream(123, 1).generator().random(16)
    c = RngStream(124, 0).generator().random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_is_reachable_without_history():
    # stream k must not depend on having drawn from streams < k
    direct = RngStream(9, 1000).generator().random(8)
    for k in range(5):
        RngStream(9, k).generator().random(8)
    again = RngStream(9, 1000).generator().random(8)
    assert np.array_equal(direct, again)


def test_offset_and_lane_arithmetic():
    s = RngStream(7, 3)
    assert s.offset(10) == RngStream(7, 13)
    assert s.lane(2) == RngStream(7, 2 * LANE)
    assert s.lane(2, 5) == RngStream(7, 2 * LANE + 5)
    # lanes are wide enough that offsets within one never reach the next
    assert s.lane(1, LANE - 1).stream_index < s.lane(2).stream_index


def test_negative_values_rejected():
    with pytest.raises(BadRange):
        RngStream(-1)
    with pytest.raises(BadRange):
        RngStream(0, -2)


def test_lane_offset_must_stay_inside_its_lane():
    s = RngStream(7)
    assert s.lane(1, LANE - 1).stream_index == 2 * LANE - 1
    # lane(1, 2**32) would be lane(2, 0)
    for k in (LANE, LANE + 5, -1):
        with pytest.raises(BadRange):
            s.lane(1, k)
