from __future__ import annotations

import random

import pytest

from treegen import gnm, swapped_balls


def test_gnm_refuses_more_edges_than_pairs():
    with pytest.raises(ValueError):
        gnm(random.Random(0), 4, 7)
    assert gnm(random.Random(0), 4, 6) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_swapped_balls_returns_on_the_smallest_graphs(n):
    for seed in range(20):
        balls = swapped_balls(random.Random(seed), n)
        assert balls is None or len(balls) == n
