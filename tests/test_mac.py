import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinksim.mac import (
    AckEvent,
    ContentionConfig,
    ack_backoff,
    collision_probability,
    elect_next_hop,
    min_window,
    simulate_collision,
)


def three_sigma(p: float, runs: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / runs)


def test_relay_collision_closed_form():
    cfg = ContentionConfig(10_000, 192, 5)
    expected = 1.0 - ((10_000 - 192) / 10_000) ** 5
    assert collision_probability(cfg) == pytest.approx(expected, rel=1e-12)
    assert collision_probability(cfg) < 0.1


def test_ack_collision_closed_form():
    cfg = ContentionConfig(30_000, 480, 5)
    expected = 1.0 - ((30_000 - 480) / 30_000) ** 5
    assert collision_probability(cfg) == pytest.approx(expected, rel=1e-12)
    assert collision_probability(cfg) < 0.1


def test_closed_form_ten_contenders():
    cfg = ContentionConfig(30_000, 480, 10)
    assert collision_probability(cfg) == pytest.approx(1.0 - 0.984**10, rel=1e-12)
    assert collision_probability(cfg) == pytest.approx(0.14896, abs=5e-6)


def test_closed_form_edge_cases():
    assert collision_probability(ContentionConfig(10_000, 192, 0)) == 0.0
    assert collision_probability(ContentionConfig(192, 192, 1)) == 1.0
    assert collision_probability(ContentionConfig(192, 192, 7)) == 1.0
    # one contender degenerates to pricing it against a committed sender
    assert collision_probability(ContentionConfig(30_000, 480, 1)) == pytest.approx(480 / 30_000)


def test_config_validation():
    with pytest.raises(ValueError):
        ContentionConfig(100, 200, 5)
    with pytest.raises(ValueError):
        ContentionConfig(100, 0, 5)
    with pytest.raises(ValueError):
        ContentionConfig(100, 50, -1)
    with pytest.raises(ValueError):
        ContentionConfig(100, 50, 5, discrete_levels=1)


@pytest.mark.parametrize(
    "window_us,block_us,n",
    [(30_000, 480, 5), (10_000, 192, 5), (5_000, 480, 3), (20_000, 192, 8)],
)
def test_monte_carlo_matches_closed_form(window_us, block_us, n):
    cfg = ContentionConfig(window_us, block_us, n)
    runs = 100_000
    estimate = simulate_collision(cfg, runs, rng_seed=7)
    closed = collision_probability(cfg)
    assert abs(estimate - closed) <= three_sigma(closed, runs)


def test_monte_carlo_deterministic_per_seed():
    cfg = ContentionConfig(30_000, 480, 5)
    assert simulate_collision(cfg, 10_000, 3) == simulate_collision(cfg, 10_000, 3)
    assert simulate_collision(cfg, 10_000, 3) != simulate_collision(cfg, 10_000, 4)


def test_monte_carlo_degenerate_counts():
    assert simulate_collision(ContentionConfig(30_000, 480, 0), 100) == 0.0
    assert simulate_collision(ContentionConfig(30_000, 480, 1), 100) == 0.0


def exhaustive_discrete_probability(levels: int, window_us: float, block_us: float, n: int) -> float:
    """Enumerate all levels**n outcomes of the discrete backoff draw."""
    step = window_us / (levels - 1)
    collided = 0
    total = 0
    for outcome in itertools.product(range(levels), repeat=n):
        values = sorted(v * step for v in outcome)
        total += 1
        if values[1] - values[0] < block_us:
            collided += 1
    return collided / total


def test_discrete_two_levels_two_contenders():
    # both contenders pick one of two slots a full window apart: only a
    # coincidence puts the runner-up within the blocking width
    cfg = ContentionConfig(960, 480, 2, discrete_levels=2)
    expected = exhaustive_discrete_probability(2, 960, 480, 2)
    assert expected == 0.5
    estimate = simulate_collision(cfg, 100_000, rng_seed=5)
    assert abs(estimate - expected) <= three_sigma(expected, 100_000)


@pytest.mark.parametrize("levels,n", [(3, 2), (5, 3), (4, 4)])
def test_discrete_matches_exhaustive_enumeration(levels, n):
    cfg = ContentionConfig(30_000, 480, n, discrete_levels=levels)
    expected = exhaustive_discrete_probability(levels, 30_000, 480, n)
    estimate = simulate_collision(cfg, 100_000, rng_seed=11)
    assert abs(estimate - expected) <= three_sigma(expected, 100_000)


def test_discrete_362_levels_tracks_the_continuous_curve():
    cfg = ContentionConfig(30_000, 480, 5, discrete_levels=362)
    estimate = simulate_collision(cfg, 100_000, rng_seed=13)
    assert abs(estimate - collision_probability(ContentionConfig(30_000, 480, 5))) < 0.01


@settings(max_examples=50)
@given(
    st.floats(1_000, 60_000),
    st.floats(100, 900),
    st.integers(1, 20),
    st.floats(1.05, 2.0),
)
def test_closed_form_monotonicity(window_us, block_us, n, factor):
    def p(w, d, k):
        return collision_probability(ContentionConfig(w, d, k))

    base = p(window_us, block_us, n)
    assert p(window_us * factor, block_us, n) <= base + 1e-12
    assert p(window_us, block_us, n + 1) >= base - 1e-12
    if block_us * factor <= window_us:
        assert p(window_us, block_us * factor, n) >= base - 1e-12


def test_min_window_hits_the_deployed_operating_points():
    w_ack = min_window(0.1, 480, 5)
    assert w_ack <= 30_000
    assert collision_probability(ContentionConfig(w_ack, 480, 5)) <= 0.1
    assert collision_probability(ContentionConfig(w_ack - 1, 480, 5)) > 0.1

    w_relay = min_window(0.1, 192, 5)
    assert w_relay <= 10_000
    assert collision_probability(ContentionConfig(w_relay, 192, 5)) <= 0.1
    assert collision_probability(ContentionConfig(w_relay - 1, 192, 5)) > 0.1


def test_min_window_limit_behavior():
    w = min_window(1.0 - 1e-9, 480, 5)
    assert 480 < w < 700
    with pytest.raises(ValueError):
        min_window(0.0, 480, 5)
    with pytest.raises(ValueError):
        min_window(1.0, 480, 5)


def test_ack_backoff_examples():
    assert ack_backoff(0, 361, 30_000) == 0.0
    assert ack_backoff(361, 361, 30_000) == 30_000.0
    assert ack_backoff(181, 361, 30_000) == pytest.approx(15_041.55, abs=0.01)
    with pytest.raises(ValueError):
        ack_backoff(-1, 361, 30_000)
    with pytest.raises(ValueError):
        ack_backoff(362, 361, 30_000)
    with pytest.raises(ValueError):
        ack_backoff(0, 0, 30_000)


@given(st.lists(st.floats(0, 361), min_size=2, max_size=8))
def test_ack_backoff_monotone_in_metric(metrics):
    metrics = sorted(metrics)
    backoffs = [ack_backoff(m, 361, 30_000) for m in metrics]
    assert all(a <= b + 1e-9 for a, b in zip(backoffs, backoffs[1:]))


def test_election_well_separated():
    acks = [
        AckEvent(1, 10.0, 1_000.0),
        AckEvent(2, 50.0, 5_000.0),
        AckEvent(3, 90.0, 9_000.0),
    ]
    result = elect_next_hop(acks, 480)
    assert result.winner == 1
    assert result.correct
    assert not any(a.lost for a in result.acks)


def test_election_pairwise_destruction():
    acks = [AckEvent(1, 10.0, 1_000.0), AckEvent(2, 20.0, 1_200.0)]
    result = elect_next_hop(acks, 480)
    assert result.winner is None
    assert all(a.lost for a in result.acks)
    assert not result.correct


def test_election_single_ack_wins():
    result = elect_next_hop([AckEvent(9, 42.0, 2_000.0)], 480)
    assert result.winner == 9
    assert result.correct


def test_election_third_survivor_is_incorrect():
    acks = [
        AckEvent(1, 10.0, 1_000.0),
        AckEvent(2, 11.0, 1_100.0),
        AckEvent(3, 99.0, 9_000.0),
    ]
    result = elect_next_hop(acks, 480)
    assert result.winner == 3
    assert not result.correct


def test_election_keeps_preexisting_losses():
    acks = [AckEvent(1, 10.0, 1_000.0, lost=True), AckEvent(2, 20.0, 9_000.0)]
    result = elect_next_hop(acks, 480)
    assert result.winner == 2
    assert result.acks[0].lost


def test_election_does_not_mutate_input():
    acks = [AckEvent(1, 10.0, 1_000.0), AckEvent(2, 20.0, 1_200.0)]
    elect_next_hop(acks, 480)
    assert not acks[0].lost and not acks[1].lost


def test_capture_can_rescue_the_earliest_answer():
    import random as _random

    acks = [AckEvent(1, 10.0, 1_000.0), AckEvent(2, 20.0, 1_200.0)]
    always = elect_next_hop(acks, 480, capture_p=1.0, rng=_random.Random(1))
    assert always.winner == 1
    assert always.correct
    never = elect_next_hop(acks, 480, capture_p=0.0)
    assert never.winner is None
    # capture only rescues overlap losses, not answers lost on the channel
    pre_lost = [AckEvent(1, 10.0, 1_000.0, lost=True), AckEvent(2, 20.0, 9_000.0)]
    rescued = elect_next_hop(pre_lost, 480, capture_p=1.0, rng=_random.Random(1))
    assert rescued.winner == 2


@settings(max_examples=60)
@given(st.lists(st.integers(0, 361), min_size=1, max_size=6, unique=True))
def test_metric_order_preserved_when_no_overlap(metrics):
    # unique integer metrics map to backoffs at least one 83 us slot apart,
    # so with a smaller blocking width nothing is lost and the metric argmin
    # must win
    acks = [AckEvent(i, m, ack_backoff(m, 361, 30_000)) for i, m in enumerate(metrics)]
    result = elect_next_hop(acks, block_us=50.0)
    assert result.winner is not None
    assert result.correct

