import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinksim.core import DEFAULT_CONSTANTS
from sinksim.mac import (
    ContentionConfig,
    ack_backoff,
    collision_probability,
    elect_next_hop,
    lost,
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
    with pytest.raises(ValueError):  # its step W / (levels - 1) is no float
        ContentionConfig(100, 50, 5, discrete_levels=10**309)


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


def test_the_deployed_windows_keep_collisions_at_or_below_one_in_ten():
    c = DEFAULT_CONSTANTS
    assert collision_probability(ContentionConfig(c.w_rr, c.d_ack, 5)) <= 0.1
    assert collision_probability(ContentionConfig(c.w_br, c.d_rxtx, 5)) <= 0.1


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


def losses(answers, ack_us):
    """Which answers the requester loses, hearing each for ack_us."""
    heard = [(b, b + ack_us) for _, b in answers]
    return [lost(heard, b, b + ack_us) for _, b in answers]


def test_election_well_separated():
    metrics = {1: 10.0, 2: 50.0, 3: 90.0}
    answers = [(1, 1_000.0), (2, 5_000.0), (3, 9_000.0)]
    winner = elect_next_hop(answers, 480)
    assert winner == 1
    assert winner == min(metrics, key=metrics.get)
    assert losses(answers, 480) == [False] * 3


def test_election_pairwise_destruction():
    answers = [(1, 1_000.0), (2, 1_200.0)]
    assert elect_next_hop(answers, 480) is None
    assert losses(answers, 480) == [True, True]


def test_election_single_ack_wins():
    assert elect_next_hop([(9, 2_000.0)], 480) == 9


def test_election_third_survivor_is_incorrect():
    metrics = {1: 10.0, 2: 11.0, 3: 99.0}
    winner = elect_next_hop([(1, 1_000.0), (2, 1_100.0), (3, 9_000.0)], 480)
    assert winner == 3
    assert winner != min(metrics, key=metrics.get)


def test_a_reception_alone_is_kept():
    assert not lost([(0, 480)], 0, 480)
    assert not lost([], 0, 480)
    assert elect_next_hop([(5, 0)], 480) == 5


def test_spans_that_only_touch_do_not_overlap():
    heard = [(0, 480), (480, 960)]
    assert not lost(heard, 0, 480)
    assert not lost(heard, 480, 960)
    assert lost(heard + [(479, 959)], 480, 960)


def test_answers_one_ack_apart_both_survive():
    answers = [(2, 1_000), (1, 1_480)]
    assert losses(answers, 480) == [False, False]
    assert elect_next_hop(answers, 480) == 2


def test_answers_just_under_one_ack_apart_are_both_lost():
    answers = [(2, 1_000), (1, 1_479)]
    assert losses(answers, 480) == [True, True]
    assert elect_next_hop(answers, 480) is None
    # a third answer well apart wins, whatever its id
    assert elect_next_hop(answers + [(7, 5_000)], 480) == 7


def pairwise_election(answers, ack_us):
    """Both answers of any pair that start strictly within ack_us of each
    other are lost; the earliest survivor wins, ties to the smaller id."""
    destroyed = set()
    for i, (_, a) in enumerate(answers):
        for j, (_, b) in enumerate(answers[:i]):
            if abs(a - b) < ack_us:
                destroyed |= {i, j}
    survivors = [(b, node) for k, (node, b) in enumerate(answers) if k not in destroyed]
    return min(survivors)[1] if survivors else None


@st.composite
def contention_rounds(draw):
    # 1-7 answers with distinct ids, their backoffs drawn from a pool no
    # larger than the round, so that exact ties are frequent
    n = draw(st.integers(1, 7))
    ids = draw(st.lists(st.integers(-2, 400), min_size=n, max_size=n, unique=True))
    pool = draw(st.lists(st.integers(0, 3_000), min_size=1, max_size=n))
    answers = [(node, draw(st.sampled_from(pool))) for node in ids]
    # at ack_us = 0 (d_ack = 0 passes validate_constants) nothing is lost,
    # and only there can two answers kept tie
    return answers, draw(st.integers(0, 1_000))


@settings(max_examples=300)
@given(contention_rounds())
def test_the_election_is_the_pairwise_rule(round_):
    answers, ack_us = round_
    assert elect_next_hop(answers, ack_us) == pairwise_election(answers, ack_us)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_election_misses_the_earliest_answer_at_the_closed_form(n):
    # The earliest answer is destroyed exactly when the runner-up starts
    # within d_ack of it, so on uniform backoffs the election fails to elect
    # it at the closed form's rate.
    c = DEFAULT_CONSTANTS
    rnd = random.Random(n)
    runs = 4_000
    missed = 0
    for _ in range(runs):
        backoffs = [rnd.uniform(0, c.w_rr) for _ in range(n)]
        answers = list(enumerate(backoffs))
        missed += elect_next_hop(answers, c.d_ack) != backoffs.index(min(backoffs))
    p = collision_probability(ContentionConfig(c.w_rr, c.d_ack, n))
    assert abs(missed / runs - p) <= 4 * math.sqrt(p * (1 - p) / runs)


@settings(max_examples=60)
@given(st.lists(st.integers(0, 361), min_size=1, max_size=6, unique=True))
def test_metric_order_preserved_when_no_overlap(metrics):
    # unique integer metrics map to backoffs at least one 83 us slot apart,
    # so with a smaller blocking width nothing is lost and the metric argmin
    # must win
    answers = [(i, ack_backoff(m, 361, 30_000)) for i, m in enumerate(metrics)]
    assert elect_next_hop(answers, 50.0) == metrics.index(min(metrics))
