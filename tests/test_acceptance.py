"""Acceptance suite: every release-gating check, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The heavyweight sweeps (criteria 6, 8, 9, 10, 11) together take a
few minutes; everything else is seconds.
"""

import math
import random
import time
from collections import Counter, deque
from itertools import repeat

import pytest

from sinksim.cli import main as cli_main
from sinksim.core import DEFAULT_CONSTANTS, duty_cycle
from sinksim.energy import integrate_timeline, lifetime_hours, phase_energy, v_max_bs, v_max_network
from sinksim.flood import simulate_flood
from sinksim.frames import (
    DataPayload,
    ListOverflow,
    PayloadTooLarge,
    PreambleKind,
    ack_frame,
    data_frame,
    decode_frame,
    encode_frame,
    micro_frame,
)
from sinksim.mac import ContentionConfig, collision_probability, simulate_collision
from sinksim.radio import E_PREAMB_MJ, build_udg, grid_topology, power_table
from sinksim.routing import route
from sinksim.scenario import (
    grid_crossing_hops,
    grid_point,
    hop_exchange_timeline,
    random_graph_point,
)

C = DEFAULT_CONSTANTS


def report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}")
    assert ok, f"criterion {number}: {description}"


# ---------------------------------------------------------------------------
# 1. collision closed form vs Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_01_collision_probabilities():
    runs = 100_000
    started = time.time()
    ok = True
    for w_ms in (5, 10, 20, 30, 40):
        for block_us in (192, 480):
            cfg = ContentionConfig(w_ms * 1000.0, block_us, 5)
            closed = collision_probability(cfg)
            estimate = simulate_collision(cfg, runs, rng_seed=w_ms * 1000 + block_us)
            sigma = math.sqrt(max(closed * (1 - closed), 1e-12) / runs)
            ok = ok and abs(estimate - closed) <= 3 * sigma
    ok = ok and collision_probability(ContentionConfig(30_000, 480, 5)) < 0.1
    ok = ok and collision_probability(ContentionConfig(10_000, 192, 5)) < 0.1
    elapsed = time.time() - started
    ok = ok and elapsed < 10.0
    report(1, f"Monte Carlo within 3 sigma of closed form, operating points < 0.1 ({elapsed:.1f} s)", ok)


# ---------------------------------------------------------------------------
# 2. per-hop energy table reproduction
# ---------------------------------------------------------------------------


def test_criterion_02_energy_table():
    expected = {
        -25: (2.440, 0.592, 0.843),
        0: (3.494, 1.545, 1.796),
    }
    ok = True
    for dbm, (e_tx, e_comp, e_rx) in expected.items():
        pe = phase_energy(power_table(dbm), C, 5, E_PREAMB_MJ[dbm])
        for got, want in ((pe.e_tx_mj, e_tx), (pe.e_comp_mj, e_comp), (pe.e_rx_mj, e_rx)):
            ok = ok and abs(got / want - 1.0) <= 0.005
    report(2, "per-hop energies match the measured table within 0.5%", ok)


# ---------------------------------------------------------------------------
# 3. energy oracle cross-check against a simulated exchange
# ---------------------------------------------------------------------------


def test_criterion_03_energy_oracle():
    ok = True
    for dbm in (-25, 0):
        row = power_table(dbm)
        segments = hop_exchange_timeline(
            C, 0, [(1, 4_000)], data_target=1, t0=0, cca_offsets={1: 60_000}
        )
        energy = integrate_timeline(segments, row)
        pe = phase_energy(row, C, 1, E_PREAMB_MJ[dbm])
        ok = ok and abs(energy[0] / pe.e_tx_mj - 1.0) <= 0.02
        ok = ok and abs(energy[1] / pe.e_rx_mj - 1.0) <= 0.02
        # six-node variant: the non-elected neighbor must match the competitor term
        responders = [(i, 2_500 * i + 1_000) for i in range(1, 6)]
        segments = hop_exchange_timeline(
            C, 0, responders, data_target=1, t0=0,
            cca_offsets={i: 20_000 * i for i in range(1, 6)},
        )
        energy = integrate_timeline(segments, row)
        pe = phase_energy(row, C, 5, E_PREAMB_MJ[dbm])
        ok = ok and abs(energy[0] / pe.e_tx_mj - 1.0) <= 0.02
        ok = ok and abs(energy[2] / pe.e_comp_mj - 1.0) <= 0.02
        ok = ok and abs(energy[1] / pe.e_rx_mj - 1.0) <= 0.02
    report(3, "simulated exchange timeline integrates to the closed form within 2%", ok)


# ---------------------------------------------------------------------------
# 4. lifetimes and idle duty cycle
# ---------------------------------------------------------------------------


def test_criterion_04_lifetime_and_duty_cycle():
    sampling = lifetime_hours(10_000, 3.300)
    always_on = lifetime_hours(10_000, 61.030)
    ok = abs(sampling / 850.0 - 1.0) <= 0.02
    ok = ok and abs(always_on / 45.0 - 1.0) <= 0.02
    duty = duty_cycle(C)
    ok = ok and 0.0100 <= duty <= 0.0105
    report(4, f"lifetimes {sampling:.0f} h / {always_on:.1f} h, duty {duty * 100:.2f}%", ok)


# ---------------------------------------------------------------------------
# 5. real-time speed bounds
# ---------------------------------------------------------------------------


def test_criterion_05_speed_bounds():
    vbs = v_max_bs(C)
    vnet = v_max_network(C)
    ok = 500.0 <= vbs <= 520.0 and 130.0 <= vnet <= 140.0
    report(5, f"speed bounds {vbs:.1f} km/h (station) and {vnet:.1f} km/h (network)", ok)


# ---------------------------------------------------------------------------
# 6. flood worst-case bound on the grid
# ---------------------------------------------------------------------------


def test_criterion_06_flood_bound():
    g = grid_topology(5, 25.0)
    bound = 8 * (C.w_br + C.d_brp)
    assert bound == 1_232_000
    ok = True
    worst = 0
    for seed in range(1_000):
        rep = simulate_flood(g, 0, seed=seed)
        worst = max(worst, rep.first_rx_us[24])
        ok = ok and rep.first_rx_us[24] <= bound
        ok = ok and rep.reached == set(g.positions)
        counts = Counter(node for node, _ in rep.transmissions)
        ok = ok and set(counts) == set(g.positions) and all(v == 1 for v in counts.values())
    report(6, f"1000 floods: opposite corner reached by {worst / 1000:.0f} ms <= 1232 ms", ok)


# ---------------------------------------------------------------------------
# 7. routing delivery guarantee
# ---------------------------------------------------------------------------


def _connected_instance(rnd):
    while True:
        n = rnd.randrange(5, 40)
        positions = {i: (rnd.uniform(0, 1000), rnd.uniform(0, 1000)) for i in range(n)}
        topo = build_udg(positions, 200.0)
        sink_pos = (rnd.uniform(0, 1000), rnd.uniform(0, 1000))
        adjacent = [nid for nid in positions if topo.in_range(nid, sink_pos)]
        if not adjacent:
            continue
        seen = set(adjacent)
        queue = deque(adjacent)
        while queue:
            u = queue.popleft()
            for v in topo.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        source = rnd.choice(sorted(seen))
        return topo, sink_pos, source, seen


def test_criterion_07_delivery_guarantee():
    rnd = random.Random(1234)
    delivered = 0
    total = 500
    for _ in range(total):
        topo, sink_pos, source, component = _connected_instance(rnd)
        # adversarial coordinates: uniform noise, unrelated to the geometry
        coords = {nid: (rnd.uniform(0, 1000), rnd.uniform(0, 1000)) for nid in topo.positions}
        res = route(topo, coords, source, repeat((sink_pos, False)))  # a static sink
        # the reachability oracle already held by construction of `component`
        assert source in component
        if res.delivered:
            delivered += 1
    report(7, f"{delivered}/{total} static-sink deliveries with adversarial coordinates", delivered == total)


# ---------------------------------------------------------------------------
# 8. random-graph sweep trends
# ---------------------------------------------------------------------------


def _monotone(points, key_ci, direction, tolerance_cis=True):
    """True when the sequence is monotone in `direction` up to CI overlap."""
    ok = True
    for a, b in zip(points, points[1:]):
        mean_a, ci_a = key_ci(a)
        mean_b, ci_b = key_ci(b)
        slack = (ci_a + ci_b) if tolerance_cis else 0.0
        if direction == "nonincreasing":
            ok = ok and mean_b <= mean_a + slack
        else:
            ok = ok and mean_b >= mean_a - slack
    return ok


def test_criterion_08_random_graph_trends():
    runs = 10_000
    degrees = (4, 5, 6, 7, 8, 9, 10)
    speeds = (0, 10, 25, 50)
    started = time.time()
    table = {}
    for degree in degrees:
        for speed in speeds:
            # seed by degree only: speeds are compared on paired replications
            table[(degree, speed)] = random_graph_point(
                degree, speed, runs, seed=31_000 + degree
            )
    elapsed = time.time() - started
    ok = True
    for degree in degrees:
        row = [table[(degree, s)] for s in speeds]
        ok = ok and _monotone(row, lambda p: (p.mean_restarts, p.restarts_ci95), "nondecreasing")
        ok = ok and _monotone(row, lambda p: (p.mean_hops, p.hops_ci95), "nonincreasing")
    for speed in speeds:
        column = [table[(d, speed)] for d in degrees]
        ok = ok and _monotone(
            column, lambda p: (p.mean_restarts, p.restarts_ci95), "nonincreasing"
        )
    report(8, f"restart and hop trends over degree x speed hold ({elapsed:.0f} s)", ok)


# ---------------------------------------------------------------------------
# 9. grid crossing hop count
# ---------------------------------------------------------------------------


def test_criterion_09_grid_hop_count():
    mean, ci = grid_crossing_hops(10_000, seed=4)
    ok = 8.0 <= mean <= 9.5
    report(9, f"grid crossing delivered hop count {mean:.3f} +- {ci:.3f} in [8.0, 9.5]", ok)


# ---------------------------------------------------------------------------
# 10. grid miss ratio
# ---------------------------------------------------------------------------


def test_criterion_10_grid_miss_ratio():
    runs = 10_000
    speeds = (1, 2, 3, 4, 6, 8)
    points = {}
    for mobility in ("edge", "diagonal"):
        for speed in speeds:
            points[(mobility, speed)] = grid_point(
                mobility, speed, runs, seed=4_400 + speed * 10 + (mobility == "diagonal")
            )
    ok = True
    for mobility in ("edge", "diagonal"):
        misses = [points[(mobility, s)].miss_ratio for s in speeds]
        for a, b in zip(misses, misses[1:]):
            slack = 3 * math.sqrt(max(a * (1 - a), b * (1 - b), 1e-9) / runs)
            ok = ok and b >= a - slack
    for speed in speeds:
        ok = ok and points[("diagonal", speed)].miss_ratio <= points[("edge", speed)].miss_ratio
    summary = ", ".join(f"{points[('edge', s)].miss_ratio:.2f}" for s in speeds)
    report(10, f"miss ratio rises with speed (edge: {summary}), diagonal <= edge", ok)


# ---------------------------------------------------------------------------
# 11. codec bulk round trip and limits
# ---------------------------------------------------------------------------


def test_criterion_11_codec():
    rnd = random.Random(99)
    ok = True
    for _ in range(100_000):
        choice = rnd.randrange(3)
        if choice == 0:
            frame = micro_frame(
                PreambleKind(rnd.randrange(3)),
                rnd.randrange(64),
                rnd.randrange(65_536),
                rnd.randrange(256),
            )
        elif choice == 1:
            frame = ack_frame(rnd.randrange(65_536), rnd.randrange(256))
        else:
            n_t = rnd.randrange(0, 40)
            n_n = rnd.randrange(0, 40)
            frame = data_frame(
                rnd.randrange(65_536),
                DataPayload(
                    rnd.sample(range(256), n_t), [rnd.randrange(256) for _ in range(n_n)]
                ),
            )
        if decode_frame(encode_frame(frame)) != frame:
            ok = False
            break
    try:
        data_frame(0, DataPayload(list(range(118)), [5]))
        ok = False
    except ListOverflow:
        pass
    try:
        encode_frame(data_frame(0, DataPayload(list(range(118)), [])))
        ok = False
    except PayloadTooLarge:
        pass
    golden = bytes.fromhex("622205ffff0003074a8c")
    ok = ok and encode_frame(micro_frame(PreambleKind.DRP, 5, 3, 7)) == golden
    report(11, "100k frames round-trip exactly; golden bytes and size bounds hold", ok)


# ---------------------------------------------------------------------------
# 12. reproducibility of command-line runs
# ---------------------------------------------------------------------------


def test_criterion_12_cli_determinism(tmp_path):
    ok = True
    for args, outputs in (
        (["collisions", "--runs", "20000", "--seed", "5"], ["collisions_ack.csv", "collisions_relay.csv"]),
        (["demo", "--rotations", "6", "--grid", "4", "--seed", "5"], ["rotations.csv", "graph.dot"]),
        (["flood-sim", "--runs", "5", "--seed", "5"], ["flood_timeline.csv", "flood_summary.csv"]),
        (
            ["route-sim", "--preset", "grid25", "--runs", "200", "--speeds", "2,4", "--seed", "5"],
            ["summary.csv"],
        ),
    ):
        dirs = [tmp_path / f"{args[0]}_{i}" for i in (0, 1)]
        for d in dirs:
            cli_main(args + ["--out", str(d)])
        for name in outputs:
            ok = ok and (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    report(12, "identical reruns produce byte-identical outputs", ok)
