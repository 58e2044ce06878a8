import hashlib
import io
import json
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresh_python import run_python
from sinksim import commands
from sinksim.cli import load_constants, main, read_config
from sinksim.scenario import random_graph_point


def run_cli(*argv):
    return main(list(argv))


def test_analyze_prints_the_reference_numbers(capsys):
    assert run_cli("analyze") == 0
    out = capsys.readouterr().out
    assert "1.03 %" in out
    assert "2.440" in out and "3.494" in out
    assert "517.2" in out and "134.6" in out


def test_analyze_csv_mode(capsys):
    assert run_cli("analyze", "--csv", "--power", "-25") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("power,e_preamb_mj,e_tx_mj")
    row = lines[1].split(",")
    assert row[0] == "-25dBm"
    assert float(row[2]) == pytest.approx(2.440, rel=0.005)
    assert any(line.startswith("v_max_bs_kmh,") for line in lines)


def test_codec_encode_matches_golden(capsys):
    assert (
        run_cli(
            "codec", "encode", "--kind", "micro", "--preamble", "drp",
            "--remaining", "5", "--src", "0x0003", "--query", "0x07",
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "622205ffff0003074a8c"


def test_codec_decode(capsys):
    assert run_cli("codec", "decode", "--hex", "622205ffff0003074a8c") == 0
    out = capsys.readouterr().out
    assert "preamble=DRP" in out
    assert "remaining=5" in out
    assert "src=0x0003" in out


def test_codec_decode_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("42 22 00 ff ff 00 01 66 68\n"))
    assert run_cli("codec", "decode") == 0
    assert "kind=ack" in capsys.readouterr().out


def test_codec_data_round_trip(capsys):
    assert run_cli("codec", "encode", "--kind", "data", "--src", "0",
                   "--traversed", "0,7", "--neighbors", "7,8") == 0
    hex_text = capsys.readouterr().out.strip()
    assert run_cli("codec", "decode", "--hex", hex_text) == 0
    out = capsys.readouterr().out
    assert "traversed=[0, 7]" in out
    assert "neighbors=[7, 8]" in out


def test_collisions_writes_csvs(tmp_path, capsys):
    out = tmp_path / "col"
    assert run_cli(
        "collisions", "--runs", "2000", "--w-min-ms", "10", "--w-max-ms", "30",
        "--w-step-ms", "10", "--out", str(out),
    ) == 0
    ack = (out / "collisions_ack.csv").read_text().splitlines()
    assert ack[0] == "W_ms,closed_form,simulated,ci_low,ci_high"
    assert len(ack) == 4
    # the ACK curve crosses the 10% design target near the 30 ms window
    closed = {float(r.split(",")[0]): float(r.split(",")[1]) for r in ack[1:]}
    assert closed[20.0] > 0.1 > closed[30.0]
    assert (out / "collisions_relay.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "collisions"


def test_collisions_empty_sweep_is_a_usage_error(tmp_path):
    out = tmp_path / "out"
    assert run_cli("collisions", "--w-min-ms", "30", "--w-max-ms", "10", "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "window_ms",
    [
        "0.1",  # shorter than both blocking times
        "0.3",  # holds the 192 us relay switch but not the 480 us ACK
    ],
)
def test_collisions_block_without_a_window_writes_nothing(tmp_path, capsys, window_ms):
    out = tmp_path / "out"
    assert run_cli(
        "collisions", "--runs", "100", "--w-min-ms", window_ms, "--w-max-ms", window_ms,
        "--w-step-ms", "0.1", "--out", str(out),
    ) == 2
    assert capsys.readouterr().err == "error: empty contention window sweep\n"
    assert not out.exists()


def test_collisions_draws_a_level_count_beyond_64_bits(tmp_path, capsys):
    # once refused above 2**63, the most that numpy's int64 draws held
    out = tmp_path / "out"
    assert run_cli("collisions", "--levels", "100000000000000000000", "--runs", "10", "--out", str(out)) == 0
    for name in ("ack", "relay"):
        assert (out / f"collisions_{name}.csv").read_text().startswith("W_ms,closed_form,simulated,")


def test_collisions_runs_at_most_max_windows(tmp_path, capsys):
    from sinksim.commands import MAX_WINDOWS

    out = tmp_path / "out"
    # Windows 1, 2, ..., MAX_WINDOWS + 1 ms: one too many, and nothing written.
    argv = ["collisions", "--runs", "1", "--block-us", "1", "--w-min-ms", "1", "--w-step-ms", "1"]
    assert run_cli(*argv, "--w-max-ms", str(MAX_WINDOWS + 1), "--out", str(out)) == 2
    assert f"more than {MAX_WINDOWS} windows" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(*argv, "--w-max-ms", str(MAX_WINDOWS), "--out", str(out)) == 0
    rows = (out / "collisions_custom.csv").read_text().splitlines()
    assert len(rows) == 1 + MAX_WINDOWS


@pytest.mark.parametrize("command", ["collisions", "route-sim", "flood-sim"])
def test_zero_runs_is_a_usage_error_without_output(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run_cli(command, "--runs", "0", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--runs" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_route_sim_unknown_preset(tmp_path, capsys):
    assert run_cli("route-sim", "--preset", "moon", "--out", str(tmp_path)) == 2
    assert "random-graph" in capsys.readouterr().err


def test_route_sim_grid_preset(tmp_path, capsys):
    out = tmp_path / "rs"
    assert run_cli(
        "route-sim", "--preset", "grid25", "--runs", "150",
        "--speeds", "2,4", "--out", str(out),
    ) == 0
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0].startswith("mobility,speed_per_round")
    assert len(rows) == 5  # header + 2 mobilities x 2 speeds


def test_route_sim_random_graph_pairs_speeds(tmp_path, capsys):
    # Every speed of one degree runs on the same seed, so speeds are compared
    # on paired replications, as in random_graph_point's own sweep.
    out = tmp_path / "rg"
    assert run_cli(
        "route-sim", "--preset", "random-graph", "--runs", "40", "--degrees", "4",
        "--speeds", "0,25", "--seed", "2", "--out", str(out),
    ) == 0
    rows = [row.split(",") for row in (out / "summary.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2
    for row, speed in zip(rows, (0, 25)):
        pt = random_graph_point(4, speed, 40, 2 + 4 * 1000)
        expected = (pt.mean_restarts, pt.restarts_ci95, pt.mean_hops, pt.hops_ci95, pt.miss_ratio)
        assert row[3:] == [f"{value:.6g}" for value in expected]


def test_flood_sim_outputs(tmp_path, capsys):
    out = tmp_path / "fl"
    assert run_cli("flood-sim", "--runs", "2", "--out", str(out)) == 0
    timeline = (out / "flood_timeline.csv").read_text().splitlines()
    assert timeline[0] == "node,first_rx_us,tx_us"
    assert len(timeline) == 26
    summary = (out / "flood_summary.csv").read_text().splitlines()
    assert len(summary) == 3


@pytest.mark.parametrize("range_args, reached", [([], "2"), (["--range-m", "0"], "1")])
def test_a_csv_topology_takes_25_m_only_without_a_range(tmp_path, capsys, range_args, reached):
    csv = tmp_path / "pair.csv"
    csv.write_text("id,x,y\n0,0,0\n1,20,0\n")
    out = tmp_path / "fl"
    assert run_cli("flood-sim", "--topology", str(csv), *range_args, "--runs", "1", "--out", str(out)) == 0
    summary = (out / "flood_summary.csv").read_text().splitlines()
    assert summary[1].split(",")[1] == reached


def test_a_csv_topology_at_the_coordinate_bound_floods(tmp_path, capsys):
    # 1e150 is the largest magnitude a row may give: the gap between these
    # two squares to 8e300, still a finite float.
    csv = tmp_path / "far.csv"
    csv.write_text("id,x,y\n0,-1e150,-1e150\n1,1e150,1e150\n")
    out = tmp_path / "fl"
    assert run_cli("flood-sim", "--topology", str(csv), "--runs", "1", "--out", str(out)) == 0
    assert (out / "flood_timeline.csv").read_text() == "node,first_rx_us,tx_us\n0,,0\n1,,\n"


def test_demo_runs_and_discovers(tmp_path, capsys):
    out = tmp_path / "demo"
    assert run_cli("demo", "--rotations", "3", "--grid", "3", "--out", str(out)) == 0
    rotations = (out / "rotations.csv").read_text().splitlines()
    assert len(rotations) == 4
    dot = (out / "graph.dot").read_text()
    assert dot.startswith("graph discovered {")


def test_demo_deterministic_outputs(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli("demo", "--rotations", "4", "--grid", "3", "--seed", "7", "--out", str(out_a))
    run_cli("demo", "--rotations", "4", "--grid", "3", "--seed", "7", "--out", str(out_b))
    assert (out_a / "rotations.csv").read_bytes() == (out_b / "rotations.csv").read_bytes()
    assert (out_a / "graph.dot").read_bytes() == (out_b / "graph.dot").read_bytes()


def test_demo_timeline_csv_is_pinned(tmp_path, capsys):
    # Recorded while the timeline was still built as a segment list; the
    # segments the view builds on demand must write the same bytes.
    out = tmp_path / "demo"
    assert run_cli("demo", "--grid", "3", "--rotations", "4", "--seed", "7", "--out", str(out)) == 0
    data = (out / "timeline.csv").read_bytes()
    assert len(data.splitlines()) == 519
    assert hashlib.sha256(data).hexdigest() == (
        "b19bb56e1cb625c687b0e993f7d1b2d0953f76f41f76fe46be5daaa9f3c4093b"
    )


def test_demo_holds_no_earlier_rotation_report(tmp_path, monkeypatch, capsys):
    # demo writes the first rotation's timeline and every rotation's row, so
    # a report it kept beyond that would only make its memory grow with
    # --rotations.
    refs, alive = [], []
    run_scenario = commands.run_scenario

    def watched(cfg):
        alive.append([i for i, ref in enumerate(refs) if ref() is not None])
        report = run_scenario(cfg)
        refs.append(weakref.ref(report))
        return report

    monkeypatch.setattr(commands, "run_scenario", watched)
    out = tmp_path / "demo"
    assert run_cli("demo", "--grid", "3", "--rotations", "6", "--seed", "7", "--out", str(out)) == 0
    assert len(alive) == 6
    assert all(set(earlier) <= {0} for earlier in alive), alive


def test_constants_override_via_config(tmp_path):
    cfg = tmp_path / "constants.ini"
    cfg.write_text("[constants]\nw_rr = 20000\n")
    c = load_constants(read_config(str(cfg)))
    assert c.w_rr == 20_000
    assert c.w_br == 10_000


def test_sweep_section_drives_route_sim(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[sweep]\npreset = grid25\nmobility = edge\nspeeds = 3\nruns = 80\nseed = 2\n")
    out = tmp_path / "out"
    assert run_cli("route-sim", "--config", str(cfg), "--out", str(out)) == 0
    rows = (out / "summary.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("edge,3,")


def test_scenario_section_drives_demo(tmp_path):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text("[scenario]\ngrid = 3\nrotations = 2\nspeed_mps = 6.0\nseed = 4\n")
    out = tmp_path / "out"
    assert run_cli("demo", "--config", str(cfg), "--out", str(out)) == 0
    assert len((out / "rotations.csv").read_text().splitlines()) == 3
    timeline = (out / "timeline.csv").read_text().splitlines()
    assert timeline[0] == "node,state,start_us,end_us"


def test_flags_beat_the_ini_and_the_ini_fills_unset_flags(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[sweep]\npreset = grid25\nmobility = edge\nspeeds = 3\nruns = 80\nseed = 2\n")
    out = tmp_path / "out"
    assert run_cli("route-sim", "--config", str(cfg), "--runs", "3", "--out", str(out)) == 0
    args = json.loads((out / "manifest.json").read_text())["args"]
    assert args["runs"] == 3
    assert (args["preset"], args["mobility"], args["speeds"], args["seed"]) == (
        "grid25", "edge", "3", 2
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("[sweep]\nmobility = sideways\n", "[sweep] mobility: 'sideways' is not one of edge, diagonal, both"),
        ("[sweep]\nruns = abc\n", "[sweep] runs: invalid int value 'abc'"),
        ("[sweep]\nrunz = 5\n", "unknown key 'runz' in [sweep]"),
        ("[constants]\nw_rr = 2.5\n", "[constants] w_rr: invalid int value '2.5'"),
        ("[sweep]\nseed = -2\n", "--seed must be at least 0, got -2"),
    ],
)
def test_a_bad_ini_value_is_named_in_the_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli(
        "route-sim", "--config", str(cfg), "--runs", "2", "--degrees", "4", "--speeds", "0",
        "--out", str(out),
    ) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unknown_constant_in_config(tmp_path):
    cfg = tmp_path / "constants.ini"
    cfg.write_text("[constants]\nwarp_factor = 9\n")
    with pytest.raises(ValueError, match="warp_factor"):
        load_constants(read_config(str(cfg)))


def test_missing_config_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("demo", "--config", "/nonexistent/path.ini", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "constants, message",
    [
        ("t_cca = 0", "t_cca must be > 0, got 0"),
        ("t_cca = -5", "t_cca must be > 0, got -5"),
        ("t_dr = 0\nd_drp = 0\nd_data = 0", "t_dr + d_drp + d_data must be > 0, got 0"),
        (
            "w_br = 0\nd_brp = 0\nb_src = 0\nd_rrp = 0\nw_rr = 0\nd_ack = 0\nd_data = 0",
            "8 (w_br + d_brp) + b_src + 10 (d_rrp + w_rr + d_data) must be > 0, got 0",
        ),
    ],
)
def test_analyze_names_a_constant_it_would_divide_by_zero(tmp_path, capsys, constants, message):
    # each ended in a ZeroDivisionError traceback after the warning line
    cfg = tmp_path / "constants.ini"
    cfg.write_text(f"[constants]\n{constants}\n")
    assert run_cli("analyze", "--config", str(cfg)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_a_zero_request_period_is_a_one_line_error(tmp_path, capsys):
    # t_dr = 0 once ended the rotation in a ZeroDivisionError traceback
    cfg = tmp_path / "constants.ini"
    cfg.write_text("[constants]\nt_dr = 0\n")
    out = tmp_path / "out"
    assert run_cli("demo", "--grid", "4", "--rotations", "1", "--config", str(cfg), "--out", str(out)) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: t_dr must be > 0, got 0"]
    assert not out.exists()


def test_a_sink_never_heard_within_the_pass_limit_is_a_one_line_error(tmp_path, capsys):
    # At t_brp = 1 us the last request pass ends a second after set-off,
    # long before the sink leaves the grid: the run is refused before any
    # pass is tested.
    cfg = tmp_path / "constants.ini"
    cfg.write_text("[constants]\nt_brp = 1\n")
    out = tmp_path / "out"
    assert run_cli("demo", "--config", str(cfg), "--out", str(out)) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [
        "error: t_brp = 1 us is too short: the sink's 1000000 request passes end before it leaves the network"
    ]
    assert not out.exists()


INPUT_FILES = {
    "sweep_runz.ini": "[sweep]\nrunz = 5\n",
    "sweep_runs_abc.ini": "[sweep]\nruns = abc\n",
    "sweep_mobility.ini": "[sweep]\npreset = grid25\nmobility = sideways\n",
    "no_section.ini": "runs = 5\n",
    "scenario_out.ini": "[scenario]\nout = elsewhere\n",
    "sweep_seed.ini": "[sweep]\nseed = -1\n",
    "scenario_seed.ini": "[scenario]\nseed = -1\n",
    "constants_float.ini": "[constants]\nw_rr = 2.5\n",
    "t_cca_0.ini": "[constants]\nt_cca = 0\n",
    "t_dr_d_drp_d_data_0.ini": "[constants]\nt_dr = 0\nd_drp = 0\nd_data = 0\n",
    "no_nodes.csv": "id,x,y\n",
    "short_row.csv": "id,x,y\n0,0,0\n1,10\n",
    "big_id.csv": "id,x,y\n0,0,0\n300,20,0\n",
    "nan_x.csv": "id,x,y\n0,0,0\n1,20,0\n2,nan,0\n",
    "float_id.csv": "id,x,y\n0,0,0\n1.5,20,0\n",
    "text_x.csv": "id,x,y\n0,0,0\n2,abc,0\n",
    "repeated_id.csv": "id,x,y\n0,0,0\n1,20,0\n0,40,0\n",
    "huge_x.csv": "id,x,y\n0,0,0\n1,1e200,0\n",
}


def _cap_memory():
    # Run in the child before exec: input that makes a command allocate
    # without end runs out of this cap, not of the host's memory.
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--neighbors", "100"],  # more ACKs than the contention window holds
        ["analyze", "--neighbors", "0"],
        ["analyze", "--battery-j", "-1"],
        # a lifetime of nan or inf hours is no answer
        ["analyze", "--battery-j", "nan"],
        ["analyze", "--battery-j", "inf"],
        ["collisions", "--runs", "10", "--levels", "1"],
        ["collisions", "--runs", "10", "--n", "-1"],
        # 1e13 backoffs a block, some two weeks of drawing, and a level count
        # whose step W / (levels - 1) no float holds
        ["collisions", "--n", "100000000", "--w-min-ms", "28", "--w-max-ms", "30"],
        pytest.param(["collisions", "--levels", str(10**309)], id="collisions --levels 10**309"),
        # a blocking width once named only as "W >= D > 0", or read as an
        # empty sweep
        ["collisions", "--block-us", "-1"],
        ["collisions", "--block-us", "nan"],
        ["collisions", "--block-us", "inf"],
        # random.Random(-s) is seeded as Random(s): runs repeated, or numpy's
        # message named no option
        ["collisions", "--seed", "-1"],
        ["route-sim", "--seed", "-1"],
        ["flood-sim", "--seed", "-2"],
        ["demo", "--seed", "-1"],
        ["route-sim", "--config", "sweep_seed.ini"],
        ["demo", "--config", "scenario_seed.ini"],
        ["codec", "decode", "--hex", "zz"],
        ["codec", "decode", "--hex", "00"],  # too short for a frame
        ["codec", "encode", "--remaining", "99"],  # beyond the 6-bit countdown
        ["codec", "encode", "--src", "0x10000"],
        # ids and the query byte are one byte on air: once encoded as their
        # low byte
        ["codec", "encode", "--kind", "data", "--traversed", "70000"],
        ["codec", "encode", "--kind", "data", "--traversed", "-1"],
        ["codec", "encode", "--query", "0x10000"],
        ["codec", "encode", "--preamble", "xx"],
        # Non-finite speeds used to hang the sink's drift after the manifest
        # was written; every speed and degree is now checked before.
        ["route-sim", "--degrees", "4", "--speeds", "nan", "--runs", "2"],
        ["route-sim", "--degrees", "4", "--speeds", "inf", "--runs", "2"],
        ["route-sim", "--degrees", "4", "--speeds", "10,-1", "--runs", "2"],
        ["route-sim", "--degrees", "4,nan", "--runs", "2"],
        ["route-sim", "--degrees", "inf", "--runs", "2"],
        ["route-sim", "--degrees", "0", "--runs", "2"],
        ["route-sim", "--degrees", "4,-7", "--runs", "2"],
        # a node count that would exhaust memory
        ["route-sim", "--degrees", "1e6", "--runs", "2"],
        ["route-sim", "--degrees", "4,1e300", "--runs", "2"],
        # a draw list that once ran out of memory before the first walk
        ["route-sim", "--runs", "100000000"],
        ["route-sim", "--preset", "grid25", "--runs", "100000000", "--speeds", "1", "--mobility", "edge"],
        ["route-sim", "--preset", "grid25", "--speeds", "nan", "--runs", "2"],
        ["route-sim", "--preset", "grid25", "--speeds=-inf", "--runs", "2"],
        ["route-sim", "--preset", "grid25", "--speeds", "2,-4", "--runs", "2"],
        ["route-sim", "--speeds", "4,x", "--runs", "2"],
        # a list with no number once ran the preset's default list, or none
        ["route-sim", "--speeds", "", "--runs", "2"],
        ["route-sim", "--degrees", "", "--runs", "2"],
        ["route-sim", "--speeds", ",", "--runs", "2"],
        # degrees mean nothing to the grid preset
        ["route-sim", "--preset", "grid25", "--degrees", "5", "--runs", "2"],
        ["route-sim", "--config", "sweep_runz.ini"],  # a misspelled key
        ["route-sim", "--config", "sweep_runs_abc.ini"],
        ["route-sim", "--config", "sweep_mobility.ini"],  # not one of the choices
        ["route-sim", "--config", "no_section.ini"],
        ["demo", "--config", "scenario_out.ini"],  # a key that is no [scenario] key
        ["analyze", "--config", "constants_float.ini"],
        ["analyze", "--config", "missing.ini"],
        # analyze divides by these: each once ended in a ZeroDivisionError
        # traceback after the warning line
        ["analyze", "--config", "t_cca_0.ini"],
        ["analyze", "--config", "t_dr_d_drp_d_data_0.ini"],
        ["demo", "--speed-mps", "0"],
        ["demo", "--grid", "0"],
        ["demo", "--rotations", "0"],
        ["demo", "--rotations", "-1"],
        ["flood-sim", "--topology", "missing.csv"],
        ["demo", "--topology", "no_nodes.csv"],
        ["flood-sim", "--runs", "0"],
        ["flood-sim", "--topology", "short_row.csv"],
        # an id beyond the one byte a DATA payload gives it: from the file,
        # and from a grid of 289 nodes
        ["demo", "--topology", "big_id.csv"],
        ["demo", "--grid", "17"],
        # rejected before the build, which once took 8.8 s at a side of 300
        ["demo", "--grid", "300"],
        ["flood-sim", "--grid", "100000"],
        # a node at a NaN x once loaded, connected to nothing, and the run exited 0
        ["demo", "--topology", "nan_x.csv", "--rotations", "2"],
        # rows that once gave an error without the file and line
        ["demo", "--topology", "float_id.csv"],
        ["demo", "--topology", "text_x.csv"],
        ["demo", "--topology", "repeated_id.csv"],
        # a range whose square is positive: it flooded as if it were +25 m
        ["flood-sim", "--range-m", "-25"],
        ["flood-sim", "--range-m", "nan"],
        # a node the topology does not hold, once recorded in the manifest
        ["flood-sim", "--source", "999"],
        # a length whose square overflows a float
        ["flood-sim", "--range-m", "1e300"],
        ["demo", "--range-m", "1e300"],
        ["demo", "--spacing", "1e300"],
        # a gap between nodes whose square overflows, once a bare "number too
        # large" naming neither the file and line nor the option
        ["flood-sim", "--topology", "huge_x.csv"],
        ["demo", "--topology", "huge_x.csv"],
        ["flood-sim", "--grid", "3", "--spacing", "1.3e154"],
        # a round trip whose timeline would hold millions of polls
        ["demo", "--grid", "2", "--spacing", "1e6"],
        # an infinite window bound once looped until memory ran out, and a
        # nan step wrote a one-window sweep
        ["collisions", "--w-max-ms", "inf"],
        ["collisions", "--w-min-ms=-inf"],
        ["collisions", "--w-step-ms", "nan"],
        # finite ranges that once appended windows until killed: w + 2 == w
        # at -1e300; one window whose step is lost; above 2**52 a half step
        # that moves an odd w but never an even one; a billion windows
        ["collisions", "--w-min-ms=-1e300"],
        ["collisions", "--w-min-ms", "1e20", "--w-max-ms", "1e20"],
        ["collisions", "--w-min-ms", "4503599627370497", "--w-max-ms", "4503599627370507", "--w-step-ms", "0.5"],
        ["collisions", "--w-max-ms", "1e6", "--w-step-ms", "0.001"],
        # rejected by argparse
        ["route-sim", "--runs", "x"],
        ["demo", "--bogus"],
    ],
    ids=" ".join,
)
def test_bad_input_is_a_one_line_error(argv, tmp_path, tmp_path_factory):
    # The input files live elsewhere: the run's cwd must stay empty.
    inputs = tmp_path_factory.mktemp("inputs")
    for name, text in INPUT_FILES.items():
        (inputs / name).write_text(text)
    argv = [str(inputs / arg) if arg in INPUT_FILES else arg for arg in argv]
    # Run where the default output directories would land, to see none made.
    proc = run_python(
        ["-m", "sinksim.cli", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_cap_memory,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--n", ["collisions", "--runs", "10", "--n", "-1"]),
        ("--neighbors", ["analyze", "--neighbors", "0"]),
        ("--runs", ["route-sim", "--preset", "grid25", "--runs", "100000000"]),
        # once the range check of the build or an OverflowError, neither naming the option
        ("--spacing", ["demo", "--spacing", "-5"]),
        ("--spacing", ["demo", "--grid", "2", "--spacing", "1e300"]),
        ("--range-m", ["flood-sim", "--range-m", "1e300"]),
        # the spacing squares to a finite number, the grid's extent does not
        ("--spacing", ["flood-sim", "--grid", "3", "--spacing", "1.3e154"]),
        ("--levels", ["collisions", "--levels", str(10**309)]),
        ("--block-us", ["collisions", "--block-us", "-1"]),
        ("--block-us", ["collisions", "--block-us", "nan"]),
        ("--block-us", ["collisions", "--block-us", "inf"]),
        ("--seed", ["collisions", "--seed", "-1"]),
        ("--seed", ["route-sim", "--seed", "-1"]),
        ("--seed", ["flood-sim", "--seed", "-2"]),
        ("--seed", ["demo", "--seed", "-1"]),
    ],
    ids=("collisions --n", "analyze --neighbors", "route-sim --runs", "demo --spacing -5",
         "demo --spacing 1e300", "flood-sim --range-m 1e300", "flood-sim --grid 3 --spacing 1.3e154",
         "collisions --levels 10**309", "collisions --block-us -1", "collisions --block-us nan",
         "collisions --block-us inf", "collisions --seed", "route-sim --seed", "flood-sim --seed",
         "demo --seed"),
)
def test_a_bad_count_names_its_option(option, argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {option} ")


@pytest.mark.parametrize("argv", [["--help"], ["demo", "--help"], ["--version"]], ids=" ".join)
def test_help_and_version_print_to_stdout_and_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: sinksim" if "--help" in argv else "sinksim ")
    assert captured.err == ""


def test_route_sim_ends_at_a_huge_finite_speed(tmp_path):
    # The sink's bounce reflected one field width per pass and never ended
    # at 1e300; a fresh interpreter under a timeout.
    proc = run_python(
        ["-m", "sinksim.cli", "route-sim", "--degrees", "4", "--speeds", "1e300", "--runs", "2", "--out", "out"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert (tmp_path / "out" / "summary.csv").read_text().startswith("mobility,")


# A cheap run of each command, then the options the fuzz may set on it; the
# values keep every count small.
FUZZ_COMMANDS = {
    "analyze": ([], ["--neighbors", "--battery-j", "--power"]),
    "collisions": (
        ["--runs", "20", "--w-min-ms", "28", "--w-max-ms", "30"],
        ["--runs", "--n", "--levels", "--block-us", "--w-min-ms", "--w-step-ms", "--seed"],
    ),
    "route-sim": (
        ["--runs", "2", "--degrees", "4", "--speeds", "0"],
        ["--runs", "--preset", "--speeds", "--degrees", "--coord-mode", "--seed"],
    ),
    "flood-sim": (
        ["--runs", "1", "--grid", "3"],
        ["--runs", "--grid", "--range-m", "--spacing", "--initiator", "--source", "--seed"],
    ),
    "demo": (
        ["--rotations", "1", "--grid", "2"],
        ["--rotations", "--grid", "--speed-mps", "--range-m", "--spacing", "--seed"],
    ),
    "codec": (["encode"], ["--kind", "--src", "--remaining", "--preamble", "--traversed"]),
}
FUZZ_VALUES = ["-1", "0", "1", "2", "nan", "inf", "1e6", "1e300", "x", "2,x", "0x10", "grid25", "data"]


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    base, options = FUZZ_COMMANDS[command]
    argv = [command, *base]
    for option in draw(st.lists(st.sampled_from(options), max_size=2)):
        argv += [option, draw(st.sampled_from(FUZZ_VALUES))]
    return argv


@settings(max_examples=40, deadline=None)
@given(argv=fuzzed_argv())
def test_fuzzed_argv_ends_in_output_or_one_error_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if argv[0] not in ("analyze", "codec"):
            argv = argv + ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                status = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            assert exc.code == 2
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            return
        if status == 0:
            assert stdout.getvalue()
            return
        assert status == 2
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert stdout.getvalue() == ""
        assert not out.exists()
