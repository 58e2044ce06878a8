import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sinksim.cli import load_constants, main
from sinksim.scenario import random_graph_point

SRC = Path(__file__).resolve().parents[1] / "src"


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
    with pytest.raises(SystemExit):
        run_cli("collisions", "--w-min-ms", "30", "--w-max-ms", "10", "--out", str(tmp_path))


@pytest.mark.parametrize(
    "window_ms",
    [
        "0.1",  # shorter than both blocking times
        "0.3",  # holds the 192 us relay switch but not the 480 us ACK
    ],
)
def test_collisions_block_without_a_window_writes_nothing(tmp_path, window_ms):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "collisions", "--runs", "100", "--w-min-ms", window_ms, "--w-max-ms", window_ms,
            "--w-step-ms", "0.1", "--out", str(out),
        )
    assert str(exc.value) == "error: empty contention window sweep"
    assert not out.exists()


@pytest.mark.parametrize("command", ["collisions", "route-sim"])
def test_zero_runs_is_a_usage_error_without_output(tmp_path, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--runs", "0", "--out", str(out))
    message = str(exc.value)
    assert message.startswith("error:") and "--runs" in message
    assert "\n" not in message
    assert not out.exists()


def test_route_sim_unknown_preset(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("route-sim", "--preset", "moon", "--out", str(tmp_path))
    assert "random-graph" in str(exc.value)


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


def test_demo_runs_and_discovers(tmp_path, capsys):
    out = tmp_path / "demo"
    assert run_cli("demo", "--rotations", "3", "--grid", "3", "--out", str(out)) == 0
    rotations = (out / "rotations.csv").read_text().splitlines()
    assert len(rotations) == 4
    dot = (out / "graph.dot").read_text()
    assert dot.startswith("graph discovered {")


def test_demo_zero_rotations_empty_graph(tmp_path, capsys):
    out = tmp_path / "demo0"
    assert run_cli("demo", "--rotations", "0", "--grid", "3", "--out", str(out)) == 0
    dot = (out / "graph.dot").read_text()
    assert dot == "graph discovered {\n}\n"


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


def test_constants_override_via_config(tmp_path):
    cfg = tmp_path / "constants.ini"
    cfg.write_text("[constants]\nw_rr = 20000\n")
    c = load_constants(str(cfg))
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


def test_unknown_constant_in_config(tmp_path):
    cfg = tmp_path / "constants.ini"
    cfg.write_text("[constants]\nwarp_factor = 9\n")
    with pytest.raises(SystemExit):
        load_constants(str(cfg))


def test_missing_config_file():
    with pytest.raises(SystemExit):
        load_constants("/nonexistent/path.ini")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--neighbors", "100"],  # more ACKs than the contention window holds
        ["analyze", "--neighbors", "0"],
        ["analyze", "--battery-j", "-1"],
        ["collisions", "--runs", "10", "--levels", "1"],
        ["collisions", "--runs", "10", "--n", "-1"],
        ["codec", "decode", "--hex", "zz"],
        ["codec", "decode", "--hex", "00"],  # too short for a frame
        ["codec", "encode", "--remaining", "99"],  # beyond the 6-bit countdown
        ["codec", "encode", "--src", "0x10000"],
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
        ["route-sim", "--preset", "grid25", "--speeds", "nan", "--runs", "2"],
        ["route-sim", "--preset", "grid25", "--speeds=-inf", "--runs", "2"],
        ["route-sim", "--preset", "grid25", "--speeds", "2,-4", "--runs", "2"],
        ["route-sim", "--speeds", "4,x", "--runs", "2"],
    ],
    ids=" ".join,
)
def test_bad_input_is_a_one_line_error(argv, tmp_path):
    # Run where the default output directories would land, to see none made.
    proc = subprocess.run(
        [sys.executable, "-m", "sinksim.cli", *argv],
        cwd=tmp_path,
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []
