"""End-to-end command-line runs via subprocess.

Each test invokes the installed module exactly as a user would and inspects
exit codes, stdout, and the emitted JSON/CSV files.
"""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from routedesign.game import game_to_dict, load_game_file, membership_D
from routedesign.scenarios import build_scenario


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "routedesign.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_solve_writes_equilibrium_json(tmp_path):
    proc = run_cli(
        "solve", "--scenario", "two_player_3x3", "--lambda", "0.01", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    assert "solve: lambda=0.01" in proc.stdout
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["lambda"] == 0.01
    assert doc["residual"] <= 1e-8
    assert doc["gap"] >= 0.0
    assert len(doc["x"]) == 48 and len(doc["v"]) == 16


def test_solve_homotopy_reaches_the_default_floor(tmp_path):
    proc = run_cli(
        "solve", "--scenario", "two_player_3x3", "--homotopy", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["lambda"] == 1e-3
    assert doc["gap"] <= 1e-2


def test_gap_reports_a_certified_value(tmp_path):
    proc = run_cli(
        "gap", "--scenario", "two_player_3x3", "--lambda", "0.05", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("gap: lambda=0.05")
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["gap"] >= 0.0


def test_design_emits_trace_and_designed_game(tmp_path):
    proc = run_cli(
        "design", "--scenario", "two_player_3x3", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    assert "path_match=True" in proc.stdout

    rows = read_rows(tmp_path / "trace.csv")
    assert rows[0] == ["iter", "psi_bar", "psi_lambda", "db_norm", "dC_norm", "residual", "gap"]
    assert 2 <= len(rows) <= 101

    designed, desired = load_game_file(tmp_path / "designed_game.json")
    assert desired == [[3, 0, 1, 2, 5], [5, 8, 7, 6, 3]]
    assert np.all(designed.costs.b >= 0.0) and np.all(designed.costs.b <= 0.1)
    assert membership_D(designed.costs.C, designed.m, designed.rho)

    raw = json.loads((tmp_path / "designed_game.json").read_text())
    assert raw["desired_paths"] == [[4, 1, 2, 3, 6], [6, 9, 8, 7, 4]]


def test_design_zero_step_logs_one_iteration(tmp_path):
    proc = run_cli(
        "design", "--scenario", "two_player_3x3", "--alpha", "0", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(tmp_path / "trace.csv")
    assert len(rows) == 2  # header plus a single iteration


def test_design_respects_the_iteration_cap(tmp_path):
    proc = run_cli(
        "design", "--scenario", "four_player_5x5", "--max-iters", "4", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(tmp_path / "trace.csv")
    assert 2 <= len(rows) <= 5


def test_design_accepts_game_files_with_desired_paths(tmp_path):
    sc = build_scenario("two_player_3x3")
    doc = game_to_dict(sc.game)
    doc["desired_paths"] = [
        [node + 1 for node in path] for path in sc.desired_node_paths
    ]
    game_file = tmp_path / "game.json"
    game_file.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli(
        "design", "--game", str(game_file), "--alpha", "0", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr


def test_lambda_sweep_orders_final_objectives(tmp_path):
    proc = run_cli(
        "sweep",
        "--scenario", "two_player_3x3",
        "--sweep-lambda", "1.0,0.1,0.01",
        "--max-iters", "20",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(tmp_path / "sweep.csv")
    assert rows[0] == ["param", "psi_final"]
    assert [r[0] for r in rows[1:]] == ["1.0", "0.1", "0.01"]

    # smaller entropy weight tracks the target more closely by iteration 20
    at_20 = []
    iterations = []
    for lam in ("1", "0.1", "0.01"):
        trace = read_rows(tmp_path / f"trace_lambda_{lam}.csv")
        body = trace[1:]
        at_20.append(float(body[min(19, len(body) - 1)][1]))
        iterations.append(len(body))
    assert at_20[0] > max(at_20[1], at_20[2])
    # both small weights reach the target below double-precision resolution
    # of an on-path flow, (1.1e-16)^2, where their order is roundoff; the
    # smaller weight gets there in fewer outer iterations
    assert max(at_20[1], at_20[2]) <= 1e-24
    assert iterations[2] < iterations[1]


def test_rho_sweep_without_interaction_budget_tracks_worst(tmp_path):
    proc = run_cli(
        "sweep",
        "--scenario", "two_player_3x3",
        "--sweep-rho", "0,0.5",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(tmp_path / "sweep.csv")[1:]
    finals = [float(r[1]) for r in rows]
    # with C frozen at zero only the box offsets move, which cannot reroute
    assert finals[0] == max(finals)
    assert finals[1] < finals[0]


def test_sweep_reports_partial_failures_but_continues(tmp_path):
    proc = run_cli(
        "sweep",
        "--scenario", "two_player_3x3",
        "--sweep-lambda", "1e-9,0.1",
        "--max-iters", "20",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr  # one run still succeeded
    rows = read_rows(tmp_path / "sweep.csv")[1:]
    assert rows[0][0] == "1e-09" and rows[0][1] == "nan"
    assert float(rows[1][1]) < 1.0


def test_sweep_with_all_failures_exits_two(tmp_path):
    proc = run_cli(
        "sweep",
        "--scenario", "two_player_3x3",
        "--sweep-lambda", "1e-9",
        "--max-iters", "5",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 2
    rows = read_rows(tmp_path / "sweep.csv")[1:]
    assert rows == [["1e-09", "nan"]]


def test_usage_errors_exit_one(tmp_path):
    # missing source
    assert run_cli("solve").returncode == 1
    # unknown scenario name
    assert run_cli("solve", "--scenario", "nope").returncode == 1
    # mutually exclusive sources
    assert (
        run_cli("solve", "--scenario", "two_player_3x3", "--game", "x.json").returncode
        == 1
    )
    # unreadable game file
    assert run_cli("solve", "--game", str(tmp_path / "missing.json")).returncode == 1
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("solve", "--game", str(bad)).returncode == 1
    # empty sweep list
    assert (
        run_cli("sweep", "--scenario", "two_player_3x3", "--sweep-lambda", ",").returncode
        == 1
    )
    # invalid design step size
    assert (
        run_cli("design", "--scenario", "two_player_3x3", "--alpha", "-1").returncode
        == 1
    )
    # a dead-end link, 2 -> 3 in the file and (1, 2) 0-based, that no flow can
    # use: the message names it as the file does
    dead_end = _one_player_game(tmp_path / "dead_end.json", 3, [[1, 2], [2, 3]], [0.1, 0.1])
    proc = run_cli("solve", "--game", str(dead_end))
    assert proc.returncode == 1
    assert "[(2, 3)]" in proc.stderr and "Traceback" not in proc.stderr
    # an unreachable destination, named 1-based
    unreachable = _one_player_game(tmp_path / "unreachable.json", 2, [[2, 1]], [0.1])
    proc = run_cli("solve", "--game", str(unreachable))
    assert proc.returncode == 1
    assert "no path from node 1 to node 2" in proc.stderr and "Traceback" not in proc.stderr
    # a desired path along a missing link, 3 -> 2 in the file, named as the file does
    broken = _one_player_game(tmp_path / "broken.json", 3, [[1, 2], [1, 3], [2, 1], [3, 1]], [0.1] * 4)
    doc = json.loads(broken.read_text(encoding="utf-8"))
    doc["desired_paths"] = [[1, 3, 2]]
    broken.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli("design", "--game", str(broken), "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "no link from node 3 to node 2" in proc.stderr and "Traceback" not in proc.stderr
    # malformed documents: a link with a null end, a player with no
    # destination, players or desired paths that are not lists, and a
    # desired path with a null node
    good = json.loads(broken.read_text(encoding="utf-8"))
    for edit in (
        lambda d: d["graph"]["links"].__setitem__(0, [1, None]),
        lambda d: d["players"][0].pop("destination"),
        lambda d: d.__setitem__("players", 5),
        lambda d: d.__setitem__("desired_paths", 3),
        lambda d: d.__setitem__("desired_paths", [[1, None]]),
    ):
        doc = json.loads(json.dumps(good))
        edit(doc)
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli("solve", "--game", str(malformed))
        assert proc.returncode == 1, doc
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_design_without_desired_paths_exits_one(tmp_path):
    sc = build_scenario("two_player_3x3")
    game_file = tmp_path / "game.json"
    game_file.write_text(json.dumps(game_to_dict(sc.game)), encoding="utf-8")
    proc = run_cli("design", "--game", str(game_file), "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "desired" in proc.stderr


def test_hopeless_entropy_weight_exits_two(tmp_path):
    proc = run_cli(
        "solve",
        "--scenario", "two_player_3x3",
        "--lambda", "1e-9",
        "--max-iters", "30",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 2
    assert "numerical failure" in proc.stderr


def _one_player_game(path, n, links, b):
    """Write a game file: one player from node 1 to node 2, C = 0."""
    doc = {
        "graph": {"n": n, "links": links},
        "players": [{"origin": 1, "destination": 2}],
        "b": b,
        "C": [[0.0] * len(links) for _ in links],
        "rho": 0.5,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_solve_falls_back_when_the_cold_start_overflows(tmp_path):
    # b = -3 puts the cold start's exponent at ~299 for lambda 0.01, past
    # the overflow limit; continuation from lambda 1 still reaches the solution
    game_file = _one_player_game(tmp_path / "game.json", 2, [[1, 2], [2, 1]], [-3.0, 3.5])
    proc = run_cli("solve", "--game", str(game_file), "--lambda", "0.01", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["lambda"] == 0.01
    assert doc["residual"] <= 1e-10


def test_solve_names_a_negative_cost_cycle(tmp_path):
    # the 2-cycle costs -2.5, so the smoothed flow around it grows without
    # bound as lambda shrinks and continuation stalls
    game_file = _one_player_game(tmp_path / "game.json", 2, [[1, 2], [2, 1]], [-3.0, 0.5])
    proc = run_cli("solve", "--game", str(game_file), "--lambda", "0.01", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "negative-cost cycle" in proc.stderr
