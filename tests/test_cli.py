"""End-to-end command-line runs.

Each test runs a command through the CLI entry point and inspects exit codes,
stdout, stderr, and the emitted JSON/CSV files.  Most call `cli.main` in the
test process, with capsys capturing the streams; some start
`python -m routedesign.cli` in a subprocess, exactly as a user would, to
check the module entry point and that exit codes reach the shell, and one
runs commands in a fresh interpreter to see which modules they load.
"""

import csv
import json
import subprocess
import sys

import numpy as np
import orjson
import pytest

import routedesign.design as design_mod
from routedesign import cli
from routedesign.design import DesignConfig
from routedesign.game import c_from_factor, game_to_dict, load_game_file, membership_D, write_game_file
from routedesign.scenarios import build_scenario
from routedesign.smooth_eq import Linearization, SmoothEqSettings


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "routedesign.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def run_main(capsys, *args):
    """cli.main(args) in this process, reported like a finished subprocess."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


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


def test_solve_homotopy_reaches_the_default_floor(tmp_path, capsys):
    proc = run_main(capsys,
        "solve", "--scenario", "two_player_3x3", "--homotopy", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["lambda"] == 1e-3
    assert doc["gap"] <= 1e-2


def test_equilibrium_json_holds_the_solution_bit_for_bit(tmp_path, capsys, monkeypatch):
    runs = []
    real_homotopy_solve = cli.homotopy_solve

    def spy_homotopy_solve(*args, **kwargs):
        runs.append(real_homotopy_solve(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "homotopy_solve", spy_homotopy_solve)
    proc = run_main(capsys,
        "solve", "--scenario", "two_player_3x3", "--homotopy", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    (stages,) = runs
    sol = stages[-1]
    raw = (tmp_path / "equilibrium.json").read_bytes()
    # Python's json and orjson, which wrote the file, read the same doubles
    for doc in (json.loads(raw), orjson.loads(raw)):
        for key in ("x", "v"):
            written = np.asarray(doc[key], dtype=float)
            assert np.array_equal(written.view(np.int64), getattr(sol, key).view(np.int64))
        assert doc["residual"] == sol.residual_norm and doc["lambda"] == sol.lam


def test_gap_reports_a_certified_value(tmp_path, capsys):
    proc = run_main(capsys,
        "gap", "--scenario", "two_player_3x3", "--lambda", "0.05", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("gap: lambda=0.05")
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["gap"] >= 0.0


def test_design_emits_trace_and_designed_game(tmp_path, capsys):
    proc = run_main(capsys,
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
    # C goes out as the factor the design ended with, not as pm x pm numbers
    assert "C" not in raw and sorted(raw["C_factor"]) == ["M", "Q"]


def test_a_designed_game_file_certifies_on_reloading(tmp_path, capsys):
    # the file carries C's factor, so the reloaded game takes the structured
    # route, as the design did
    proc = run_main(capsys, "design", "--scenario", "two_player_3x3", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    designed = tmp_path / "designed_game.json"
    game, _ = load_game_file(designed)
    assert game.costs.factor is not None
    assert not Linearization(game, np.ones(game.pm), 1e-3).holds_dense_lu
    proc = run_main(capsys, "gap", "--game", str(designed), "--homotopy", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "equilibrium.json").read_text())["gap"] <= 1e-2


SCIPY_PROBE = """
import sys
import numpy as np
from routedesign import cli
from routedesign.scenarios import build_scenario
from routedesign.smooth_eq import Linearization

out = sys.argv[1]
common = ["--scenario", "two_player_3x3", "--alpha", "0.01", "--lambda", "0.01"]
loaded = ["scipy" in sys.modules]
assert cli.main(["design", *common, "--out", out + "/design"]) == 0
loaded.append("scipy" in sys.modules)
rhos = "0,0.1,0.2,0.3,0.4,0.5"
assert cli.main(["sweep", *common, "--sweep-rho", rhos, "--out", out + "/sweep"]) == 0
loaded.append("scipy" in sys.modules)
game = build_scenario("two_player_3x3").game
game = game.with_costs(game.costs.b, 0.1 * np.eye(game.pm))  # C with no factor
assert Linearization(game, np.ones(game.pm), 0.01).holds_dense_lu
loaded.append("scipy" in sys.modules)
print(loaded)
"""


def test_scipy_loads_only_for_the_dense_route(tmp_path):
    # a fresh interpreter, since the test suite itself imports scipy: the
    # scenario commands take only the structured route, which runs on
    # numpy's LAPACK, and the dense LU of J~ is the first to import scipy
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False, False, True]"


DESIGN_PATH_PROBE = """
import json, sys
from routedesign import cli, numerics

calls = []
real_lstsq = numerics.lstsq

def spy_lstsq(*args):
    calls.append(args)
    return real_lstsq(*args)

numerics.lstsq = spy_lstsq
argv = ["design", "--scenario", "four_player_5x5", "--alpha", "0.01", "--lambda", "0.01"]
assert cli.main([*argv, "--out", sys.argv[1]]) == 0
print(json.dumps({"lstsq": len(calls), "scipy": "scipy" in sys.modules}))
"""


def test_the_four_player_design_needs_no_least_squares(tmp_path):
    # the design's certifications pass iterates at lambda = 1e-3 with flows
    # near 1e-191, where the Newton step's line search can fail on a
    # rounding-level change, and the proximal step keeps them on the
    # structured route: no least-squares direction, so no scipy, and the
    # same path.  A fresh interpreter, since the test suite imports scipy
    proc = subprocess.run(
        [sys.executable, "-c", DESIGN_PATH_PROBE, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1]) == {"lstsq": 0, "scipy": False}
    summary = lines[0].split()
    assert summary[0] == "design:"
    assert "iterations=9" in summary and "path_match=True" in summary


COMMAND_MODULES_PROBE = """
import sys
from routedesign import cli

assert cli.main(sys.argv[1:]) == 0
print([m for m in ("routedesign.design", "routedesign.sensitivity", "hashlib", "orjson") if m in sys.modules])
"""


@pytest.mark.parametrize("argv, loaded", [
    (["solve"], ["orjson"]),
    (["design", "--alpha", "0.01"], ["routedesign.design", "routedesign.sensitivity", "orjson"]),
    (["sweep", "--sweep-rho", "0,0.5"], ["routedesign.design", "routedesign.sensitivity", "hashlib"]),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    # a fresh interpreter, since the test suite has imported every module:
    # solve never loads the design pipeline, hashlib loads only for a sweep's
    # memo, and a scenario sweep writes no JSON, so it never loads orjson
    command = [*argv, "--scenario", "two_player_3x3", "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", COMMAND_MODULES_PROBE, *command], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loaded)


@pytest.mark.parametrize("scenario", ["two_player_3x3", "four_player_5x5"])
def test_a_designed_game_file_reloads_to_the_designed_costs(tmp_path, capsys, monkeypatch, scenario):
    designs = []
    real_design_loop = cli.design_loop

    def spy_design_loop(*args, **kwargs):
        designs.append(real_design_loop(*args, **kwargs))
        return designs[-1]

    monkeypatch.setattr(cli, "design_loop", spy_design_loop)
    proc = run_main(capsys,
        "design", "--scenario", scenario, "--alpha", "0.01", "--lambda", "0.01", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    (designed, _, _), = designs
    q, mid = designed.costs.factor
    game, desired = load_game_file(tmp_path / "designed_game.json")
    assert np.array_equal(game.costs.C, c_from_factor(q, mid))
    assert np.array_equal(game.costs.b, designed.costs.b)
    assert desired == [list(nodes) for nodes in build_scenario(scenario).desired_node_paths]
    # the game gets the factor design_loop hands every iteration's game
    u, w = game.costs.qw
    assert np.array_equal(u, q) and np.array_equal(w, q @ mid.T)


def test_design_zero_step_logs_one_iteration(tmp_path, capsys):
    proc = run_main(capsys,
        "design", "--scenario", "two_player_3x3", "--alpha", "0", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(tmp_path / "trace.csv")
    assert len(rows) == 2  # header plus a single iteration


def test_design_respects_the_iteration_cap(tmp_path, capsys):
    proc = run_main(capsys,
        "design", "--scenario", "four_player_5x5", "--max-iters", "4", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(tmp_path / "trace.csv")
    assert 2 <= len(rows) <= 5


def test_flags_default_to_the_settings_defaults():
    parser = cli.build_parser()
    game = build_scenario("two_player_3x3").game
    for argv in (["design"], ["sweep", "--sweep-rho", "0.1"]):
        args = parser.parse_args([*argv, "--scenario", "two_player_3x3"])
        assert cli._design_config(args, game) == DesignConfig(rho=game.rho)
    for command in ("solve", "gap"):
        args = parser.parse_args([command, "--scenario", "two_player_3x3"])
        assert args.max_iters == SmoothEqSettings.max_iters


def test_design_accepts_game_files_with_desired_paths(tmp_path, capsys):
    sc = build_scenario("two_player_3x3")
    doc = game_to_dict(sc.game)
    doc["desired_paths"] = [
        [node + 1 for node in path] for path in sc.desired_node_paths
    ]
    game_file = tmp_path / "game.json"
    game_file.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_main(capsys,
        "design", "--game", str(game_file), "--alpha", "0", "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr


def test_lambda_sweep_orders_final_objectives(tmp_path, capsys):
    proc = run_main(capsys,
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


def test_rho_sweep_without_interaction_budget_tracks_worst(tmp_path, capsys):
    proc = run_main(capsys,
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


def _count_inner_solves(monkeypatch):
    # the inner solves run at the design weight, certification at REFERENCE_LAMBDA
    solves = []
    real_solve = design_mod.homotopy_solve

    def spy_solve(game, settings, *args, **kwargs):
        if settings.lam != design_mod.REFERENCE_LAMBDA:
            solves.append(args)
        return real_solve(game, settings, *args, **kwargs)

    monkeypatch.setattr(design_mod, "homotopy_solve", spy_solve)
    return solves


def test_rho_sweep_shares_iterations_and_matches_one_design_per_value(tmp_path, monkeypatch):
    common = ["--scenario", "two_player_3x3", "--alpha", "0.01"]
    rhos = ["0", "0.1", "0.5"]
    solves = _count_inner_solves(monkeypatch)
    sweep = tmp_path / "sweep"
    assert cli.main(["sweep", *common, "--sweep-rho", ",".join(rhos), "--out", str(sweep)]) == 0
    rows = sum(len(read_rows(sweep / f"trace_rho_{rho}.csv")) - 1 for rho in rhos)
    # every design starts from the same (b, C), so iteration 1 at least is
    # shared; each design's final, verifying iteration adds one solve at most
    assert len(solves) - len(rhos) < rows
    # each trace is the one a separate design at that radius writes, and each
    # sweep.csv row the one a separate one-value sweep writes
    single_rows = [["param", "psi_final"]]
    for rho in rhos:
        design = tmp_path / f"design_{rho}"
        assert cli.main(["design", *common, "--rho", rho, "--out", str(design)]) == 0
        trace = (sweep / f"trace_rho_{rho}.csv").read_bytes()
        assert trace == (design / "trace.csv").read_bytes()
        single = tmp_path / f"sweep_{rho}"
        assert cli.main(["sweep", *common, "--sweep-rho", rho, "--out", str(single)]) == 0
        single_rows += read_rows(single / "sweep.csv")[1:]
    assert read_rows(sweep / "sweep.csv") == single_rows


def test_lambda_sweep_shares_no_iterations(tmp_path, monkeypatch):
    solves = _count_inner_solves(monkeypatch)
    args = ["sweep", "--scenario", "two_player_3x3", "--alpha", "0.01"]
    assert cli.main([*args, "--sweep-lambda", "0.1,0.01", "--out", str(tmp_path)]) == 0
    rows = sum(len(read_rows(tmp_path / f"trace_lambda_{lam}.csv")) - 1 for lam in ("0.1", "0.01"))
    # the entropy weight is part of every iteration's key: one solve per row,
    # plus each design's final, verifying iteration
    assert len(solves) == rows + 2


def test_sweep_rejects_values_whose_trace_files_collide(tmp_path, capsys, monkeypatch):
    solves = _count_inner_solves(monkeypatch)
    proc = run_main(capsys,
        "sweep", "--scenario", "two_player_3x3", "--sweep-rho", "0.5,0.1,0.1000001",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: rho values 0.1 and 0.1000001 both write trace_rho_0.1.csv\n"
    assert solves == [] and list(tmp_path.iterdir()) == []


def test_sweep_reports_partial_failures_but_continues(tmp_path, capsys):
    proc = run_main(capsys,
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


def test_sweep_with_all_failures_exits_two(tmp_path, capsys):
    proc = run_main(capsys,
        "sweep",
        "--scenario", "two_player_3x3",
        "--sweep-lambda", "1e-9",
        "--max-iters", "5",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 2
    rows = read_rows(tmp_path / "sweep.csv")[1:]
    assert rows == [["1e-09", "nan"]]


def test_usage_errors_exit_one(tmp_path, capsys):
    # missing source
    assert run_main(capsys, "solve").returncode == 1
    # unknown scenario name
    assert run_main(capsys, "solve", "--scenario", "nope").returncode == 1
    # mutually exclusive sources
    assert (
        run_main(capsys, "solve", "--scenario", "two_player_3x3", "--game", "x.json").returncode
        == 1
    )
    # unreadable game file
    assert run_main(capsys, "solve", "--game", str(tmp_path / "missing.json")).returncode == 1
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_main(capsys, "solve", "--game", str(bad)).returncode == 1
    # empty sweep list
    assert (
        run_main(capsys, "sweep", "--scenario", "two_player_3x3", "--sweep-lambda", ",").returncode
        == 1
    )
    # invalid design step size
    assert (
        run_main(capsys, "design", "--scenario", "two_player_3x3", "--alpha", "-1").returncode
        == 1
    )
    # a NaN entropy weight, a game file with a NaN offset, and a NaN radius
    # after a valid one, rejected before any sweep point runs
    nan_b = _one_player_game(tmp_path / "nan_b.json", 2, [[1, 2]], [float("nan")])
    for args in (
        ("solve", "--scenario", "two_player_3x3", "--lambda", "nan"),
        ("solve", "--game", str(nan_b)),
        ("sweep", "--scenario", "two_player_3x3", "--sweep-rho", "0.1,nan", "--out", str(tmp_path)),
    ):
        proc = run_main(capsys, *args)
        assert proc.returncode == 1, args
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        # json.dump writes the NaN offset as a NaN token, which JSON lacks
        assert ("not JSON" in proc.stderr) == (args[1] == "--game"), proc.stderr
    assert not (tmp_path / "trace_rho_0.1.csv").exists()
    # a dead-end link, 2 -> 3 in the file and (1, 2) 0-based, that no flow can
    # use: the message names it as the file does
    dead_end = _one_player_game(tmp_path / "dead_end.json", 3, [[1, 2], [2, 3]], [0.1, 0.1])
    proc = run_main(capsys, "solve", "--game", str(dead_end))
    assert proc.returncode == 1
    assert "[(2, 3)]" in proc.stderr and "Traceback" not in proc.stderr
    # an unreachable destination, named 1-based
    unreachable = _one_player_game(tmp_path / "unreachable.json", 2, [[2, 1]], [0.1])
    proc = run_main(capsys, "solve", "--game", str(unreachable))
    assert proc.returncode == 1
    assert "no path from node 1 to node 2" in proc.stderr and "Traceback" not in proc.stderr
    # a desired path along a missing link, 3 -> 2 in the file, named as the file does
    broken = _one_player_game(tmp_path / "broken.json", 3, [[1, 2], [1, 3], [2, 1], [3, 1]], [0.1] * 4)
    doc = json.loads(broken.read_text(encoding="utf-8"))
    doc["desired_paths"] = [[1, 3, 2]]
    broken.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_main(capsys, "design", "--game", str(broken), "--out", str(tmp_path))
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
        proc = run_main(capsys, "solve", "--game", str(malformed))
        assert proc.returncode == 1, doc
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    # a link entry that is not a pair, and offsets or a radius that are not
    # numbers: the message names the entry or the key
    for edit, message in (
        (
            lambda d: d["graph"]["links"].__setitem__(0, [1, 2, 9]),
            "link entry [1, 2, 9] is not a [tail, head] pair",
        ),
        (lambda d: d.__setitem__("b", "abc"), "b: could not convert string to float: 'abc'"),
        (lambda d: d.__setitem__("rho", "x"), "rho: could not convert string to float: 'x'"),
    ):
        doc = json.loads(json.dumps(good))
        edit(doc)
        malformed.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_main(capsys, "solve", "--game", str(malformed))
        assert proc.returncode == 1, doc
        assert proc.stderr == f"error: malformed game document: {message}\n"
    # indices written as 1e999, which JSON readers parse as inf: a node
    # count, a player's origin and destination, a link end and a desired-path node
    for edit in (
        lambda d: d["graph"].__setitem__("n", "HUGE"),
        lambda d: d["players"][0].__setitem__("origin", "HUGE"),
        lambda d: d["players"][0].__setitem__("destination", "HUGE"),
        lambda d: d["graph"]["links"].__setitem__(0, [1, "HUGE"]),
        lambda d: d.__setitem__("desired_paths", [[1, "HUGE"]]),
    ):
        doc = json.loads(json.dumps(good))
        edit(doc)
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc).replace('"HUGE"', "1e999"), encoding="utf-8")
        proc = run_main(capsys, "solve", "--game", str(huge))
        assert proc.returncode == 1, doc
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    # a fractional origin, which would otherwise be truncated to node 1
    doc = json.loads(json.dumps(good))
    doc["players"][0]["origin"] = 1.6
    malformed.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_main(capsys, "solve", "--game", str(malformed))
    assert proc.returncode == 1
    assert proc.stderr == "error: origin: expected an integer, got 1.6\n"
    # a link to node 0, named as the file writes it
    doc = json.loads(json.dumps(good))
    doc["graph"]["links"][0] = [0, 2]
    malformed.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_main(capsys, "solve", "--game", str(malformed))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "[0, 2]" in proc.stderr


@pytest.mark.parametrize(
    ("nodes", "message"),
    [
        ([2, 4], "runs from node 2 to node 4, not 1 to 4"),
        ([1, 3], "runs from node 1 to node 3, not 1 to 4"),
        ([1, 2, 1, 2, 4], "uses a link twice"),
    ],
)
@pytest.mark.parametrize("command", ["design", "solve"])
def test_desired_paths_off_the_origin_destination_route_exit_one(
    tmp_path, capsys, command, nodes, message
):
    # one player from node 1 to node 4 round the cycle 1-2-4-3-1, linked both ways
    links = [[1, 2], [1, 3], [2, 1], [2, 4], [3, 1], [3, 4], [4, 2], [4, 3]]
    game_file = _one_player_game(tmp_path / "game.json", 4, links, [0.1] * 8)
    doc = json.loads(game_file.read_text(encoding="utf-8"))
    doc["players"][0]["destination"] = 4
    doc["desired_paths"] = [nodes]
    game_file.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_main(capsys, command, "--game", str(game_file), "--out", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr == f"error: player 0: desired path {nodes} {message}\n"
    assert not (tmp_path / "equilibrium.json").exists()


def test_design_without_desired_paths_exits_one(tmp_path, capsys):
    sc = build_scenario("two_player_3x3")
    game_file = tmp_path / "game.json"
    game_file.write_text(json.dumps(game_to_dict(sc.game)), encoding="utf-8")
    proc = run_main(capsys, "design", "--game", str(game_file), "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "desired" in proc.stderr


def test_a_command_that_exits_one_on_its_inputs_makes_no_output_directory(tmp_path, capsys):
    # the desired paths and every setting or config are checked before --out is made
    game_file = tmp_path / "game.json"
    write_game_file(game_file, build_scenario("two_player_3x3").game)
    for argv in (
        ["design", "--game", str(game_file)],
        ["sweep", "--game", str(game_file), "--sweep-rho", "0.1"],
        ["sweep", "--scenario", "two_player_3x3", "--sweep-rho", "-1"],
        ["solve", "--scenario", "two_player_3x3", "--lambda", "-1"],
        ["gap", "--scenario", "two_player_3x3", "--lambda", "nan"],
        ["solve", "--scenario", "two_player_3x3", "--max-iters", "0"],
    ):
        out = tmp_path / "out"
        proc = run_main(capsys, *argv, "--out", str(out))
        assert proc.returncode == 1, argv
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert not out.exists(), argv


SOLVE_GAME_PROBE = """
import sys
from routedesign import cli

assert cli.main(["solve", "--game", sys.argv[1], "--out", sys.argv[2]]) == 0
print("scipy" in sys.modules)
"""


def test_a_scenario_game_file_holds_c_zero_as_a_width_zero_factor(tmp_path, capsys):
    # a C = 0 game writes its empty factor, reloads to it, and solves as the
    # scenario does, bit for bit, on the structured route, without scipy
    sc = build_scenario("two_player_3x3")
    game_file = tmp_path / "game.json"
    write_game_file(game_file, sc.game)
    assert orjson.loads(game_file.read_bytes())["C_factor"] == {"Q": [[]] * sc.game.pm, "M": []}
    proc = run_main(capsys, "solve", "--scenario", "two_player_3x3", "--out", str(tmp_path / "scenario"))
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-c", SOLVE_GAME_PROBE, str(game_file), str(tmp_path / "file")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    written = [(tmp_path / name / "equilibrium.json").read_bytes() for name in ("scenario", "file")]
    assert written[0] == written[1]


def test_hopeless_entropy_weight_exits_two(tmp_path):
    # run as a user runs it, so the exit code is the process's own
    proc = run_cli(
        "solve",
        "--scenario", "two_player_3x3",
        "--lambda", "1e-9",
        "--max-iters", "30",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 2
    assert "numerical failure" in proc.stderr
    proc = run_cli("solve")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


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


def test_solve_reaches_a_weight_whose_cold_start_overflows(tmp_path, capsys):
    # b = -3 puts the cold start's exponent at ~299 for lambda 0.01, past
    # the overflow limit; continuation from lambda 1 reaches the solution
    game_file = _one_player_game(tmp_path / "game.json", 2, [[1, 2], [2, 1]], [-3.0, 3.5])
    proc = run_main(capsys, "solve", "--game", str(game_file), "--lambda", "0.01", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["lambda"] == 0.01
    assert doc["residual"] <= 1e-10


def test_solve_names_a_negative_cost_cycle(tmp_path, capsys):
    # the 2-cycle costs -2.5, so the smoothed flow around it grows without
    # bound as lambda shrinks and continuation stalls
    game_file = _one_player_game(tmp_path / "game.json", 2, [[1, 2], [2, 1]], [-3.0, 0.5])
    proc = run_main(capsys, "solve", "--game", str(game_file), "--lambda", "0.01", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "negative-cost cycle" in proc.stderr


def test_solve_rejects_a_game_file_with_unsorted_links(tmp_path, capsys):
    # b follows the file's link order; sorting the links alone would put
    # the 9 on link 1 -> 2 and route the player straight over it
    links = [[1, 3], [1, 2], [2, 1], [2, 3], [3, 1], [3, 2]]
    game_file = _one_player_game(tmp_path / "game.json", 3, links, [9.0] + [0.1] * 5)
    proc = run_main(capsys, "solve", "--game", str(game_file), "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "links must be sorted lexicographically with no duplicates" in proc.stderr
    assert not (tmp_path / "equilibrium.json").exists()
