"""Benchmark of the routedesign solve -> certify -> design pipeline.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats its workload's `routedesign` command in-process, through the
public CLI entry point `routedesign.cli.main`, until S seconds have passed
(at least once), and checks every command's exit code, outputs and output
hashes.

--trace 0 reports the end-to-end metrics: wall_s (median command wall time),
setup_s (median over fresh processes of importing routedesign and building
or loading the game) and peak_rss_mb.  setup_s, and wall_s on
sweep_rho_2p3x3, are scaled to a reference machine speed (see CAL_REF_S).

--trace 1 runs the command untraced for half the time and traced for the
other half, checks that both write byte-identical files, and reports the
per-layer metrics of the traced commands (see spans.py) plus the tracing
overhead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  A fuller record (environment, samples, quartiles, hashes) is
written to .bench_out/ in the checkout, and a traced run writes the spans
of its last traced command there too.

BLAS thread pools are pinned to one thread before numpy is imported: with
default threads, numpy's and scipy's separate OpenBLAS pools compete for the
cores and small-matrix timings become bimodal (see NOTES.md).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import coupled_game  # noqa: E402  (imports numpy, so after the pinning)
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 9

# On a shared host, overhead-bound code (small LAPACK calls, Python loops,
# interpreter start-up) runs up to 1.5x slower in some minutes than in
# others, and a slow spell can outlast a run; large LAPACK calls barely
# notice.  So a fixed overhead-bound kernel that calls no routedesign code is
# timed before the first and after every command and set-up.  Each set-up,
# and each command of a workload with scale_wall set, is scaled by
# CAL_REF_S / (mean of the kernel times just before and after it): seconds at
# the speed where the kernel takes CAL_REF_S.  setup_s and wall_s are medians
# of these times; the raw times stay in the record.
CAL_REF_S = 0.04
GAP_TOL = 1e-2
RESIDUAL_TOL = 1e-10
SWEEP_RHOS = "0,0.1,0.2,0.3,0.4,0.5"

# Set-up in a fresh interpreter: import the package, then build or load the
# game the way the CLI does before it runs a command.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import routedesign
t1 = time.perf_counter()
kind, name = sys.argv[1], sys.argv[2]
if kind == "scenario":
    routedesign.build_scenario(name).desired_link_paths()
else:
    routedesign.load_game_file(name)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "module": routedesign.__file__}))
"""


# ----------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the command
# produced correct outputs
# ----------------------------------------------------------------------


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def check_design(stdout: str, out: Path) -> list[str]:
    found = re.search(r"design: psi=(\S+) gap=(\S+) path_match=(\w+) iterations=(\d+)", stdout)
    if found is None:
        return ["no design summary line"]
    problems = []
    gap = _float(found.group(2))
    if not gap <= GAP_TOL:
        problems.append(f"certified gap {found.group(2)} exceeds {GAP_TOL:g}")
    if found.group(3) != "True":
        problems.append(f"path_match={found.group(3)}")
    for name in ("trace.csv", "designed_game.json"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    return problems


def check_sweep(stdout: str, out: Path) -> list[str]:
    path = out / "sweep.csv"
    if not path.is_file():
        return ["missing sweep.csv"]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != len(SWEEP_RHOS.split(",")):
        problems.append(f"sweep.csv has {len(rows)} rows")
    for row in rows:
        if not math.isfinite(_float(row["psi_final"])):
            problems.append(f"psi_final at rho={row['param']} is {row['psi_final']}")
    return problems


def check_solve(stdout: str, out: Path) -> list[str]:
    path = out / "equilibrium.json"
    if not path.is_file():
        return ["missing equilibrium.json"]
    with open(path, encoding="utf-8") as fh:
        eq = json.load(fh)
    problems = []
    if not eq["residual"] <= RESIDUAL_TOL:
        problems.append(f"residual {eq['residual']} exceeds {RESIDUAL_TOL:g}")
    if not eq["gap"] <= GAP_TOL:
        problems.append(f"gap {eq['gap']} exceeds {GAP_TOL:g}")
    return problems


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    source: str  # "scenario" or "game"
    scenario: str | None
    check: Callable[[str, Path], list[str]]
    # Scale wall_s by the kernel speed.  Set where the commands are
    # overhead-bound like the kernel: on the sweep, scaling cut the run-to-run
    # spread from 19% to 4%, but it widened the LAPACK-bound design and solve
    # (6% to 15%, 8% to 31%).
    scale_wall: bool = False


# The scenario workloads have fixed inputs and ignore the seed; the coupled
# random game is generated from it (coupled_game.py), and the command gets
# only the file.
WORKLOADS = {
    "design_4p5x5": Workload(
        ("design", "--scenario", "four_player_5x5", "--alpha", "0.01", "--lambda", "0.01"),
        "scenario",
        "four_player_5x5",
        check_design,
    ),
    "sweep_rho_2p3x3": Workload(
        ("sweep", "--scenario", "two_player_3x3", "--alpha", "0.01", "--lambda", "0.01",
         "--sweep-rho", SWEEP_RHOS),
        "scenario",
        "two_player_3x3",
        check_sweep,
        scale_wall=True,
    ),
    "solve_coupled_rand": Workload(
        ("solve", "--game", "{game}", "--homotopy", "--lambda", "1e-3"),
        "game",
        None,
        check_solve,
    ),
}


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def _blas(show_config) -> dict:
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = git / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# running commands
# ----------------------------------------------------------------------


@dataclass
class Execution:
    wall: float
    traced: bool
    problems: list[str] = field(default_factory=list)
    digest: dict[str, str] = field(default_factory=dict)
    stdout: str = ""
    speed: float = 1.0  # CAL_REF_S / kernel time around the command
    spans: list = field(default_factory=list)
    missing: list[str] = field(default_factory=list)


def _digest(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def execute(cli_main, argv: list[str], workload: Workload, out: Path, traced: bool) -> Execution:
    """Run one command with its own output directory and check what it wrote."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    argv = argv + ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    trace: list = []
    missing: list = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if traced:
                code, trace, missing = spans.traced_call(cli_main, argv)
            else:
                code = cli_main(argv)
    except Exception:  # the run goes on; the command counts as failed
        wall = time.perf_counter() - start
        return Execution(wall, traced, [traceback.format_exc()])
    wall = time.perf_counter() - start
    run = Execution(wall, traced, stdout=stdout.getvalue(), spans=trace, missing=missing)
    if code != 0:
        run.problems.append(f"exit code {code}: {stderr.getvalue().strip()}")
        return run
    run.problems.extend(workload.check(run.stdout, out))
    run.digest = _digest(out)
    return run


def calibrate() -> float:
    """Time of the fixed machine-speed kernel: small gelsy solves and a Python loop."""
    import numpy
    import scipy.linalg

    rng = numpy.random.default_rng(0)
    a = rng.standard_normal((128, 64))
    b = rng.standard_normal(128)
    start = time.perf_counter()
    for _ in range(100):
        scipy.linalg.lstsq(a, b, lapack_driver="gelsy", check_finite=False)
    total = 0.0
    for i in range(200_000):
        total += i * 0.5
    return time.perf_counter() - start


def repeat(cli_main, argv, workload, seconds: float, traced: bool, runs: list[Execution],
           cal: list[float]) -> None:
    """Execute until `seconds` have passed, at least once, appending to runs.

    The calibration kernel runs after every command, appending to cal, which
    must already hold the kernel time from just before.
    """
    start = time.perf_counter()
    while True:
        out = WORK / f"run{len(runs)}"
        run = execute(cli_main, argv, workload, out, traced)
        shutil.rmtree(out, ignore_errors=True)
        cal.append(calibrate())
        run.speed = 2.0 * CAL_REF_S / (cal[-2] + cal[-1])
        runs.append(run)
        if time.perf_counter() - start >= seconds:
            return


def setup_times(workload: Workload, game_path: Path | None, count: int,
                cal: list[float]) -> list[dict]:
    """Import-and-load times, each in a fresh interpreter.

    The calibration kernel runs after every set-up, appending to cal, which
    must already hold the kernel time from just before.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    name = workload.scenario if workload.source == "scenario" else str(game_path)
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, workload.source, name],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(sample["module"]).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"set-up imported routedesign from {sample['module']}")
        cal.append(calibrate())
        sample["speed"] = 2.0 * CAL_REF_S / (cal[-2] + cal[-1])
        samples.append(sample)
    return samples


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "routedesign" / "__init__.py").is_file():
        print(f"error: no routedesign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import routedesign
    from routedesign.cli import main as cli_main

    if Path(routedesign.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: routedesign imported from {routedesign.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)

    game_path = None
    if workload.source == "game":
        game_path = coupled_game.write_game(args.seed, WORK / "game.json")
    command = [a.format(game=game_path) for a in workload.argv]

    record: dict = {"workload": args.workload, "command": command, "env": env}
    runs: list[Execution] = []
    cal = [calibrate()]
    if args.trace:
        repeat(cli_main, command, workload, args.seconds / 2, False, runs, cal)
        repeat(cli_main, command, workload, args.seconds / 2, True, runs, cal)
    else:
        # Half the set-ups before the commands and half after, so their median
        # spans the run rather than one moment of the machine's load.
        setup = setup_times(workload, game_path, SETUP_SAMPLES // 2, cal)
        repeat(cli_main, command, workload, args.seconds, False, runs, cal)
        setup += setup_times(workload, game_path, SETUP_SAMPLES - SETUP_SAMPLES // 2, cal)
        record["setup"] = setup
    record["calibration_s"] = _summary(cal)

    # Every command of one run must write byte-identical files.
    reference = next((r.digest for r in runs if r.digest), None)
    for r in runs:
        if r.digest and r.digest != reference:
            r.problems.append("output files differ from the run's first command")
    failed = [r for r in runs if r.problems]
    for r in failed:
        print(f"failed command: {'; '.join(r.problems)}", file=sys.stderr)

    untraced = [r.wall for r in runs if not r.traced]
    record["wall_s"] = _summary(untraced)
    record["output_sha256"] = reference
    record["last_stdout"] = runs[-1].stdout
    record["fail_frac"] = len(failed) / len(runs)
    if args.trace:
        traced = [r for r in runs if r.traced]
        layers = spans.median_metrics([spans.layer_metrics(r.spans) for r in traced])
        walls = [r.wall for r in traced]
        record["traced_wall_s"] = _summary(walls)
        record["unpatched_sites"] = traced[0].missing
        with open(OUT / f"{args.workload}_seed{args.seed}_spans.json", "w") as fh:
            json.dump(
                [[sp.name, sp.site, sp.start, sp.end, sp.parent] for sp in traced[-1].spans], fh
            )
        overhead = statistics.median(walls) - record["wall_s"]["median"]
        record["trace_overhead_s"] = overhead
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        setup = [(s["import_s"] + s["load_s"], s["speed"]) for s in record["setup"]]
        record["setup_s"] = _summary([t for t, _ in setup])
        record["setup_scaled_s"] = _summary([t * k for t, k in setup])
        if workload.scale_wall:
            record["wall_scaled_s"] = _summary([r.wall * r.speed for r in runs])
        metrics = {
            "wall_s": {
                "value": record.get("wall_scaled_s", record["wall_s"])["median"],
                "unit": "s",
            },
            "setup_s": {"value": record["setup_scaled_s"]["median"], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    shutil.rmtree(WORK, ignore_errors=True)

    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }
    record["result"] = result
    with open(OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
