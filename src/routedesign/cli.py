"""Command-line experiment runner.

Commands:
    solve   compute a smoothed equilibrium (optionally via continuation)
    design  run the projected-gradient cost design and emit its trace
    sweep   repeat the design over a list of entropy weights or radii
    gap     certify an equilibrium and print its optimality gap

solve and gap share one handler and write the same equilibrium.json; they
differ in the summary line and in gap's fixed budget of 200 iterations.
Without --homotopy both try a direct solve from the solver's cold start
and fall back to continuation from max(1, lambda) when it overflows or
stalls; with --homotopy they run continuation alone.

Exit codes: 0 on success, 1 on validation errors (bad flags, malformed game
files), 2 on numerical failures (solver stalls, negative-cost cycles).
All outputs are deterministic: rerunning a command reproduces its files
byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from .design import (
    DesignConfig,
    DesignTrace,
    DesignVerification,
    design_loop,
    verify_design,
)
from .errors import NumericalError, RouteDesignError
from .game import AtomicRoutingGame, game_to_dict, load_game_file
from .graph import path_links
from .scenarios import SCENARIOS, build_scenario
from .sensitivity import path_to_target, tracking_objective
from .smooth_eq import EquilibriumSolution, SmoothEqSettings, cold_start, solve_equilibrium


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the validation code.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _add_source_args(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", choices=sorted(SCENARIOS), help="built-in scenario")
    group.add_argument("--game", help="path to a game JSON file")
    sub.add_argument("--out", default=".", help="output directory (default: current)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="routedesign", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a smoothed equilibrium")
    _add_source_args(solve)
    solve.add_argument("--lambda", dest="lam", type=float, default=None, help="entropy weight (default 0.01)")
    solve.add_argument("--homotopy", action="store_true", help="continuation alone, from max(1, lambda) down to lambda (which then defaults to 1e-3)")
    solve.add_argument("--max-iters", type=int, default=200, help="solver iteration budget")

    design = sub.add_parser("design", help="design cost parameters toward the desired paths")
    _add_source_args(design)
    design.add_argument("--alpha", type=float, default=0.005, help="gradient step size")
    design.add_argument("--lambda", dest="lam", type=float, default=0.01, help="entropy weight of the inner solves")
    design.add_argument("--rho", type=float, default=None, help="Frobenius budget for C (default: the game's)")
    design.add_argument("--delta", type=float, default=0.1, help="upper bound of the offset box")
    design.add_argument("--eps", type=float, default=0.01, help="stopping threshold on parameter change")
    design.add_argument("--max-iters", type=int, default=100, help="outer iteration cap")

    sweep = sub.add_parser("sweep", help="repeat the design over a parameter list")
    _add_source_args(sweep)
    sweep.add_argument("--alpha", type=float, default=0.005)
    sweep.add_argument("--lambda", dest="lam", type=float, default=0.01)
    sweep.add_argument("--rho", type=float, default=None)
    sweep.add_argument("--delta", type=float, default=0.1)
    sweep.add_argument("--eps", type=float, default=0.01)
    sweep.add_argument("--max-iters", type=int, default=100)
    axis = sweep.add_mutually_exclusive_group(required=True)
    axis.add_argument("--sweep-lambda", help="comma-separated entropy weights")
    axis.add_argument("--sweep-rho", help="comma-separated Frobenius budgets")

    gap = sub.add_parser("gap", help="compute an equilibrium's optimality gap")
    _add_source_args(gap)
    gap.add_argument("--lambda", dest="lam", type=float, default=None, help="entropy weight (default 0.01)")
    gap.add_argument("--homotopy", action="store_true", help="continuation alone, from max(1, lambda) down to lambda (which then defaults to 1e-3)")
    gap.set_defaults(max_iters=200)

    return parser


def _load(args: argparse.Namespace) -> tuple[AtomicRoutingGame, list[list[int]] | None]:
    """Resolve the game and optional desired link paths from flags."""
    if args.scenario:
        scenario = build_scenario(args.scenario)
        return scenario.game, scenario.desired_link_paths()
    game, desired_nodes = load_game_file(args.game)
    desired = None
    if desired_nodes is not None:
        desired = [path_links(game.graph, nodes) for nodes in desired_nodes]
    return game, desired


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _equilibrium_payload(sol: EquilibriumSolution, gap: float) -> dict:
    return {
        "lambda": sol.lam,
        "residual": sol.residual_norm,
        "iterations": sol.iterations,
        "gap": gap,
        "x": [float(v) for v in sol.x],
        "v": [float(v) for v in sol.v],
    }


def cmd_solve(args: argparse.Namespace) -> int:
    """Handler of both solve and gap."""
    game, _ = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    default_lam = 1e-3 if args.homotopy else 0.01
    lam = args.lam if args.lam is not None else default_lam
    settings = SmoothEqSettings(lam=lam, max_iters=args.max_iters)
    # the cold start as a warm start makes solve_equilibrium try a direct solve first
    warm = None if args.homotopy else cold_start(game, lam)
    sol = solve_equilibrium(game, settings, warm)
    gap = game.nash_gap(sol.x)
    _write_json(out / "equilibrium.json", _equilibrium_payload(sol, gap))
    if args.command == "gap":
        print(f"gap: lambda={sol.lam:g} gap={gap:.6e} residual={sol.residual_norm:.3e}")
    else:
        print(
            f"solve: lambda={sol.lam:g} residual={sol.residual_norm:.3e} "
            f"iterations={sol.iterations} gap={gap:.6f}"
        )
    print(f"wrote {out / 'equilibrium.json'}")
    return 0


def _desired_paths_payload(game: AtomicRoutingGame, desired: list[list[int]]) -> list[list[int]]:
    links = game.graph.links
    payload = []
    for i, path in enumerate(desired):
        nodes = [game.players[i].origin] + [links[j][1] for j in path]
        payload.append([node + 1 for node in nodes])
    return payload


def _run_design(
    game: AtomicRoutingGame,
    desired: list[list[int]] | None,
    config: DesignConfig,
) -> tuple[DesignTrace, AtomicRoutingGame, DesignVerification, float]:
    """Design, then verify the designed game; also returns the design's wall time."""
    if desired is None:
        raise ValueError(
            "design needs desired paths: use a scenario or add 'desired_paths' to the game file"
        )
    target = path_to_target(game, desired)
    objective = tracking_objective(target)
    start = time.perf_counter()
    b, c_mat, trace = design_loop(game, objective, config)
    wall = time.perf_counter() - start
    designed = game.with_costs(b, c_mat, rho=config.rho)
    return trace, designed, verify_design(designed, objective), wall


def cmd_design(args: argparse.Namespace) -> int:
    game, desired = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rho = args.rho if args.rho is not None else game.rho
    config = DesignConfig(
        alpha=args.alpha,
        lam=args.lam,
        delta=args.delta,
        epsilon=args.eps,
        rho=rho,
        max_outer_iters=args.max_iters,
    )
    trace, designed, verdict, wall = _run_design(game, desired, config)
    trace.write_csv(out / "trace.csv")
    payload = game_to_dict(designed)
    payload["desired_paths"] = _desired_paths_payload(game, desired)
    _write_json(out / "designed_game.json", payload)
    print(
        f"design: psi={verdict.psi:.6f} gap={verdict.gap:.6f} "
        f"path_match={verdict.path_match} iterations={len(trace.records)} "
        f"wall_time={wall:.2f}s"
    )
    print(f"wrote {out / 'trace.csv'}")
    print(f"wrote {out / 'designed_game.json'}")
    return 0


def _parse_sweep_values(raw: str, name: str) -> list[float]:
    values = [chunk.strip() for chunk in raw.split(",") if chunk.strip()]
    if not values:
        raise ValueError(f"{name} needs at least one value")
    try:
        return [float(v) for v in values]
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    game, desired = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.sweep_lambda is not None:
        param = "lambda"
        values = _parse_sweep_values(args.sweep_lambda, "--sweep-lambda")
    else:
        param = "rho"
        values = _parse_sweep_values(args.sweep_rho, "--sweep-rho")
    rho_default = args.rho if args.rho is not None else game.rho
    rows: list[tuple[float, float]] = []
    failures = 0
    for value in values:
        config = DesignConfig(
            alpha=args.alpha,
            lam=value if param == "lambda" else args.lam,
            delta=args.delta,
            epsilon=args.eps,
            rho=value if param == "rho" else rho_default,
            max_outer_iters=args.max_iters,
        )
        try:
            trace, _, verdict, _ = _run_design(game, desired, config)
        except NumericalError as exc:
            print(f"sweep {param}={value:g} failed: {exc}", file=sys.stderr)
            rows.append((value, float("nan")))
            failures += 1
            continue
        trace_name = f"trace_{param}_{value:g}.csv"
        trace.write_csv(out / trace_name)
        rows.append((value, verdict.psi))
        print(f"sweep {param}={value:g}: psi={verdict.psi:.6f} gap={verdict.gap:.6f}")
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["param", "psi_final"])
        for value, psi in rows:
            writer.writerow([repr(float(value)), repr(float(psi))])
    print(f"wrote {out / 'sweep.csv'}")
    return 2 if failures == len(values) else 0


_COMMANDS = {
    "solve": cmd_solve,
    "design": cmd_design,
    "sweep": cmd_sweep,
    "gap": cmd_solve,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (RouteDesignError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
