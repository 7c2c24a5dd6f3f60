"""Command-line experiment runner.

Commands:
    solve   compute a smoothed equilibrium by continuation
    design  run the projected-gradient cost design and emit its trace
    sweep   repeat the design over a list of entropy weights or radii; the
            designs share the outer iterations they have in common
    gap     certify an equilibrium and print its optimality gap

solve and gap share one handler and write the same equilibrium.json; they
differ in the summary line and in gap's fixed budget of 200 iterations.
Both run continuation from max(1, lambda) down to lambda; --homotopy only
makes the default lambda 1e-3 instead of 0.01.

Exit codes: 0 on success, 1 on validation errors (bad flags, malformed game
files), 2 on numerical failures (solver stalls, negative-cost cycles).
All outputs are deterministic: rerunning a command reproduces its files
byte for byte.

The design and sensitivity modules load only when design or sweep runs, and
orjson when a command first reads or writes JSON, so solve and gap start
without the design pipeline and a scenario sweep without orjson.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import NumericalError, RouteDesignError
from .game import AtomicRoutingGame, c_from_factor, load_game_file, path_to_target, write_game_file
from .scenarios import SCENARIOS, build_scenario
from .smooth_eq import EquilibriumSolution, SmoothEqSettings, homotopy_solve

if TYPE_CHECKING:
    import numpy as np

    from .design import DesignConfig, DesignTrace, DesignVerification


def _design_loop():
    """design.design_loop, imported on first use and then kept in this
    module's globals, where a caller that wraps it (a tracer, a test's spy)
    replaces it."""
    if "design_loop" not in globals():
        from .design import design_loop

        globals()["design_loop"] = design_loop
    return globals()["design_loop"]


def __getattr__(name: str):
    if name == "design_loop":
        return _design_loop()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _add_solve_args(sub: argparse.ArgumentParser) -> None:
    _add_source_args(sub)
    sub.add_argument("--lambda", dest="lam", type=float, default=None, help="entropy weight (default 0.01, or 1e-3 with --homotopy)")
    sub.add_argument("--homotopy", action="store_true", help="make the default --lambda 1e-3")


def _add_design_args(sub: argparse.ArgumentParser) -> None:
    _add_source_args(sub)
    sub.add_argument("--alpha", type=float, help="gradient step size")
    sub.add_argument("--lambda", dest="lam", type=float, help="entropy weight of the inner solves")
    sub.add_argument("--rho", type=float, default=None, help="Frobenius budget for C (default: the game's)")
    sub.add_argument("--delta", type=float, help="upper bound of the offset box")
    sub.add_argument("--eps", type=float, help="stopping threshold on parameter change")
    sub.add_argument("--max-iters", type=int, help="outer iteration cap")


def _design_config(args: argparse.Namespace, game: AtomicRoutingGame, **override: float) -> DesignConfig:
    """The DesignConfig the design flags ask for; `override` replaces lam or rho.

    A flag left unset (None) keeps DesignConfig's default.
    """
    from .design import DesignConfig

    flags = {
        "alpha": args.alpha,
        "lam": args.lam,
        "delta": args.delta,
        "epsilon": args.eps,
        "rho": args.rho if args.rho is not None else game.rho,
        "max_outer_iters": args.max_iters,
    }
    fields = {name: value for name, value in flags.items() if value is not None}
    return DesignConfig(**(fields | override))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="routedesign", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a smoothed equilibrium")
    _add_solve_args(solve)
    solve.add_argument("--max-iters", type=int, default=SmoothEqSettings.max_iters, help="solver iteration budget")

    design = sub.add_parser("design", help="design cost parameters toward the desired paths")
    _add_design_args(design)

    sweep = sub.add_parser("sweep", help="repeat the design over a parameter list")
    _add_design_args(sweep)
    axis = sweep.add_mutually_exclusive_group(required=True)
    axis.add_argument("--sweep-lambda", help="comma-separated entropy weights")
    axis.add_argument("--sweep-rho", help="comma-separated Frobenius budgets")

    gap = sub.add_parser("gap", help="compute an equilibrium's optimality gap")
    _add_solve_args(gap)
    gap.set_defaults(max_iters=SmoothEqSettings.max_iters)

    return parser


def _load(args: argparse.Namespace) -> tuple[AtomicRoutingGame, Sequence[Sequence[int]] | None]:
    """Resolve the game and optional desired node paths (0-based) from flags."""
    if args.scenario:
        scenario = build_scenario(args.scenario)
        return scenario.game, scenario.desired_node_paths
    return load_game_file(args.game)


def _write_json(path: Path, payload: dict) -> None:
    import orjson

    path.write_bytes(orjson.dumps(payload, option=orjson.OPT_INDENT_2) + b"\n")


def _equilibrium_payload(sol: EquilibriumSolution, gap: float) -> dict:
    return {
        "lambda": sol.lam,
        "residual": sol.residual_norm,
        "iterations": sol.iterations,
        "gap": gap,
        "x": sol.x.tolist(),
        "v": sol.v.tolist(),
    }


def cmd_solve(args: argparse.Namespace) -> int:
    """Handler of both solve and gap."""
    game, _ = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lam = args.lam if args.lam is not None else (1e-3 if args.homotopy else 0.01)
    settings = SmoothEqSettings(lam=lam, max_iters=args.max_iters)
    sol = homotopy_solve(game, settings)[-1]
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


def _run_design(
    game: AtomicRoutingGame,
    desired: Sequence[Sequence[int]] | None,
    config: DesignConfig,
    memo: dict | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], DesignTrace, DesignVerification, float]:
    """design_loop's designed b and C's factor (Q, M), trace and verdict,
    and its wall time.

    memo is design_loop's iteration memo, shared by the designs of one sweep.
    """
    if desired is None:
        raise ValueError(
            "design needs desired paths: use a scenario or add 'desired_paths' to the game file"
        )
    from .sensitivity import tracking_objective

    target = path_to_target(game, desired)
    objective = tracking_objective(target)
    start = time.perf_counter()
    b, c_factor, trace, verdict = _design_loop()(game, objective, config, memo=memo)
    return b, c_factor, trace, verdict, time.perf_counter() - start


def cmd_design(args: argparse.Namespace) -> int:
    game, desired = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = _design_config(args, game)
    b, (q, mid), trace, verdict, wall = _run_design(game, desired, config)
    trace.write_csv(out / "trace.csv")
    designed = game.with_costs(b, c_from_factor(q, mid), rho=config.rho)
    write_game_file(out / "designed_game.json", designed, desired, c_factor=(q, mid))
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
        param, field = "lambda", "lam"
        values = _parse_sweep_values(args.sweep_lambda, "--sweep-lambda")
    else:
        param, field = "rho", "rho"
        values = _parse_sweep_values(args.sweep_rho, "--sweep-rho")
    # every config and trace file name is validated before the first design runs
    configs = [_design_config(args, game, **{field: value}) for value in values]
    trace_names: dict[str, float] = {}
    for value in values:
        name = f"trace_{param}_{value:g}.csv"
        if name in trace_names:
            raise ValueError(f"{param} values {trace_names[name]!r} and {value!r} both write {name}")
        trace_names[name] = value
    rows: list[tuple[float, float]] = []
    failures = 0
    # every design starts from the same (b, C); designs that share iterations
    # before their paths part compute them once
    memo: dict = {}
    for value, config, trace_name in zip(values, configs, trace_names):
        try:
            _, _, trace, verdict, _ = _run_design(game, desired, config, memo)
        except NumericalError as exc:
            print(f"sweep {param}={value:g} failed: {exc}", file=sys.stderr)
            rows.append((value, float("nan")))
            failures += 1
            continue
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
    except (RouteDesignError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
