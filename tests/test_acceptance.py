"""Acceptance gate: ten end-to-end checks with their stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
failure report) so a run can be audited at a glance.
"""

import subprocess
import sys
import time

import numpy as np

import routedesign.design as design_mod
from helpers import (
    certified_vertex,
    dual_slack,
    fd_jacobian,
    kkt_residual,
    pwl_residual,
    random_game,
    tolerant_chain,
)
from routedesign.design import DesignConfig, design_loop, project_B, project_D, verify_design
from routedesign.game import membership_D
from routedesign.graph import shortest_path_cost
from routedesign.scenarios import build_scenario
from routedesign.sensitivity import implicit_gradients, path_to_target, tracking_objective
from routedesign.smooth_eq import (
    HomotopySchedule,
    SmoothEqSettings,
    homotopy_solve,
    jacobian_F,
    solve_nls,
)


def _report(index, label, ok, detail):
    print(f"criterion {index:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {index} failed: {detail}"


def _scenario_objective(name):
    sc = build_scenario(name)
    target = path_to_target(sc.game, sc.desired_link_paths())
    return sc, tracking_objective(target)


def test_criterion_01_residual_characterizations_agree():
    # exact equilibria from an independent active-set oracle must satisfy the
    # fixed-point residual and the first-order residual simultaneously
    rng = np.random.default_rng(20260814)
    shapes = [(1, 2), (1, 3), (2, 2)]
    start = time.perf_counter()
    worst_pwl = worst_kkt = 0.0
    for k in range(200):
        game = random_game(rng, shapes[k % 3], 1 + (k % 2))
        pair = certified_vertex(game)
        assert pair is not None, f"oracle failed on game {k}"
        x, v = pair
        candidates = [(x, v)]
        noisy_v = v + rng.uniform(-1e-11, 1e-11, size=v.size)
        candidates.append((x, noisy_v))
        for cx, cv in candidates:
            pwl = pwl_residual(game, cx, cv)
            kkt = kkt_residual(game, cx, dual_slack(game, cx, cv), cv)
            if pwl <= 1e-10:
                assert kkt <= 1e-8, f"game {k}: pwl {pwl:.2e} but kkt {kkt:.2e}"
            if kkt <= 1e-10:
                assert pwl <= 1e-8, f"game {k}: kkt {kkt:.2e} but pwl {pwl:.2e}"
        pwl = pwl_residual(game, x, v)
        kkt = kkt_residual(game, x, dual_slack(game, x, v), v)
        assert pwl <= 1e-10 and kkt <= 1e-10, f"game {k} oracle point not tight"
        worst_pwl = max(worst_pwl, pwl)
        worst_kkt = max(worst_kkt, kkt)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "residual characterizations agree",
        elapsed < 10.0,
        f"200 games, worst pwl {worst_pwl:.1e}, worst kkt {worst_kkt:.1e}, {elapsed:.1f}s",
    )


def test_criterion_02_jacobian_matches_finite_differences():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for name in ("two_player_3x3", "four_player_5x5"):
        game = build_scenario(name).game
        for _ in range(50):
            x = rng.uniform(0.05, 1.0, size=game.pm)
            v = rng.uniform(-0.3, 0.3, size=game.dim_v)
            jac = jacobian_F(game, x, v, 1.0)
            rel = np.linalg.norm(fd_jacobian(game, x, v, 1.0) - jac) / np.linalg.norm(jac)
            assert rel <= 1e-6, f"{name}: relative error {rel:.2e}"
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "jacobian matches finite differences",
        elapsed < 10.0,
        f"100 points, worst relative error {worst:.1e}, {elapsed:.1f}s",
    )


def test_criterion_03_solution_unique_across_starting_points():
    game = build_scenario("two_player_3x3").game
    # strictly positive feasible starts: each player's unit path plus eps on every link
    paths = np.concatenate(
        [shortest_path_cost(game.graph, np.ones(game.m), p.origin, p.destination)[1]
         for p in game.players]
    )
    worst_dx = worst_res = 0.0
    for lam in (1.0, 0.1, 0.01):
        pair = []
        for eps in (0.1, 0.9):
            start = (paths + eps, np.zeros(game.dim_v))
            sol = homotopy_solve(
                game, HomotopySchedule(1.0, 0.5, lam), SmoothEqSettings(lam=lam), start
            )[-1]
            assert sol.converged
            pair.append(sol)
        dx = float(np.max(np.abs(pair[0].x - pair[1].x)))
        res = max(pair[0].residual_norm, pair[1].residual_norm)
        assert dx <= 1e-6, f"lam={lam}: starts disagree by {dx:.2e}"
        assert res <= 1e-8, f"lam={lam}: residual {res:.2e}"
        worst_dx = max(worst_dx, dx)
        worst_res = max(worst_res, res)
    _report(
        3,
        "solution unique across starting points",
        True,
        f"worst flow gap {worst_dx:.1e}, worst residual {worst_res:.1e}",
    )


def test_criterion_04_implicit_gradient_matches_resolve_differences():
    from routedesign.game import AtomicRoutingGame, CostParams, Player
    from routedesign.graph import grid_graph

    rng = np.random.default_rng(7)
    graph = grid_graph(1, 3)
    players = [Player(0, 2), Player(2, 0)]
    pm = 2 * graph.m
    b = rng.uniform(0.2, 0.8, size=pm)
    c_mat = project_D(rng.uniform(-0.4, 0.4, size=(pm, pm)), 0.3, graph.m)
    game = AtomicRoutingGame(graph, players, CostParams(b, c_mat), rho=0.3)
    objective = tracking_objective(rng.uniform(0.0, 1.0, size=pm))

    # the finite-difference quotients divide solver noise by 2e-5, so both the
    # base solve and every re-solve run at a much tighter residual tolerance
    settings = SmoothEqSettings(lam=0.1, residual_tol=1e-13)
    sol = homotopy_solve(game, HomotopySchedule(1.0, 0.5, 0.1), settings)[-1]
    grads = implicit_gradients(game, sol, objective)

    h = 1e-5
    fd = np.zeros(pm)
    for k in range(pm):
        vals = []
        for sign in (1.0, -1.0):
            shifted_b = b.copy()
            shifted_b[k] += sign * h
            shifted = solve_nls(
                game.with_costs(shifted_b, c_mat), settings, warm_start=(sol.x, sol.v)
            )
            assert shifted.converged
            vals.append(objective.evaluate(shifted.x))
        fd[k] = (vals[0] - vals[1]) / (2 * h)
    checked = np.abs(fd) > 1e-6
    rel = np.max(np.abs(grads.grad_b[checked] - fd[checked]) / np.abs(fd[checked]))
    assert rel <= 1e-3, f"worst coordinate relative error {rel:.2e}"
    assert np.array_equal(grads.grad_C, np.outer(grads.grad_b, sol.x))
    _report(
        4,
        "implicit gradient matches finite differences",
        True,
        f"{int(checked.sum())}/{pm} coordinates, worst relative error {rel:.1e}, exact outer product",
    )


def test_criterion_05_continuation_certifies_vanishing_gap():
    details = []
    for name in ("two_player_3x3", "four_player_5x5"):
        game = build_scenario(name).game
        stages = homotopy_solve(
            game,
            HomotopySchedule(1.0, 0.5, 1e-3),
            SmoothEqSettings(lam=1e-3),
        )
        gaps = [game.nash_gap(stage.x) for stage in stages]
        assert gaps[-1] <= 1e-2, f"{name}: final gap {gaps[-1]:.2e}"
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier + 1e-3, f"{name}: gap increased along the schedule"
        details.append(f"{name} final gap {gaps[-1]:.1e}")
    _report(5, "continuation certifies vanishing gap", True, "; ".join(details))


def test_criterion_06_design_drives_tracking_error_down():
    runs = {}
    details = []
    for name, threshold, cap_large_lam in (
        ("two_player_3x3", 1.0, 20),
        ("four_player_5x5", 2.0, 10),
    ):
        sc, objective = _scenario_objective(name)
        for lam, cap in ((0.01, 100), (1.0, cap_large_lam)):
            config = DesignConfig(alpha=0.005, lam=lam, max_outer_iters=cap)
            start = time.perf_counter()
            _, _, trace = design_loop(sc.game, objective, config)
            elapsed = time.perf_counter() - start
            assert elapsed < 60.0, f"{name} lam={lam}: {elapsed:.1f}s"
            runs[(name, lam)] = [record.psi_bar for record in trace.records]
            details.append(f"{name} lam={lam:g} {elapsed:.0f}s")
        tight = runs[(name, 0.01)]
        head = tight[: min(20, len(tight))]
        assert min(head) < threshold, f"{name}: never fell below {threshold}"
        assert head[-1] <= 0.5 * tight[0], f"{name}: less than half the initial error"
        loose = runs[(name, 1.0)]
        assert min(loose) > tight[min(19, len(tight) - 1)], (
            f"{name}: the heavily smoothed run should stay above the final"
            " lightly smoothed value"
        )
    _report(6, "design drives tracking error down", True, ", ".join(details))


def test_criterion_07_designed_costs_reroute_the_players():
    sc, objective = _scenario_objective("two_player_3x3")
    b, c_mat, _ = design_loop(sc.game, objective, DesignConfig(lam=0.01))
    designed = sc.game.with_costs(b, c_mat, rho=0.5)

    verdict = verify_design(designed, objective)
    assert verdict.path_match, "designed equilibrium is off the desired paths"

    reference = tolerant_chain(designed, 1e-3, lam_start=1.0)
    assert designed.nash_gap(reference.x, feas_tol=1e-5) <= 1e-2
    weights = designed.marginal_cost(reference.x, 0)
    desired_cost = float(weights[sc.desired_link_paths()[0]].sum())
    original_cost = float(weights[sc.original_link_paths()[0]].sum())
    assert desired_cost < original_cost
    _report(
        7,
        "designed costs reroute the players",
        True,
        f"path_match true, desired path {desired_cost:.4f} < original {original_cost:.4f}",
    )


def test_criterion_08_interaction_budget_improves_tracking():
    details = []
    for name in ("two_player_3x3", "four_player_5x5"):
        sc, objective = _scenario_objective(name)
        finals = []
        for rho in (0.0, 0.1, 0.2, 0.3):
            config = DesignConfig(alpha=0.01, lam=0.01, rho=rho)
            _, _, trace = design_loop(sc.game, objective, config)
            finals.append(trace.records[-1].psi_bar)
        for tighter, looser in zip(finals, finals[1:]):
            assert looser <= 1.05 * tighter + 1e-9, f"{name}: finals {finals}"
        details.append(name + " finals " + " ".join(f"{v:.1e}" for v in finals))
    _report(8, "larger interaction budget tracks at least as well", True, "; ".join(details))


def test_criterion_09_projection_suite(monkeypatch):
    rng = np.random.default_rng(99)
    # idempotence and non-expansiveness on 100 random pairs
    for _ in range(100):
        a, b = rng.uniform(-0.5, 0.5, size=(2, 12))
        pa, pb = project_B(a, 0.1), project_B(b, 0.1)
        assert np.linalg.norm(project_B(pa, 0.1) - pa) <= 1e-10
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

        ca, cb = rng.uniform(-0.6, 0.6, size=(2, 8, 8))
        qa, qb = project_D(ca, 0.4, 4), project_D(cb, 0.4, 4)
        assert np.linalg.norm(project_D(qa, 0.4, 4) - qa) <= 1e-10
        assert np.linalg.norm(qa - qb) <= np.linalg.norm(ca - cb) + 1e-9

    # agreement with a ten-times-budget rerun of the same scheme
    worst_oracle = 0.0
    for _ in range(20):
        raw = rng.uniform(-1.0, 1.0, size=(8, 8))
        quick = project_D(raw, 0.5, 4)
        slow = project_D(raw, 0.5, 4, tol=1e-12, max_sweeps=1000)
        worst_oracle = max(worst_oracle, float(np.linalg.norm(quick - slow)))
    assert worst_oracle <= 1e-6

    # every design iterate lands inside the parameter sets
    sc, objective = _scenario_objective("two_player_3x3")
    seen_b, seen_c = [], []
    real_b, real_d = design_mod.project_B, design_mod.project_D

    def spy_b(vec, delta):
        out = real_b(vec, delta)
        seen_b.append(out.copy())
        return out

    def spy_d(mat, rho, block):
        out = real_d(mat, rho, block)
        seen_c.append(out.copy())
        return out

    monkeypatch.setattr(design_mod, "project_B", spy_b)
    monkeypatch.setattr(design_mod, "project_D", spy_d)
    config = DesignConfig(alpha=0.01, lam=0.01, max_outer_iters=8)
    design_loop(sc.game, objective, config)
    assert seen_b and seen_c
    for vec in seen_b:
        assert np.all(vec >= 0.0) and np.all(vec <= config.delta)
    for mat in seen_c:
        assert membership_D(mat, sc.game.m, config.rho)
    _report(
        9,
        "projection suite",
        True,
        f"oracle gap {worst_oracle:.1e}, {len(seen_b)} design iterates admissible",
    )


def test_criterion_10_design_cli_is_deterministic(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        proc = subprocess.run(
            [
                sys.executable, "-m", "routedesign.cli",
                "design", "--scenario", "two_player_3x3", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    trace_a = (outputs[0] / "trace.csv").read_bytes()
    trace_b = (outputs[1] / "trace.csv").read_bytes()
    game_a = (outputs[0] / "designed_game.json").read_bytes()
    game_b = (outputs[1] / "designed_game.json").read_bytes()
    assert trace_a == trace_b
    assert game_a == game_b
    _report(
        10,
        "design runs are byte-deterministic",
        True,
        f"trace.csv {len(trace_a)} bytes identical across reruns",
    )
