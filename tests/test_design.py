"""Parameter projections, the outer design loop, and its verification."""

import numpy as np
import pytest

import routedesign.design as design_mod
from routedesign.design import (
    TRACE_COLUMNS,
    DesignConfig,
    DesignRecord,
    DesignTrace,
    design_loop,
    project_B,
    project_D,
    verify_design,
)
from routedesign.game import membership_D
from routedesign.scenarios import build_scenario
from routedesign.sensitivity import path_to_target, tracking_objective
from routedesign.smooth_eq import (
    HomotopySchedule,
    SmoothEqSettings,
    homotopy_solve,
    solve_equilibrium,
)


def two_player_setup():
    sc = build_scenario("two_player_3x3")
    target = path_to_target(sc.game, sc.desired_link_paths())
    return sc.game, tracking_objective(target)


def test_project_B_clamps_into_the_box():
    b = np.array([-0.5, 0.05, 0.3])
    out = project_B(b, 0.1)
    assert np.array_equal(out, [0.0, 0.05, 0.1])
    assert np.array_equal(project_B(out, 0.1), out)
    with pytest.raises(ValueError):
        project_B(b, -0.1)


def test_project_B_is_nonexpansive():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a, b = rng.normal(size=(2, 6))
        pa, pb = project_B(a, 0.1), project_B(b, 0.1)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_project_D_scales_a_large_multiple_of_identity():
    out = project_D(5.0 * np.eye(4), 1.0, 2)
    # already block-symmetric and monotone, so only the ball binds
    assert np.allclose(out, 0.5 * np.eye(4), atol=1e-9)


def test_project_D_sends_negative_definite_to_zero():
    out = project_D(-3.0 * np.eye(4), 1.0, 2)
    assert np.allclose(out, 0.0, atol=1e-9)


def test_project_D_fixes_admissible_points():
    c = np.array([[0.2, 0.1], [-0.1, 0.2]])  # skew coupling, PSD symmetric part
    assert membership_D(c, 1, 1.0)
    assert np.allclose(project_D(c, 1.0, 1), c, atol=1e-10)


def test_project_D_outputs_are_members_and_idempotent():
    rng = np.random.default_rng(15)
    for _ in range(25):
        raw = rng.uniform(-1.0, 1.0, size=(6, 6))
        out = project_D(raw, 0.4, 3)
        assert membership_D(out, 3, 0.4)
        again = project_D(out, 0.4, 3)
        assert np.linalg.norm(again - out) <= 1e-10


def test_project_D_is_nonexpansive():
    rng = np.random.default_rng(16)
    for _ in range(25):
        a = rng.uniform(-1.0, 1.0, size=(4, 4))
        b = rng.uniform(-1.0, 1.0, size=(4, 4))
        pa, pb = project_D(a, 0.5, 2), project_D(b, 0.5, 2)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9


def test_project_D_agrees_with_high_budget_rerun():
    rng = np.random.default_rng(17)
    raw = rng.uniform(-1.0, 1.0, size=(8, 8))
    quick = project_D(raw, 0.6, 4)
    slow = project_D(raw, 0.6, 4, tol=1e-13, max_sweeps=1000)
    assert np.linalg.norm(quick - slow) <= 1e-6


def test_project_D_warns_when_sweeps_hit_the_cap(monkeypatch):
    # a single sweep moves the iterate but cannot confirm a fixed point
    rng = np.random.default_rng(18)
    raw = rng.uniform(-1.0, 1.0, size=(6, 6))
    sweeps = []
    real_ball = design_mod._project_ball

    def spy_ball(c, rho):
        sweeps.append(1)
        return real_ball(c, rho)

    monkeypatch.setattr(design_mod, "_project_ball", spy_ball)
    with pytest.warns(RuntimeWarning):
        out = project_D(raw, 0.4, 3, tol=1e-15, max_sweeps=1)
    assert len(sweeps) == 1
    assert out.shape == (6, 6)


def test_project_D_input_validation():
    with pytest.raises(ValueError):
        project_D(np.zeros((2, 3)), 0.5, 1)
    with pytest.raises(ValueError):
        project_D(np.zeros((4, 4)), 0.5, 3)
    with pytest.raises(ValueError):
        project_D(np.zeros((4, 4)), -0.5, 2)
    with pytest.raises(ValueError):
        project_D(np.zeros((4, 4)), 0.5, 2, max_sweeps=0)


def test_design_config_validation():
    for bad in (
        dict(alpha=-1.0),
        dict(lam=0.0),
        dict(delta=-0.1),
        dict(epsilon=-0.1),
        dict(rho=-0.1),
        dict(max_outer_iters=0),
    ):
        with pytest.raises(ValueError):
            DesignConfig(**bad)


def test_zero_step_design_stops_after_one_iteration():
    game, objective = two_player_setup()
    b, c_mat, trace = design_loop(game, objective, DesignConfig(alpha=0.0, lam=0.01))
    assert len(trace.records) == 1
    assert trace.records[0].db_norm == 0.0
    assert trace.records[0].dC_norm == 0.0
    assert np.array_equal(b, np.full(game.pm, 0.1))
    assert np.array_equal(c_mat, np.zeros((game.pm, game.pm)))


def test_design_with_target_already_at_equilibrium_exits_fast():
    game, _ = two_player_setup()
    eq = homotopy_solve(
        game, HomotopySchedule(1.0, 0.5, 0.01), SmoothEqSettings(lam=0.01)
    )[-1]
    _, _, trace = design_loop(game, tracking_objective(eq.x), DesignConfig(lam=0.01))
    assert len(trace.records) <= 2


def test_design_run_tracks_the_desired_flow():
    game, objective = two_player_setup()
    cfg = DesignConfig(alpha=0.01, lam=0.01)
    b, c_mat, trace = design_loop(game, objective, cfg)
    records = trace.records
    assert 1 <= len(records) <= cfg.max_outer_iters
    assert records[-1].psi_bar < records[0].psi_bar
    last = records[-1]
    assert max(last.db_norm, last.dC_norm) < cfg.epsilon
    assert np.all(b >= 0.0) and np.all(b <= cfg.delta)
    assert membership_D(c_mat, game.m, cfg.rho)
    assert records[0].iteration == 1
    assert [r.iteration for r in records] == list(range(1, len(records) + 1))


def test_every_design_iterate_stays_admissible(monkeypatch):
    game, objective = two_player_setup()
    cfg = DesignConfig(alpha=0.01, lam=0.01, max_outer_iters=6, epsilon=0.0)
    seen_b, seen_c = [], []
    real_b, real_d = design_mod.project_B, design_mod.project_D

    def spy_b(b, delta):
        out = real_b(b, delta)
        seen_b.append(out.copy())
        return out

    def spy_d(c, rho, block):
        out = real_d(c, rho, block)
        seen_c.append(out.copy())
        return out

    monkeypatch.setattr(design_mod, "project_B", spy_b)
    monkeypatch.setattr(design_mod, "project_D", spy_d)
    design_loop(game, objective, cfg)
    assert len(seen_b) == 6 and len(seen_c) == 6
    for b in seen_b:
        assert np.all(b >= 0.0) and np.all(b <= cfg.delta)
    for c in seen_c:
        assert membership_D(c, game.m, cfg.rho)


def test_iteration_cap_is_honored():
    game, objective = two_player_setup()
    cfg = DesignConfig(alpha=0.01, lam=0.01, max_outer_iters=3, epsilon=0.0)
    _, _, trace = design_loop(game, objective, cfg)
    assert len(trace.records) == 3


def test_certification_continues_down_from_the_inner_solution(monkeypatch):
    game, objective = two_player_setup()
    inner, chains = [], []
    real_solve, real_chain = design_mod.solve_equilibrium, design_mod.homotopy_solve

    def spy_solve(*args):
        sol = real_solve(*args)
        inner.append(sol)
        return sol

    def spy_chain(game, schedule, settings, warm_start=None, **kwargs):
        chains.append((schedule.stages(), warm_start))
        return real_chain(game, schedule, settings, warm_start, **kwargs)

    monkeypatch.setattr(design_mod, "solve_equilibrium", spy_solve)
    monkeypatch.setattr(design_mod, "homotopy_solve", spy_chain)
    design_loop(game, objective, DesignConfig(alpha=0.01, lam=0.01, max_outer_iters=3, epsilon=0.0))
    assert len(inner) == 3 and len(chains) == 3
    for sol, (stages, warm) in zip(inner, chains):
        assert stages == [0.01, 0.005, 0.0025, 0.00125, 0.001]
        assert np.array_equal(warm[0], sol.x) and np.array_equal(warm[1], sol.v)

    # an inner weight below the certification weight certifies in one stage
    chains.clear()
    design_loop(game, objective, DesignConfig(alpha=0.01, lam=5e-4, max_outer_iters=1))
    assert [stages for stages, _ in chains] == [[1e-3]]

    # with no inner solution to start from, verification starts cold at 1
    chains.clear()
    verify_design(game, objective)
    assert len(chains) == 1
    assert chains[0][0][0] == 1.0 and chains[0][1] is None


def test_designed_four_player_game_solves_below_the_design_weight():
    # continuation from lam = 1 passes a stage, lam = 0.0039, where damped
    # least-squares steps stall at residual 2.8e-10, short of the tolerance
    sc = build_scenario("four_player_5x5")
    objective = tracking_objective(path_to_target(sc.game, sc.desired_link_paths()))
    config = DesignConfig(alpha=0.01, lam=0.01)
    b, c_mat, _ = design_loop(sc.game, objective, config)
    designed = sc.game.with_costs(b, c_mat, rho=config.rho)
    sol = solve_equilibrium(designed, SmoothEqSettings(lam=1e-3))
    assert sol.converged
    assert designed.nash_gap(sol.x) <= 1e-8


def test_verify_design_rejects_the_undesigned_game():
    game, objective = two_player_setup()
    verdict = verify_design(game, objective)
    assert not verdict.path_match
    assert verdict.gap <= 1e-2
    # both players sit on the two-link middle paths, four links off target each
    assert verdict.psi == pytest.approx(6.0, abs=0.05)


def test_trace_csv_header_and_determinism(tmp_path):
    trace = DesignTrace(
        records=[
            DesignRecord(1, 6.0, 5.5, 0.25, 0.03, 1e-11, 2e-3),
            DesignRecord(2, 4.0, 3.5, 0.20, 0.02, 1e-11, 1e-3),
        ]
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    trace.write_csv(first)
    trace.write_csv(second)
    data = first.read_bytes()
    assert data == second.read_bytes()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert lines[1].startswith("1,6.0,5.5,0.25,0.03,")
    assert len(lines) == 3
