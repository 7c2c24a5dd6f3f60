"""Parameter projections, the outer design loop, and its final verdict."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import assert_schedule, dykstra_project_D, project_D, project_diag_blocks

import routedesign.design as design_mod
from routedesign import smooth_eq
from routedesign.design import (
    TRACE_COLUMNS,
    DesignConfig,
    DesignRecord,
    DesignTrace,
    design_loop,
    project_B,
)
from routedesign.errors import (
    ExponentOverflowError,
    InfeasibleFlowError,
    NegativeCycleError,
    NotConvergedError,
)
from routedesign.game import (
    AtomicRoutingGame,
    CostParams,
    Player,
    c_from_factor,
    membership_D,
    path_to_target,
)
from routedesign.graph import DirectedGraph
from routedesign.scenarios import build_scenario
from routedesign.sensitivity import tracking_objective
from routedesign.smooth_eq import Linearization, SmoothEqSettings, homotopy_solve


def two_player_setup():
    sc = build_scenario("two_player_3x3")
    target = path_to_target(sc.game, sc.desired_node_paths)
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
    slow = dykstra_project_D(raw, 0.6, 4, tol=1e-13, max_sweeps=1000)
    assert np.linalg.norm(quick - slow) <= 1e-6


def test_design_config_validation():
    for bad in (
        dict(alpha=-1.0),
        dict(alpha=float("nan")),
        dict(lam=0.0),
        dict(delta=-0.1),
        dict(delta=float("inf")),
        dict(epsilon=-0.1),
        dict(rho=-0.1),
        dict(max_outer_iters=0),
    ):
        with pytest.raises(ValueError):
            DesignConfig(**bad)


def test_zero_step_design_stops_after_one_iteration():
    game, objective = two_player_setup()
    designed, _, trace = design_loop(game, objective, DesignConfig(alpha=0.0, lam=0.01))
    b, c_mat = designed.costs.b, designed.costs.C
    assert len(trace.records) == 1
    assert trace.records[0].db_norm == 0.0
    assert trace.records[0].dC_norm == 0.0
    assert np.array_equal(b, np.full(game.pm, 0.1))
    assert np.array_equal(c_mat, np.zeros((game.pm, game.pm)))


def test_design_with_target_already_at_equilibrium_exits_fast():
    game, _ = two_player_setup()
    eq = homotopy_solve(game, SmoothEqSettings(lam=0.01))[-1]
    _, _, trace = design_loop(game, tracking_objective(eq.x), DesignConfig(lam=0.01))
    assert len(trace.records) <= 2


def test_design_run_tracks_the_desired_flow():
    game, objective = two_player_setup()
    cfg = DesignConfig(alpha=0.01, lam=0.01)
    designed, _, trace = design_loop(game, objective, cfg)
    b, c_mat = designed.costs.b, designed.costs.C
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
    real_b, real_step = design_mod.project_B, design_mod._step_factored

    def spy_b(b, delta):
        out = real_b(b, delta)
        seen_b.append(out.copy())
        return out

    def spy_step(*args):
        q, mid = real_step(*args)
        seen_c.append(q @ mid @ q.T)
        return q, mid

    monkeypatch.setattr(design_mod, "project_B", spy_b)
    monkeypatch.setattr(design_mod, "_step_factored", spy_step)
    design_loop(game, objective, cfg)
    assert len(seen_b) == 6 and len(seen_c) == 6
    for b in seen_b:
        assert np.all(b >= 0.0) and np.all(b <= cfg.delta)
    for c in seen_c:
        assert membership_D(c, game.m, cfg.rho)


def test_factored_step_is_project_D_of_the_dense_step():
    # admissible factored iterates come from earlier factored steps, each
    # checked against the dense projection; small rho puts the ball in play
    ball_active = clip_active = 0
    for seed, (block_size, blocks), rho in zip(
        range(12), [(3, 2), (4, 3), (2, 5), (5, 1)] * 3, [0.05, 0.5, 5.0] * 4
    ):
        rng = np.random.default_rng(seed)
        pm = block_size * blocks
        q, mid = np.zeros((pm, 0)), np.zeros((0, 0))
        for _ in range(6):
            g, x = rng.standard_normal(pm), rng.uniform(0.0, 1.0, pm)
            alpha = rng.uniform(0.05, 2.0)
            stepped = q @ mid @ q.T - alpha * np.outer(g, x)
            symmetric = project_diag_blocks(stepped, block_size)
            clip_active += np.linalg.eigvalsh(symmetric + symmetric.T)[0] < 0.0
            ball_active += np.linalg.norm(design_mod._project_monotone(symmetric)) > rho
            q, mid = design_mod._step_factored(q, mid, g, x, alpha, rho, block_size)
            dense = project_D(stepped, rho, block_size)
            assert np.abs(q @ mid @ q.T - dense).max() <= 1e-12
            assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-12
            assert q.shape[1] <= pm
    assert ball_active > 0 and clip_active > 0


def test_factored_step_rebuilds_a_wide_basis_from_the_ranges_of_C():
    # a basis of 8 directions in R^12 that carries a rank-3 PSD C: past
    # pm / 2 the step keeps only the directions of C's range
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((12, 8)))[0]
    low = rng.standard_normal((8, 3))
    mid = 0.01 * low @ low.T
    c_mat = q @ mid @ q.T
    q2, mid2 = design_mod._step_factored(q, mid, rng.standard_normal(12), np.ones(12), 0.0, 1.0, 6)
    assert q2.shape[1] == 3
    assert np.abs(q2 @ mid2 @ q2.T - c_mat).max() <= 1e-15


def test_a_design_past_half_width_stays_bounded_and_admissible(monkeypatch):
    # a random objective gradient at every iteration spans new directions,
    # so the factor's width passes pm / 2
    game, objective = two_player_setup()
    rng = np.random.default_rng(5)
    noisy = replace(objective, gradient=lambda x: rng.standard_normal(x.size))
    widths, iterates, games = [], [], []
    real_step, real_with_costs = design_mod._step_factored, AtomicRoutingGame.with_costs

    def spy_step(*args):
        q, mid = real_step(*args)
        widths.append(q.shape[1])
        iterates.append(q @ mid @ q.T)
        return q, mid

    def spy_with_costs(self, *args, **kwargs):
        built = real_with_costs(self, *args, **kwargs)
        games.append((built.costs.factor, built))
        return built

    monkeypatch.setattr(design_mod, "_step_factored", spy_step)
    monkeypatch.setattr(AtomicRoutingGame, "with_costs", spy_with_costs)
    cfg = DesignConfig(alpha=0.05, lam=0.01, epsilon=0.0, max_outer_iters=12)
    design_loop(game, noisy, cfg)
    assert len(widths) == 12
    assert max(widths) > game.pm / 2 and max(widths) <= game.pm
    for c in iterates:
        assert membership_D(c, game.m, cfg.rho)
    for factor, built in games:
        if factor is not None:
            # a factor wider than pm / 2 sends the game down the dense route
            wide = factor[0].shape[1] > game.pm / 2
            lin = Linearization(built, np.ones(built.pm), cfg.lam)
            assert lin.holds_dense_lu == wide


def test_the_trace_reads_dc_norm_from_the_factors(monkeypatch):
    # dC_norm is ||C' - C||_F, taken from the factors on a step that extends
    # Q: it matches the dense difference on every step, those that extend Q
    # and those that recompress it past pm / 2, as the noisy design above does
    game, objective = two_player_setup()
    rng = np.random.default_rng(5)
    noisy = replace(objective, gradient=lambda x: rng.standard_normal(x.size))
    factors = [(np.zeros((game.pm, 0)), np.zeros((0, 0)))]
    real_step = design_mod._step_factored

    def spy_step(*args):
        factors.append(real_step(*args))
        return factors[-1]

    monkeypatch.setattr(design_mod, "_step_factored", spy_step)
    cfg = DesignConfig(alpha=0.05, lam=0.01, epsilon=0.0, max_outer_iters=12)
    _, _, trace = design_loop(game, noisy, cfg)
    assert len(trace.records) == len(factors) - 1 == 12
    recompressed = 0
    for (q, mid), (q2, mid2), record in zip(factors, factors[1:], trace.records):
        want = np.linalg.norm(c_from_factor(q2, mid2) - c_from_factor(q, mid))
        assert abs(record.dC_norm - want) <= 1e-12 * want
        recompressed += not np.array_equal(q2[:, : q.shape[1]], q)
    assert recompressed > 0


def test_a_scenario_design_makes_no_dense_decomposition_of_C(monkeypatch):
    game, objective = two_player_setup()
    lu_sizes, solve_sizes, eigh_sizes = [], [], []
    real_lu, real_inv, real_solve = smooth_eq._lu, np.linalg.inv, np.linalg.solve
    real_eigh = np.linalg.eigh

    # the structured route inverts each (n-1)^2 Laplacian and solves with a
    # capacitance at most pm/2 wide; the dense route factors all
    # pm + p(n-1) unknowns by _lu
    def spy_lu(a):
        lu_sizes.append(a.shape[0])
        return real_lu(a)

    def spy_inv(a):
        solve_sizes.append(np.shape(a)[-1])
        return real_inv(a)

    def spy_solve(a, b):
        solve_sizes.append(np.shape(a)[-1])
        return real_solve(a, b)

    def spy_eigh(a, *args, **kwargs):
        eigh_sizes.append(np.shape(a)[0])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(smooth_eq, "_lu", spy_lu)
    monkeypatch.setattr(np.linalg, "inv", spy_inv)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    _, verdict, trace = design_loop(game, objective, DesignConfig(alpha=0.01, lam=0.01))
    assert verdict.path_match and len(trace.records) >= 2
    assert lu_sizes == []
    assert solve_sizes and max(solve_sizes) < game.pm
    assert eigh_sizes and max(eigh_sizes) < game.pm


def test_iteration_cap_is_honored():
    game, objective = two_player_setup()
    cfg = DesignConfig(alpha=0.01, lam=0.01, max_outer_iters=3, epsilon=0.0)
    _, _, trace = design_loop(game, objective, cfg)
    assert len(trace.records) == 3


def test_certification_continues_down_from_the_inner_solution(monkeypatch):
    game, objective = two_player_setup()
    inner, chains = [], []
    real_chain = design_mod.homotopy_solve

    # the inner solves run at the design weight, certification at REFERENCE_LAMBDA
    def spy_chain(game, settings, start=None):
        stages = real_chain(game, settings, start)
        if settings.lam == design_mod.REFERENCE_LAMBDA:
            chains.append(([s.lam for s in stages], start))
        else:
            inner.append((stages, start))
        return stages

    monkeypatch.setattr(design_mod, "homotopy_solve", spy_chain)
    cfg = DesignConfig(alpha=0.01, lam=0.01, max_outer_iters=3, epsilon=0.0)
    _, _, trace = design_loop(game, objective, cfg)
    # the three logged iterations, then the unlogged one that verifies the
    # designed game, each warm-started from the solution before it
    assert len(trace.records) == 3
    assert len(inner) == 4 and len(chains) == 4
    assert inner[0][1] is None
    # the first inner solve is the cold chain from 1, every later one a
    # direct stage from the inner solution before it
    assert_schedule([s.lam for s in inner[0][0]], 1.0, 0.01)
    assert [[s.lam for s in stages] for stages, _ in inner[1:]] == [[0.01]] * 3
    for (before, _), (_, start) in zip(inner, inner[1:]):
        assert np.array_equal(start.x, before[-1].x) and np.array_equal(start.v, before[-1].v)
    # certification steps down from the inner solution's own weight
    for (solved, _), (stages, start) in zip(inner, chains):
        sol = solved[-1]
        assert_schedule(stages, 0.01, 0.001)
        assert np.array_equal(start.x, sol.x) and np.array_equal(start.v, sol.v)

    # an inner weight below the certification weight certifies in one stage
    chains.clear()
    design_loop(game, objective, DesignConfig(alpha=0.01, lam=5e-4, max_outer_iters=1))
    assert [stages for stages, _ in chains] == [[1e-3], [1e-3]]


def test_a_design_first_solves_by_the_cold_chain(monkeypatch):
    game, objective = two_player_setup()
    calls = []
    real_chain = design_mod.homotopy_solve

    def spy_chain(game, settings, *args, **kwargs):
        stages = real_chain(game, settings, *args, **kwargs)
        calls.append((settings.lam, args, kwargs, stages[0].lam))
        return stages

    monkeypatch.setattr(design_mod, "homotopy_solve", spy_chain)
    cfg = DesignConfig(alpha=0.01, lam=0.01, max_outer_iters=1)
    design_loop(game, objective, cfg)
    # no start and no weight: the chain runs from 1
    assert calls[0] == (cfg.lam, (None,), {}, 1.0)


@pytest.mark.parametrize(
    ("cfg", "rows"),
    [
        (DesignConfig(alpha=0.01, lam=0.01, max_outer_iters=2, epsilon=0.0), 2),
        (DesignConfig(alpha=0.01, lam=0.01), 5),
    ],
    ids=["cap", "epsilon"],
)
def test_a_design_solves_certifies_and_differentiates_once_past_its_trace(
    monkeypatch, cfg, rows
):
    game, objective = two_player_setup()
    calls = {"homotopy_solve": 0, "_certified_reference": 0, "implicit_gradients": 0}

    def counted(name):
        real = getattr(design_mod, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return spy

    for name in calls:
        monkeypatch.setattr(design_mod, name, counted(name))
    _, verdict, trace = design_loop(game, objective, cfg)
    assert len(trace.records) == rows
    # homotopy_solve runs both the inner solve and the certification
    assert calls == {
        "homotopy_solve": 2 * (rows + 1),
        "_certified_reference": rows + 1,
        "implicit_gradients": rows + 1,
    }
    assert verdict.path_match


def test_a_shared_memo_replays_a_design_without_solving(monkeypatch):
    game, objective = two_player_setup()
    cfg = DesignConfig(alpha=0.01, lam=0.01, max_outer_iters=5, epsilon=0.0)
    memo = {}
    designed_first, verdict_first, first = design_loop(game, objective, cfg, memo=memo)
    # the five logged iterations and the final, verifying one
    assert len(memo) == 6
    solves = []
    real_solve = design_mod.homotopy_solve

    def spy_solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(design_mod, "homotopy_solve", spy_solve)
    designed_again, verdict_again, again = design_loop(game, objective, cfg, memo=memo)
    assert solves == []
    assert again.records == first.records
    assert verdict_again == verdict_first
    assert np.array_equal(designed_again.costs.b, designed_first.costs.b)
    (q_first, mid_first), (q_again, mid_again) = designed_first.costs.factor, designed_again.costs.factor
    assert np.array_equal(q_again, q_first) and np.array_equal(mid_again, mid_first)


def test_designed_four_player_game_solves_below_the_design_weight():
    # continuation from lam = 1 passes a stage, lam = 0.0039, where damped
    # least-squares steps stall at residual 2.8e-10, short of the tolerance
    sc = build_scenario("four_player_5x5")
    objective = tracking_objective(path_to_target(sc.game, sc.desired_node_paths))
    config = DesignConfig(alpha=0.01, lam=0.01)
    designed, verdict, _ = design_loop(sc.game, objective, config)
    sol = homotopy_solve(designed, SmoothEqSettings(lam=1e-3))[-1]
    assert sol.converged
    assert designed.nash_gap(sol.x) <= 1e-8
    # the design's final, certified iteration reaches the same point
    assert verdict.path_match
    assert verdict.gap <= 1e-2
    assert verdict.psi == pytest.approx(objective.evaluate(sol.x), rel=0.0, abs=1e-9)


def test_a_design_that_cannot_move_reports_the_undesigned_game_off_target():
    game, objective = two_player_setup()
    # alpha = 0 leaves b = delta and C = 0: the design stops after one
    # iteration and its verdict judges the undesigned game
    _, verdict, trace = design_loop(game, objective, DesignConfig(alpha=0.0, lam=0.01))
    assert len(trace.records) == 1
    assert not verdict.path_match
    assert verdict.gap <= 1e-2
    # both players sit on the two-link middle paths, four links off target each
    assert verdict.psi == pytest.approx(6.0, abs=0.05)


@pytest.mark.parametrize(
    ("where", "error"),
    [
        ("homotopy_solve", NegativeCycleError),
        ("homotopy_solve", ExponentOverflowError),
        ("_certified_reference", InfeasibleFlowError),
        ("_certified_reference", NotConvergedError),
    ],
)
def test_a_numerical_failure_names_its_design_iteration(monkeypatch, where, error):
    game, objective = two_player_setup()

    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(design_mod, where, fail)
    with pytest.raises(error, match="^design iteration 1: boom$") as info:
        design_loop(game, objective, DesignConfig(alpha=0.01, lam=0.01))
    assert type(info.value) is error
    assert type(info.value.__cause__) is error


def test_a_stalled_certification_stage_fails_its_design_iteration(monkeypatch):
    game, objective = two_player_setup()
    # no stage of the certifying continuation can reach this residual: the
    # chain down from the inner solution stalls, then its cold retry from 1
    monkeypatch.setattr(design_mod, "REFERENCE_RESIDUAL_TOL", 1e-300)
    with pytest.raises(
        NotConvergedError, match="^design iteration 1: continuation stage at lam=1 stalled"
    ):
        design_loop(game, objective, DesignConfig(alpha=0.01, lam=0.01))


def test_a_certification_whose_warm_start_overflows_is_retried_cold():
    game, _ = two_player_setup()
    sol = homotopy_solve(game, SmoothEqSettings(lam=0.01))[-1]
    reference, gap = design_mod._certified_reference(game, sol)
    # multipliers 500 too high overflow the map at the chain's first stage
    retried, retried_gap = design_mod._certified_reference(game, replace(sol, v=sol.v + 500.0))
    assert retried.lam == reference.lam == design_mod.REFERENCE_LAMBDA
    assert np.allclose(retried.x, reference.x, rtol=0.0, atol=1e-8)
    assert retried_gap == pytest.approx(gap, rel=0.0, abs=1e-8)


def test_a_reference_gap_above_tolerance_fails_its_design_iteration(monkeypatch):
    game, objective = two_player_setup()
    # at this entropy weight the smoothed equilibrium is far from a Nash one
    monkeypatch.setattr(design_mod, "REFERENCE_LAMBDA", 0.5)
    with pytest.raises(
        NotConvergedError,
        match=r"^design iteration 1: reference equilibrium gap \S+ exceeds 0.01$",
    ):
        design_loop(game, objective, DesignConfig(alpha=0.01, lam=0.01))


def test_paths_do_not_match_under_a_negative_cost_cycle():
    # the two-link cycle 0 -> 1 -> 0 costs -3 + 0.5 < 0
    graph = DirectedGraph(2, ((0, 1), (1, 0)))
    costs = CostParams(np.array([-3.0, 0.5]), np.zeros((2, 2)))
    game = AtomicRoutingGame(graph, [Player(0, 1)], costs)
    x = np.array([1.5, 0.5])
    with pytest.raises(NegativeCycleError):
        game.best_response_path(x, 0)
    assert not design_mod._paths_match(game, x, np.array([1.0, 0.0]))


def test_design_loop_rejects_a_bad_target_before_solving(monkeypatch):
    game, _ = two_player_setup()

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating the target")

    monkeypatch.setattr(design_mod, "homotopy_solve", no_solve)
    with pytest.raises(ValueError, match="length p\\*m"):
        design_loop(game, tracking_objective(np.ones(game.pm - 1)), DesignConfig())


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(readme), "exec"), {})
    out = capsys.readouterr().out
    # the example's design reroutes both players onto their desired paths
    assert "path_match=True" in out
    # and its verdict holds plain floats, not numpy scalars
    assert "np.float64" not in out


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
