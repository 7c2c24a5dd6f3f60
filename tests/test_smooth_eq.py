"""Smoothed equilibrium system: residual, Jacobian, solver, continuation."""

import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from helpers import (
    fd_jacobian,
    logit_split,
    random_game,
    solved_detached_two_cycle,
    two_route_game,
)
from routedesign import smooth_eq
from routedesign.design import project_D
from routedesign.errors import ExponentOverflowError, NotConvergedError
from routedesign.game import AtomicRoutingGame, CostParams, Player
from routedesign.graph import DirectedGraph
from routedesign.scenarios import build_scenario
from routedesign.smooth_eq import (
    EquilibriumSolution,
    Linearization,
    SmoothEqSettings,
    cold_start,
    homotopy_solve,
    jacobian_F,
    residual_F,
    solve_equilibrium,
    solve_nls,
)


def two_node_game(b1, b2):
    g = DirectedGraph(2, ((0, 1), (1, 0)))
    costs = CostParams(np.array([b1, b2]), np.zeros((2, 2)))
    return AtomicRoutingGame(g, [Player(0, 1)], costs)


def two_node_oracle(b1, b2, lam):
    """Closed-form smoothed equilibrium on the two-node graph.

    Multiplying the two stationarity equations cancels the multiplier:
    x1 * x2 = exp(-(b1 + b2)/lam - 2) =: K, and conservation x1 - x2 = 1
    gives x2 as the positive root of t(1 + t) = K.
    """
    K = np.exp(-(b1 + b2) / lam - 2.0)
    x2 = 2.0 * K / (1.0 + np.sqrt(1.0 + 4.0 * K))
    x1 = 1.0 + x2
    v = b1 + lam * (1.0 + np.log(x1))
    return np.array([x1, x2]), np.array([v])


def test_settings_validation():
    for bad in (
        dict(lam=0.0),
        dict(lam=float("nan")),
        dict(lam=1.0, residual_tol=0.0),
        dict(lam=1.0, max_iters=0),
    ):
        with pytest.raises(ValueError):
            SmoothEqSettings(**bad)


def test_schedule_stages_halve_and_clamp():
    game = two_node_game(0.3, 0.7)
    stages = [s.lam for s in homotopy_solve(game, SmoothEqSettings(lam=1e-3), strict=False)]
    assert len(stages) == 11
    assert stages[0] == 1.0
    assert stages[-1] == 1e-3
    assert stages[-2] == 0.001953125
    for a, b in zip(stages, stages[1:-1]):
        assert b == a * 0.5
    # a start at or below the target weight solves at the target alone
    for lam_start in (0.25, 0.1):
        one = homotopy_solve(game, SmoothEqSettings(lam=0.25), lam_start=lam_start)
        assert [s.lam for s in one] == [0.25]


def test_schedule_validation():
    game = two_node_game(0.3, 0.7)
    for bad in (float("nan"), float("inf"), -float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError):
            homotopy_solve(game, SmoothEqSettings(lam=0.1), lam_start=bad)


def test_residual_and_jacobian_validate_inputs():
    game = two_node_game(0.3, 0.7)
    x, v = np.array([1.0, 0.1]), np.array([0.2])
    with pytest.raises(ValueError):
        residual_F(game, x, v, 0.0)
    with pytest.raises(ValueError):
        residual_F(game, np.ones(3), v, 1.0)
    with pytest.raises(ValueError):
        jacobian_F(game, x, np.ones(2), 1.0)
    for f in (residual_F, jacobian_F):
        with pytest.raises(ValueError):
            f(game, x, v, float("nan"))


@pytest.mark.parametrize("lam", [1.0, 0.3, 0.05])
def test_solver_matches_two_node_closed_form(lam):
    b1, b2 = 0.3, 0.7
    game = two_node_game(b1, b2)
    sol = solve_nls(game, SmoothEqSettings(lam=lam))
    assert sol.converged
    assert sol.residual_norm <= 1e-10
    x_ref, v_ref = two_node_oracle(b1, b2, lam)
    assert np.allclose(sol.x, x_ref, atol=1e-8)
    assert np.allclose(sol.v, v_ref, atol=1e-8)


def test_two_route_split_is_logit_in_route_costs():
    b = np.array([0.3, 0.1, 0.2, 0.3])  # route A: links 0,2  route B: links 1,3
    game = two_route_game(b)
    warm = (np.full(4, 0.5), np.zeros(3))
    for lam in (1.0, 0.5, 0.2):
        sol = solve_nls(game, SmoothEqSettings(lam=lam), warm_start=warm)
        assert sol.converged
        share = logit_split(b[0] + b[2], b[1] + b[3], lam)
        assert sol.x[0] == pytest.approx(share, abs=1e-9)
        assert sol.x[2] == pytest.approx(share, abs=1e-9)
        assert sol.x[1] == pytest.approx(1.0 - share, abs=1e-9)
        assert sol.x[3] == pytest.approx(1.0 - share, abs=1e-9)


def test_two_route_equal_costs_split_evenly():
    # per-link offsets differ but both routes sum to 0.6
    game = two_route_game(np.array([0.2, 0.5, 0.4, 0.1]))
    warm = (np.full(4, 0.5), np.zeros(3))
    sol = solve_nls(game, SmoothEqSettings(lam=0.5), warm_start=warm)
    assert sol.converged
    assert np.allclose(sol.x, 0.5, atol=1e-9)


def test_default_start_solves_one_way_games():
    b = np.array([0.2, 0.1, 0.2, 0.7])  # route A costs 0.4, route B 0.8
    game = two_route_game(b)
    for lam in (1.0, 0.5, 0.2, 0.01):
        sol = solve_nls(game, SmoothEqSettings(lam=lam))
        assert sol.converged
        share = logit_split(b[0] + b[2], b[1] + b[3], lam)
        assert np.allclose(sol.x, [share, 1.0 - share, share, 1.0 - share], atol=1e-9)
    sol = solve_equilibrium(game, SmoothEqSettings(lam=0.01))
    assert sol.converged
    assert game.nash_gap(sol.x) < 1e-5


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(21)
    game = random_game(rng, (2, 2), 2)
    for _ in range(5):
        x = rng.uniform(0.05, 1.0, size=game.pm)
        v = rng.uniform(-0.3, 0.3, size=game.dim_v)
        jac = jacobian_F(game, x, v, 0.7)
        ref = fd_jacobian(game, x, v, 0.7)
        assert np.linalg.norm(jac - ref) <= 1e-7 * np.linalg.norm(jac)


def test_warm_start_at_solution_returns_immediately():
    game = two_node_game(0.3, 0.7)
    settings = SmoothEqSettings(lam=0.5)
    sol = solve_nls(game, settings)
    again = solve_nls(game, settings, warm_start=(sol.x, sol.v))
    assert again.converged
    assert again.iterations == 0


def _replay(game, settings, counts):
    """||F|| before the first iteration of solve_nls and after each, and
    what each iteration added to counts.

    The solver is deterministic, so a run capped at k iterations repeats the
    first k iterations of the uncapped run, and a run whose tolerance the
    start already meets takes none.  counts is a Counter that patched
    internals increment; iteration k added the difference between the
    capped runs at k and k - 1.
    """
    sol = solve_nls(game, settings)
    caps = [replace(settings, residual_tol=1e300)]
    caps += [replace(settings, max_iters=k) for k in range(1, sol.iterations + 1)]
    norms, added, before = [], [], None
    for cap in caps:
        counts.clear()
        norms.append(solve_nls(game, cap).residual_norm)
        if before is not None:
            added.append(counts - before)
        before = Counter(counts)
    assert norms[-1] == sol.residual_norm
    return sol, norms, added


def test_solver_trace_is_monotone():
    game = two_node_game(0.3, 0.7)
    sol, norms, _ = _replay(game, SmoothEqSettings(lam=0.2), Counter())
    assert sol.converged
    assert len(norms) >= 2
    assert all(b <= a for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= 1e-10


def test_solver_assembles_one_jacobian_per_accepted_iterate(monkeypatch):
    # one factorization per iteration, however many step lengths it tries;
    # the dense J is assembled only on iterations that take the QR fallback.
    # All three games have C = 0, so they take the structured route, which
    # keeps no factor for chord steps
    counts = Counter()
    evaluate = smooth_eq.residual_F
    assemble = smooth_eq._assemble_jacobian

    class CountingLinearization(Linearization):
        def __init__(self, *args):
            counts["factor"] += 1
            super().__init__(*args)

    def counting_jacobian(*args):
        counts["jacobian"] += 1
        return assemble(*args)

    def counting_residual(*args):
        counts["residual"] += 1
        return evaluate(*args)

    monkeypatch.setattr(smooth_eq, "Linearization", CountingLinearization)
    monkeypatch.setattr(smooth_eq, "_assemble_jacobian", counting_jacobian)
    monkeypatch.setattr(smooth_eq, "residual_F", counting_residual)

    game = two_route_game(np.array([0.2, 0.1, 0.2, 0.7]))
    sol, norms, added = _replay(game, SmoothEqSettings(lam=0.01), counts)
    assert sol.converged
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert [c["factor"] for c in added] == [1] * sol.iterations
    assert [c["jacobian"] for c in added] == [0] * sol.iterations
    assert any(c["residual"] > 1 for c in added)

    # J is singular on this game, so every iteration falls back to QR
    game, _ = solved_detached_two_cycle()
    sol, _, added = _replay(game, SmoothEqSettings(lam=0.2, residual_tol=1e-13), counts)
    assert sol.converged
    assert [c["factor"] for c in added] == [1] * sol.iterations
    assert [c["jacobian"] for c in added] == [1] * sol.iterations

    # from the cold start neither direction's line search gets anywhere: the
    # one iteration tries the Newton step, then the QR direction, once
    game = build_scenario("two_player_3x3").game
    counts.clear()
    stalled = solve_nls(game, SmoothEqSettings(lam=0.003), warm_start=cold_start(game, 0.003))
    assert not stalled.converged
    assert stalled.iterations == 1
    assert counts["factor"] == 1
    assert counts["jacobian"] == 1


def test_dense_route_keeps_its_factor_while_chord_steps_contract(monkeypatch):
    base = build_scenario("two_player_3x3").game
    rng = np.random.default_rng(3)
    c_mat = project_D(rng.uniform(-0.5, 0.5, size=(base.pm, base.pm)), 0.5, base.m)
    game = base.with_costs(base.costs.b, c_mat)
    assert game.cost_factor is None  # rank above pm / 2: the dense-LU route
    settings = SmoothEqSettings(lam=0.01)
    counts = Counter()

    class CountingLinearization(Linearization):
        def __init__(self, *args):
            counts["factor"] += 1
            super().__init__(*args)

    monkeypatch.setattr(smooth_eq, "Linearization", CountingLinearization)
    sol, norms, added = _replay(game, settings, counts)
    assert sol.converged
    assert sum(c["factor"] for c in added) < sol.iterations
    # an iteration that did not factor took a chord step, which must have
    # cut ||F|| by the chord rate
    for k, c in enumerate(added, start=1):
        if c["factor"] == 0:
            assert norms[k] <= smooth_eq._CHORD_RATE * norms[k - 1]

    # without chord steps every iteration factors, and the solutions agree
    monkeypatch.setattr(smooth_eq, "_CHORD_RATE", 0.0)
    newton, _, added = _replay(game, settings, counts)
    assert newton.converged
    assert [c["factor"] for c in added] == [1] * newton.iterations
    assert np.max(np.abs(sol.x - newton.x)) <= 1e-8


def _four_player_solution(c_mat, lam=0.05):
    base = build_scenario("four_player_5x5").game
    game = base.with_costs(base.costs.b, c_mat)
    sol = solve_equilibrium(game, SmoothEqSettings(lam=lam))
    assert sol.converged
    return game, sol


def _assert_structured_solves_match_dense(game, sol):
    jac = jacobian_F(game, sol.x, sol.v, sol.lam)
    lin = Linearization(game, sol.x, sol.v, sol.lam)
    rng = np.random.default_rng(5)
    for rhs in (-residual_F(game, sol.x, sol.v, sol.lam), rng.standard_normal(jac.shape[0])):
        for got, want in (
            (lin.solve(rhs), np.linalg.solve(jac, rhs)),
            (lin.solve_T(rhs), np.linalg.solve(jac.T, rhs)),
        ):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_linearization_matches_dense_solves_without_interaction():
    pm = build_scenario("four_player_5x5").game.pm
    game, sol = _four_player_solution(np.zeros((pm, pm)))
    u, w = game.cost_factor
    assert u.shape == w.shape == (pm, 0)
    _assert_structured_solves_match_dense(game, sol)


def test_linearization_matches_dense_solves_through_low_rank_interaction():
    base = build_scenario("four_player_5x5").game
    rng = np.random.default_rng(8)
    low_rank = rng.standard_normal((base.pm, 5)) @ rng.standard_normal((5, base.pm))
    game, sol = _four_player_solution(project_D(low_rank, 0.5, base.m))
    u, w = game.cost_factor  # the Woodbury route
    assert 0 < u.shape[1] <= base.pm // 2
    assert np.allclose(u @ w.T, game.costs.C, atol=1e-14)
    _assert_structured_solves_match_dense(game, sol)


def test_linearization_matches_dense_solves_with_dense_interaction():
    base = build_scenario("four_player_5x5").game
    rng = np.random.default_rng(9)
    c_mat = project_D(rng.uniform(-0.5, 0.5, size=(base.pm, base.pm)), 0.5, base.m)
    game, sol = _four_player_solution(c_mat)
    assert game.cost_factor is None  # the dense-LU route
    _assert_structured_solves_match_dense(game, sol)


def test_linearization_solves_a_singular_jacobian_by_least_squares():
    game, sol = solved_detached_two_cycle()
    # the same graph with a full-rank C takes the dense-LU route instead
    rng = np.random.default_rng(0)
    c_mat = project_D(rng.uniform(-0.5, 0.5, size=(game.pm, game.pm)), 0.5, game.m)
    dense = game.with_costs(game.costs.b, c_mat)
    assert dense.cost_factor is None
    dense_sol = solve_nls(dense, SmoothEqSettings(lam=sol.lam, residual_tol=1e-13))
    assert dense_sol.converged
    for game, sol in ((game, sol), (dense, dense_sol)):
        jac = jacobian_F(game, sol.x, sol.v, sol.lam)
        assert np.linalg.matrix_rank(jac) == jac.shape[0] - 1
        lin = Linearization(game, sol.x, sol.v, sol.lam)
        rhs = np.ones(jac.shape[0])
        assert np.linalg.norm(lin.solve(rhs) - np.linalg.pinv(jac) @ rhs) <= 1e-9
        assert np.linalg.norm(lin.solve_T(rhs) - np.linalg.pinv(jac.T) @ rhs) <= 1e-9
        assert not lin.holds_dense_lu


def test_overflowing_start_raises():
    game = two_node_game(-300.0, 0.5)  # exponent ~ +299 at the cold start
    with pytest.raises(ExponentOverflowError):
        solve_nls(game, SmoothEqSettings(lam=1.0))
    with pytest.raises(ExponentOverflowError):
        residual_F(game, np.array([1.1, 0.1]), np.zeros(1), 1.0)


def test_unconverged_solution_is_flagged():
    game = two_node_game(0.3, 0.7)
    sol = solve_nls(game, SmoothEqSettings(lam=0.01, max_iters=1))
    assert not sol.converged
    assert sol.iterations == 1


def test_strict_continuation_names_the_stalled_stage():
    game = two_node_game(0.3, 0.7)
    settings = SmoothEqSettings(lam=0.5, residual_tol=1e-15, max_iters=1)
    with pytest.raises(NotConvergedError, match="lam=1"):
        homotopy_solve(game, settings)


def test_continuation_returns_stage_list():
    game = two_node_game(0.3, 0.7)
    stages = homotopy_solve(game, SmoothEqSettings(lam=0.01))
    assert [s.lam for s in stages] == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.01]
    assert all(isinstance(s, EquilibriumSolution) and s.converged for s in stages)
    assert stages[-1].lam == 0.01


def test_overflowing_warm_start_falls_back_to_continuation():
    b1, b2 = 0.3, 0.7
    game = two_node_game(b1, b2)
    warm = (np.array([1.1, 0.1]), np.array([500.0]))  # exponent ~ +499 at lam=1
    with pytest.raises(ExponentOverflowError):
        solve_nls(game, SmoothEqSettings(lam=1.0), warm_start=warm)
    sol = solve_equilibrium(game, SmoothEqSettings(lam=1.0), warm)
    assert sol.converged
    assert sol.lam == 1.0
    x_ref, v_ref = two_node_oracle(b1, b2, 1.0)
    assert np.allclose(sol.x, x_ref, atol=1e-8)
    assert np.allclose(sol.v, v_ref, atol=1e-8)


def test_stalled_warm_start_falls_back_to_continuation():
    game = build_scenario("two_player_3x3").game
    settings = SmoothEqSettings(lam=0.003)
    warm = cold_start(game, 0.003)
    stalled = solve_nls(game, settings, warm_start=warm)
    # neither direction's line search gets anywhere from this start
    assert not stalled.converged
    assert stalled.iterations == 1
    sol = solve_equilibrium(game, settings, warm)
    assert sol.converged
    assert sol.lam == 0.003
    chain = homotopy_solve(game, settings)
    assert np.array_equal(sol.x, chain[-1].x)


def test_tolerant_continuation_passes_stalled_stages_on():
    game = two_node_game(0.3, 0.7)
    settings = SmoothEqSettings(lam=0.5, residual_tol=1e-15, max_iters=1)
    with pytest.raises(NotConvergedError, match="lam=1"):
        solve_equilibrium(game, settings)
    stages = homotopy_solve(game, settings, strict=False)
    assert [s.lam for s in stages] == [1.0, 0.5]
    assert not any(s.converged for s in stages)
    assert all(s.iterations == 1 for s in stages)


def test_one_way_game_with_starved_nodes_solves():
    links = ((0, 2), (0, 5), (1, 3), (2, 1), (2, 4), (2, 5), (3, 0), (3, 5), (4, 1), (5, 1))
    b = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.25, 0.5, 0.5])
    game = AtomicRoutingGame(
        DirectedGraph(6, links), [Player(3, 0)], CostParams(b, np.zeros((10, 10)))
    )
    sol = solve_equilibrium(game, SmoothEqSettings(lam=0.1))
    assert sol.converged
    assert np.linalg.norm(game.s - game.e_blk @ sol.x) <= 1e-8


def _entropy_best_response(game, x, i, lam):
    """Minimize player i's smoothed cost over its own flow polytope."""
    sl = game.player_slice(i)
    m = game.m
    c_own = game.costs.C[sl, sl]
    cross = game.costs.b[sl] + (game.costs.C @ x)[sl] - c_own @ x[sl]
    e_i = game.reduced[i]
    s_i = game.s[i * (game.n - 1) : (i + 1) * (game.n - 1)]

    def objective(y):
        safe = np.maximum(y, 1e-300)
        return float(cross @ y + 0.5 * y @ (c_own @ y) + lam * np.sum(safe * np.log(safe)))

    def gradient(y):
        safe = np.maximum(y, 1e-12)
        return cross + c_own @ y + lam * (np.log(safe) + 1.0)

    with warnings.catch_warnings():
        # SLSQP probes slightly past the bounds and warns while clipping
        warnings.simplefilter("ignore", RuntimeWarning)
        res = scipy.optimize.minimize(
            objective,
            np.full(m, 0.5),
            jac=gradient,
            bounds=[(1e-12, None)] * m,
            constraints=[{"type": "eq", "fun": lambda y: e_i @ y - s_i}],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
    assert res.success, res.message
    return res.x, objective


def test_solution_blocks_minimize_each_player_cost():
    # fixed-point property: every player's block solves its own smoothed
    # routing problem given the other players' flows
    rng = np.random.default_rng(33)
    game = random_game(rng, (2, 2), 2)
    sol = solve_nls(game, SmoothEqSettings(lam=0.5))
    assert sol.converged
    for i in range(game.p):
        y_star, objective = _entropy_best_response(game, sol.x, i, 0.5)
        x_i = sol.x[game.player_slice(i)]
        assert objective(x_i) <= objective(y_star) + 1e-8
        assert np.allclose(y_star, x_i, atol=2e-4)
