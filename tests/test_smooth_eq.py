"""Smoothed equilibrium system: residual, Jacobian, solver, continuation."""

import warnings
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.optimize

from helpers import (
    assert_schedule,
    cold_start,
    fd_jacobian,
    jacobian_F,
    log_jacobian,
    logit_split,
    project_D,
    random_game,
    solved_detached_two_cycle,
    start_at,
    two_route_game,
)
from routedesign import smooth_eq
from routedesign.errors import ExponentOverflowError, NotConvergedError, NumericalError
from routedesign.design import REFERENCE_GAP_TOL
from routedesign.game import AtomicRoutingGame, CostParams, Player, membership_D
from routedesign.graph import DirectedGraph
from routedesign.scenarios import build_scenario
from routedesign.smooth_eq import (
    EquilibriumSolution,
    Linearization,
    SmoothEqSettings,
    homotopy_solve,
    residual_F,
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


def test_schedule_stages_shrink_and_clamp():
    game = two_node_game(0.3, 0.7)
    stages = [s.lam for s in homotopy_solve(game, SmoothEqSettings(lam=1e-3))]
    assert_schedule(stages, 1.0, 1e-3)
    # fewer stages than the 11 halvings from 1 to 1e-3
    assert len(stages) < 11
    # a start at or below the target weight solves at the target alone
    settings = SmoothEqSettings(lam=0.25)
    for lam in (settings.lam, 0.1):
        one = homotopy_solve(game, settings, start_at(*cold_start(game, settings.lam), lam))
        assert [s.lam for s in one] == [0.25]


def test_solver_reports_its_first_contraction():
    b = np.array([0.3, 0.1, 0.2, 0.3])
    game = two_route_game(b)
    settings = SmoothEqSettings(lam=0.2)
    warm = (np.full(4, 0.5), np.zeros(3))
    first = solve_nls(game, replace(settings, max_iters=1), warm_start=warm)
    sol = solve_nls(game, settings, warm_start=warm)
    norms = [smooth_eq._state(game, np.log(x), v, settings.lam).norm for x, v in (warm, (first.x, first.v))]
    assert sol.iterations > 1
    assert sol.contraction == first.contraction == pytest.approx(norms[1] / norms[0], rel=1e-9)
    assert 0.0 < sol.contraction < 1.0
    # a start that meets the tolerance takes no step
    again = solve_nls(game, settings, warm_start=(sol.x, sol.v))
    assert again.iterations == 0
    assert again.contraction == 0.0


def test_each_step_follows_the_last_stages_contraction(monkeypatch):
    # the ratio r of a stage's weight to the last one's starts at 1/2; a
    # stage whose first Newton step left at most a quarter of ||F~|| squares
    # it, one that left more than half takes its square root, capped at 1/2,
    # and one in between keeps it; the cold first stage leaves r alone
    game = two_route_game(np.array([0.3, 0.1, 0.2, 0.3]))
    scripted = iter([0.1, 0.2, 0.25, 0.6, 0.3, 0.9, 0.9, 0.0, 0.5])
    real_solve = smooth_eq.solve_nls

    def scripted_solve(game, settings, warm_start=None):
        sol = real_solve(game, settings, warm_start)
        return replace(sol, contraction=next(scripted))

    monkeypatch.setattr(smooth_eq, "solve_nls", scripted_solve)
    stages = homotopy_solve(game, SmoothEqSettings(lam=1e-4))
    assert [s.lam for s in stages] == [
        1.0, 0.5, 0.125, 2.0**-7, 2.0**-9, 2.0**-11, 2.0**-12, 2.0**-13, 1e-4
    ]
    assert all(s.converged for s in stages)


@pytest.mark.parametrize("error", [NotConvergedError, ExponentOverflowError])
def test_a_failed_long_step_is_retried_as_a_halving(monkeypatch, error):
    # a stage fails by stalling or by overflowing at its start
    game = two_route_game(np.array([0.3, 0.1, 0.2, 0.3]))
    settings = SmoothEqSettings(lam=1e-3)
    calls, converged, fail_below = [], [], [0.0]
    real_solve = smooth_eq.solve_nls

    def failing_solve(game, settings, warm_start=None):
        calls.append((settings.lam, warm_start))
        long_step = converged and settings.lam < 0.5 * converged[-1].lam
        nothing_failed = len(calls) == len(converged) + 1
        if settings.lam < fail_below[0] or (long_step and nothing_failed):
            if error is ExponentOverflowError:
                raise ExponentOverflowError("injected")
            return replace(real_solve(game, settings, warm_start), converged=False)
        sol = real_solve(game, settings, warm_start)
        converged.append(sol)
        return sol

    monkeypatch.setattr(smooth_eq, "solve_nls", failing_solve)
    # the first stage reached by a step longer than a halving fails: the
    # chain re-solves from the last converged stage at half its weight and
    # goes on to the target
    stages = homotopy_solve(game, settings)
    assert len(stages) == len(converged)
    assert all(sol is kept for sol, kept in zip(stages, converged))
    assert_schedule([s.lam for s in stages], 1.0, settings.lam)
    k = next(k for k, (lam, _) in enumerate(calls) if lam not in [s.lam for s in stages])
    before, long_lam = stages[k - 1], calls[k][0]
    assert long_lam < 0.5 * before.lam
    retry_lam, retry_start = calls[k + 1]
    assert retry_lam == 0.5 * before.lam
    assert retry_start[0] is before.x and retry_start[1] is before.v
    assert len(calls) == len(stages) + 1
    # where that halving fails too, the chain fails there
    calls.clear()
    converged.clear()
    fail_below[0] = before.lam
    with pytest.raises(error):
        homotopy_solve(game, settings)
    assert [lam for lam, _ in calls[k:]] == [long_lam, retry_lam]


def test_residual_and_jacobian_validate_inputs():
    game = two_node_game(0.3, 0.7)
    x, v = np.array([1.0, 0.1]), np.array([0.2])
    with pytest.raises(ValueError):
        residual_F(game, x, v, 0.0)
    with pytest.raises(ValueError):
        residual_F(game, np.ones(3), v, 1.0)
    with pytest.raises(ValueError):
        residual_F(game, x, np.ones(2), 1.0)
    with pytest.raises(ValueError):
        residual_F(game, x, v, float("nan"))


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
    sol = homotopy_solve(game, SmoothEqSettings(lam=0.01))[-1]
    assert sol.converged
    assert game.nash_gap(sol.x) < 1e-5


def test_flows_that_underflow_stay_nonnegative(monkeypatch):
    # at lam = 1e-3 route B's exponent is about -2000 (-5000 on the second
    # game), so its flows underflow to 0: the log solver's step in them
    # comes from J~'s first row
    lam = 1e-3
    for b in ([0.0, 0.0, 0.0, 2.0], [0.5, 0.0, 0.0, 5.0]):
        sol = homotopy_solve(two_route_game(np.array(b)), SmoothEqSettings(lam=lam))[-1]
        assert sol.converged
        assert sol.x.min() >= 0.0
        share = logit_split(b[0] + b[2], b[1] + b[3], lam)
        assert np.max(np.abs(sol.x - [share, 1.0 - share, share, 1.0 - share])) <= 1e-12
    # from the solution at lam = 2^-9 the flow weights on route B's middle
    # node have vanished, so its Laplacian is singular and the step to 1e-3
    # comes from least squares
    lstsq_calls = []
    real_lstsq = smooth_eq.numerics.lstsq

    def spy_lstsq(*args):
        lstsq_calls.append(args)
        return real_lstsq(*args)

    game = two_route_game(np.array(b))
    before = homotopy_solve(game, SmoothEqSettings(lam=2.0**-9))[-1]
    monkeypatch.setattr(smooth_eq.numerics, "lstsq", spy_lstsq)
    sol = solve_nls(game, SmoothEqSettings(lam=lam), warm_start=(before.x, before.v))
    assert sol.converged
    assert sol.x.min() >= 0.0
    assert np.max(np.abs(sol.x - [share, 1.0 - share, share, 1.0 - share])) <= 1e-12
    assert lstsq_calls


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(21)
    game = random_game(rng, (2, 2), 2)
    for _ in range(5):
        x = rng.uniform(0.05, 1.0, size=game.pm)
        v = rng.uniform(-0.3, 0.3, size=game.dim_v)
        jac = jacobian_F(game, x, v, 0.7)
        ref = fd_jacobian(game, x, v, 0.7)
        assert np.linalg.norm(jac - ref) <= 1e-7 * np.linalg.norm(jac)


def test_log_jacobian_is_the_scaled_jacobian_at_a_solution():
    # where the flows equal the map's values D, J~ = diag(lam / X, I) J
    # diag(X, I): the matrix Linearization factors is the J that the
    # finite-difference test checks
    rng = np.random.default_rng(21)
    game = random_game(rng, (2, 2), 2)
    sol = solve_nls(game, SmoothEqSettings(lam=0.7, residual_tol=1e-13))
    assert sol.converged
    rows = np.concatenate([sol.lam / sol.x, np.ones(game.dim_v)])
    cols = np.concatenate([sol.x, np.ones(game.dim_v)])
    scaled = rows[:, None] * jacobian_F(game, sol.x, sol.v, sol.lam) * cols
    log_jac = log_jacobian(game, sol.x, sol.lam)
    assert np.linalg.norm(scaled - log_jac) <= 1e-10 * np.linalg.norm(log_jac)


def test_warm_start_at_solution_returns_immediately():
    game = two_node_game(0.3, 0.7)
    settings = SmoothEqSettings(lam=0.5)
    sol = solve_nls(game, settings)
    again = solve_nls(game, settings, warm_start=(sol.x, sol.v))
    assert again.converged
    assert again.iterations == 0


def _replay(game, settings, counts):
    """||F|| and ||F~|| (the log system's residual, which the line search
    and the chord rule judge) before the first iteration of solve_nls and
    after each, and what each iteration added to counts.

    The solver is deterministic, so a run capped at k iterations repeats the
    first k iterations of the uncapped run, and a run whose tolerance the
    start already meets takes none.  counts is a Counter that patched
    internals increment, and counts["state"] counts the evaluations of F~;
    iteration k added the difference between the capped runs at k and
    k - 1.
    """
    evaluate = smooth_eq._state
    states = []

    def counting_state(*args):
        counts["state"] += 1
        states.append(evaluate(*args))
        return states[-1]

    with mock.patch.object(smooth_eq, "_state", counting_state):
        sol = solve_nls(game, settings)
        caps = [replace(settings, residual_tol=1e300)]
        caps += [replace(settings, max_iters=k) for k in range(1, sol.iterations + 1)]
        norms, log_norms, added, before = [], [], [], None
        for cap in caps:
            counts.clear()
            states.clear()
            capped = solve_nls(game, cap)
            norms.append(capped.residual_norm)
            log_norms.append(next(s.norm for s in states if s.x is capped.x))
            if before is not None:
                added.append(counts - before)
            before = Counter(counts)
    assert norms[-1] == sol.residual_norm
    return sol, norms, log_norms, added


def test_solver_trace_is_monotone():
    game = two_node_game(0.3, 0.7)
    sol, norms, log_norms, _ = _replay(game, SmoothEqSettings(lam=0.2), Counter())
    assert sol.converged
    assert len(norms) >= 2
    assert all(b <= a for a, b in zip(norms, norms[1:]))
    assert all(b < a for a, b in zip(log_norms, log_norms[1:]))
    assert norms[-1] <= 1e-10


def _count_factors(monkeypatch, counts):
    factor = Linearization.__init__

    def counting_factor(self, *args):
        counts["factor"] += 1
        return factor(self, *args)

    monkeypatch.setattr(Linearization, "__init__", counting_factor)


def test_solver_assembles_one_jacobian_per_accepted_iterate(monkeypatch):
    # one factorization per iteration, however many step lengths it tries;
    # the dense J~ is assembled only on iterations that take the QR fallback.
    # All three games have C = 0, so they take the structured route, which
    # keeps no factor for chord steps
    counts = Counter()
    assemble = smooth_eq._log_jacobian

    def counting_jacobian(*args):
        counts["jacobian"] += 1
        return assemble(*args)

    _count_factors(monkeypatch, counts)
    monkeypatch.setattr(smooth_eq, "_log_jacobian", counting_jacobian)

    game = two_route_game(np.array([0.2, 0.1, 0.2, 0.7]))
    sol, norms, _, added = _replay(game, SmoothEqSettings(lam=0.01), counts)
    assert sol.converged
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert [c["factor"] for c in added] == [1] * sol.iterations
    assert [c["jacobian"] for c in added] == [0] * sol.iterations
    assert any(c["state"] > 1 for c in added)

    # J~ is singular on this game, so every iteration falls back to QR
    game, _ = solved_detached_two_cycle()
    sol, _, _, added = _replay(game, SmoothEqSettings(lam=0.2, residual_tol=1e-13), counts)
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


def test_a_chain_that_needs_the_qr_direction_converges(monkeypatch):
    # the smallest random game found whose chain needs the second direction:
    # with only the factored Newton step, the stage at lam = 1e-3 stalls with
    # residual 3.1e-5; with it the chain converges through 2^-7 and 2^-9
    graph = DirectedGraph(4, ((0, 1), (0, 2), (1, 0), (1, 3), (2, 3), (3, 1), (3, 2)))
    b = np.array(
        [0.013, 0.026, 0.072, 0.07, 0.044, 0.095, 0.047, 0.038, 0.063, 0.006, 0.027, 0.052, 0.028, 0.027]
    )
    game = AtomicRoutingGame(graph, [Player(2, 3), Player(0, 3)], CostParams(b, np.zeros((14, 14))))
    offered = Counter()
    directions = Linearization.directions

    def counting_directions(self, rhs):
        for k, step in enumerate(directions(self, rhs)):
            offered[k] += 1
            yield step

    monkeypatch.setattr(Linearization, "directions", counting_directions)
    sol = homotopy_solve(game, SmoothEqSettings(lam=1e-3))[-1]
    assert offered[1] > 0  # a second direction after a failed Newton search
    assert sol.converged and sol.lam == 1e-3
    assert sol.residual_norm <= 1e-10
    assert game.nash_gap(sol.x) <= REFERENCE_GAP_TOL


def test_dense_route_keeps_its_factor_while_chord_steps_contract(monkeypatch):
    base = build_scenario("two_player_3x3").game
    rng = np.random.default_rng(3)
    c_mat = project_D(rng.uniform(-0.5, 0.5, size=(base.pm, base.pm)), 0.5, base.m)
    game = base.with_costs(base.costs.b, c_mat)
    assert game.costs.factor is None  # rank above pm / 2: the dense-LU route
    settings = SmoothEqSettings(lam=0.01)
    counts = Counter()
    _count_factors(monkeypatch, counts)
    sol, _, log_norms, added = _replay(game, settings, counts)
    assert sol.converged
    assert sum(c["factor"] for c in added) < sol.iterations
    # an iteration that did not factor took a chord step, which must have
    # cut ||F~|| by the chord rate
    for k, c in enumerate(added, start=1):
        if c["factor"] == 0:
            assert log_norms[k] <= smooth_eq._CHORD_RATE * log_norms[k - 1]

    # without chord steps every iteration factors, and the solutions agree
    monkeypatch.setattr(smooth_eq, "_CHORD_RATE", 0.0)
    newton, _, _, added = _replay(game, settings, counts)
    assert newton.converged
    assert [c["factor"] for c in added] == [1] * newton.iterations
    assert np.max(np.abs(sol.x - newton.x)) <= 1e-8


def _four_player_solution(c_mat, lam=0.05, factor=None):
    base = build_scenario("four_player_5x5").game
    game = base.with_costs(base.costs.b, c_mat if factor is None else None, factor=factor)
    sol = homotopy_solve(game, SmoothEqSettings(lam=lam))[-1]
    assert sol.converged
    return game, sol


def _assert_structured_solves_match_dense(game, sol):
    jac = log_jacobian(game, sol.x, sol.lam)
    lin = Linearization(game, sol.x, sol.lam)
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
    u, w = game.costs.qw
    assert u.shape == w.shape == (pm, 0)
    _assert_structured_solves_match_dense(game, sol)


def test_linearization_matches_dense_solves_through_low_rank_interaction():
    base = build_scenario("four_player_5x5").game
    pm, m = base.pm, base.m
    rng = np.random.default_rng(8)
    # a member of D C = U W^T with U, W of width 7: a PSD part A A^T plus a
    # skew part a b^T - b a^T with a and b in different players' blocks, as
    # the factor Q = [U, W], M = [[0, I], [0, 0]]
    a_mat = rng.standard_normal((pm, 5))
    a, b = np.zeros(pm), np.zeros(pm)
    a[:m], b[m : 2 * m] = rng.standard_normal(m), rng.standard_normal(m)
    u, w = np.column_stack([a_mat, a, b]), np.column_stack([a_mat, b, -a])
    w *= 0.5 / np.linalg.norm(u @ w.T)
    mid = np.block([[np.zeros((7, 7)), np.eye(7)], [np.zeros((7, 14))]])
    game, sol = _four_player_solution(None, factor=(np.hstack([u, w]), mid))
    assert membership_D(game.costs.C, m, 0.5)
    assert not Linearization(game, sol.x, sol.lam).holds_dense_lu  # the Woodbury route
    _assert_structured_solves_match_dense(game, sol)


def test_linearization_matches_dense_solves_with_dense_interaction():
    base = build_scenario("four_player_5x5").game
    rng = np.random.default_rng(9)
    c_mat = project_D(rng.uniform(-0.5, 0.5, size=(base.pm, base.pm)), 0.5, base.m)
    game, sol = _four_player_solution(c_mat)
    assert game.costs.factor is None  # the dense-LU route
    _assert_structured_solves_match_dense(game, sol)


def test_linearization_solves_a_singular_jacobian_by_least_squares():
    game, sol = solved_detached_two_cycle()
    # the same graph with a full-rank C takes the dense-LU route instead
    rng = np.random.default_rng(0)
    c_mat = project_D(rng.uniform(-0.5, 0.5, size=(game.pm, game.pm)), 0.5, game.m)
    dense = game.with_costs(game.costs.b, c_mat)
    assert dense.costs.factor is None
    dense_sol = solve_nls(dense, SmoothEqSettings(lam=sol.lam, residual_tol=1e-13))
    assert dense_sol.converged
    for game, sol in ((game, sol), (dense, dense_sol)):
        jac = log_jacobian(game, sol.x, sol.lam)
        assert np.linalg.matrix_rank(jac) == jac.shape[0] - 1
        lin = Linearization(game, sol.x, sol.lam)
        rhs = np.ones(jac.shape[0])
        assert np.linalg.norm(lin.solve(rhs) - np.linalg.pinv(jac) @ rhs) <= 1e-9
        assert np.linalg.norm(lin.solve_T(rhs) - np.linalg.pinv(jac.T) @ rhs) <= 1e-9
        assert not lin.holds_dense_lu


def test_linearization_solves_through_a_singular_capacitance_by_least_squares():
    # C = u w^T outside D on the triangle, one player 0 -> 2, at x = 1 and
    # lam = 1, as the factor Q = [u, w], M = [[0, 1], [0, 0]], so that
    # W = Q M^T = [w, 0]: u = [1, -1, 1] is the cycle, so E u = 0 and the
    # first column of Z_y is u exactly, and w = -e_1 makes the first column
    # of the capacitance K = I + (X W)^T Z_y zero exactly, while every
    # Laplacian factors
    graph = DirectedGraph(3, ((0, 1), (0, 2), (1, 2)))
    q = np.array([[1.0, -1.0], [-1.0, 0.0], [1.0, 0.0]])
    costs = CostParams(-np.ones(3), factor=(q, np.array([[0.0, 1.0], [0.0, 0.0]])))
    game = AtomicRoutingGame(graph, [Player(0, 2)], costs)
    x = np.ones(3)
    jac = log_jacobian(game, x, 1.0)
    assert np.linalg.matrix_rank(jac) == 4
    lin = Linearization(game, x, 1.0)
    assert not lin.holds_dense_lu
    for rhs in (np.ones(5), np.arange(1.0, 6.0)):
        assert np.linalg.norm(lin.solve(rhs) - np.linalg.pinv(jac) @ rhs) <= 1e-12
        assert np.linalg.norm(lin.solve_T(rhs) - np.linalg.pinv(jac.T) @ rhs) <= 1e-12


def test_overflowing_start_raises():
    game = two_node_game(-300.0, 0.5)  # exponent ~ +299 at the cold start
    with pytest.raises(ExponentOverflowError):
        solve_nls(game, SmoothEqSettings(lam=1.0))
    with pytest.raises(ExponentOverflowError):
        residual_F(game, np.array([1.1, 0.1]), np.zeros(1), 1.0)


def test_no_warm_start_is_the_warm_start_zero():
    # on the two-node cycle with b = (-300, 0.5) the exponent at (0, 0) is
    # about 299 at lam = 1, so both starts cap it at EXP_LIMIT
    cycle = two_node_game(-300.0, 0.5)
    cycle = cycle.with_costs(cycle.costs.b, 0.5 * np.eye(2))
    scenarios = [(build_scenario(name).game, 0.01) for name in ("two_player_3x3", "four_player_5x5")]
    for game, lam in [*scenarios, (cycle, 1.0)]:
        settings = SmoothEqSettings(lam=lam)
        cold = solve_nls(game, settings)
        warm = solve_nls(game, settings, warm_start=(np.zeros(game.pm), np.zeros(game.dim_v)))
        assert np.array_equal(cold.x, warm.x) and np.array_equal(cold.v, warm.v)
        assert cold.iterations == warm.iterations and cold.residual_norm == warm.residual_norm


def test_a_laplacian_whose_inverse_overflows_is_singular():
    # Flows of 1e-320 keep every pivot of the player's Laplacian nonzero,
    # but its inverse overflows: the solves are least-squares solutions, and
    # no product with the inverse warns
    graph = DirectedGraph(5, ((0, 4), (1, 4), (2, 3), (3, 1), (4, 1), (4, 2)))
    b = np.array([1.0, 1.0, 1.0, 0.5, 0.875, 0.375])
    game = AtomicRoutingGame(graph, [Player(0, 2)], CostParams(b, np.zeros((6, 6))))
    x = np.array([1.0, 0.0, 1e-320, 1e-320, 1e-200, 1.0])
    jac = log_jacobian(game, x, 1e-3)
    rhs = np.arange(1.0, jac.shape[0] + 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lin = Linearization(game, x, 1e-3)
        for a, z in ((jac, lin.solve(rhs)), (jac.T, lin.solve_T(rhs))):
            ref = np.linalg.pinv(a) @ rhs
            assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)
        # the continuation reaches such flows at lam = 1e-3; it converges or
        # stops with a typed error, never a warning
        try:
            sol = homotopy_solve(game, SmoothEqSettings(lam=1e-3, residual_tol=1e-13))[-1]
        except NumericalError:
            return
    assert sol.converged


def test_residual_and_jacobian_are_exact_up_to_the_exponent_limit():
    # exponents 99 and 149 at lam = 1, (x, v) = (x, 0): far past where the
    # map's value stays near the flows, but within EXP_LIMIT
    game = two_node_game(-100.0, -150.0)
    x, v = np.array([1.1, 0.1]), np.zeros(1)
    ex = np.exp([99.0, 149.0])
    assert np.array_equal(residual_F(game, x, v, 1.0)[:2], x - ex)
    assert np.array_equal(jacobian_F(game, x, v, 1.0)[:2, 2], -ex * game.e_blk[0])


def test_unconverged_solution_is_flagged():
    game = two_node_game(0.3, 0.7)
    sol = solve_nls(game, SmoothEqSettings(lam=0.01, max_iters=1))
    assert not sol.converged
    assert sol.iterations == 1


def test_strict_continuation_names_the_stalled_stage(monkeypatch):
    game = two_node_game(0.3, 0.7)
    settings = SmoothEqSettings(lam=0.5, residual_tol=1e-15, max_iters=1)
    calls = []
    real_solve = smooth_eq.solve_nls

    def spy_solve(game, settings, warm_start=None):
        calls.append((settings.lam, warm_start is None))
        return real_solve(game, settings, warm_start)

    monkeypatch.setattr(smooth_eq, "solve_nls", spy_solve)
    # the cold chain from max(1, lam) stalls at its first stage and is not retried
    with pytest.raises(NotConvergedError, match="lam=1 "):
        homotopy_solve(game, settings)
    assert calls == [(1.0, True)]
    # a chain from a start that stalls is retried once by that cold chain
    calls.clear()
    with pytest.raises(NotConvergedError, match="lam=1 "):
        homotopy_solve(game, settings, start_at(*cold_start(game, settings.lam), settings.lam))
    assert calls == [(0.5, False), (1.0, True)]


@pytest.mark.parametrize("lam", [0.01, 1e-5])
def test_continuation_returns_stage_list(lam):
    # at 1e-5 Newton contracts fast enough at every stage that r squares to
    # 2^-8 after 2^-7, and the stage at 2^-15 overflows at its start
    # (exponent 255): the halving retry re-solves at 2^-8, and the chain
    # reaches 1e-5 by 2^-10 and 2^-14
    game = two_node_game(0.3, 0.7)
    stages = homotopy_solve(game, SmoothEqSettings(lam=lam))
    assert_schedule([s.lam for s in stages], 1.0, lam)
    assert all(isinstance(s, EquilibriumSolution) and s.converged for s in stages)
    for sol in stages:
        assert np.allclose(sol.x, two_node_oracle(0.3, 0.7, sol.lam)[0], atol=1e-8)


def test_overflowing_warm_start_falls_back_to_continuation():
    b1, b2 = 0.3, 0.7
    game = two_node_game(b1, b2)
    warm = (np.array([1.1, 0.1]), np.array([500.0]))  # exponent ~ +499 at lam=1
    with pytest.raises(ExponentOverflowError):
        solve_nls(game, SmoothEqSettings(lam=1.0), warm_start=warm)
    settings = SmoothEqSettings(lam=1.0)
    sol = homotopy_solve(game, settings, start_at(*warm, settings.lam))[-1]
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
    sol = homotopy_solve(game, settings, start_at(*warm, settings.lam))[-1]
    assert sol.converged
    assert sol.lam == 0.003
    chain = homotopy_solve(game, settings)
    assert np.array_equal(sol.x, chain[-1].x)


def test_a_non_finite_warm_start_is_rejected_not_retried(monkeypatch):
    game = build_scenario("two_player_3x3").game
    settings = SmoothEqSettings(lam=0.01)
    sol = homotopy_solve(game, settings)[-1]
    calls = []
    real_solve = smooth_eq.solve_nls

    def spy_solve(game, settings, warm_start=None):
        calls.append(warm_start is None)
        return real_solve(game, settings, warm_start)

    monkeypatch.setattr(smooth_eq, "solve_nls", spy_solve)
    x_nan, x_inf = sol.x.copy(), sol.x.copy()
    x_nan[3], x_inf[3] = np.nan, np.inf
    v_nan = np.full(game.dim_v, np.nan)
    for x, v in ((np.full(game.pm, 0.5), v_nan), (x_inf, sol.v), (x_nan, sol.v)):
        with pytest.raises(ValueError, match="warm start must be finite"):
            real_solve(game, settings, warm_start=(x, v))
        calls.clear()
        with pytest.raises(ValueError, match="warm start must be finite"):
            homotopy_solve(game, settings, start_at(x, v, settings.lam))
        # one attempt from the start, no cold retry
        assert calls == [False]


def test_one_way_game_with_starved_nodes_solves():
    links = ((0, 2), (0, 5), (1, 3), (2, 1), (2, 4), (2, 5), (3, 0), (3, 5), (4, 1), (5, 1))
    b = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.25, 0.5, 0.5])
    game = AtomicRoutingGame(
        DirectedGraph(6, links), [Player(3, 0)], CostParams(b, np.zeros((10, 10)))
    )
    sol = homotopy_solve(game, SmoothEqSettings(lam=0.1))[-1]
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
