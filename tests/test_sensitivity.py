"""Implicit gradients through the smoothed equilibrium and target building."""

import numpy as np
import pytest

from helpers import random_game
from routedesign.errors import BrokenPathError
from routedesign.game import AtomicRoutingGame, CostParams, Player
from routedesign.graph import DirectedGraph
from routedesign.scenarios import build_scenario
from routedesign.sensitivity import (
    DesignObjective,
    equilibrium_diag,
    implicit_gradients,
    path_to_target,
    tracking_objective,
)
from routedesign.smooth_eq import SmoothEqSettings, jacobian_F, solve_nls


def solved_two_node(lam=0.5, residual_tol=1e-10):
    g = DirectedGraph(2, ((0, 1), (1, 0)))
    game = AtomicRoutingGame(
        g, [Player(0, 1)], CostParams(np.array([0.3, 0.7]), np.zeros((2, 2)))
    )
    sol = solve_nls(game, SmoothEqSettings(lam=lam, residual_tol=residual_tol))
    assert sol.converged
    return game, sol


def test_tracking_objective_values_and_gradient():
    obj = tracking_objective(np.array([1.0, 0.0]))
    assert obj.evaluate(np.array([1.0, 0.0])) == 0.0
    assert obj.evaluate(np.array([0.0, 0.0])) == 0.5
    assert np.array_equal(obj.gradient(np.array([2.0, 3.0])), [1.0, 3.0])
    with pytest.raises(ValueError):
        obj.evaluate(np.zeros(3))
    with pytest.raises(ValueError):
        tracking_objective(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        obj.target[0] = 9.0


def test_equilibrium_diag_equals_flow_at_solution():
    game, sol = solved_two_node()
    assert np.allclose(equilibrium_diag(game, sol), sol.x, atol=1e-9)


def test_gradient_vanishes_when_target_is_met():
    game, sol = solved_two_node()
    grads = implicit_gradients(game, sol, tracking_objective(sol.x))
    assert np.array_equal(grads.grad_b, np.zeros(2))
    assert np.array_equal(grads.grad_C, np.zeros((2, 2)))


def solved_detached_two_cycle(lam=0.2, residual_tol=1e-13):
    # Links 3->4 and 4->3 form a two-cycle no player path reaches: shifting
    # both of its node multipliers together leaves F unchanged, so J is
    # exactly singular (rank 9 of 10), and an LU transpose solve gives NaN.
    g = DirectedGraph(5, ((0, 1), (0, 2), (1, 0), (2, 1), (3, 4), (4, 3)))
    b = np.array([0.3, 0.1, 0.2, 0.1, 0.2, 0.2])
    game = AtomicRoutingGame(g, [Player(0, 1)], CostParams(b, np.zeros((6, 6))))
    sol = solve_nls(game, SmoothEqSettings(lam=lam, residual_tol=residual_tol))
    assert sol.converged
    return game, sol


def test_gradient_matches_resolve_finite_differences():
    # tight inner tolerance: the FD quotient divides solver noise by 2e-6
    cases = [
        (solved_two_node(residual_tol=1e-13), [0.8, 0.2]),
        (solved_detached_two_cycle(), [0.0, 1.0, 0.0, 1.0, 0.0, 0.0]),
    ]
    h = 1e-6
    for (game, sol), target in cases:
        obj = tracking_objective(np.array(target))
        grads = implicit_gradients(game, sol, obj)
        settings = SmoothEqSettings(lam=sol.lam, residual_tol=1e-13)
        for k in range(game.pm):
            vals = []
            for sign in (1.0, -1.0):
                b = game.costs.b.copy()
                b[k] += sign * h
                shifted = solve_nls(
                    game.with_costs(b, game.costs.C), settings, warm_start=(sol.x, sol.v)
                )
                assert shifted.converged
                vals.append(obj.evaluate(shifted.x))
            fd = (vals[0] - vals[1]) / (2 * h)
            assert grads.grad_b[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_grad_C_is_the_exact_outer_product():
    rng = np.random.default_rng(12)
    game = random_game(rng, (1, 3), 2)
    sol = solve_nls(game, SmoothEqSettings(lam=0.5))
    assert sol.converged
    grads = implicit_gradients(game, sol, tracking_objective(rng.uniform(size=game.pm)))
    assert np.array_equal(grads.grad_C, np.outer(grads.grad_b, sol.x))


def test_gradient_matches_the_direct_transpose_solve():
    game, sol = solved_two_node()
    obj = tracking_objective(np.array([0.5, 0.5]))
    via_lstsq = implicit_gradients(game, sol, obj)
    jac = jacobian_F(game, sol.x, sol.v, sol.lam)
    rhs = np.concatenate([obj.gradient(sol.x), np.zeros(game.dim_v)])
    z = np.linalg.solve(jac.T, rhs)
    via_exact = -(equilibrium_diag(game, sol) * z[: game.pm]) / sol.lam
    assert np.allclose(via_lstsq.grad_b, via_exact, atol=1e-9)


def test_objective_gradient_shape_is_validated():
    game, sol = solved_two_node()
    bad = DesignObjective(
        target=np.zeros(2),
        evaluate=lambda x: 0.0,
        gradient=lambda x: np.zeros(5),
    )
    with pytest.raises(ValueError):
        implicit_gradients(game, sol, bad)


def test_path_to_target_marks_desired_links():
    sc = build_scenario("two_player_3x3")
    game = sc.game
    paths = sc.desired_link_paths()
    target = path_to_target(game, paths)
    assert target.shape == (game.pm,)
    assert set(np.unique(target)) == {0.0, 1.0}
    assert target.sum() == 8.0  # two four-link detours
    for i, path in enumerate(paths):
        sl = game.player_slice(i)
        assert np.flatnonzero(target[sl]).tolist() == sorted(path)
    # a valid target is itself a feasible joint flow
    assert game.conservation_violation(target) == 0.0


def test_path_to_target_error_cases():
    sc = build_scenario("two_player_3x3")
    game = sc.game
    good = sc.desired_link_paths()
    with pytest.raises(BrokenPathError):
        path_to_target(game, good[:1])  # one path missing
    with pytest.raises(BrokenPathError):
        path_to_target(game, [good[0], []])
    with pytest.raises(BrokenPathError):
        path_to_target(game, [good[0], good[0]])  # wrong endpoints for player 1
    with pytest.raises(BrokenPathError):
        path_to_target(game, [good[0] + good[0], good[1]])  # repeated links
    with pytest.raises(BrokenPathError):
        path_to_target(game, [[999] + good[0], good[1]])
