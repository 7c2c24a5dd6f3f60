"""Implicit gradients through the smoothed equilibrium, and design targets."""

import numpy as np
import pytest

from helpers import solved_detached_two_cycle
from routedesign.errors import BrokenPathError
from routedesign.game import AtomicRoutingGame, CostParams, Player, path_to_target
from routedesign.graph import DirectedGraph
from routedesign.scenarios import SCENARIOS, build_scenario
from routedesign.sensitivity import DesignObjective, implicit_gradients, tracking_objective
from routedesign.smooth_eq import SmoothEqSettings, homotopy_solve, solve_nls


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


def test_gradient_vanishes_when_target_is_met():
    game, sol = solved_two_node()
    grad_b = implicit_gradients(game, sol, tracking_objective(sol.x))
    assert np.array_equal(grad_b, np.zeros(2))


def test_gradient_matches_resolve_finite_differences():
    # tight inner tolerance: the FD quotient divides solver noise by 2e-6
    cases = [
        (solved_two_node(residual_tol=1e-13), [0.8, 0.2]),
        (solved_detached_two_cycle(), [0.0, 1.0, 0.0, 1.0, 0.0, 0.0]),
    ]
    h = 1e-6
    for (game, sol), target in cases:
        obj = tracking_objective(np.array(target))
        grad_b = implicit_gradients(game, sol, obj)
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
            assert grad_b[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_gradient_matches_the_direct_transpose_solve():
    # D and J straight from the residual's definition,
    # F = [x - exp((E^T v - b - C x) / lam - 1);  s - E x],
    # so this oracle shares no code with the gradient
    game, sol = solved_two_node()
    obj = tracking_objective(np.array([0.5, 0.5]))
    grad_b = implicit_gradients(game, sol, obj)
    e, c_mat, lam = game.e_blk, game.costs.C, sol.lam
    d = np.exp((e.T @ sol.v - game.costs.b - c_mat @ sol.x) / lam - 1.0)
    jac = np.block(
        [
            [np.eye(game.pm) + d[:, None] * c_mat / lam, -d[:, None] * e.T / lam],
            [-e, np.zeros((game.dim_v, game.dim_v))],
        ]
    )
    rhs = np.concatenate([obj.gradient(sol.x), np.zeros(game.dim_v)])
    z = np.linalg.solve(jac.T, rhs)
    via_exact = -(d * z[: game.pm]) / lam
    assert np.allclose(grad_b, via_exact, atol=1e-9)


def test_gradient_on_underflowing_flows_stays_at_their_scale():
    # One player from node 2 to node 1 over the path 2-3-5-1; node 0 hangs
    # off it by links 1 -> 0 and 0 -> 2, flows near 1e-110, and the
    # two-cycle 0 <-> 4 (links 1 and 5) carries flows near 1e-44, while the
    # multipliers of nodes 0 and 4 pass 1e100 in the gradient's solve.  At
    # C = 0 the exact gradient is -D^1/2 P D^1/2 grad_psi / lam with P an
    # orthogonal projector, so |grad_b_l| <= sqrt(x_l) ||X^1/2 grad_psi|| / lam.
    # On the two-cycle this holds only if X multiplies E^T b after E^T b is
    # formed: x_l b_0 - x_l b_4 loses the difference b_0 - b_4, and the
    # gradient there came out near 1e50.  (Elsewhere the solve is too
    # ill-conditioned to match the exact gradient, which is about 0.)
    graph = DirectedGraph(6, ((0, 2), (0, 4), (1, 0), (2, 3), (3, 5), (4, 0), (5, 1)))
    game = AtomicRoutingGame(graph, [Player(2, 1)], CostParams(np.ones(7), np.zeros((7, 7))))
    sol = homotopy_solve(game, SmoothEqSettings(lam=0.01, residual_tol=1e-13))[-1]
    cycle = [1, 5]
    assert sol.converged and np.all(sol.x[cycle] < 1e-40)
    obj = tracking_objective(np.random.default_rng(0).uniform(0.0, 1.0, game.pm))
    grad_b = implicit_gradients(game, sol, obj)
    assert np.all(np.isfinite(grad_b))
    root = np.sqrt(sol.x)
    bound = root * np.linalg.norm(root * obj.gradient(sol.x)) / sol.lam
    assert np.all(np.abs(grad_b[cycle]) <= bound[cycle])


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
    target = path_to_target(game, sc.desired_node_paths)
    assert target.shape == (game.pm,)
    assert set(np.unique(target)) == {0.0, 1.0}
    assert target.sum() == 8.0  # two four-link detours
    # the link paths the benchmark's set-up builds name exactly these links
    for i, links in enumerate(sc.desired_link_paths()):
        assert np.flatnonzero(target[game.player_slice(i)]).tolist() == sorted(links)
        hops = list(zip(sc.desired_node_paths[i], sc.desired_node_paths[i][1:]))
        assert [game.graph.links[j] for j in links] == hops


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_paths_are_feasible_unit_flows(name):
    sc = build_scenario(name)
    for paths in (sc.desired_node_paths, sc.original_node_paths):
        target = path_to_target(sc.game, paths)
        assert set(np.unique(target)) == {0.0, 1.0}
        assert target.sum() == sum(len(path) - 1 for path in paths)
        assert sc.game.conservation_violation(target) == 0.0


def test_path_to_target_error_cases():
    # the library's messages name nodes 0-based, as its paths do
    game = build_scenario("two_player_3x3").game
    detour_1 = (5, 8, 7, 6, 3)
    for paths, message in (
        ([(3, 0, 1, 2, 5)], "need one desired path per player, got 1 for 2"),
        ([(3, 0, 1, 2, 5), (5,)], "player 1: a desired path needs at least two nodes"),
        (
            [(3, 0, 2, 5), detour_1],
            "player 0: desired path [3, 0, 2, 5] has no link from node 0 to node 2",
        ),
        (
            [(3, 0, 1, 2, 5), (3, 0, 1, 2, 5)],
            "player 1: desired path [3, 0, 1, 2, 5] runs from node 3 to node 5, not 5 to 3",
        ),
        ([(3, 4, 3, 4, 5), detour_1], "player 0: desired path [3, 4, 3, 4, 5] uses a link twice"),
    ):
        with pytest.raises(BrokenPathError) as info:
            path_to_target(game, paths)
        assert str(info.value) == message
