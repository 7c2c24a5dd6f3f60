"""Game container, cost parameters, equilibrium residuals, and JSON format."""

import json

import numpy as np
import pytest

from helpers import dual_slack, equals, kkt_residual, player_objective, pwl_residual, random_game
from routedesign.errors import InfeasibleFlowError, NegativeCycleError, UnreachableError
from routedesign.game import (
    AtomicRoutingGame,
    CostParams,
    Player,
    game_from_dict,
    game_to_dict,
    load_game_file,
    membership_D,
)
from routedesign.graph import DirectedGraph, grid_graph, shortest_path_cost
from routedesign.sensitivity import path_to_target


def line_game(b, c=None):
    """Single player shipping 0 -> 1 on the two-node graph."""
    g = DirectedGraph(2, ((0, 1), (1, 0)))
    b = np.asarray(b, dtype=float)
    c_mat = np.zeros((2, 2)) if c is None else np.asarray(c, dtype=float)
    return AtomicRoutingGame(g, [Player(0, 1)], CostParams(b, c_mat))


def test_cost_params_validate_shapes():
    with pytest.raises(ValueError):
        CostParams(np.ones(3), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        CostParams(np.ones((2, 2)), np.zeros((2, 2)))


def test_cost_params_are_immutable():
    params = CostParams(np.ones(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        params.b[0] = 5.0
    with pytest.raises(ValueError):
        params.C[0, 0] = 5.0


def test_game_constructor_validation():
    g = grid_graph(1, 2)
    costs = CostParams(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        AtomicRoutingGame(g, [], costs)
    with pytest.raises(ValueError):
        AtomicRoutingGame(g, [Player(0, 0)], costs)
    with pytest.raises(ValueError):
        AtomicRoutingGame(g, [Player(0, 7)], costs)
    with pytest.raises(ValueError):
        AtomicRoutingGame(g, [Player(0, 1)], costs, rho=-1.0)
    with pytest.raises(ValueError):
        AtomicRoutingGame(g, [Player(0, 1), Player(1, 0)], costs)  # b too short
    one_way = DirectedGraph(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    costs4 = CostParams(np.zeros(4), np.zeros((4, 4)))
    AtomicRoutingGame(one_way, [Player(0, 3)], costs4)  # every link is on a path
    with pytest.raises(UnreachableError, match="player 0: no path from node 3 to node 0"):
        AtomicRoutingGame(one_way, [Player(3, 0)], costs4)
    costs8 = CostParams(np.zeros(8), np.zeros((8, 8)))
    with pytest.raises(UnreachableError, match=r"player 1: .*\[\(0, 2\), \(1, 3\), \(2, 3\)\]"):
        AtomicRoutingGame(one_way, [Player(0, 3), Player(0, 1)], costs8)  # only (0, 1) leads to node 1


def test_dimensions_and_slices():
    game = random_game(np.random.default_rng(0), (2, 2), 2)
    assert game.pm == 2 * game.m
    assert game.dim_v == 2 * (game.n - 1)
    assert game.e_blk.shape == (game.dim_v, game.pm)
    x = np.arange(game.pm, dtype=float)
    for i in range(game.p):
        sl = game.player_slice(i)
        assert np.array_equal(game.player_flow(x, i), x[sl])
    with pytest.raises(ValueError):
        game.player_slice(2)


def test_marginal_cost_matches_direct_formula():
    rng = np.random.default_rng(3)
    game = random_game(rng, (2, 2), 2)
    x = rng.uniform(0.0, 1.0, size=game.pm)
    full = game.costs.b + game.costs.C @ x
    for i in range(game.p):
        assert np.allclose(game.marginal_cost(x, i), full[game.player_slice(i)])


def test_player_objective_matches_blockwise_sum():
    rng = np.random.default_rng(4)
    game = random_game(rng, (2, 2), 2)
    x = rng.uniform(0.0, 1.0, size=game.pm)
    m = game.m
    for i in range(game.p):
        x_i = x[i * m : (i + 1) * m]
        cost = game.costs.b[i * m : (i + 1) * m].copy()
        for j in range(game.p):
            block = game.costs.C[i * m : (i + 1) * m, j * m : (j + 1) * m]
            x_j = x[j * m : (j + 1) * m]
            cost += (0.5 if j == i else 1.0) * (block @ x_j)
        assert player_objective(game, x, i) == pytest.approx(float(cost @ x_i), rel=1e-12)


def test_residuals_vanish_at_hand_built_equilibrium():
    # all demand takes the cheap forward link; v prices it exactly
    game = line_game([0.3, 0.7])
    x = np.array([1.0, 0.0])
    v = np.array([0.3])
    u = dual_slack(game, x, v)
    assert np.allclose(u, [0.0, 1.0])
    assert kkt_residual(game, x, u, v) == 0.0
    assert pwl_residual(game, x, v) == 0.0
    assert game.nash_gap(x) == 0.0


def test_residuals_flag_violations():
    game = line_game([0.3, 0.7])
    x = np.array([1.0, 0.0])
    v = np.array([0.3])
    bad_u = np.array([0.5, 1.0])  # breaks both matching and complementarity
    assert kkt_residual(game, x, bad_u, v) >= 0.5
    assert kkt_residual(game, np.array([-1.0, -2.0]), bad_u, v) >= 1.0
    assert pwl_residual(game, np.array([0.5, 0.0]), v) > 0.4


def test_nash_gap_on_forced_detour():
    g = grid_graph(3, 3)
    game = AtomicRoutingGame(
        g, [Player(0, 8)], CostParams(np.ones(g.m), np.zeros((g.m, g.m)))
    )
    detour = path_to_target(game, [[g.link_index[e] for e in
                                    [(0, 1), (1, 2), (2, 5), (5, 4), (4, 7), (7, 8)]]])
    # six unit-cost links against a best response of four
    assert game.nash_gap(detour) == 2.0


def test_nash_gap_nonnegative_on_random_interior_points():
    rng = np.random.default_rng(6)
    for k in range(10):
        game = random_game(rng, (2, 2), 1 + k % 2)
        paths = np.concatenate(
            [shortest_path_cost(game.graph, np.ones(game.m), p.origin, p.destination)[1]
             for p in game.players]
        )
        for eps in (0.02, 0.5):
            assert game.nash_gap(paths + eps) >= 0.0


def test_nash_gap_rejects_infeasible_flow():
    game = line_game([0.3, 0.7])
    with pytest.raises(InfeasibleFlowError):
        game.nash_gap(np.zeros(2))


def test_nash_gap_unbounded_under_negative_cycle():
    game = line_game([-1.0, 0.2])
    x = np.array([1.2, 0.2])  # feasible: the cycle part cancels
    with pytest.raises(NegativeCycleError):
        game.nash_gap(x)


def test_membership_of_interaction_set():
    assert membership_D(np.zeros((4, 4)), 2, 0.5)
    assert not membership_D(np.eye(4), 2, 0.5)  # norm 2 > rho
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert membership_D(skew, 1, 2.0)  # skew cross-coupling is admissible
    shear = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert not membership_D(shear, 1, 5.0)  # C + C^T indefinite
    lopsided = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not membership_D(lopsided, 2, 5.0)  # own block not symmetric
    with pytest.raises(ValueError):
        membership_D(np.zeros((3, 3)), 2, 0.5)


def test_with_costs_keeps_structure():
    rng = np.random.default_rng(7)
    game = random_game(rng, (1, 3), 2)
    b2 = rng.uniform(size=game.pm)
    c2 = np.zeros((game.pm, game.pm))
    other = game.with_costs(b2, c2, rho=0.9)
    assert other.graph == game.graph
    assert other.players == game.players
    assert other.rho == 0.9
    assert np.array_equal(other.costs.b, b2)
    assert not equals(other, game)
    assert equals(game, game.with_costs(game.costs.b, game.costs.C))


def test_json_roundtrip_uses_one_based_indices():
    game = random_game(np.random.default_rng(8), (2, 2), 2, rho=0.4)
    doc = game_to_dict(game)
    assert min(min(link) for link in doc["graph"]["links"]) == 1
    assert all(p["origin"] >= 1 and p["destination"] >= 1 for p in doc["players"])
    back = game_from_dict(doc)
    assert equals(back, game)


def test_game_from_dict_rejects_malformed_documents():
    with pytest.raises(ValueError):
        game_from_dict([1, 2, 3])
    with pytest.raises(ValueError):
        game_from_dict({"graph": {"n": 2, "links": [[1, 2]]}})  # players missing


def test_load_game_file_with_desired_paths(tmp_path):
    game = random_game(np.random.default_rng(9), (1, 3), 1)
    doc = game_to_dict(game)
    doc["desired_paths"] = [[1, 2, 3]]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded, desired = load_game_file(path)
    assert equals(loaded, game)
    assert desired == [[0, 1, 2]]

    doc["desired_paths"] = [[1, 2, 3], [3, 2, 1]]  # wrong player count
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError):
        load_game_file(path)
