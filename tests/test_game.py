"""Game container, cost parameters, equilibrium residuals, and JSON format."""

import json
import re
import warnings

import numpy as np
import orjson
import pytest

from helpers import dual_slack, equals, kkt_residual, player_objective, pwl_residual, random_game
import routedesign.game as game_mod
from routedesign.errors import (
    BrokenPathError,
    InfeasibleFlowError,
    NegativeCycleError,
    UnreachableError,
)
from routedesign.game import (
    AtomicRoutingGame,
    CostParams,
    Player,
    c_from_factor,
    game_from_dict,
    game_to_dict,
    load_game_file,
    membership_D,
    path_to_target,
    write_game_file,
)
from routedesign.graph import DirectedGraph, grid_graph, shortest_path_cost
from routedesign.scenarios import build_scenario
from routedesign.smooth_eq import SmoothEqSettings, _exponent, homotopy_solve


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
        AtomicRoutingGame(g, [Player(0, 1)], costs, rho=float("nan"))
    with pytest.raises(ValueError):
        CostParams(np.zeros(2), np.array([[0.0, np.inf], [0.0, 0.0]]))
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
    detour = path_to_target(game, [[0, 1, 2, 5, 4, 7, 8]])
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
    with pytest.raises(ValueError, match="multiple of block_size"):
        membership_D(np.zeros((3, 3)), 2, 0.5)
    with pytest.raises(ValueError, match="C must be square"):
        membership_D(np.zeros((2, 3)), 1, 0.5)
    with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
        membership_D(5.0 * np.eye(2), 1, float("nan"))


def test_with_costs_keeps_structure():
    rng = np.random.default_rng(7)
    game = random_game(rng, (1, 3), 2)
    costs, rho = game.costs, game.rho
    b2 = rng.uniform(size=game.pm)
    c2 = np.zeros((game.pm, game.pm))
    other = game.with_costs(b2, c2, rho=0.9)
    assert other.graph == game.graph
    assert other.players == game.players
    assert other.rho == 0.9
    assert np.array_equal(other.costs.b, b2)
    assert not equals(other, game)
    assert equals(game, game.with_costs(game.costs.b, game.costs.C))
    # the structure is shared, not rebuilt, and matches a fresh game's
    fresh = AtomicRoutingGame(game.graph, game.players, CostParams(b2, c2), 0.9)
    for name in ("reduced", "s", "e_blk"):
        assert getattr(other, name) is getattr(game, name)
        assert np.array_equal(getattr(other, name), getattr(fresh, name))
    # the new costs are checked as the constructor checks them
    with pytest.raises(ValueError, match=f"b must have length {game.pm}"):
        game.with_costs(b2[1:], c2[1:, 1:])
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            game.with_costs(b2, c2, rho=bad)
    # the costs' factor: the empty one for C = 0, None for a C handed without
    # a factor, and the factor it was handed, from which C is formed
    assert other.costs.factor[0].shape == (game.pm, 0)
    c3 = np.outer(b2, b2)
    assert game.with_costs(b2, c3).costs.factor is None
    factored = game.with_costs(b2, factor=(b2[:, None], np.ones((1, 1))))
    q, mid = factored.costs.factor
    assert np.array_equal(q, b2[:, None]) and np.array_equal(mid, np.ones((1, 1)))
    assert np.array_equal(factored.costs.C, c3)
    # the game it was built from keeps its costs
    assert game.costs is costs and game.rho == rho


def test_json_roundtrip_uses_one_based_indices():
    game = random_game(np.random.default_rng(8), (2, 2), 2, rho=0.4)
    doc = game_to_dict(game)
    assert min(min(link) for link in doc["graph"]["links"]) == 1
    assert all(p["origin"] >= 1 and p["destination"] >= 1 for p in doc["players"])
    back = game_from_dict(doc)
    assert equals(back, game)


def _floats(doc):
    """Every float in a parsed JSON document, in document order."""
    if isinstance(doc, dict):
        return [f for value in doc.values() for f in _floats(value)]
    if isinstance(doc, list):
        return [f for value in doc for f in _floats(value)]
    return [doc] if isinstance(doc, float) else []


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _check_written_json(raw: bytes) -> dict:
    """The document in raw, after checking that raw is orjson's two-space
    layout of it with a final newline, that Python's json reads every float
    in it to the same double as orjson, and that it holds no null, NaN or
    Infinity token."""
    doc = orjson.loads(raw)
    assert raw == orjson.dumps(doc, option=orjson.OPT_INDENT_2) + b"\n"
    stdlib = json.loads(raw)
    assert stdlib == doc
    assert np.array_equal(_bits(_floats(stdlib)), _bits(_floats(doc)))
    assert re.search(rb"null|NaN|Infinity", raw) is None
    return doc


@pytest.mark.parametrize("with_paths", [True, False])
def test_write_game_file_writes_a_dense_c_as_orjson_indent_2(tmp_path, with_paths):
    sc = build_scenario("two_player_3x3")
    rng = np.random.default_rng(21)
    c_mat = rng.standard_normal((sc.game.pm, sc.game.pm)) * np.logspace(-300, 300, sc.game.pm)
    c_mat[0, :4] = [0.0, -0.0, 5e-324, 1.0]
    game = sc.game.with_costs(sc.game.costs.b + 1e-17, c_mat, rho=0.3)
    paths = sc.desired_node_paths if with_paths else None
    path = tmp_path / "dense.json"
    write_game_file(path, game, paths)
    doc = _check_written_json(path.read_bytes())
    expected = game_to_dict(game)
    if with_paths:
        expected["desired_paths"] = [[node + 1 for node in nodes] for nodes in paths]
    assert list(doc) == list(expected) and doc == expected
    assert np.array_equal(_bits(doc["C"]), _bits(game.costs.C))
    assert np.array_equal(_bits(doc["b"]), _bits(game.costs.b))
    back, back_paths = load_game_file(path)
    assert np.array_equal(back.costs.C, game.costs.C)
    assert np.array_equal(np.signbit(back.costs.C), np.signbit(game.costs.C))
    assert np.array_equal(back.costs.b, game.costs.b) and back.rho == game.rho
    assert back_paths == ([list(nodes) for nodes in paths] if with_paths else None)


def _extreme_factor(pm, k, rng):
    """(Q, M) holding 0.0, -0.0, 5e-324 and +-1e+-300 with a finite Q M Q^T."""
    q = rng.standard_normal((pm, k))
    mid = rng.standard_normal((k, k))
    q[0, 1:5] = [0.0, -0.0, 5e-324, 1e-300]
    q[1, 1] = -1e-300
    mid[2, 1:5] = [0.0, -0.0, 5e-324, -1e-300]
    mid[3, 4], mid[4, 3] = 1e300, -1e300
    # a column of Q at 1e300 meets an M whose row and column 0 are 1e-300
    mid[0, :], mid[:, 0] = 0.0, 0.0
    mid[0, 0] = 1e-300
    q[2, 0], q[3, 0] = 1e300, -1e300
    return q, mid


@pytest.mark.parametrize("with_paths", [True, False])
def test_write_game_file_writes_a_factored_c_as_orjson_indent_2(tmp_path, with_paths):
    sc = build_scenario("two_player_3x3")
    q, mid = _extreme_factor(sc.game.pm, 6, np.random.default_rng(22))
    c_mat = c_from_factor(q, mid)
    assert np.all(np.isfinite(c_mat))
    game = sc.game.with_costs(sc.game.costs.b + 1e-17, rho=0.3, factor=(q, mid))
    paths = sc.desired_node_paths if with_paths else None
    path = tmp_path / "factored.json"
    write_game_file(path, game, paths)
    doc = _check_written_json(path.read_bytes())
    assert "C" not in doc and list(doc)[3] == "C_factor"
    for name, written in (("Q", q), ("M", mid)):
        assert np.array_equal(doc["C_factor"][name], written)
        assert np.array_equal(np.signbit(doc["C_factor"][name]), np.signbit(written))
        assert np.array_equal(_bits(doc["C_factor"][name]), _bits(written))
    back, back_paths = load_game_file(path)
    assert np.array_equal(back.costs.C, c_mat)
    assert np.array_equal(np.signbit(back.costs.C), np.signbit(c_mat))
    assert np.array_equal(back.costs.b, game.costs.b) and back.rho == game.rho
    assert back_paths == ([list(nodes) for nodes in paths] if with_paths else None)
    u, w = back.costs.qw
    assert np.array_equal(u, q) and np.array_equal(np.signbit(u), np.signbit(q))
    assert np.array_equal(w, q @ mid.T)


def test_a_width_zero_factor_round_trips_as_c_zero(tmp_path):
    game = build_scenario("two_player_3x3").game
    q, mid = np.zeros((game.pm, 0)), np.zeros((0, 0))
    path = tmp_path / "factored.json"
    write_game_file(path, game.with_costs(game.costs.b, factor=(q, mid)))
    assert _check_written_json(path.read_bytes())["C_factor"] == {"Q": [[]] * game.pm, "M": []}
    back, _ = load_game_file(path)
    assert np.array_equal(back.costs.C, np.zeros((game.pm, game.pm)))
    assert [a.shape for a in back.costs.qw] == [(game.pm, 0), (game.pm, 0)]


@pytest.mark.parametrize(("where", "value"), [("Q", np.inf), ("Q", -np.inf), ("M", np.nan), ("M", np.inf)])
def test_cost_params_reject_a_non_finite_factor(where, value):
    # checked before Q M Q^T is formed, where inf * 0 would warn; orjson
    # would write the entry as null
    game = build_scenario("two_player_3x3").game
    q, mid = np.eye(game.pm)[:, :2], np.zeros((2, 2))
    (q if where == "Q" else mid)[1, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^C_factor entries must be finite$"):
            CostParams(game.costs.b, factor=(q, mid))


def test_cost_params_form_c_from_the_factor_they_check(monkeypatch):
    # a factor is checked before any product is formed, and costs hold
    # exactly one of a dense C and a factor, so no game holds a factor that
    # is not its C's
    sc = build_scenario("four_player_5x5")
    pm, b = sc.game.pm, sc.game.costs.b
    q = np.linalg.qr(np.random.default_rng(34).standard_normal((pm, 4)))[0]
    mid = 0.05 * np.eye(4)
    monkeypatch.setattr(game_mod, "c_from_factor", lambda *args: pytest.fail("formed C"))
    for factor, message in (
        ((q, np.zeros((pm, 3))), f"C_factor.M must be 4 x 4, got shape ({pm}, 3)"),
        ((q[:-1], mid), f"C_factor.Q must be {pm} x k, got shape ({pm - 1}, 4)"),
        ((q[0], mid), f"C_factor.Q must be {pm} x k, got shape (4,)"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CostParams(b, factor=factor)
    # nor is C formed by building costs from a valid factor, or by C x
    factored = sc.game.with_costs(b, factor=(q, mid))
    factored.costs.c_times(np.ones(pm))
    monkeypatch.undo()
    c_mat = c_from_factor(q, mid)
    for c, factor in ((c_mat, (q, np.zeros((pm, 3)))), (c_mat, (q, -q @ mid.T)), (None, None)):
        with pytest.raises(ValueError, match="^costs need exactly one of C and factor$"):
            sc.game.with_costs(b, c, factor=factor)
    # C is formed on its first read, once, bit for bit as c_from_factor forms it
    assert np.array_equal(_bits(factored.costs.C), _bits(c_mat))
    assert factored.costs.C is factored.costs.C
    assert not factored.costs.C.flags.writeable
    assert factored.costs.qw is factored.costs.qw  # formed once
    assert np.array_equal(factored.costs.qw[1], q @ mid.T)


def test_a_factor_whose_c_overflows_is_rejected():
    # finite Q and M whose product Q M Q^T is not finite
    q, mid = np.full((2, 1), 1e160), np.ones((1, 1))
    with pytest.raises(ValueError, match="^cost entries must be finite$"):
        CostParams(np.zeros(2), factor=(q, mid))


def test_factored_costs_give_the_dense_products(monkeypatch):
    # C x goes through the factor: the smoothed map's exponent, the marginal
    # costs and the Nash gap of a factored game agree with those of the same
    # C held dense, away from an equilibrium, and none of them forms C
    sc = build_scenario("four_player_5x5")
    pm = sc.game.pm
    rng = np.random.default_rng(36)
    q = np.linalg.qr(rng.standard_normal((pm, 6)))[0]
    low = rng.standard_normal((6, 6))
    mid = 0.05 * low @ low.T + 0.02 * (low - low.T)
    factored = sc.game.with_costs(sc.game.costs.b, factor=(q, mid))
    dense = sc.game.with_costs(sc.game.costs.b, c_from_factor(q, mid))
    assert dense.costs.factor is None
    lam = 0.05
    sol = homotopy_solve(dense, SmoothEqSettings(lam=lam))[-1]

    def products(game):
        return (
            _exponent(game, sol.x, sol.v, lam),
            np.concatenate([game.marginal_cost(sol.x, i) for i in range(game.p)]),
            np.array([game.nash_gap(sol.x)]),
        )

    want = products(dense)
    monkeypatch.setattr(game_mod, "c_from_factor", lambda *args: pytest.fail("formed C"))
    got = products(factored)
    assert want[2][0] > 1e-3  # not an equilibrium
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)


def _factored_document():
    """_line_document with C as the factor Q = I, M = 0."""
    doc = _line_document()
    del doc["C"]
    doc["C_factor"] = {"Q": [[1.0, 0.0], [0.0, 1.0]], "M": [[0.0, 0.0], [0.0, 0.0]]}
    return doc


def test_a_factored_document_loads_its_factor(tmp_path):
    doc = _factored_document()
    doc["C_factor"]["M"] = [[0.5, 0.0], [-0.25, 0.5]]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    game, _ = load_game_file(path)
    assert np.array_equal(game.costs.C, [[0.5, 0.0], [-0.25, 0.5]])
    u, w = game.costs.qw
    assert np.array_equal(u, np.eye(2)) and np.array_equal(w, [[0.5, -0.25], [0.0, 0.5]])


@pytest.mark.parametrize(
    ("change", "message"),
    [
        ({"C": [[0.0, 0.0], [0.0, 0.0]]}, "needs exactly one of 'C' and 'C_factor', got ['C', 'C_factor']"),
        ({"C_factor": None}, "needs exactly one of 'C' and 'C_factor', got neither"),
        ({"C_factor": [[1.0]]}, "C_factor must be an object with keys 'Q' and 'M'"),
        ({"C_factor": {"Q": [[1.0], [0.0]]}}, "C_factor must be an object with keys 'Q' and 'M'"),
        ({"Q": [[1.0, 0.0]]}, "C_factor.Q must be 2 x k, got shape (1, 2)"),
        ({"Q": [1.0, 0.0]}, "C_factor.Q must be 2 x k, got shape (2,)"),
        ({"M": [[0.0, 0.0]]}, "C_factor.M must be 2 x 2, got shape (1, 2)"),
        ({"M": []}, "C_factor.M must be 2 x 2, got shape (0, 0)"),
        ({"Q": [["1", "0"], ["0", "1"]]}, "C_factor.Q: strings are not numbers"),
        ({"Q": [[1.0, 0.0], [0.0, "1"]]}, "C_factor.Q: strings are not numbers"),
        ({"M": [[False, False], [False, False]]}, "C_factor.M: booleans are not numbers"),
        ({"M": [[0.0, 0.0], [0.0, "0"]]}, "C_factor.M: strings are not numbers"),
    ],
)
def test_game_files_reject_malformed_factors(tmp_path, change, message):
    doc = _factored_document()
    for key, value in change.items():
        if key in ("Q", "M"):
            doc["C_factor"][key] = value
        elif value is None:
            del doc[key]
        else:
            doc[key] = value
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^malformed game document: {re.escape(message)}$"):
        load_game_file(path)


@pytest.mark.parametrize(
    "change",
    [{"M": [[0.0, 0.0], [0.0, float("nan")]]}, {"Q": [[1.0, 0.0], [0.0, float("inf")]]}],
)
def test_game_from_dict_rejects_non_finite_factors(change):
    # a game file cannot carry these (see test_game_files_are_rfc_8259_json),
    # a document built in Python can
    doc = _factored_document()
    doc["C_factor"].update(change)
    with pytest.raises(ValueError, match="^malformed game document: C_factor entries must be finite$"):
        game_from_dict(doc)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("where", ["b", "C", "Q", "M"])
def test_game_files_are_rfc_8259_json(tmp_path, where, token):
    # json.dump writes a non-finite float as NaN, Infinity or -Infinity,
    # which JSON lacks; 1e400 is JSON but no double
    doc = _line_document() if where in ("b", "C") else _factored_document()
    marker = 12345.5
    if where == "b":
        doc["b"][1] = marker
    else:
        (doc["C"] if where == "C" else doc["C_factor"][where])[1][0] = marker
    text = json.dumps(doc)
    assert text.count(str(marker)) == 1
    path = tmp_path / "game.json"
    path.write_text(text.replace(str(marker), token), encoding="utf-8")
    with pytest.raises(ValueError, match="^game file is not JSON: "):
        load_game_file(path)


def test_game_files_with_a_byte_order_mark_are_not_json(tmp_path):
    path = tmp_path / "game.json"
    text = json.dumps(_line_document())
    path.write_bytes(text.encode("utf-8"))
    load_game_file(path)
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    with pytest.raises(ValueError, match="^game file is not JSON: "):
        load_game_file(path)


def test_game_from_dict_rejects_malformed_documents():
    with pytest.raises(ValueError):
        game_from_dict([1, 2, 3])
    with pytest.raises(ValueError):
        game_from_dict({"graph": {"n": 2, "links": [[1, 2]]}})  # players missing


def _line_document():
    """Game document: one player 1 -> 2 on the two-node graph, 1-based."""
    return {
        "graph": {"n": 2, "links": [[1, 2], [2, 1]]},
        "players": [{"origin": 1, "destination": 2}],
        "b": [0.1, 0.1],
        "C": [[0.0, 0.0], [0.0, 0.0]],
        "rho": 0.5,
        "desired_paths": [[1, 2]],
    }


@pytest.mark.parametrize("value", [1.6, 2.9, True, "1"])
@pytest.mark.parametrize(
    ("where", "field"),
    [
        (("graph", "n"), "n"),
        (("graph", "links", 0, 0), "links"),
        (("players", 0, "origin"), "origin"),
        (("players", 0, "destination"), "destination"),
        (("desired_paths", 0, 0), "desired_paths"),
    ],
)
def test_game_files_reject_node_indices_that_are_not_integers(tmp_path, where, field, value):
    # int() would truncate the floats and convert the bool and the string
    doc = _line_document()
    *parents, key = where
    owner = doc
    for parent in parents:
        owner = owner[parent]
    owner[key] = value
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{field}: expected an integer, got {value!r}$"):
        load_game_file(path)


@pytest.mark.parametrize(
    ("key", "value", "reason"),
    [
        ("b", ["0.1", "0.1"], "strings"),
        ("b", [0.1, "0.1"], "strings"),
        ("C", [["0", "0"], ["0", "0"]], "strings"),
        ("C", [[0.0, 0.0], [0.0, "0"]], "strings"),
        ("rho", "0.5", "strings"),
        ("b", [True, False], "booleans"),
        ("C", [[False, False], [False, False]], "booleans"),
        ("rho", True, "booleans"),
    ],
)
def test_game_files_reject_costs_that_are_not_numbers(tmp_path, key, value, reason):
    # float() would convert every one of these strings and booleans
    doc = _line_document()
    doc[key] = value
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = f"^malformed game document: {key}: {reason} are not numbers$"
    with pytest.raises(ValueError, match=message):
        load_game_file(path)


def test_game_files_reject_links_out_of_sorted_order(tmp_path):
    # b and C follow the file's link order, so sorting the links would
    # give each cost to another link
    doc = _line_document()
    doc["graph"]["links"] = [[2, 1], [1, 2]]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="links must be sorted lexicographically"):
        load_game_file(path)


@pytest.mark.parametrize(
    ("player", "field", "value"),
    [(Player(0.5, 1), "origin", 0.5), (Player(0, True), "destination", True)],
)
def test_game_rejects_player_ends_that_are_not_integers(player, field, value):
    costs = CostParams(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=f"^{field}: expected an integer, got {value!r}$"):
        AtomicRoutingGame(DirectedGraph(2, ((0, 1), (1, 0))), [player], costs)


def test_a_game_of_numpy_integer_players_round_trips(tmp_path):
    costs = CostParams(np.array([0.3, 0.7]), np.zeros((2, 2)))
    game = AtomicRoutingGame(
        DirectedGraph(2, ((0, 1), (1, 0))), [Player(np.int64(0), np.int64(1))], costs
    )
    assert all(type(end) is int for player in game.players for end in (player.origin, player.destination))
    path = tmp_path / "game.json"
    write_game_file(path, game)
    back, _ = load_game_file(path)
    assert equals(back, game)


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
    with pytest.raises(BrokenPathError) as info:
        load_game_file(path)
    assert str(info.value) == "need one desired path per player, got 2 for 1"


@pytest.mark.parametrize(
    ("nodes", "message"),
    [
        ([2, 4], "runs from node 2 to node 4, not 1 to 4"),
        ([1, 3], "runs from node 1 to node 3, not 1 to 4"),
        ([1, 2, 1, 2, 4], "uses a link twice"),
        ([1, 4], "has no link from node 1 to node 4"),
    ],
)
def test_load_game_file_checks_desired_paths_in_file_terms(tmp_path, nodes, message):
    # one player from node 1 to node 4 (1-based) round the cycle 1-2-4-3-1,
    # linked both ways
    links = ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))
    game = AtomicRoutingGame(
        DirectedGraph(4, links), [Player(0, 3)], CostParams(np.ones(8), np.zeros((8, 8)))
    )
    doc = game_to_dict(game)
    doc["desired_paths"] = [nodes]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(BrokenPathError) as info:
        load_game_file(path)
    assert str(info.value) == f"player 0: desired path {nodes} {message}"
