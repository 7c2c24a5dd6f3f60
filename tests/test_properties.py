"""Property tests on random small digraphs, many of them partly one-way,
and on the projection onto the admissible interaction set.

The precondition oracle is a linear program, independent of the graph search
the game constructor uses: a player admits a strictly positive feasible flow
exactly when max t subject to E x = r, x >= t, 0 <= t <= 1 is positive.
"""

import json
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from helpers import dykstra_project_D, equals
from hypothesis import given, settings
from hypothesis import strategies as st

from routedesign import smooth_eq
from routedesign.design import project_D
from routedesign.errors import NumericalError, UnreachableError
from routedesign.game import (
    AtomicRoutingGame,
    CostParams,
    Player,
    game_from_dict,
    game_to_dict,
    membership_D,
)
from routedesign.graph import DirectedGraph, incidence_matrix, od_vectors
from routedesign.smooth_eq import (
    EquilibriumSolution,
    Linearization,
    SmoothEqSettings,
    cold_start,
    jacobian_F,
    residual_F,
    solve_equilibrium,
    solve_nls,
)


@st.composite
def random_games(draw):
    """(graph, players, b, C): each node pair is unlinked, one-way either
    way, or linked both ways.  Offsets in [0.2, 1] dominate interactions of
    Frobenius norm at most 0.05, so marginal costs stay positive and the
    gap stays finite."""
    n = draw(st.integers(2, 6))
    links = []
    for a in range(n):
        for c in range(a + 1, n):
            kind = draw(st.sampled_from(("none", "forward", "backward", "both")))
            if kind in ("forward", "both"):
                links.append((a, c))
            if kind in ("backward", "both"):
                links.append((c, a))
    graph = DirectedGraph(n, tuple(sorted(links)))
    nodes = st.integers(0, n - 1)
    pairs = st.tuples(nodes, nodes).filter(lambda od: od[0] != od[1])
    players = [Player(o, d) for o, d in draw(st.lists(pairs, min_size=1, max_size=2))]
    pm = len(players) * graph.m
    b = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=pm, max_size=pm)))
    c_mat = np.zeros((pm, pm))
    if pm and draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        c_mat = project_D(rng.uniform(-0.5, 0.5, size=(pm, pm)), 0.05, graph.m)
    return graph, players, b, c_mat


def positive_flow_exists(graph, origin, destination):
    m = graph.m
    if m == 0:
        return False
    r, _ = od_vectors(graph, origin, destination)
    res = scipy.optimize.linprog(
        c=np.r_[np.zeros(m), -1.0],
        A_ub=np.hstack([-np.eye(m), np.ones((m, 1))]),
        b_ub=np.zeros(m),
        A_eq=np.hstack([incidence_matrix(graph), np.zeros((graph.n, 1))]),
        b_eq=r,
        bounds=[(0.0, None)] * m + [(0.0, 1.0)],
    )
    return res.status == 0 and -res.fun > 1e-9


def assert_structured_step_is_dense_lu_step(game, x, v, lam):
    jac = jacobian_F(game, x, v, lam)
    rhs = -residual_F(game, x, v, lam)
    step = Linearization(game, x, v, lam).solve(rhs)
    # where J is near singular the two LU factorizations need not agree;
    # elsewhere they agree to about cond(J) * eps
    if np.linalg.cond(jac) <= 1e6:
        dense = np.linalg.solve(jac, rhs)
        assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(random_games(), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_random_digraph_games_solve_or_are_rejected(case, rho, seed):
    graph, players, b, c_mat = case
    costs = CostParams(b, c_mat)
    if not all(positive_flow_exists(graph, p.origin, p.destination) for p in players):
        with pytest.raises(UnreachableError):
            AtomicRoutingGame(graph, players, costs)
        return
    game = AtomicRoutingGame(graph, players, costs)
    assert equals(game, game_from_dict(json.loads(json.dumps(game_to_dict(game)))))
    rng = np.random.default_rng(seed)
    pm = game.pm
    solutions = {}
    for lam in (0.1, 0.01):
        settings_lam = SmoothEqSettings(lam=lam)
        sol = solve_equilibrium(game, settings_lam)
        assert sol.converged, f"lam={lam}"
        assert game.conservation_violation(sol.x) <= 1e-8
        assert game.nash_gap(sol.x) >= 0.0
        solutions[lam] = sol
        # C is monotone, so the smoothed equilibrium is unique: Newton from
        # the cold start and from a random strictly positive flow, when both
        # converge, reach the same x
        cold = solve_nls(game, settings_lam, cold_start(game, lam))
        other = solve_nls(game, settings_lam, (rng.uniform(0.01, 1.0, pm), np.zeros(game.dim_v)))
        if cold.converged and other.converged:
            assert np.max(np.abs(other.x - cold.x)) <= 1e-8, f"lam={lam}"
    # the structured Newton step at the lam = 0.1 solution, under a random
    # admissible C of any rank up to full (Frobenius norm rho <= 0.5), is the
    # dense-LU step: rank <= pm/2 takes the Woodbury route, higher the dense one
    rank = int(rng.integers(0, pm + 1))
    factors = rng.standard_normal((pm, rank)) @ rng.standard_normal((rank, pm))
    coupled = game.with_costs(b, project_D(factors, rho, game.m))
    sol = solutions[0.1]
    assert_structured_step_is_dense_lu_step(coupled, sol.x, sol.v, 0.1)


def admissible_point(rng, block_size, blocks, radius):
    """A member of D built directly: a PSD symmetric part plus a skew part
    with zero diagonal blocks, scaled to Frobenius norm radius."""
    n = block_size * blocks
    a = rng.standard_normal((n, n))
    skew = rng.standard_normal((n, n))
    skew -= skew.T
    for i in range(blocks):
        sl = slice(i * block_size, (i + 1) * block_size)
        skew[sl, sl] = 0.0
    y = a @ a.T + skew
    return y * (radius / np.linalg.norm(y))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    st.integers(1, 6),
    st.integers(1, 4),
    st.floats(0.0, 2.0),
    st.floats(1e-2, 1e2),
    st.floats(0.1, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_project_D_is_the_projection_onto_D(block_size, blocks, rho, scale, share, seed):
    rng = np.random.default_rng(seed)
    n = block_size * blocks
    x = scale * rng.uniform(-1.0, 1.0, size=(n, n))
    out = project_D(x, rho, block_size)
    assert membership_D(out, block_size, rho)
    assert np.linalg.norm(project_D(out, rho, block_size) - out) <= 1e-10
    oracle = dykstra_project_D(x, rho, block_size, tol=1e-13, max_sweeps=1000)
    assert np.linalg.norm(out - oracle) <= 1e-9
    # variational inequality of the projection onto a closed convex set:
    # <x - P(x), y - P(x)> <= 0 for every y in D, checked at a member built
    # directly
    y = admissible_point(rng, block_size, blocks, share * rho)
    assert np.sum((x - out) * (y - out)) <= 1e-9 * np.linalg.norm(x) * np.linalg.norm(y)
    # and at 0 and rho P(x) / |P(x)|, members of D on the ray of P(x), which
    # catch a P(x) scaled along that ray (D is a cone cut by a ball about 0)
    size = np.linalg.norm(out)
    for y in (np.zeros_like(out), out * (rho / size) if size > 0.0 else out):
        assert np.sum((x - out) * (y - out)) <= 1e-9 * np.linalg.norm(x) * size


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(random_games(), st.floats(0.01, 0.5), st.integers(0, 2**32 - 1))
def test_chord_steps_reach_the_newton_solution_on_dense_interactions(case, rho, seed):
    graph, players, b, c_mat = case
    try:
        game = AtomicRoutingGame(graph, players, CostParams(b, c_mat))
    except UnreachableError:
        return  # rejections are the random-digraph test's business
    # full rank, so above pm / 2: the dense-LU route, where chord steps run
    c_mat = admissible_point(np.random.default_rng(seed), game.m, game.p, rho)
    game = game.with_costs(b, c_mat)
    assert game.cost_factor is None
    for lam in (0.1, 0.01):
        settings_lam = SmoothEqSettings(lam=lam)
        outcomes = []
        for rate in (smooth_eq._CHORD_RATE, 0.0):  # 0: refactor every iteration
            with mock.patch.object(smooth_eq, "_CHORD_RATE", rate):
                try:
                    outcomes.append(solve_equilibrium(game, settings_lam))
                except NumericalError as exc:
                    outcomes.append(type(exc))
        chord, newton = outcomes
        if not isinstance(newton, EquilibriumSolution):
            assert chord is newton, f"lam={lam}"
            continue
        assert isinstance(chord, EquilibriumSolution), f"lam={lam}"
        assert chord.residual_norm <= settings_lam.residual_tol
        assert np.max(np.abs(chord.x - newton.x)) <= 1e-8, f"lam={lam}"
