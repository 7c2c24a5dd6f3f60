"""Property tests on random small digraphs, many of them partly one-way.

The precondition oracle is a linear program, independent of the graph search
the game constructor uses: a player admits a strictly positive feasible flow
exactly when max t subject to E x = r, x >= t, 0 <= t <= 1 is positive.
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from routedesign.design import project_D
from routedesign.errors import UnreachableError
from routedesign.game import AtomicRoutingGame, CostParams, Player
from routedesign.graph import DirectedGraph, incidence_matrix, od_vectors
from routedesign.smooth_eq import (
    Linearization,
    SmoothEqSettings,
    jacobian_F,
    residual_F,
    solve_equilibrium,
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
        assert step is not None
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
    solutions = {}
    for lam in (0.1, 0.01):
        sol = solve_equilibrium(game, SmoothEqSettings(lam=lam))
        assert sol.converged, f"lam={lam}"
        assert game.conservation_violation(sol.x) <= 1e-8
        assert game.nash_gap(sol.x) >= 0.0
        solutions[lam] = sol
    # the structured Newton step at the lam = 0.1 solution, under a random
    # admissible C of any rank up to full (Frobenius norm rho <= 0.5), is the
    # dense-LU step: rank <= pm/2 takes the Woodbury route, higher the dense one
    rng = np.random.default_rng(seed)
    pm = game.pm
    rank = int(rng.integers(0, pm + 1))
    factors = rng.standard_normal((pm, rank)) @ rng.standard_normal((rank, pm))
    coupled = game.with_costs(b, project_D(factors, rho, game.m))
    sol = solutions[0.1]
    assert_structured_step_is_dense_lu_step(coupled, sol.x, sol.v, 0.1)
