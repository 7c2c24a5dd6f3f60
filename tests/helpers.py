"""Shared oracles for the test suite.

Everything here recomputes equilibria by routes independent of the production
solver: the first-order (KKT) and piecewise-linear equilibrium residuals, an
active-set polish that pivots on sign violations, a stall-tolerant
continuation used only to seed that polish, and a central-difference Jacobian.
Tests compare solver output against these, never against the solver itself.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from routedesign.design import project_D
from routedesign.game import AtomicRoutingGame, CostParams, Player
from routedesign.graph import DirectedGraph, grid_graph
from routedesign.numerics import lstsq
from routedesign.smooth_eq import (
    HomotopySchedule,
    SmoothEqSettings,
    residual_F,
    solve_nls,
)


def random_game(rng, shape, p, rho=0.3):
    """Random small-grid game: offsets in [0, 1], interactions projected onto
    the admissible set so the smoothed system stays monotone."""
    graph = grid_graph(*shape)
    players = []
    for _ in range(p):
        o, d = rng.choice(graph.n, size=2, replace=False)
        players.append(Player(int(o), int(d)))
    pm = p * graph.m
    b = rng.uniform(0.0, 1.0, size=pm)
    c_mat = project_D(rng.uniform(-0.5, 0.5, size=(pm, pm)), rho, graph.m)
    return AtomicRoutingGame(graph, players, CostParams(b, c_mat), rho=rho)


def player_objective(game, x, i):
    """Cost paid by player i: (b_i + 0.5 C_ii x_i + sum_{j != i} C_ij x_j) . x_i."""
    x = np.asarray(x, dtype=float)
    if x.shape != (game.pm,):
        raise ValueError("flow length must be p*m")
    sl = game.player_slice(i)
    x_i = x[sl]
    own = game.costs.C[sl, sl] @ x_i
    cross = (game.costs.C @ x)[sl] - own
    return float((game.costs.b[sl] + 0.5 * own + cross) @ x_i)


def dual_slack(game, x, v):
    """Stationarity slack b + C x - E^T v implied by the multipliers v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != (game.pm,) or v.shape != (game.dim_v,):
        raise ValueError("bad flow or multiplier length")
    return game.costs.b + game.costs.C @ x - game.e_blk.T @ v


def kkt_residual(game, x, u, v):
    """Max-norm violation of the first-order equilibrium conditions.

    Zero exactly when x is feasible, u matches the stationarity slack,
    both are nonnegative, and u . x = 0.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.shape != (game.pm,):
        raise ValueError("slack length must be p*m")
    slack = dual_slack(game, x, v)
    return float(
        max(
            game.conservation_violation(x),
            np.max(np.abs(u - slack)),
            abs(float(u @ x)),
            max(0.0, float(np.max(-x))),
            max(0.0, float(np.max(-u))),
        )
    )


def pwl_residual(game, x, v):
    """Max-norm residual of the piecewise-linear equilibrium reformulation.

    Measures x - max(0, x + E^T v - b - C x) together with conservation;
    vanishing at exactly the same (x, v) pairs as kkt_residual.
    """
    x = np.asarray(x, dtype=float)
    inner = x - dual_slack(game, x, v)
    fixed_point_gap = x - np.maximum(0.0, inner)
    return float(
        max(game.conservation_violation(x), np.max(np.abs(fixed_point_gap)))
    )


def equals(game, other):
    return (
        game.graph == other.graph
        and game.players == other.players
        and game.rho == other.rho
        and np.array_equal(game.costs.b, other.costs.b)
        and np.array_equal(game.costs.C, other.costs.C)
    )


def pivot_polish(game, x, cutoff=1e-8, rounds=60):
    """Exact-equilibrium candidate from a smoothed flow's support.

    Restricted to the guessed support, stationarity plus conservation is a
    square-ish linear system; solve it, then pivot: links that went negative
    leave the support, links whose slack went negative enter.  Returns (x, v)
    only when every sign condition and conservation hold tightly, else None.
    """
    e_blk = game.e_blk
    c_mat = game.costs.C
    b = game.costs.b
    n_dual = e_blk.shape[0]
    support = x > cutoff
    for _ in range(rounds):
        if not support.any():
            return None
        k = int(support.sum())
        a_top = np.hstack([e_blk[:, support], np.zeros((n_dual, n_dual))])
        a_bot = np.hstack([c_mat[np.ix_(support, support)], -e_blk[:, support].T])
        a = np.vstack([a_top, a_bot])
        rhs = np.concatenate([game.s, -b[support]])
        z = lstsq(a, rhs)
        x_pol = np.zeros(x.size)
        x_pol[support] = z[:k]
        v_pol = z[k:]
        u = b + c_mat @ x_pol - e_blk.T @ v_pol
        drop = support & (x_pol < -1e-12)
        add = ~support & (u < -1e-12)
        if not drop.any() and not add.any():
            if np.abs(u[support]).max() > 1e-10:
                return None
            # lstsq can satisfy the signs while the pruned support no longer
            # connects some origin to its destination; reject those too.
            if game.conservation_violation(x_pol) > 1e-10:
                return None
            return np.maximum(x_pol, 0.0), v_pol
        support = (support & ~drop) | add
    return None


def tolerant_chain(game, lam_min, lam_start=0.25):
    """Continuation that carries the best iterate through mid-stage stalls.

    Only used to seed pivot_polish; the acceptance of the polished point does
    not depend on any stage having converged.
    """
    settings = SmoothEqSettings(lam=lam_min)
    carry = None
    sol = None
    for lam in HomotopySchedule(lam_start, 0.5, lam_min).stages():
        sol = solve_nls(game, replace(settings, lam=lam), warm_start=carry)
        carry = (sol.x, sol.v)
    return sol


def certified_vertex(game):
    """Unregularized-equilibrium oracle: polish from progressively smaller
    entropy weights until the active set settles.  Returns (x, v) or None."""
    sol = solve_nls(game, SmoothEqSettings(lam=0.05))
    pair = pivot_polish(game, sol.x) if sol.converged else None
    if pair is None:
        pair = pivot_polish(game, tolerant_chain(game, 0.01).x)
    if pair is None:
        pair = pivot_polish(game, tolerant_chain(game, 1e-3).x, cutoff=1e-6)
    return pair


def fd_jacobian(game, x, v, lam, h=1e-6):
    """Central finite differences of the smoothed residual."""
    pm, dv = game.pm, game.dim_v
    dim = pm + dv
    jac = np.zeros((dim, dim))
    z0 = np.concatenate([x, v])
    for j in range(dim):
        zp = z0.copy()
        zp[j] += h
        zm = z0.copy()
        zm[j] -= h
        fp = residual_F(game, zp[:pm], zp[pm:], lam)
        fm = residual_F(game, zm[:pm], zm[pm:], lam)
        jac[:, j] = (fp - fm) / (2 * h)
    return jac


def two_route_game(b, rho=0.5):
    """One player, two disjoint 2-link routes from node 0 to node 3.

    Route A uses links 0 and 2 (over node 1), route B links 1 and 3 (over
    node 2).  With C = 0 the smoothed split has a closed form, see
    logit_split.
    """
    graph = DirectedGraph(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    b = np.asarray(b, dtype=float)
    costs = CostParams(b, np.zeros((4, 4)))
    return AtomicRoutingGame(graph, [Player(0, 3)], costs, rho=rho)


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


def logit_split(cost_a, cost_b, lam):
    """Route-A share of the smoothed equilibrium on two 2-link routes.

    Stationarity on each link gives lam*(ln r + 1) = v_tail - v_head - b_l;
    summing along a route telescopes the multipliers, so the shares obey
    r_a / r_b = exp((cost_b - cost_a) / (2 lam)) with r_a + r_b = 1.
    """
    return 1.0 / (1.0 + np.exp((cost_a - cost_b) / (2.0 * lam)))
