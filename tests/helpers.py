"""Shared oracles for the test suite.

Everything here recomputes equilibria by routes independent of the production
solver: the first-order (KKT) and piecewise-linear equilibrium residuals, an
active-set polish that pivots on sign violations, a stall-tolerant
continuation used only to seed that polish, the continuation by fixed
halvings of the entropy weight, a central-difference Jacobian, the
smoothed system's Jacobian J in the flows (jacobian_F), the log system's
Jacobian from its definition, and Newton's method with dense solves on the
smoothed system in the flows themselves, where the production solver works
in log flows.  The admissible-set projection is recomputed on dense
matrices in one pass (project_D) and by Dykstra's alternating scheme.
Tests compare solver output against these, never against the solver itself.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import scipy.linalg.lapack
import scipy.sparse

from routedesign import smooth_eq
from routedesign.design import _project_ball, _project_monotone
from routedesign.errors import ExponentOverflowError, NotConvergedError, NumericalError
from routedesign.game import AtomicRoutingGame, CostParams, Player
from routedesign.graph import DirectedGraph, grid_graph
from routedesign.numerics import lstsq
from routedesign.smooth_eq import (
    EXP_LIMIT,
    LOW_RANK_SHARE,
    EquilibriumSolution,
    SmoothEqSettings,
    _check_exponent,
    _exponent,
    residual_F,
    solve_nls,
)


def csgraph(g, weights):
    """g as a SciPy sparse matrix of link weights, for the scipy.sparse.csgraph
    path oracles; a zero weight stays a link, as an explicit zero."""
    rows = [t for t, _ in g.links]
    cols = [h for _, h in g.links]
    return scipy.sparse.csr_matrix((weights, (rows, cols)), shape=(g.n, g.n))


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


def project_diag_blocks(c, block_size):
    out = c.copy()
    for i in range(c.shape[0] // block_size):
        sl = slice(i * block_size, (i + 1) * block_size)
        out[sl, sl] = 0.5 * (c[sl, sl] + c[sl, sl].T)
    return out


def project_D(C, rho, block_size):
    """Projection onto the admissible interaction set in Frobenius norm, as
    one pass of the three exact sub-projections on a dense C: the one-pass
    rule design._step_factored applies in the coordinates of its basis.

    One pass suffices: the block constraint acts only on the skew part of C
    and the monotone constraint only on the orthogonal symmetric part, and
    scaling a cone's projection into a ball centred at 0 projects onto cone
    and ball together.
    """
    c = np.asarray(C, dtype=float)
    return _project_ball(_project_monotone(project_diag_blocks(c, block_size)), rho)


def dykstra_project_D(C, rho, block_size, tol, max_sweeps):
    """Projection onto the admissible interaction set by Dykstra's scheme.

    Alternating the three exact sub-projections with Dykstra's corrections
    converges to the projection onto their intersection whatever the sets
    are (Boyle & Dykstra, 1986), so this checks the one-pass rule of
    project_D and design._step_factored.
    Sweeps stop when successive iterates differ by at most tol; hitting the
    sweep cap returns the last iterate and warns.
    """
    y = np.asarray(C, dtype=float).copy()
    corr_blocks = np.zeros_like(y)
    corr_psd = np.zeros_like(y)
    corr_ball = np.zeros_like(y)
    prev = y.copy()
    converged = False
    for _ in range(max_sweeps):
        z = project_diag_blocks(y + corr_blocks, block_size)
        corr_blocks = y + corr_blocks - z
        y = z
        z = _project_monotone(y + corr_psd)
        corr_psd = y + corr_psd - z
        y = z
        z = _project_ball(y + corr_ball, rho)
        corr_ball = y + corr_ball - z
        y = z
        if np.linalg.norm(y - prev) <= tol:
            converged = True
            break
        prev = y.copy()
    if not converged:
        warnings.warn("projection sweeps hit the cap before converging", RuntimeWarning)
    return y


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
    lam = max(lam_start, lam_min)
    sol = solve_nls(game, replace(settings, lam=lam))
    while lam > lam_min:
        lam = max(lam / 2.0, lam_min)
        sol = solve_nls(game, replace(settings, lam=lam), warm_start=(sol.x, sol.v))
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


def cold_start(game, lam):
    """solve_nls's start without a warm start, as flows: v = 0 and x the
    exponential map at (x, v) = 0, its exponent capped at EXP_LIMIT, so that
    an out-of-range start overflows at its first residual rather than here."""
    zero_x, zero_v = np.zeros(game.pm), np.zeros(game.dim_v)
    return np.exp(np.minimum(_exponent(game, zero_x, zero_v, lam), EXP_LIMIT)), zero_v


def start_at(x, v, lam):
    """A homotopy_solve start at (x, v) and weight lam, not itself a solution."""
    return EquilibriumSolution(x, v, np.inf, lam, 0, False)


def halving_chain(game, settings, start=None):
    """smooth_eq.homotopy_solve's interface and start rule with a fixed
    schedule: the chain solves at max(start.lam, settings.lam) from start, or
    at max(1, settings.lam) from the cold start, then halves the weight down
    to exactly settings.lam, each stage by solve_nls from the one before.  A
    stalled stage raises NotConvergedError; a chain from a start that raises
    a NumericalError is replaced once by the cold chain.  Returns the stages.
    """
    carry = None if start is None else (start.x, start.v)
    lam = max(1.0 if start is None else start.lam, settings.lam)
    stages = []
    try:
        while True:
            sol = solve_nls(game, replace(settings, lam=lam), warm_start=carry)
            if not sol.converged:
                raise NotConvergedError(f"halving stage at lam={lam:g} stalled")
            stages.append(sol)
            if lam <= settings.lam:
                return stages
            carry = (sol.x, sol.v)
            lam = max(0.5 * lam, settings.lam)
    except NumericalError:
        if start is None:
            raise
        return halving_chain(game, settings)


def assert_schedule(lams, first, target):
    """The weights of a chain's stages strictly decrease from first to
    exactly target, each by at least a halving or by the clamp to target."""
    assert lams[0] == first
    assert lams[-1] == target
    for a, b in zip(lams, lams[1:]):
        assert b < a
        assert b <= 0.5 * a or b == target


def x_space_solve_nls(game, settings, warm_start=None):
    """smooth_eq.solve_nls's interface and rules, with Newton on
    F(x, v) = residual_F itself rather than on the log system.

    Starts from warm_start, else cold_start.  Each iteration solves
    J [dx; dv] = -F with J = jacobian_F at (x, v) by a dense LU, or by
    least squares where J is singular, and tries those directions with the
    Armijo line search on ||F||.  On a game the solver factors densely (C
    without a factor or with one wider than pm * LOW_RANK_SHARE), an
    iteration that cut ||F|| by smooth_eq._CHORD_RATE keeps its LU for a
    chord step.  Trial points whose exponent overflows fail.  Flows are not
    kept positive: x - exp(g) is F's first block.

    Raises:
        ExponentOverflowError: the starting point itself overflows.
    """
    lam = settings.lam
    factor = game.costs.factor
    chords = factor is None or factor[0].shape[1] > LOW_RANK_SHARE * game.pm
    x, v = (np.array(part, dtype=float) for part in warm_start or cold_start(game, lam))
    resid = residual_F(game, x, v, lam)
    norm = float(np.linalg.norm(resid))
    iterations = 0
    lu = None
    while norm > settings.residual_tol and iterations < settings.max_iters:
        iterations += 1
        found = None
        if lu is not None:
            found = _x_trial(game, lam, x, v, _lu_solve(lu, -resid), 1.0)
            if found is not None and found[3] > smooth_eq._CHORD_RATE * norm:
                found = None
        if found is None:
            jac = jacobian_F(game, x, v, lam)
            lu = scipy.linalg.lapack.dgetrf(jac)
            step = _lu_solve(lu, -resid)
            if step is not None:
                found = _x_line_search(game, lam, x, v, norm, step)
            if found is None:  # J singular, or the search failed
                lu = None
                found = _x_line_search(game, lam, x, v, norm, lstsq(jac, -resid))
        if found is None:
            break
        if found[3] > smooth_eq._CHORD_RATE * norm or not chords:
            lu = None
        x, v, resid, norm = found
    return EquilibriumSolution(x, v, norm, lam, iterations, norm <= settings.residual_tol)


def _lu_solve(factor, rhs):
    # the solution from dgetrf's factor; None where it met a zero pivot or
    # is not finite
    lu, piv, info = factor
    if info != 0:
        return None
    step = scipy.linalg.lapack.dgetrs(lu, piv, rhs)[0]
    return step if np.all(np.isfinite(step)) else None


def _x_line_search(game, lam, x, v, norm, step):
    t = 1.0
    for _ in range(smooth_eq._MAX_HALVINGS + 1):
        found = _x_trial(game, lam, x, v, step, t)
        if found is not None and found[3] <= (1.0 - smooth_eq._ARMIJO * t) * norm:
            return found
        t /= 2.0
    return None


def _x_trial(game, lam, x, v, step, t):
    cand_x, cand_v = x + t * step[: game.pm], v + t * step[game.pm :]
    try:
        resid = residual_F(game, cand_x, cand_v, lam)
    except ExponentOverflowError:
        return None
    return cand_x, cand_v, resid, float(np.linalg.norm(resid))


def jacobian_F(game, x, v, lam):
    """Jacobian J of residual_F in (x, v), as the paper states it.

    Blocks: [[I + D C / lam, -D E^T / lam], [-E, 0]] with D the diagonal of
    exponential-map values.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    g = _exponent(game, x, v, lam)
    _check_exponent(g, lam)
    d = np.exp(g)
    pm, k = game.pm, game.pm + game.dim_v
    jac = np.zeros((k, k))
    top_left, top_right = jac[:pm, :pm], jac[:pm, pm:]
    np.multiply(d[:, None], game.costs.C, out=top_left)
    top_left /= lam
    np.multiply(d[:, None], game.e_blk.T, out=top_right)
    top_right /= -lam
    np.negative(game.e_blk, out=jac[pm:, :pm])
    jac.reshape(-1)[: pm * (k + 1) : k + 1] += 1.0
    return jac


def _central_differences(f, z0, h):
    cols = []
    for j in range(z0.size):
        step = np.zeros(z0.size)
        step[j] = h
        cols.append((f(z0 + step) - f(z0 - step)) / (2 * h))
    return np.column_stack(cols)


def fd_jacobian(game, x, v, lam, h=1e-6):
    """Central finite differences of the smoothed residual."""
    pm = game.pm
    return _central_differences(
        lambda z: residual_F(game, z[:pm], z[pm:], lam), np.concatenate([x, v]), h
    )


def fd_log_jacobian(game, y, v, lam, h=1e-6):
    """Central finite differences of the log system's residual
    F~(y, v) = [lam (y - g(e^y, v)); s - E e^y], the solver's own F~."""
    pm = game.pm
    return _central_differences(
        lambda z: smooth_eq._state(game, z[:pm], z[pm:], lam).f, np.concatenate([y, v]), h
    )


def log_jacobian(game, x, lam):
    """J~ = dF~/d(y, v), the Jacobian of the solver's log system
    F~(y, v) = [lam (y - g(e^y, v)); s - E e^y], at flows x = e^y, from its
    definition: dg/dy = -C X / lam and dg/dv = E^T / lam with X = diag(x)."""
    pm, dv = game.pm, game.dim_v
    x_mat = np.diag(np.asarray(x, dtype=float))
    e_blk = game.e_blk
    return np.block(
        [
            [lam * np.eye(pm) + game.costs.C @ x_mat, -e_blk.T],
            [-e_blk @ x_mat, np.zeros((dv, dv))],
        ]
    )


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
