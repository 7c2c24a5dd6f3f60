"""Property tests on random small digraphs, many of them partly one-way,
in a benign cost regime and in the one the design workloads reach, and on
the projection onto the admissible interaction set, and on reading game
files against the standard library's JSON parser.

The precondition oracle is a linear program, independent of the graph search
the game constructor uses: a player admits a strictly positive feasible flow
exactly when max t subject to E x = r, x >= t, 0 <= t <= 1 is positive.
"""

import json
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.csgraph
from helpers import (
    cold_start,
    csgraph,
    dykstra_project_D,
    equals,
    halving_chain,
    log_jacobian,
    project_D,
    x_space_solve_nls,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import routedesign.design as design_mod
from routedesign import smooth_eq
from routedesign.design import DesignConfig, design_loop
from routedesign.errors import NegativeCycleError, NumericalError, UnreachableError
from routedesign.game import (
    AtomicRoutingGame,
    CostParams,
    Player,
    game_from_dict,
    game_to_dict,
    load_game_file,
    membership_D,
)
from routedesign.graph import DirectedGraph, incidence_matrix, od_vectors, shortest_path_cost
from routedesign.sensitivity import implicit_gradients, tracking_objective
from routedesign.smooth_eq import (
    EquilibriumSolution,
    Linearization,
    SmoothEqSettings,
    homotopy_solve,
    residual_F,
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


@st.composite
def design_regime_games(draw):
    """(graph, players, b, C) as random_games draws them, with the costs the
    design workloads reach: offsets in [0, 0.1] and C the projection onto D
    of a random matrix at rho = 0.5, where marginal costs may admit
    negative-cost cycles."""
    graph, players, _, _ = draw(random_games())
    pm = len(players) * graph.m
    b = np.array(draw(st.lists(st.floats(0.0, 0.1), min_size=pm, max_size=pm)))
    c_mat = np.zeros((pm, pm))
    if pm:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        c_mat = project_D(rng.uniform(-1.0, 1.0, size=(pm, pm)), 0.5, graph.m)
    return graph, players, b, c_mat


@st.composite
def weighted_digraphs(draw):
    """(graph, weights, origin, destination): each ordered node pair linked
    or not, with integer weights in [-1, 3], so that equally cheap paths,
    zero-cost cycles and negative-cost cycles all occur and sums are exact."""
    n = draw(st.integers(2, 7))
    links = tuple((a, c) for a in range(n) for c in range(n) if a != c and draw(st.booleans()))
    weights = draw(st.lists(st.integers(-1, 3), min_size=len(links), max_size=len(links)))
    origin, destination = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return DirectedGraph(n, links), np.array(weights, dtype=float), origin, destination


def has_negative_cycle(game, x):
    """Whether some player's marginal costs at x admit a negative-cost cycle."""
    for i in range(game.p):
        try:
            game.best_response_path(x, i)
        except NegativeCycleError:
            return True
    return False


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
    jac = log_jacobian(game, x, lam)
    rhs = -residual_F(game, x, v, lam)
    step = Linearization(game, x, lam).solve(rhs)
    # where J~ is near singular the two LU factorizations need not agree;
    # elsewhere they agree to about cond(J~) * eps
    if np.linalg.cond(jac) <= 1e6:
        dense = np.linalg.solve(jac, rhs)
        assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(weighted_digraphs())
# a path against the canonical link order settles one link per round, in
# n - 1 rounds, so only round n shows that no negative-cost cycle is reachable
@example((DirectedGraph(5, ((1, 0), (2, 1), (3, 2), (4, 3))), np.array([1.0, 0.0, -1.0, 2.0]), 4, 0))
def test_shortest_path_cost_agrees_with_scipy_bellman_ford(case):
    graph, weights, origin, destination = case
    matrix = csgraph(graph, weights)
    assert matrix.nnz == graph.m  # explicit zeros stay links
    try:
        ref = scipy.sparse.csgraph.bellman_ford(matrix, indices=origin)[destination]
    except scipy.sparse.csgraph.NegativeCycleError:
        with pytest.raises(NegativeCycleError):
            shortest_path_cost(graph, weights, origin, destination)
        return
    if ref == np.inf:
        with pytest.raises(UnreachableError):
            shortest_path_cost(graph, weights, origin, destination)
        return
    cost, flow = shortest_path_cost(graph, weights, origin, destination)
    assert type(cost) is float and cost == ref
    # the flow is one simple origin -> destination path that costs that much
    assert set(np.unique(flow)) <= {0.0, 1.0}
    used = [graph.links[j] for j in np.flatnonzero(flow)]
    succ = dict(used)
    assert len(succ) == len(used)  # at most one link out of each node
    path = [origin]
    while path[-1] in succ and len(path) <= len(used):
        path.append(succ[path[-1]])
    assert path[-1] == destination and len(path) == len(set(path)) == len(used) + 1
    assert flow @ weights == cost


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
        sol = homotopy_solve(game, settings_lam)[-1]
        assert sol.converged, f"lam={lam}"
        # the solver's flows are e^y, never negative
        assert sol.x.min() >= 0.0, f"lam={lam}"
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
    # dense-LU step: the game is handed a factor (Q, M) of C from its SVD
    # U S V^T cut to its numerical rank r, with Q an orthonormal basis of
    # the span of [U_r, V_r], the ranges of C and C^T, and M = Q^T C Q, so Q
    # is as narrow as a factor of C can be; it takes the Woodbury route up
    # to width pm/2 and the dense one above
    rank = int(rng.integers(0, pm + 1))
    factors = rng.standard_normal((pm, rank)) @ rng.standard_normal((rank, pm))
    c_mat = project_D(factors, rho, game.m)
    u, sing, vt = np.linalg.svd(c_mat)
    cut = pm * np.finfo(float).eps
    width = int(np.count_nonzero(sing > cut * sing[0]))
    basis, joint, _ = np.linalg.svd(np.hstack([u[:, :width], vt[:width].T]), full_matrices=False)
    q = basis[:, joint > cut]
    coupled = game.with_costs(b, factor=(q, q.T @ c_mat @ q))
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
    assert game.costs.factor is None
    for lam in (0.1, 0.01):
        settings_lam = SmoothEqSettings(lam=lam)
        outcomes = []
        for rate in (smooth_eq._CHORD_RATE, 0.0):  # 0: refactor every iteration
            with mock.patch.object(smooth_eq, "_CHORD_RATE", rate):
                try:
                    outcomes.append(homotopy_solve(game, settings_lam)[-1])
                except NumericalError as exc:
                    outcomes.append(type(exc))
        chord, newton = outcomes
        if not isinstance(newton, EquilibriumSolution):
            assert chord is newton, f"lam={lam}"
            continue
        assert isinstance(chord, EquilibriumSolution), f"lam={lam}"
        assert chord.residual_norm <= settings_lam.residual_tol
        assert np.max(np.abs(chord.x - newton.x)) <= 1e-8, f"lam={lam}"


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(design_regime_games(), st.integers(0, 2**32 - 1))
# one-link games, whose objective cannot move
@example((DirectedGraph(2, ((0, 1),)), [Player(0, 1)], np.array([0.015625]), np.zeros((1, 1))), 0)
@example((DirectedGraph(3, ((2, 0),)), [Player(2, 0)], np.zeros(1), np.array([[0.27392337]])), 0)
def test_design_regime_games_solve_certify_and_differentiate(case, seed):
    graph, players, b, c_mat = case
    try:
        game = AtomicRoutingGame(graph, players, CostParams(b, c_mat))
    except UnreachableError:
        return  # rejections are the random-digraph test's business
    rng = np.random.default_rng(seed)
    objective = tracking_objective(rng.uniform(0.0, 1.0, game.pm))
    for lam in (0.1, 0.01):
        # a tight tolerance, so the differences below see the solution map
        # rather than the solver's stopping point
        settings_lam = SmoothEqSettings(lam=lam, residual_tol=1e-13)
        try:
            sol = homotopy_solve(game, settings_lam)[-1]
        except NumericalError:
            continue  # a typed failure is an allowed outcome
        assert sol.converged and sol.residual_norm <= settings_lam.residual_tol
        assert sol.x.min() >= 0.0
        if has_negative_cycle(game, sol.x):
            with pytest.raises(NegativeCycleError):
                game.nash_gap(sol.x)
        else:
            assert 0.0 <= game.nash_gap(sol.x) < np.inf
        # the implicit derivatives along a random b direction and a random
        # admissible C direction, project_D(C + E) - C, against central
        # differences of re-solves, at the best of three steps; each
        # difference's error is counted beyond its rounding level,
        # eps max|psi(+-h)| / h: where the objective cannot move (a one-link
        # game) every difference is 0 and the exact value rounding noise,
        # while wherever it moves the 1e-4 relative bound stays in force
        grads = implicit_gradients(game, sol, objective)
        db = rng.standard_normal(game.pm)
        dc = project_D(c_mat + rng.standard_normal(c_mat.shape), 0.5, graph.m) - c_mat
        for name, exact, costs in (
            ("b", float(grads.grad_b @ db), lambda t: (b + t * db, c_mat)),
            ("C", float(np.sum(grads.grad_C * dc)), lambda t: (b, c_mat + t * dc)),
        ):
            errors = []
            for h in (1e-3, 1e-4, 1e-5):
                psi = [
                    objective.evaluate(
                        homotopy_solve(game.with_costs(*costs(t)), settings_lam, sol)[-1].x
                    )
                    for t in (h, -h)
                ]
                rounding = np.finfo(float).eps * max(map(abs, psi)) / h
                errors.append(abs((psi[0] - psi[1]) / (2.0 * h) - exact) - rounding)
            assert min(errors) <= 1e-4 * abs(exact), f"lam={lam}, {name} direction"


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(design_regime_games(), st.integers(0, 2**32 - 1))
def test_short_designs_stay_admissible_and_log_finite_values(case, seed):
    graph, players, b, c_mat = case
    try:
        game = AtomicRoutingGame(graph, players, CostParams(b, c_mat))
    except UnreachableError:
        return
    # the design starts from b = delta, C = 0 whatever the drawn costs; its
    # target puts each player on its cheapest path under random link weights
    weights = np.random.default_rng(seed).uniform(0.0, 1.0, graph.m)
    target = np.concatenate(
        [shortest_path_cost(graph, weights, p.origin, p.destination)[1] for p in players]
    )
    real_step, real_certify = design_mod._step_factored, design_mod._certified_reference
    iterates = []

    def spy_step(*args):
        q, mid = real_step(*args)
        iterates.append(q @ mid @ q.T)
        return q, mid

    def spy_certify(game, start):
        reference, gap = real_certify(game, start)
        assert reference.converged
        # an unbounded gap only ever comes from a negative-cost cycle
        assert np.isfinite(gap) or (gap == np.inf and has_negative_cycle(game, reference.x))
        return reference, gap

    # a long step, so C can reach the rho = 0.5 boundary within three iterations
    config = DesignConfig(alpha=0.5, lam=0.01, epsilon=0.0, max_outer_iters=3)
    with (
        mock.patch.object(design_mod, "_step_factored", spy_step),
        mock.patch.object(design_mod, "_certified_reference", spy_certify),
    ):
        _, verdict, trace = design_loop(game, tracking_objective(target), config)
    assert len(trace.records) == len(iterates) == 3
    for c in iterates:
        assert membership_D(c, game.m, config.rho)
    for record in trace.records:
        logged = (record.psi_bar, record.psi_lambda, record.db_norm, record.dC_norm, record.residual)
        assert np.all(np.isfinite(logged)) and record.gap >= 0.0
    assert np.isfinite(verdict.psi)
    assert np.isfinite(verdict.gap) or not verdict.path_match


def _gap(game, x):
    try:
        return game.nash_gap(x)
    except NegativeCycleError:
        return np.inf


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.one_of(random_games(), design_regime_games()), st.integers(0, 2**32 - 1))
def test_log_flow_solver_agrees_with_the_x_space_oracle(case, seed):
    # the same continuation, every stage solved by the production solver in
    # log flows and by the oracle in the flows themselves
    graph, players, b, c_mat = case
    try:
        game = AtomicRoutingGame(graph, players, CostParams(b, c_mat))
    except UnreachableError:
        return  # rejections are the random-digraph test's business
    objective = tracking_objective(np.random.default_rng(seed).uniform(0.0, 1.0, game.pm))
    for lam in (0.1, 0.01):
        # a tight tolerance, so that the two solutions differ by less than
        # the gap bound below
        settings_lam = SmoothEqSettings(lam=lam, residual_tol=1e-13)
        outcomes = []
        for solver in (smooth_eq.solve_nls, x_space_solve_nls):
            with mock.patch.object(smooth_eq, "solve_nls", solver):
                try:
                    outcomes.append(homotopy_solve(game, settings_lam)[-1])
                except NumericalError as exc:
                    outcomes.append(exc)
        log_sol, x_sol = outcomes
        solved = [isinstance(sol, EquilibriumSolution) for sol in outcomes]
        assert solved[0] == solved[1], f"lam={lam}: {outcomes}"
        if not solved[0]:
            continue
        assert log_sol.x.min() >= 0.0
        assert np.max(np.abs(log_sol.x - x_sol.x)) <= 100.0 * settings_lam.residual_tol, f"lam={lam}"
        gaps = _gap(game, log_sol.x), _gap(game, x_sol.x)
        assert gaps[0] == gaps[1] or abs(gaps[0] - gaps[1]) <= 1e-12, f"lam={lam}"
        # relative to the gradient, or where it vanishes (a one-link game,
        # whose objective cannot move) to the objective's gradient in x, the
        # scale of the rounding noise it is computed as
        grads = [implicit_gradients(game, sol, objective).grad_b for sol in (log_sol, x_sol)]
        scale = max(np.linalg.norm(grads[1]), np.linalg.norm(objective.gradient(x_sol.x)))
        assert np.linalg.norm(grads[0] - grads[1]) <= 1e-8 * scale, f"lam={lam}"


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.one_of(random_games(), design_regime_games()))
def test_continuation_agrees_with_the_halving_oracle(case):
    # the cold chain to 0.01, then the chain from its solution down to 1e-3
    # as a certification runs it, by homotopy_solve's adaptive steps and by
    # fixed halvings
    graph, players, b, c_mat = case
    try:
        game = AtomicRoutingGame(graph, players, CostParams(b, c_mat))
    except UnreachableError:
        return
    outcomes = []
    for chain in (homotopy_solve, halving_chain):
        try:
            inner = chain(game, SmoothEqSettings(lam=0.01))[-1]
            outcomes.append((inner, chain(game, SmoothEqSettings(lam=1e-3), inner)[-1]))
        except NumericalError as exc:
            outcomes.append(exc)
    solved = [isinstance(pair, tuple) for pair in outcomes]
    assert solved[0] == solved[1], outcomes
    if solved[0]:
        tol = SmoothEqSettings(lam=1e-3).residual_tol
        for sol, oracle in zip(*outcomes):
            assert sol.lam == oracle.lam
            assert np.max(np.abs(sol.x - oracle.x)) <= 100.0 * tol, sol.lam


# ±0, the subnormal extremes, the normal floor and the finite extremes
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308]
_EDGE_FLOATS += [1.7976931348623157e308, -1.7976931348623157e308, 1e300, -1e300, 1e-300, -1e-300]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=20, max_size=20))
@example((_EDGE_FLOATS * 2)[:20])
def test_game_files_read_the_floats_json_loads_reads(tmp_path_factory, values):
    # two players on the two-node graph: b holds 4 of the values, C 16
    doc = {
        "graph": {"n": 2, "links": [[1, 2], [2, 1]]},
        "players": [{"origin": 1, "destination": 2}, {"origin": 2, "destination": 1}],
        "b": values[:4],
        "C": [values[4 + 4 * row : 8 + 4 * row] for row in range(4)],
        "rho": 0.5,
    }
    text = json.dumps(doc)
    path = tmp_path_factory.getbasetemp() / "parity_game.json"
    path.write_text(text, encoding="utf-8")
    game, _ = load_game_file(path)
    oracle = json.loads(text)
    for key, array in (("b", game.costs.b), ("C", game.costs.C)):
        expected = np.asarray(oracle[key])
        assert array.dtype == expected.dtype == np.float64 and array.shape == expected.shape
        # bit for bit, so -0.0 is told from 0.0
        assert array.tobytes() == expected.tobytes(), key
