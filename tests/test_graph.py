"""Graph construction, incidence algebra, and path routines."""

import re

import numpy as np
import pytest
from helpers import csgraph
from scipy.sparse.csgraph import bellman_ford, dijkstra

from routedesign.errors import NegativeCycleError, UnreachableError
from routedesign.graph import (
    DirectedGraph,
    grid_graph,
    incidence_matrix,
    od_vectors,
    reduced_incidence,
    shortest_path_cost,
    stranded_links,
)


@pytest.mark.parametrize(
    "width,height,n,m",
    [(1, 2, 2, 2), (1, 3, 3, 4), (2, 2, 4, 8), (3, 3, 9, 24), (5, 5, 25, 80)],
)
def test_grid_sizes(width, height, n, m):
    g = grid_graph(width, height)
    assert g.n == n
    assert g.m == m


def test_grid_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        grid_graph(1, 1)
    with pytest.raises(ValueError):
        grid_graph(0, 4)


def test_links_are_sorted_and_indexed():
    g = grid_graph(3, 3)
    assert g.links == tuple(sorted(g.links))
    assert len(set(g.links)) == g.m
    for j, link in enumerate(g.links):
        assert g.link_index[link] == j


def test_link_validation():
    with pytest.raises(ValueError):
        DirectedGraph(3, ((1, 0), (0, 1)))  # out of order
    with pytest.raises(ValueError):
        DirectedGraph(3, ((0, 1), (0, 1)))  # duplicate
    with pytest.raises(ValueError):
        DirectedGraph(3, ((0, 0),))  # self-loop
    with pytest.raises(ValueError):
        DirectedGraph(2, ((0, 5),))  # head out of range


@pytest.mark.parametrize(
    ("n", "links", "field", "value"),
    [
        (3, ((0.7, 1.9),), "links", 0.7),
        (3, ((0, np.float64(2.0)),), "links", np.float64(2.0)),
        (2.5, ((0, 1),), "n", 2.5),
        (True, (), "n", True),
    ],
)
def test_node_indices_must_be_integers(n, links, field, value):
    # int() would truncate the floats and convert the bool
    got = re.escape(repr(value))
    with pytest.raises(ValueError, match=f"^{field}: expected an integer, got {got}$"):
        DirectedGraph(n, links)


def test_numpy_integer_node_indices_become_ints():
    g = DirectedGraph(np.int64(3), ((np.int64(0), np.int32(2)),))
    assert g.n == 3 and g.links == ((0, 2),)
    assert type(g.n) is int and all(type(end) is int for end in g.links[0])


def test_incidence_columns_sum_to_zero():
    g = grid_graph(3, 3)
    e = incidence_matrix(g)
    assert e.shape == (g.n, g.m)
    assert np.all(e.sum(axis=0) == 0.0)
    for j, (tail, head) in enumerate(g.links):
        assert e[tail, j] == 1.0
        assert e[head, j] == -1.0


def test_reduced_incidence_drops_destination_row():
    g = grid_graph(2, 2)
    full = incidence_matrix(g)
    for dest in range(g.n):
        red = reduced_incidence(g, dest)
        assert red.shape == (g.n - 1, g.m)
        assert np.array_equal(red, np.delete(full, dest, axis=0))
    with pytest.raises(ValueError):
        reduced_incidence(g, g.n)


def test_od_vectors_shapes_and_signs():
    g = grid_graph(2, 2)
    r, s = od_vectors(g, 0, 3)
    assert r[0] == 1.0 and r[3] == -1.0 and np.count_nonzero(r) == 2
    assert np.array_equal(s, np.delete(r, 3))
    with pytest.raises(ValueError):
        od_vectors(g, 1, 1)


def test_corner_to_corner_unit_cost():
    g = grid_graph(3, 3)
    cost, flow = shortest_path_cost(g, np.ones(g.m), 0, 8)
    assert cost == 4.0
    assert flow.sum() == 4.0
    e = incidence_matrix(g)
    r, _ = od_vectors(g, 0, 8)
    assert np.allclose(e @ flow, r)


def test_shortest_path_matches_dijkstra_on_random_weights():
    g = grid_graph(3, 3)
    rng = np.random.default_rng(11)
    for _ in range(30):
        w = rng.uniform(0.05, 2.0, size=g.m)
        o, d = rng.choice(g.n, size=2, replace=False)
        ref = dijkstra(csgraph(g, w), indices=int(o))[int(d)]
        cost, flow = shortest_path_cost(g, w, int(o), int(d))
        assert cost == pytest.approx(ref, abs=1e-12)
        # the returned flow is a unit o -> d path realizing that cost
        e = incidence_matrix(g)
        r, _ = od_vectors(g, int(o), int(d))
        assert np.allclose(e @ flow, r)
        assert set(np.unique(flow)) <= {0.0, 1.0}
        assert flow @ w == pytest.approx(ref, abs=1e-12)


def test_shortest_path_negative_weights_without_cycles():
    # two parallel routes, one with a negative link; still cycle-free
    g = DirectedGraph(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    w = np.array([1.0, 2.0, -0.5, 1.0])
    ref = bellman_ford(csgraph(g, w), indices=0)[3]
    cost, flow = shortest_path_cost(g, w, 0, 3)
    assert cost == pytest.approx(ref, abs=1e-12)
    assert np.array_equal(flow, np.array([1.0, 0.0, 1.0, 0.0]))


def test_shortest_path_raises_on_negative_cycle():
    g = DirectedGraph(2, ((0, 1), (1, 0)))
    with pytest.raises(NegativeCycleError):
        shortest_path_cost(g, np.array([-1.0, 0.5]), 0, 1)


def test_shortest_path_raises_when_unreachable():
    g = DirectedGraph(3, ((0, 1),))
    with pytest.raises(UnreachableError):
        shortest_path_cost(g, np.ones(1), 0, 2)


def test_shortest_path_rejects_bad_inputs():
    g = grid_graph(1, 2)
    with pytest.raises(ValueError):
        shortest_path_cost(g, np.ones(5), 0, 1)
    with pytest.raises(ValueError):
        shortest_path_cost(g, np.array([np.inf, 1.0]), 0, 1)
    with pytest.raises(ValueError):
        shortest_path_cost(g, np.ones(2), 1, 1)


def test_stranded_links_cases():
    # every link of a bidirected graph lies on a 2-cycle
    assert stranded_links(grid_graph(3, 3), 3, 5) == []
    # one-way diamond with a chord: every link lies on some 0 -> 3 path
    diamond = DirectedGraph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
    assert stranded_links(diamond, 0, 3) == []
    # node 0 is unreachable from origin 1, so its links carry no flow unless
    # a cycle closes them; adding (3, 0) closes every link into a cycle
    assert stranded_links(diamond, 1, 3) == [(0, 1), (0, 2)]
    looped = DirectedGraph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 0)))
    assert stranded_links(looped, 1, 3) == []
    # a one-way cycle through the destination can circulate flow
    side = DirectedGraph(4, ((0, 1), (1, 2), (2, 3), (3, 1)))
    assert stranded_links(side, 0, 1) == []
    dead_end = DirectedGraph(3, ((0, 1), (1, 2)))
    assert stranded_links(dead_end, 0, 1) == [(1, 2)]
    with pytest.raises(UnreachableError):
        stranded_links(dead_end, 2, 0)
    with pytest.raises(ValueError):
        stranded_links(dead_end, 0, 3)
