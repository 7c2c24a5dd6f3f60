"""Directed graphs, incidence algebra, grid worlds, and path routines.

Node indices are 0-based throughout the in-memory API.  The JSON game format
uses 1-based indices and is converted at the (de)serialization boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BrokenPathError, NegativeCycleError, UnreachableError


@dataclass(frozen=True)
class DirectedGraph:
    """A simple directed graph with a canonical link ordering.

    Links are (tail, head) pairs sorted lexicographically.  The ordering fixes
    the column order of the incidence matrix, so rebuilding the same graph
    always yields identical matrices.

    Attributes:
        n: number of nodes, indexed 0..n-1.
        links: sorted tuple of (tail, head) pairs, no self-loops, no duplicates.
    """

    n: int
    links: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        canonical = tuple((int(t), int(h)) for t, h in self.links)
        object.__setattr__(self, "links", canonical)
        prev = None
        for tail, head in canonical:
            if not (0 <= tail < self.n and 0 <= head < self.n):
                raise ValueError(f"link ({tail}, {head}) out of node range")
            if tail == head:
                raise ValueError("self-loops are not allowed")
            if prev is not None and (tail, head) <= prev:
                raise ValueError("links must be sorted lexicographically with no duplicates")
            prev = (tail, head)

    @property
    def m(self) -> int:
        """Number of links."""
        return len(self.links)

    @cached_property
    def link_index(self) -> dict[tuple[int, int], int]:
        """Map from (tail, head) to link position."""
        return {link: j for j, link in enumerate(self.links)}


def grid_graph(width: int, height: int) -> DirectedGraph:
    """Build a 4-neighborhood grid world with links in both directions.

    Nodes are numbered row-major: node(r, c) = r * width + c.  Every pair of
    horizontally or vertically adjacent cells contributes two opposite links.

    Raises:
        ValueError: width or height not positive, or a single-cell grid.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    if width * height < 2:
        raise ValueError("grid needs at least two nodes")
    links: list[tuple[int, int]] = []
    for r in range(height):
        for c in range(width):
            node = r * width + c
            if c + 1 < width:
                east = node + 1
                links.append((node, east))
                links.append((east, node))
            if r + 1 < height:
                south = node + width
                links.append((node, south))
                links.append((south, node))
    links.sort()
    return DirectedGraph(width * height, tuple(links))


def incidence_matrix(g: DirectedGraph) -> np.ndarray:
    """Node-link incidence matrix: +1 at the tail, -1 at the head.

    Every column sums to zero; for a connected graph the rank is n - 1.
    """
    e = np.zeros((g.n, g.m))
    for j, (tail, head) in enumerate(g.links):
        e[tail, j] = 1.0
        e[head, j] = -1.0
    return e


def reduced_incidence(g: DirectedGraph, destination: int) -> np.ndarray:
    """Incidence matrix with the destination row removed.

    Dropping one row of a connected graph's incidence matrix makes the
    remaining rows linearly independent, which keeps per-player conservation
    constraints full rank.
    """
    if not 0 <= destination < g.n:
        raise ValueError("destination out of range")
    return np.delete(incidence_matrix(g), destination, axis=0)


def od_vectors(g: DirectedGraph, origin: int, destination: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-demand vectors for one origin-destination pair.

    Returns (r, s): r has +1 at the origin, -1 at the destination, zeros
    elsewhere; s is r with the destination entry deleted, matching the
    reduced incidence rows.
    """
    if not (0 <= origin < g.n and 0 <= destination < g.n):
        raise ValueError("origin or destination out of range")
    if origin == destination:
        raise ValueError("origin equals destination")
    r = np.zeros(g.n)
    r[origin] = 1.0
    r[destination] = -1.0
    s = np.delete(r, destination)
    return r, s


def shortest_path_cost(
    g: DirectedGraph,
    weights: np.ndarray,
    origin: int,
    destination: int,
) -> tuple[float, np.ndarray]:
    """Minimum-cost simple path under possibly negative link weights.

    Label-correcting relaxation in canonical link order.  Ties are broken by
    fewer hops, then by the lowest predecessor node index, which keeps the
    predecessor structure acyclic and the result deterministic.

    Returns:
        (cost, flow): the path cost and its 0/1 link-flow vector.

    Raises:
        NegativeCycleError: weights admit unbounded descent.
        UnreachableError: no directed origin -> destination path exists.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (g.m,):
        raise ValueError("weights length must match the number of links")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if not (0 <= origin < g.n and 0 <= destination < g.n):
        raise ValueError("origin or destination out of range")
    if origin == destination:
        raise ValueError("origin equals destination")

    inf = math.inf
    dist = [inf] * g.n
    hops = [0] * g.n
    pred = [-1] * g.n
    dist[origin] = 0.0
    links = g.links
    for _ in range(g.n - 1):
        changed = False
        for j, (tail, head) in enumerate(links):
            dt = dist[tail]
            if dt == inf:
                continue
            cand = dt + w[j]
            if cand < dist[head]:
                dist[head] = cand
                hops[head] = hops[tail] + 1
                pred[head] = j
                changed = True
            elif cand == dist[head] and pred[head] >= 0:
                cand_hops = hops[tail] + 1
                if cand_hops < hops[head] or (
                    cand_hops == hops[head] and tail < links[pred[head]][0]
                ):
                    hops[head] = cand_hops
                    pred[head] = j
                    changed = True
        if not changed:
            break
    for j, (tail, head) in enumerate(links):
        if dist[tail] != inf and dist[tail] + w[j] < dist[head]:
            raise NegativeCycleError("link weights admit a negative-cost cycle")
    if dist[destination] == inf:
        raise UnreachableError(f"no path from node {origin} to node {destination}")

    flow = np.zeros(g.m)
    node = destination
    steps = 0
    while node != origin:
        j = pred[node]
        flow[j] = 1.0
        node = links[j][0]
        steps += 1
        if steps > g.n:
            raise RuntimeError("predecessor chain failed to terminate")
    return dist[destination], flow


def _reachable(adjacency: list[list[int]], start: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in adjacency[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def stranded_links(g: DirectedGraph, origin: int, destination: int) -> list[tuple[int, int]]:
    """Links that no feasible origin -> destination unit flow uses.

    A link (u, w) carries flow in some feasible flow exactly when it lies on
    an origin -> destination walk (u reachable from the origin, the
    destination reachable from w) or on a directed cycle (u reachable from
    w).  So a strictly positive feasible flow exists iff this list is empty.

    Raises:
        UnreachableError: no directed origin -> destination path exists.
    """
    if not (0 <= origin < g.n and 0 <= destination < g.n):
        raise ValueError("origin or destination out of range")
    successors: list[list[int]] = [[] for _ in range(g.n)]
    predecessors: list[list[int]] = [[] for _ in range(g.n)]
    for tail, head in g.links:
        successors[tail].append(head)
        predecessors[head].append(tail)
    from_origin = _reachable(successors, origin)
    if destination not in from_origin:
        raise UnreachableError(f"no path from node {origin} to node {destination}")
    to_destination = _reachable(predecessors, destination)
    return [
        (tail, head)
        for tail, head in g.links
        if not (tail in from_origin and head in to_destination)
        and tail not in _reachable(successors, head)
    ]


def path_links(g: DirectedGraph, nodes: list[int] | tuple[int, ...]) -> list[int]:
    """Convert a node sequence into the link indices it traverses.

    Raises:
        BrokenPathError: consecutive nodes are not joined by a link, or the
            sequence has fewer than two nodes.
    """
    if len(nodes) < 2:
        raise BrokenPathError("a path needs at least two nodes")
    index = g.link_index
    out: list[int] = []
    for tail, head in zip(nodes[:-1], nodes[1:]):
        j = index.get((int(tail), int(head)))
        if j is None:
            raise BrokenPathError(f"no link from node {tail} to node {head}")
        out.append(j)
    return out
