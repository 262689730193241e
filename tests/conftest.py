"""Shared strategies and small named graphs for the test suite."""

from hypothesis import assume, strategies as st

from trd.families import (
    CartesianComplete,
    Complete,
    Corona,
    Cycle,
    DeadExample,
    DisjointUnion,
    Path,
    Spider,
    Star,
    generate,
)
from trd.graphs import Graph, build_graph, from_edge_mask


def cycle(n: int) -> Graph:
    return generate(Cycle(n))


def path(n: int) -> Graph:
    return generate(Path(n))


def complete(n: int) -> Graph:
    return generate(Complete(n))


def star(k: int) -> Graph:
    return generate(Star(k))


def spider(*legs: int) -> Graph:
    return generate(Spider(tuple(legs)))


def corona_complete(r: int) -> Graph:
    return generate(Corona(Complete(r)))


def union(*parts) -> Graph:
    return generate(DisjointUnion(tuple(parts)))


def disjoint_union(graphs) -> Graph:
    """Disjoint union of built graphs, with vertex blocks in argument order."""
    adj: list[int] = []
    for p in graphs:
        offset = len(adj)
        adj.extend(a << offset for a in p.adj)
    return Graph(len(adj), tuple(adj))


def frontier_width(g: Graph, order: list[int]) -> int:
    """Largest number of placed vertices with an unplaced neighbour."""
    placed = width = 0
    for v in order:
        placed |= 1 << v
        width = max(width, sum(1 for u in range(g.n)
                               if placed >> u & 1 and g.adj[u] & ~placed))
    return width


def two_degenerate(g: Graph) -> bool:
    """Whether removing vertices of degree <= 2, one at a time, leaves none."""
    left = set(range(g.n))
    while True:
        low = [v for v in left if sum(g.has_edge(v, w) for w in left) <= 2]
        if not low:
            return not left
        left.remove(low[0])


def rook(n: int, m: int) -> Graph:
    return generate(CartesianComplete(n, m))


def dead_example(n: int) -> Graph:
    return generate(DeadExample(n))


@st.composite
def any_graphs(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return from_edge_mask(n, mask)


def _join_isolated(n: int, edges: set) -> Graph:
    """The graph of ``edges`` with each vertex they leave isolated joined
    to its successor modulo n."""
    touched = {v for e in edges for v in e}
    for v in range(n):
        if v not in touched:
            w = (v + 1) % n
            edges.add((min(v, w), max(v, w)))
            touched.update((v, w))
    return build_graph(n, sorted(edges))


@st.composite
def solvable_graphs(draw, min_n=2, max_n=6):
    """Random labelled graphs without isolated vertices, made so by
    ``_join_isolated`` rather than filtered: a filter drops about half the
    draws, and a list of three parts then fails Hypothesis's filter health
    check in about one run in 130."""
    g = draw(any_graphs(min_n, max_n))
    return _join_isolated(g.n, set(g.edges()))


@st.composite
def connected_graphs(draw, min_n=2, max_n=6):
    from trd.graphs import is_connected

    g = draw(any_graphs(min_n, max_n))
    assume(not g.has_isolated_vertices() and is_connected(g))
    return g


@st.composite
def sparse_graphs(draw, min_n=2, max_n=10):
    """Isolated-free graphs with at most about n edges, often disconnected.

    Each vertex left isolated by the drawn edges is joined to its
    successor modulo n.
    """
    n = draw(st.integers(min_n, max_n))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=n + 2))
    return _join_isolated(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})
