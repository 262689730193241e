"""Immutable bitset-backed simple graphs, structural metrics, and I/O.

Vertices are the dense integers 0..n-1.  Adjacency is stored as one integer
bitmask per vertex, which keeps every operation a handful of word-wide bit
operations and makes graphs hashable values that can be shared freely.

Two pair orders appear below and are easy to confuse:

* colex order (``(0,1), (0,2), (1,2), (0,3), ...``) indexes the bits of
  :func:`edge_mask` and of the graph6 encoding;
* lexicographic order (``(0,1), (0,2), (0,3), ..., (1,2), ...``) is the
  canonical order for reporting edges and scanning non-edges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .errors import (
    EdgeExistsError,
    GraphTooLargeError,
    MalformedEdgeListError,
    MalformedGraph6Error,
    OutOfRangeError,
    SelfLoopError,
)

GRAPH6_MAX_N = 62


class cached:
    """A property computed on its first read and then kept on the instance.

    Unlike ``functools.cached_property`` before Python 3.12 it takes no
    lock, which costs about 1 us per first read (Python 3.11, 2-vCPU VM);
    the solver makes thousands of first reads per sweep, one or more per
    graph it meets.
    """

    def __init__(self, compute: Callable):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner: type | None = None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pair_index(u: int, v: int) -> int:
    """Colex index of the unordered pair {u, v} (u != v)."""
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


@lru_cache(maxsize=None)
def pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j) with i < j < n, in colex order."""
    return tuple((i, j) for j in range(n) for i in range(j))


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """``[a][b]``: the colex edge-mask bit of the pair {a, b}, 0 when a = b."""
    return tuple(tuple(1 << pair_index(a, b) if a != b else 0 for b in range(n))
                 for a in range(n))


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbour bitmask of v.  Instances are immutable;
    editing operations return new graphs.
    """

    n: int
    adj: tuple[int, ...]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @cached
    def degrees(self) -> tuple[int, ...]:
        """The degree of each vertex, found once per graph: the solver's
        engines, its routing and the family recognizers each read it."""
        return tuple(a.bit_count() for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted pairs in lexicographic order."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(rest):
                out.append((u, v))
        return out

    def non_edges(self) -> list[tuple[int, int]]:
        """Non-adjacent pairs in lexicographic order (the complement's edges)."""
        out = []
        for u in range(self.n):
            rest = ~self.adj[u] & self.full_mask
            rest = rest >> (u + 1) << (u + 1)
            for v in iter_bits(rest):
                out.append((u, v))
        return out

    @cached
    def edge_mask(self) -> int:
        """Upper-triangle bitmask of the edge set, one bit per colex pair,
        found once per graph: it keys every memo read.

        The pairs (i, j) with i < j fill bits j(j-1)/2 + i, so vertex j's
        lower neighbours are one shifted slice of ``adj[j]``.
        """
        mask = 0
        for j, a in enumerate(self.adj):
            mask |= (a & ((1 << j) - 1)) << (j * (j - 1) // 2)
        return mask

    def isolated_mask(self) -> int:
        mask = 0
        for v, a in enumerate(self.adj):
            if a == 0:
                mask |= 1 << v
        return mask

    def has_isolated_vertices(self) -> bool:
        return 0 in self.adj


@dataclass(frozen=True)
class GraphMetrics:
    """Degree, connectivity and distance facts about one graph.

    ``diameter`` is None when the graph is disconnected (the infinity
    marker); otherwise it is the largest eccentricity.
    """

    degrees: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    isolated_vertices: tuple[int, ...]
    diameter: int | None
    universal_vertex: int | None

    @property
    def connected(self) -> bool:
        return len(self.components) == 1


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < n:
        raise OutOfRangeError(f"vertex {v} outside 0..{n - 1}")


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on n vertices from unordered pairs; duplicates collapse."""
    if n < 1:
        raise OutOfRangeError(f"vertex count must be >= 1, got {n}")
    adj = [0] * n
    for u, v in edges:
        _check_vertex(u, n)
        _check_vertex(v, n)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def from_edge_mask(n: int, mask: int) -> Graph:
    """Build a graph from a colex upper-triangle bitmask (fast path)."""
    adj = [0] * n
    table = pair_table(n)
    while mask:
        low = mask & -mask
        i, j = table[low.bit_length() - 1]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        mask ^= low
    return Graph(n, tuple(adj))


def _colours(adj: list[int]) -> list[int]:
    """Vertex colours of a graph: its degrees, refined by (colour, sorted
    neighbour colours), ranked by sorted key, until no cell splits.  Both
    steps commute with relabelling, and each ranking sorts by the previous
    colour first, so a vertex of larger degree never gets a smaller colour.
    """
    n = len(adj)
    nbrs = [list(iter_bits(a)) for a in adj]
    colour = [len(ns) for ns in nbrs]
    cells = len(set(colour))
    while cells < n:
        keys = [
            (colour[v], tuple(sorted(colour[w] for w in nbrs[v]))) for v in range(n)
        ]
        distinct = sorted(set(keys))
        if len(distinct) == cells:
            break
        rank = {key: r for r, key in enumerate(distinct)}
        colour = [rank[key] for key in keys]
        cells = len(distinct)
    return colour


def _canonical_form(adj: list[int], colour: list[int]) -> tuple[int, int]:
    """(least colex mask over colour-respecting orders, |Aut|) of a graph
    with :func:`_colours` ``colour``: the orders list the cells in colour
    order, each permuted every way, and exactly |Aut| reach the least mask.
    """
    n = len(adj)
    by_colour: dict[int, list[int]] = {}
    for v in sorted(range(n), key=colour.__getitem__):
        by_colour.setdefault(colour[v], []).append(v)
    edges = [(u, v) for v, a in enumerate(adj) for u in iter_bits(a) if u < v]
    bit = _pair_bits(n)
    best, count = -1, 0
    pos = [0] * n
    for parts in itertools.product(
        *(itertools.permutations(cell) for cell in by_colour.values())
    ):
        p = 0
        for part in parts:
            for v in part:
                pos[v] = p
                p += 1
        mask = 0
        for u, v in edges:
            mask |= bit[pos[u]][pos[v]]
        if mask < best or best < 0:
            best, count = mask, 1
        elif mask == best:
            count += 1
    return best, count


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple[tuple[int, int], ...]:
    """(canonical colex mask, orbit size) of every isomorphism class of
    graphs of order n, sorted by mask; the orbit sizes sum to 2^C(n,2).

    Order n grows from order n - 1 by canonical deletion: vertex n - 1
    joins each class representative with every neighbour set, and only
    joins that put it in the last colour cell, of largest degree, count.
    No class is lost: deleting a last-cell vertex leaves a copy of a
    representative, and colours commute with relabelling.  The orbit of
    a class is its n!/|Aut| labellings.
    """
    if n < 1:
        raise OutOfRangeError(f"vertex count must be >= 1, got {n}")
    if n == 1:
        return ((0, 1),)
    last = n - 1
    forms: dict[int, int] = {}
    for mask, _ in graph_classes(last):
        base = list(from_edge_mask(last, mask).adj)
        top = max(a.bit_count() for a in base)
        tops = sum(1 << v for v, a in enumerate(base) if a.bit_count() == top)
        for joined in range(1 << last):
            # a joined vertex of degree top reaches top + 1
            if joined.bit_count() < top + bool(joined & tops):
                continue
            adj = [a | (joined >> v & 1) << last for v, a in enumerate(base)]
            adj.append(joined)
            colour = _colours(adj)
            if colour[last] == max(colour):
                forms.setdefault(*_canonical_form(adj, colour))
    labellings = math.factorial(n)
    return tuple((form, labellings // aut) for form, aut in sorted(forms.items()))


def complement(g: Graph) -> Graph:
    """The complement graph; an involution."""
    full = g.full_mask
    return Graph(g.n, tuple(~a & full & ~(1 << v) for v, a in enumerate(g.adj)))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return g plus the edge uv; g itself is unchanged."""
    _check_vertex(u, g.n)
    _check_vertex(v, g.n)
    if u == v:
        raise SelfLoopError(f"self-loop at vertex {u}")
    if g.has_edge(u, v):
        raise EdgeExistsError(f"edge ({u}, {v}) already present")
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(g.n, tuple(adj))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, relabelled 0.. in the given order."""
    verts = list(vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for w in iter_bits(g.adj[v]):
            if w in index:
                adj[index[v]] |= 1 << index[w]
    return Graph(len(verts), tuple(adj))


def _reach(g: Graph, v: int) -> tuple[int, int]:
    """(vertex bitmask of the connected component of v, eccentricity of v
    in it), by breadth-first search; it sits on the hot hypothesis path of
    ``verify``, so the bit loop is inlined."""
    adj = g.adj
    comp = frontier = 1 << v
    depth = -1
    while frontier:
        depth += 1
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~comp
        comp |= nxt
    return comp, depth


def component_masks(g: Graph) -> list[int]:
    """Vertex bitmasks of the connected components, by smallest member."""
    seen = 0
    comps = []
    for v in range(g.n):
        if not seen >> v & 1:
            comps.append(_reach(g, v)[0])
            seen |= comps[-1]
    return comps


def is_connected(g: Graph) -> bool:
    return _reach(g, 0)[0] == g.full_mask


def metrics(g: Graph) -> GraphMetrics:
    """Degrees, components, isolated vertices, diameter, universal vertex."""
    degrees = g.degrees
    comps = tuple(tuple(iter_bits(m)) for m in component_masks(g))
    isolated = tuple(v for v, d in enumerate(degrees) if d == 0)
    universal = next((v for v, d in enumerate(degrees) if d == g.n - 1), None)
    diameter = max(_reach(g, v)[1] for v in range(g.n)) if len(comps) == 1 else None
    return GraphMetrics(degrees, comps, isolated, diameter, universal)


def graph6_encode(g: Graph) -> str:
    """Short-form graph6 encoding (n <= 62)."""
    if g.n > GRAPH6_MAX_N:
        raise GraphTooLargeError(f"graph6 short form supports n <= 62, got {g.n}")
    mask = g.edge_mask
    m = g.n * (g.n - 1) // 2
    chars = [chr(63 + g.n)]
    for start in range(0, m, 6):
        val = 0
        for k in range(6):
            p = start + k
            bit = (mask >> p) & 1 if p < m else 0
            val = (val << 1) | bit
        chars.append(chr(63 + val))
    return "".join(chars)


def graph6_decode(text: str) -> Graph:
    """Decode one short-form graph6 line; strict about length and padding."""
    s = text.strip()
    if not s:
        raise MalformedGraph6Error("empty graph6 string")
    codes = [ord(c) for c in s]
    for c in codes:
        if not 63 <= c <= 126:
            raise MalformedGraph6Error(f"byte {c} out of range 63..126")
    if codes[0] == 126:
        raise MalformedGraph6Error("long-form graph6 (n > 62) is unsupported")
    n = codes[0] - 63
    if n == 0:
        raise MalformedGraph6Error("order-0 graph6 string is unsupported")
    m = n * (n - 1) // 2
    expected = 1 + (m + 5) // 6
    if len(codes) != expected:
        raise MalformedGraph6Error(
            f"bad length {len(codes)} for order {n}, expected {expected}"
        )
    mask = 0
    for idx, c in enumerate(codes[1:]):
        group = c - 63
        for k in range(6):
            p = idx * 6 + k
            bit = (group >> (5 - k)) & 1
            if p < m:
                mask |= bit << p
            elif bit:
                raise MalformedGraph6Error("nonzero padding bits")
    return from_edge_mask(n, mask)


# an edge list of order <= 62 has at most 1,891 edge lines; a file is read
# up to one byte past this bound, never to its end
EDGE_LIST_MAX_BYTES = 1 << 20


def read_edge_list(path: str) -> Graph:
    """The edge-list file at ``path``, which must be ASCII text of at most
    ``EDGE_LIST_MAX_BYTES`` bytes."""
    with open(path, "rb") as f:
        data = f.read(EDGE_LIST_MAX_BYTES + 1)
    if len(data) > EDGE_LIST_MAX_BYTES or not data.isascii():
        raise MalformedEdgeListError(
            f"an edge-list file is ASCII text of at most {EDGE_LIST_MAX_BYTES} bytes")
    return parse_edge_list(data.decode())


def parse_edge_list(text: str) -> Graph:
    """Parse the 'n m' header format: one 'u v' line per edge."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedEdgeListError("empty edge-list document")
    head = lines[0].split()
    if len(head) != 2:
        raise MalformedEdgeListError(f"bad header {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise MalformedEdgeListError(f"non-integer header {lines[0]!r}") from exc
    if n > GRAPH6_MAX_N:  # before build_graph allocates n adjacency words
        raise GraphTooLargeError(
            f"edge lists support n <= {GRAPH6_MAX_N}, header declares {n}"
        )
    if len(lines) - 1 != m:
        raise MalformedEdgeListError(
            f"header declares {m} edges but {len(lines) - 1} lines follow"
        )
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise MalformedEdgeListError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise MalformedEdgeListError(f"non-integer edge line {ln!r}") from exc
    return build_graph(n, edges)
