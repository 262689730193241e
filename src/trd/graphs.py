"""Immutable bitset-backed simple graphs, structural facts, and I/O.

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
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache

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


class Record:
    """An immutable value, built without ``@dataclass``, which costs about
    0.45 ms per class at every start.  A subclass names its fields in
    ``_fields`` and the defaults of trailing ones in ``_defaults``, and may
    normalise them in ``__post_init__``.  As for a frozen dataclass, a
    record equals only records of its own class, hashes as its field tuple
    (set orders, and so output bytes, depend on it) and shows as
    ``Name(field=value, ...)``.  Values live in the instance dictionary,
    where ``cached`` and pickle write them, but are set by
    ``object.__setattr__``: touching ``__dict__`` would slow every later
    attribute read on CPython 3.11+.  Assignment and deletion raise.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or values.keys() != set(names)
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._astuple()))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __delattr__ = __setattr__


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


class Graph(Record):
    """A simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbour bitmask of v.  Instances are immutable;
    editing operations return new graphs.  ``from_edge_mask`` builds
    thousands per sweep, so the record methods it meets are written out.
    """

    _fields = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self.adj == other.adj
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

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

    def has_isolated_vertices(self) -> bool:
        return 0 in self.adj


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


def _grow_classes(
    classes: tuple[tuple[int, int], ...], n: int
) -> tuple[tuple[int, int], ...]:
    """The classes of order n, as :func:`graph_classes` gives them, from
    ``classes``, those of order n - 1, by canonical deletion: vertex n - 1
    joins each class representative with every neighbour set, and only
    joins that put it in the last colour cell, of largest degree, count.
    No class is lost: deleting a last-cell vertex leaves a copy of a
    representative, and colours commute with relabelling.  The orbit of
    a class is its n!/|Aut| labellings.
    """
    last = n - 1
    forms: dict[int, int] = {}
    for mask, _ in classes:
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


# graph_classes(n) for n = 1..6, one block per order, blocks parted by a
# blank line: hex "mask:orbit" pairs as _grow_classes builds them from
# order 1, which the tests check.  A string, parsed on first use (0.2 ms
# for all six), compiles in 0.025 ms at every start where a tuple literal
# takes 1.5 ms (2 vCPU, Python 3.11).
_CLASS_TABLE = """\
0:1

0:1 1:1

0:1 4:3 6:3 7:1

0:1 c:3 1e:3 20:6 2c:c 30:c 34:4 38:4 3c:c 3e:6 3f:1

0:1 a0:f ec:c 1b0:f 1f8:a 200:a 2a0:3c 300:1e 301:1e 30c:3c 320:a 321:a 354:3c
370:3c 371:3c 380:14 388:3c 3a0:3c 3a1:3c 3b0:1e 3b2:3c 3b3:1e 3b4:5 3c0:5
3cc:f 3de:f 3e0:1e 3ec:3c 3f0:3c 3f4:14 3f8:a 3fc:1e 3fe:a 3ff:1

0:1 4a0:f d70:3c f00:5a f21:a 1200:2d 1aa0:48 1df8:a 1eec:3c 3300:2d 3301:2d
3754:5a 3780:b4 3781:b4 378c:b4 3b80:3c 3b88:b4 3f80:78 3fc0:f 3fcc:2d 3fde:f
3fe0:5a 4000:f 4f00:5a 4f0c:b4 4f21:5a 5200:b4 5201:b4 520c:168 56a0:168
5a08:168 5f18:168 6000:3c 6004:b4 60a0:168 6200:14 6204:3c 6206:3c 64a4:168
66a0:78 6920:168 6921:168 6b00:168 6b03:168 6b04:168 6b0c:168 6d20:b4 6f20:b4
6f21:b4 6f24:168 6f25:168 6f70:78 7000:3c 7001:3c 7050:168 7080:168 70e0:b4
7198:2d0 7200:b4 7201:b4 7204:168 7205:168 7256:168 7282:2d0 7300:5a 7301:5a
730c:b4 730d:b4 7310:168 7311:168 7314:b4 7315:b4 7320:f 7321:f 7684:2d0
7714:168 7715:168 7774:5a 7775:5a 7780:b4 7781:b4 778c:168 778d:168 779e:b4
77a0:b4 77a1:b4 7800:1e 7840:78 78a0:5a 78e8:168 79b0:5a 79f8:b4 7a00:b4
7a02:168 7a03:b4 7a40:168 7a44:168 7aa0:168 7aa3:168 7ae2:2d0 7aec:168 7b00:168
7b01:168 7b08:2d0 7b09:2d0 7b12:2d0 7b20:78 7b21:78 7b50:2d0 7b54:168 7b80:3c
7b88:b4 7b8a:b4 7b8b:3c 7ba0:b4 7ba1:b4 7ba8:168 7ba9:168 7bb0:3c 7bb2:78
7bb3:3c 7bb4:6 7c00:6 7ca0:5a 7cec:48 7db0:5a 7df8:3c 7e00:3c 7ea0:168 7f00:b4
7f01:b4 7f0c:168 7f20:3c 7f21:3c 7f54:168 7f70:168 7f71:168 7f80:78 7f88:168
7fa0:168 7fa1:168 7fb0:b4 7fb2:168 7fb3:b4 7fb4:1e 7fc0:f 7fcc:2d 7fde:2d
7fe0:5a 7fec:b4 7ff0:b4 7ff4:3c 7ff8:14 7ffc:3c 7ffe:f 7fff:1"""
_CLASS_TABLE_MAX_N = 6


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple[tuple[int, int], ...]:
    """(canonical colex mask, orbit size) of every isomorphism class of
    graphs of order n, sorted by mask; the orbit sizes sum to 2^C(n,2).

    Orders up to 6 (208 classes) are read from ``_CLASS_TABLE``; each
    larger order is grown from the one below by :func:`_grow_classes`.
    The canonical mask is the least colex mask over the orders that list
    the colour cells of :func:`_colours` in turn.
    """
    if n < 1:
        raise OutOfRangeError(f"vertex count must be >= 1, got {n}")
    if n > _CLASS_TABLE_MAX_N:
        return _grow_classes(graph_classes(n - 1), n)
    block = _CLASS_TABLE.split("\n\n")[n - 1]
    return tuple(
        (int(mask, 16), int(orbit, 16))
        for mask, orbit in (pair.split(":") for pair in block.split())
    )


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


def diameter(g: Graph) -> int | None:
    """The largest eccentricity, or None when G is disconnected."""
    if not is_connected(g):
        return None
    return max(_reach(g, v)[1] for v in range(g.n))


def universal_vertex(g: Graph) -> int | None:
    """The lowest vertex of degree n - 1, or None."""
    degrees = g.degrees
    return degrees.index(g.n - 1) if g.n - 1 in degrees else None


def graph6_encode(g: Graph) -> str:
    """Short-form graph6 encoding (n <= GRAPH6_MAX_N)."""
    if g.n > GRAPH6_MAX_N:
        raise GraphTooLargeError(
            f"graph6 short form supports n <= {GRAPH6_MAX_N}, got {g.n}")
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
