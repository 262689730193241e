"""Named graph families: generators, closed forms, and structural recognizers.

Each generator fixes a documented canonical labelling so witnesses and
reports are reproducible.  Recognizers are label-independent: they test
structure, never labellings.  The gamma_tR = n classifier tests paths,
cycles and coronas directly; it reads the subdivided star, family G and
family H off one pendant-path decomposition, the core left when every
pendant 2-path (a leaf and its degree-2 support) is removed, with the
number of 2-paths hanging at each core vertex.

A family descriptor is the frozen dataclass of one family member, for
example ``Spider((2, 2, 4))``.  Descriptors have a text syntax used by
the CLI, for example ``spider(2,2,4)``, ``cor(K3)``, ``familyH(2,3,r=4)``,
``KxK(3,3)``, ``Gd(3)``, ``D(3)``, ``union(K2,K3)``.  One table,
``_NAMES``, gives each descriptor class its text name; ``parse_family``
and ``family_to_text`` read the syntax off it and the dataclass fields.
Nesting is allowed for ``cor`` and ``union``, at most ``GRAPH6_MAX_N``
(62) levels of parentheses deep.

Every generator states the order of its graph before it makes an edge,
and ``generate`` refuses an order above ``GRAPH6_MAX_N`` with
``GraphTooLargeError`` before anything is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import chain, combinations, product, repeat
from typing import Union

from .errors import (
    DisconnectedError,
    GraphTooLargeError,
    InvalidSpecError,
    TooFewLegsError,
    TooSmallError,
)
from .graphs import (
    GRAPH6_MAX_N,
    Graph,
    build_graph,
    component_masks,
    induced_subgraph,
    is_connected,
    iter_bits,
)


@dataclass(frozen=True)
class Path:
    n: int


@dataclass(frozen=True)
class Cycle:
    n: int


@dataclass(frozen=True)
class Complete:
    n: int


@dataclass(frozen=True)
class Star:
    k: int


@dataclass(frozen=True)
class SubdividedStar:
    k: int


@dataclass(frozen=True)
class DoubleStar:
    a: int
    b: int


@dataclass(frozen=True)
class Corona:
    inner: "FamilySpec"


@dataclass(frozen=True)
class Spider:
    legs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "legs", tuple(sorted(self.legs)))


@dataclass(frozen=True)
class FamilyG:
    k1: int
    k2: int


@dataclass(frozen=True)
class FamilyH:
    a: int
    b: int
    r: int


@dataclass(frozen=True)
class Galaxy:
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(sorted(self.sizes)))


@dataclass(frozen=True)
class CartesianComplete:
    n: int
    m: int


@dataclass(frozen=True)
class ProductDeleted:
    l: int


@dataclass(frozen=True)
class DeadExample:
    n: int


@dataclass(frozen=True)
class DisjointUnion:
    parts: tuple["FamilySpec", ...]


FamilySpec = Union[
    Path, Cycle, Complete, Star, SubdividedStar, DoubleStar, Corona, Spider,
    FamilyG, FamilyH, Galaxy, CartesianComplete, ProductDeleted, DeadExample,
    DisjointUnion,
]

# the text name of every descriptor class; parse_family and family_to_text
# read the syntax off this table and the dataclass fields
_NAMES = {
    Path: "path", Cycle: "cycle", Complete: "complete", Star: "star",
    SubdividedStar: "substar", DoubleStar: "doublestar", Corona: "cor",
    Spider: "spider", FamilyG: "familyG", FamilyH: "familyH",
    Galaxy: "galaxy", CartesianComplete: "KxK", ProductDeleted: "Gd",
    DeadExample: "D", DisjointUnion: "union",
}
_BY_NAME = {name.lower(): cls for cls, name in _NAMES.items()}
_LISTS = (Spider, Galaxy, DisjointUnion)  # one tuple field, one or more args
_NESTED = (Corona, DisjointUnion)  # arguments are families, not integers


def _require(spec: FamilySpec, ok: bool, detail: str) -> None:
    if not ok:
        raise InvalidSpecError(f"{family_to_text(spec)}: {detail}")


def _hanging(paths, next_label: int):
    """Edges of paths hung in turn: each (attach, length) pair hangs a path
    of ``length`` new vertices, labelled upward from ``next_label``, off
    vertex ``attach``."""
    for attach, length in paths:
        prev = attach
        for _ in range(length):
            yield prev, next_label
            prev = next_label
            next_label += 1


def _rook(cells):
    """Index pairs of the cells, in order, that share a row or a column."""
    pairs = combinations(enumerate(cells), 2)
    return ((a, b) for (a, p), (b, q) in pairs if p[0] == q[0] or p[1] == q[1])


def _union(parts):
    """The order, then the edges, of the disjoint union of the parts, with
    vertex blocks in argument order."""
    edges = [_edges(p) for p in parts]
    orders = [next(e) for e in edges]
    yield sum(orders)
    offset = 0
    for part, n in zip(edges, orders):
        yield from ((u + offset, v + offset) for u, v in part)
        offset += n


def _edges(spec: FamilySpec):
    """Yield the order of the graph a descriptor denotes, then its edges in
    the canonical labelling; no edge is made before the order is known."""
    if isinstance(spec, Path):
        _require(spec, spec.n >= 1, "path needs n >= 1")
        yield spec.n
        yield from _hanging([(0, spec.n - 1)], 1)
    elif isinstance(spec, Cycle):
        _require(spec, spec.n >= 3, "cycle needs n >= 3")
        yield spec.n
        yield from ((i, (i + 1) % spec.n) for i in range(spec.n))
    elif isinstance(spec, Complete):
        _require(spec, spec.n >= 1, "complete graph needs n >= 1")
        yield spec.n
        yield from combinations(range(spec.n), 2)
    elif isinstance(spec, Star):
        # centre 0, leaves 1..k
        _require(spec, spec.k >= 1, "star needs k >= 1")
        yield spec.k + 1
        yield from _hanging(repeat((0, 1), spec.k), 1)
    elif isinstance(spec, SubdividedStar):
        # centre 0; arm i uses vertices 1+2i (mid) and 2+2i (leaf)
        _require(spec, spec.k >= 2, "subdivided star needs k >= 2")
        yield 2 * spec.k + 1
        yield from _hanging(repeat((0, 2), spec.k), 1)
    elif isinstance(spec, DoubleStar):
        # centres 0 and 1; leaves 2..a+1 on 0, a+2..a+b+1 on 1
        a, b = spec.a, spec.b
        _require(spec, a >= 1 and b >= 1, "double star needs a, b >= 1")
        yield 2 + a + b
        yield 0, 1
        yield from _hanging(chain(repeat((0, 1), a), repeat((1, 1), b)), 2)
    elif isinstance(spec, Corona):
        # inner graph keeps its labels; the leaf of vertex i is n+i
        inner = _edges(spec.inner)
        n = next(inner)
        yield 2 * n
        yield from inner
        yield from ((i, n + i) for i in range(n))
    elif isinstance(spec, Spider):
        # head 0; legs (sorted ascending) take consecutive vertex blocks
        _require(spec, len(spec.legs) >= 2, "spider needs k >= 2 legs")
        _require(spec, min(spec.legs) >= 1, "spider legs must be >= 1")
        yield 1 + sum(spec.legs)
        yield from _hanging(((0, leg) for leg in spec.legs), 1)
    elif isinstance(spec, FamilyG):
        # 4-cycle 0,1,2,3; pendant 2-paths (4+2t, 5+2t) hang off 0 then 1
        k1, k2 = spec.k1, spec.k2
        _require(spec, min(k1, k2) >= 0 and k1 + k2 >= 1,
                 "family G needs k1, k2 >= 0 with k1 + k2 >= 1")
        yield 4 + 2 * (k1 + k2)
        yield from [(0, 1), (1, 2), (2, 3), (0, 3)]
        yield from _hanging(chain(repeat((0, 2), k1), repeat((1, 2), k2)), 4)
    elif isinstance(spec, FamilyH):
        # centre path 0..r+1; 2-paths hang off 0 (a of them) and r+1 (b)
        a, b, end = spec.a, spec.b, spec.r + 1
        _require(spec, a >= 1 and b >= 1 and end >= 1,
                 "family H needs a, b >= 1 and r >= 0")
        yield end + 1 + 2 * (a + b)
        paths = chain([(0, end)], repeat((0, 2), a), repeat((end, 2), b))
        yield from _hanging(paths, 1)
    elif isinstance(spec, Galaxy):
        _require(spec, len(spec.sizes) >= 2, "galaxy needs at least two stars")
        _require(spec, min(spec.sizes) >= 1, "galaxy star sizes must be >= 1")
        yield from _union([Star(s) for s in spec.sizes])
    elif isinstance(spec, CartesianComplete):
        # row-major: vertex (i, j) -> i*m + j; adjacent iff same row or column
        _require(spec, spec.n >= 2 and spec.m >= 2, "K_n x K_m needs n, m >= 2")
        yield spec.n * spec.m
        yield from _rook(product(range(spec.n), range(spec.m)))
    elif isinstance(spec, ProductDeleted):
        # K_{l+1} x K_{l+1} minus the column-0 cells of rows l//2+1..l
        # (0-based); survivors are relabelled densely in row-major order
        _require(spec, spec.l >= 2, "deleted product needs l >= 2")
        side, cut = spec.l + 1, spec.l // 2 + 1
        yield side * side - (side - cut)
        cells = product(range(side), repeat=2)
        yield from _rook((i, j) for i, j in cells if j or i < cut)
    elif isinstance(spec, DeadExample):
        # centre c = 0; copy i (1-based) has u_i = i, v_i = n+i, w_i = 2n+i
        n = spec.n
        _require(spec, n >= 2, "dead example needs n >= 2")
        yield 3 * n + 1
        for u in range(1, n + 1):
            v, w = n + u, 2 * n + u
            yield from [(0, u), (0, v), (u, v), (u, w), (v, w)]
    elif isinstance(spec, DisjointUnion):
        _require(spec, len(spec.parts) >= 1, "union needs at least one part")
        yield from _union(spec.parts)
    else:
        raise InvalidSpecError(f"unknown family descriptor {spec!r}")


def generate(spec: FamilySpec) -> Graph:
    """Build the graph a descriptor denotes, with its canonical labelling.

    The order is checked against ``GRAPH6_MAX_N`` before any edge is made.
    """
    edges = _edges(spec)
    n = next(edges)
    if n > GRAPH6_MAX_N:
        raise GraphTooLargeError(
            f"{family_to_text(spec)}: order {n} exceeds {GRAPH6_MAX_N}"
        )
    return build_graph(n, edges)


def dead_example_w_vertices(n: int) -> tuple[int, ...]:
    """The labels of w_1..w_n in the canonical DeadExample labelling."""
    return tuple(range(2 * n + 1, 3 * n + 1))


def spider_gamma_formula(legs: tuple[int, ...] | list[int]) -> int:
    """Closed-form gamma_tR of a spider with k >= 3 legs.

    With n the order and y the number of legs of length 2: n when
    y >= k-1, n-k+y+1 when 1 <= y < k-1, and n-k+2 when y = 0.
    """
    legs = tuple(legs)
    if len(legs) < 3:
        raise TooFewLegsError(f"formula needs k >= 3 legs, got {len(legs)}")
    if any(l < 1 for l in legs):
        raise InvalidSpecError("spider legs must be >= 1")
    k = len(legs)
    n = 1 + sum(legs)
    y = sum(1 for l in legs if l == 2)
    if y >= k - 1:
        return n
    if y >= 1:
        return n - k + y + 1
    return n - k + 2


def spider_is_critical(legs: tuple[int, ...] | list[int]) -> bool:
    """Whether Sp(l_1..l_k) is edge-critical: all legs 2 except possibly the
    longest, which must be 2, 4, or at least 6."""
    legs = sorted(legs)
    if len(legs) < 3:
        raise TooFewLegsError(f"criticality needs k >= 3 legs, got {len(legs)}")
    if any(l < 1 for l in legs):
        raise InvalidSpecError("spider legs must be >= 1")
    if any(l != 2 for l in legs[:-1]):
        return False
    last = legs[-1]
    return last in (2, 4) or last >= 6


# recognizer kinds for hen1_classify
PATH_OR_CYCLE = "path_or_cycle"
CORONA = "corona"
SUBDIVIDED_STAR = "subdivided_star"
FAMILY_G = "family_g"
FAMILY_H = "family_h"


@dataclass(frozen=True)
class Hen1Class:
    """Which order-n clause a connected graph falls under, if any."""

    kind: str
    r: int | None = None  # recovered subdivision count, family H only


def _is_path_graph(g: Graph) -> bool:
    deg = g.degrees
    return deg.count(1) == 2 and deg.count(2) == g.n - 2


def _is_cycle_graph(g: Graph) -> bool:
    return g.n >= 3 and all(d == 2 for d in g.degrees)


def is_complete_graph(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


def _pendant_core(g: Graph) -> tuple[Graph, list[int]] | None:
    """The core left when every pendant 2-path is removed, as an induced
    subgraph, and the number of 2-paths hanging at each core vertex.

    A pendant 2-path is a leaf with its neighbour, the support, when the
    support has degree 2.  None when G has no leaf or more than n edges,
    when a support has another degree, when two leaves share a support,
    or when a support's other neighbour is a leaf or a support.
    """
    if g.edge_count > g.n:
        return None
    deg, adj = g.degrees, g.adj
    stripped = 0
    attach = []
    for leaf in range(g.n):
        if deg[leaf] != 1:
            continue
        s = adj[leaf].bit_length() - 1
        if deg[s] != 2 or stripped >> s & 1:
            return None
        stripped |= 1 << leaf | 1 << s
        attach.append((adj[s] & ~(1 << leaf)).bit_length() - 1)
    if not attach or any(stripped >> a & 1 for a in attach):
        return None
    core = [v for v in range(g.n) if not stripped >> v & 1]
    return induced_subgraph(g, core), [attach.count(v) for v in core]


def _corona_inner(g: Graph) -> Graph | None:
    """The inner graph when g is a corona; pairs each leaf with a distinct
    support so that leaves are exactly half the vertices and every
    non-leaf carries exactly one leaf."""
    if g.n % 2:
        return None
    deg = g.degrees
    leaf_mask = 0
    for v in range(g.n):
        if deg[v] == 1:
            leaf_mask |= 1 << v
    if leaf_mask.bit_count() != g.n // 2:
        return None
    inner = [v for v in range(g.n) if not leaf_mask >> v & 1]
    for v in inner:
        if (g.adj[v] & leaf_mask).bit_count() != 1:
            return None
    for v in iter_bits(leaf_mask):
        if g.adj[v] & leaf_mask:
            return None  # two adjacent leaves form a stray K_2
    return induced_subgraph(g, inner)


def hen1_classify(g: Graph) -> Hen1Class | None:
    """Classify a connected graph into the gamma_tR = n clauses, or None.

    Clause priority is fixed: path/cycle, subdivided star, corona,
    family G, family H.  Members of several clauses (P_5 is both a path
    and a subdivided star, family-H members with a = b = 1 are paths)
    report the first matching clause.
    """
    if g.n < 2:
        raise TooSmallError("classification needs order >= 2")
    if not is_connected(g):
        raise DisconnectedError("classification needs a connected graph")
    if _is_path_graph(g) or _is_cycle_graph(g):
        return Hen1Class(PATH_OR_CYCLE)
    core, hang = _pendant_core(g) or (None, None)
    if core is not None and core.n == 1 and hang[0] >= 2:
        return Hen1Class(SUBDIVIDED_STAR)
    if _corona_inner(g) is not None:
        return Hen1Class(CORONA)
    if core is None:
        return None
    carriers = [v for v, k in enumerate(hang) if k]
    if core.n == 4 and _is_cycle_graph(core) and (
        len(carriers) == 1 or len(carriers) == 2 and core.has_edge(*carriers)
    ):
        return Hen1Class(FAMILY_G)
    ends = [v for v, d in enumerate(core.degrees) if d == 1]
    if core.n >= 2 and _is_path_graph(core) and carriers == ends:
        return Hen1Class(FAMILY_H, core.n - 2)
    return None


def is_galaxy(g: Graph) -> bool:
    """Two or more components, each a non-trivial star."""
    deg = g.degrees
    comps = component_masks(g)
    if len(comps) < 2:
        return False
    for comp in comps:
        members = list(iter_bits(comp))
        c = len(members)
        if c < 2:
            return False
        if sum(deg[v] for v in members) != 2 * (c - 1):
            return False  # not a tree
        if sum(1 for v in members if deg[v] >= 2) > 1:
            return False  # more than one centre
    return True


def _complete_orders(g: Graph) -> list[int] | None:
    """The orders of the components, by smallest member, when every
    component is complete; None otherwise."""
    orders = []
    for comp in component_masks(g):
        c = comp.bit_count()
        if any(g.degree(u) != c - 1 for u in iter_bits(comp)):
            return None
        orders.append(c)
    return orders


def is_union_of_completes(g: Graph) -> bool:
    """Disjoint union of at least two complete graphs, each of order at
    least 3."""
    orders = _complete_orders(g)
    return orders is not None and len(orders) >= 2 and min(orders) >= 3


def predict_n_critical(g: Graph) -> bool:
    """Structural prediction of n-gamma_tR-edge-criticality (n >= 4).

    True exactly for cycles, coronas of complete graphs K_r with r >= 3,
    subdivided stars of order >= 7, family-G members, and family-H
    members whose centre path was subdivided r times with r not 0 or 2.
    Paths (including the a = b = 1 family-H members) predict False.
    """
    if g.n < 4:
        raise TooSmallError("prediction needs order >= 4")
    cls = hen1_classify(g)
    if cls is None:
        return False
    if cls.kind == PATH_OR_CYCLE:
        return _is_cycle_graph(g)
    if cls.kind == SUBDIVIDED_STAR:
        return g.n >= 7
    if cls.kind == CORONA:
        inner = _corona_inner(g)
        assert inner is not None
        return inner.n >= 3 and is_complete_graph(inner)
    if cls.kind == FAMILY_G:
        return True
    return cls.r not in (0, 2)


_ATOM_RE = re.compile(r"^[Kk](\d+)$")


def _split_args(body: str) -> list[str]:
    args = []
    depth = 0
    current = []
    for ch in body:
        if ch == "(":
            depth += 1
            if depth >= GRAPH6_MAX_N:  # the enclosing parentheses are one level
                raise InvalidSpecError(
                    f"family text nested deeper than {GRAPH6_MAX_N} levels"
                )
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InvalidSpecError(f"unbalanced parentheses in {body!r}")
        if ch == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise InvalidSpecError(f"unbalanced parentheses in {body!r}")
    args.append("".join(current).strip())
    return args


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidSpecError(f"expected an integer, got {text!r}") from exc


def parse_family(text: str) -> FamilySpec:
    """Parse the canonical family syntax into a descriptor."""
    s = text.strip()
    atom = _ATOM_RE.match(s)
    if atom:
        return Complete(int(atom.group(1)))
    m = re.match(r"^([A-Za-z]+)\((.*)\)$", s, re.DOTALL)
    if not m:
        raise InvalidSpecError(f"cannot parse family {text!r}")
    name = m.group(1).lower()
    cls = _BY_NAME.get(name)
    if cls is None:
        raise InvalidSpecError(f"unknown family name {name!r}")
    args = _split_args(m.group(2))
    if args == [""]:
        args = []
    if cls is FamilyH and args and args[-1][:2].lower() == "r=":
        args[-1] = args[-1][2:]
    kind = "nested family" if cls in _NESTED else "integer"
    values = [(parse_family if cls in _NESTED else _parse_int)(a) for a in args]
    if cls in _LISTS:
        if not values:
            raise InvalidSpecError(f"{name} needs at least one {kind} argument")
        return cls(tuple(values))
    arity = len(fields(cls))
    if len(values) != arity:
        raise InvalidSpecError(f"{name} takes {arity} {kind} argument(s)")
    return cls(*values)


def family_to_text(spec: FamilySpec) -> str:
    """Canonical text form; the inverse of :func:`parse_family`."""
    if type(spec) not in _NAMES:
        raise InvalidSpecError(f"unknown family descriptor {spec!r}")
    if isinstance(spec, Complete):
        return f"K{spec.n}"
    args = [getattr(spec, f.name) for f in fields(spec)]
    if isinstance(spec, _LISTS):
        args = args[0]
    text = [family_to_text(a) if isinstance(spec, _NESTED) else str(a) for a in args]
    if isinstance(spec, FamilyH):
        text[-1] = "r=" + text[-1]
    return f"{_NAMES[type(spec)]}({','.join(text)})"
