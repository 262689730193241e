"""Named graph families: generators, closed forms, and structural recognizers.

Each generator fixes a documented canonical labelling so witnesses and
reports are reproducible.  Recognizers are label-independent: they test
structure, never labellings.  The gamma_tR = n classifier tests paths,
cycles and coronas directly; it reads the subdivided star, family G and
family H off one pendant-path decomposition, the core left when every
pendant 2-path (a leaf and its degree-2 support) is removed, with the
number of 2-paths hanging at each core vertex.

Family descriptors have a text syntax used by the CLI, for example
``spider(2,2,4)``, ``cor(K3)``, ``familyH(2,3,r=4)``, ``KxK(3,3)``,
``Gd(3)``, ``D(3)``, ``union(K2,K3)``.  Nesting is allowed for ``cor``
and ``union``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import (
    DisconnectedError,
    InvalidSpecError,
    TooFewLegsError,
    TooSmallError,
)
from .graphs import (
    Graph,
    build_graph,
    component_masks,
    disjoint_union,
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


def _invalid(spec: FamilySpec, detail: str) -> InvalidSpecError:
    return InvalidSpecError(f"{family_to_text(spec)}: {detail}")


def generate(spec: FamilySpec) -> Graph:
    """Build the graph a descriptor denotes, with its canonical labelling."""
    if isinstance(spec, Path):
        if spec.n < 1:
            raise _invalid(spec, "path needs n >= 1")
        return build_graph(spec.n, [(i, i + 1) for i in range(spec.n - 1)])
    if isinstance(spec, Cycle):
        if spec.n < 3:
            raise _invalid(spec, "cycle needs n >= 3")
        return build_graph(
            spec.n, [(i, (i + 1) % spec.n) for i in range(spec.n)]
        )
    if isinstance(spec, Complete):
        if spec.n < 1:
            raise _invalid(spec, "complete graph needs n >= 1")
        return build_graph(
            spec.n, [(i, j) for i in range(spec.n) for j in range(i + 1, spec.n)]
        )
    if isinstance(spec, Star):
        # centre 0, leaves 1..k
        if spec.k < 1:
            raise _invalid(spec, "star needs k >= 1")
        return build_graph(spec.k + 1, [(0, i) for i in range(1, spec.k + 1)])
    if isinstance(spec, SubdividedStar):
        # centre 0; arm i uses vertices 1+2i (mid) and 2+2i (leaf)
        if spec.k < 2:
            raise _invalid(spec, "subdivided star needs k >= 2")
        edges = []
        for i in range(spec.k):
            mid, leaf = 1 + 2 * i, 2 + 2 * i
            edges += [(0, mid), (mid, leaf)]
        return build_graph(2 * spec.k + 1, edges)
    if isinstance(spec, DoubleStar):
        # centres 0 and 1; leaves 2..a+1 on 0, a+2..a+b+1 on 1
        if spec.a < 1 or spec.b < 1:
            raise _invalid(spec, "double star needs a, b >= 1")
        edges = [(0, 1)]
        edges += [(0, 2 + i) for i in range(spec.a)]
        edges += [(1, 2 + spec.a + i) for i in range(spec.b)]
        return build_graph(2 + spec.a + spec.b, edges)
    if isinstance(spec, Corona):
        # inner graph keeps its labels; the leaf of vertex i is n+i
        inner = generate(spec.inner)
        edges = inner.edges()
        edges += [(i, inner.n + i) for i in range(inner.n)]
        return build_graph(2 * inner.n, edges)
    if isinstance(spec, Spider):
        # head 0; legs (sorted ascending) take consecutive vertex blocks
        if len(spec.legs) < 2:
            raise _invalid(spec, "spider needs k >= 2 legs")
        if any(l < 1 for l in spec.legs):
            raise _invalid(spec, "spider legs must be >= 1")
        edges = []
        nxt = 1
        for leg in spec.legs:
            prev = 0
            for _ in range(leg):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        return build_graph(nxt, edges)
    if isinstance(spec, FamilyG):
        # 4-cycle 0,1,2,3; pendant 2-paths (4+2t, 5+2t) hang off 0 then 1
        if spec.k1 < 0 or spec.k2 < 0 or spec.k1 + spec.k2 < 1:
            raise _invalid(spec, "family G needs k1, k2 >= 0 with k1 + k2 >= 1")
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        nxt = 4
        for attach, count in ((0, spec.k1), (1, spec.k2)):
            for _ in range(count):
                edges += [(attach, nxt), (nxt, nxt + 1)]
                nxt += 2
        return build_graph(nxt, edges)
    if isinstance(spec, FamilyH):
        # centre path 0..r+1; 2-paths hang off 0 (a of them) and r+1 (b)
        if spec.a < 1 or spec.b < 1 or spec.r < 0:
            raise _invalid(spec, "family H needs a, b >= 1 and r >= 0")
        m = spec.r + 2
        edges = [(i, i + 1) for i in range(m - 1)]
        nxt = m
        for attach, count in ((0, spec.a), (m - 1, spec.b)):
            for _ in range(count):
                edges += [(attach, nxt), (nxt, nxt + 1)]
                nxt += 2
        return build_graph(nxt, edges)
    if isinstance(spec, Galaxy):
        if len(spec.sizes) < 2:
            raise _invalid(spec, "galaxy needs at least two stars")
        if any(s < 1 for s in spec.sizes):
            raise _invalid(spec, "galaxy star sizes must be >= 1")
        return disjoint_union([generate(Star(s)) for s in spec.sizes])
    if isinstance(spec, CartesianComplete):
        # row-major: vertex (i, j) -> i*m + j; adjacent iff same row or column
        if spec.n < 2 or spec.m < 2:
            raise _invalid(spec, "K_n x K_m needs n, m >= 2")
        n, m = spec.n, spec.m
        edges = []
        for i in range(n):
            for j in range(m):
                for jj in range(j + 1, m):
                    edges.append((i * m + j, i * m + jj))
        for j in range(m):
            for i in range(n):
                for ii in range(i + 1, n):
                    edges.append((i * m + j, ii * m + j))
        return build_graph(n * m, edges)
    if isinstance(spec, ProductDeleted):
        # K_{l+1} x K_{l+1} minus column-1 entries of rows floor(l/2)+2..l+1
        # (1-based); survivors are relabelled densely in row-major order
        if spec.l < 2:
            raise _invalid(spec, "deleted product needs l >= 2")
        l = spec.l
        side = l + 1
        cut = l // 2 + 2
        keep = [
            (i, j)
            for i in range(1, side + 1)
            for j in range(1, side + 1)
            if not (j == 1 and i >= cut)
        ]
        index = {p: k for k, p in enumerate(keep)}
        edges = []
        for a in range(len(keep)):
            i1, j1 = keep[a]
            for b in range(a + 1, len(keep)):
                i2, j2 = keep[b]
                if i1 == i2 or j1 == j2:
                    edges.append((index[keep[a]], index[keep[b]]))
        return build_graph(len(keep), edges)
    if isinstance(spec, DeadExample):
        # centre c = 0; copy i (1-based) has u_i = i, v_i = n+i, w_i = 2n+i
        if spec.n < 2:
            raise _invalid(spec, "dead example needs n >= 2")
        n = spec.n
        edges = []
        for i in range(1, n + 1):
            u, v, w = i, n + i, 2 * n + i
            edges += [(0, u), (0, v), (u, v), (u, w), (v, w)]
        return build_graph(3 * n + 1, edges)
    if isinstance(spec, DisjointUnion):
        if not spec.parts:
            raise _invalid(spec, "union needs at least one part")
        return disjoint_union([generate(p) for p in spec.parts])
    raise InvalidSpecError(f"unknown family descriptor {spec!r}")


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


def is_union_of_completes(g: Graph) -> bool:
    """Disjoint union of at least two complete graphs, each of order at
    least 3."""
    deg = g.degrees
    comps = component_masks(g)
    for comp in comps:
        c = comp.bit_count()
        if c < 3:
            return False
        for u in iter_bits(comp):
            if deg[u] != c - 1:
                return False
    return len(comps) >= 2


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
    args = _split_args(m.group(2))
    if args == [""]:
        args = []
    if name == "cor":
        if len(args) != 1:
            raise InvalidSpecError("cor takes exactly one nested family")
        return Corona(parse_family(args[0]))
    if name == "union":
        if not args:
            raise InvalidSpecError("union needs at least one nested family")
        return DisjointUnion(tuple(parse_family(a) for a in args))
    if name == "familyh":
        if len(args) != 3:
            raise InvalidSpecError("familyH takes (a, b, r=...)")
        a, b = _parse_int(args[0]), _parse_int(args[1])
        last = args[2]
        if last.lower().startswith("r="):
            last = last[2:]
        return FamilyH(a, b, _parse_int(last))
    ints = [_parse_int(a) for a in args]
    simple = {
        "path": (Path, 1),
        "cycle": (Cycle, 1),
        "complete": (Complete, 1),
        "star": (Star, 1),
        "substar": (SubdividedStar, 1),
        "doublestar": (DoubleStar, 2),
        "familyg": (FamilyG, 2),
        "kxk": (CartesianComplete, 2),
        "gd": (ProductDeleted, 1),
        "d": (DeadExample, 1),
    }
    if name in simple:
        ctor, arity = simple[name]
        if len(ints) != arity:
            raise InvalidSpecError(f"{name} takes {arity} integer argument(s)")
        return ctor(*ints)
    if name == "spider":
        if not ints:
            raise InvalidSpecError("spider needs at least one leg")
        return Spider(tuple(ints))
    if name == "galaxy":
        if not ints:
            raise InvalidSpecError("galaxy needs at least one star size")
        return Galaxy(tuple(ints))
    raise InvalidSpecError(f"unknown family name {name!r}")


def family_to_text(spec: FamilySpec) -> str:
    """Canonical text form; the inverse of :func:`parse_family`."""
    if isinstance(spec, Path):
        return f"path({spec.n})"
    if isinstance(spec, Cycle):
        return f"cycle({spec.n})"
    if isinstance(spec, Complete):
        return f"K{spec.n}"
    if isinstance(spec, Star):
        return f"star({spec.k})"
    if isinstance(spec, SubdividedStar):
        return f"substar({spec.k})"
    if isinstance(spec, DoubleStar):
        return f"doublestar({spec.a},{spec.b})"
    if isinstance(spec, Corona):
        return f"cor({family_to_text(spec.inner)})"
    if isinstance(spec, Spider):
        return f"spider({','.join(map(str, spec.legs))})"
    if isinstance(spec, FamilyG):
        return f"familyG({spec.k1},{spec.k2})"
    if isinstance(spec, FamilyH):
        return f"familyH({spec.a},{spec.b},r={spec.r})"
    if isinstance(spec, Galaxy):
        return f"galaxy({','.join(map(str, spec.sizes))})"
    if isinstance(spec, CartesianComplete):
        return f"KxK({spec.n},{spec.m})"
    if isinstance(spec, ProductDeleted):
        return f"Gd({spec.l})"
    if isinstance(spec, DeadExample):
        return f"D({spec.n})"
    if isinstance(spec, DisjointUnion):
        return f"union({','.join(family_to_text(p) for p in spec.parts)})"
    raise InvalidSpecError(f"unknown family descriptor {spec!r}")
