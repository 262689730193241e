"""Per-edge gamma_tR deltas, graph classification, and critical completion.

The delta of a non-edge uv is gamma_tR(G) - gamma_tR(G+uv).

Lemma: 0 <= delta <= 2.  A TRD-function of G is one of G+uv.  Conversely,
let f be a minimum TRD-function of G+uv whose condition at u, say, holds
only through uv.  If f(u) = 0 (so f(v) = 2), set f(u) = 1 and raise a
G-neighbour of u to at least 1; if f(u), f(v) > 0, raise a G-neighbour of
u, and of v when v too needs uv, to at least 1.  A raised 0 had a
neighbour of value 2 in G, so G has a TRD-function of weight <= w(f) + 2.

The same argument splits the functions of G+uv by how they use the edge.
One lighter than gamma_tR(G) is no TRD-function of G, so (f(u), f(v)) is
(2, 0) or (0, 2), where the 2 dominates the 0 across uv, or has both ends
positive; (0, 0), (0, 1) and (1, 0) meet no condition through uv.  In each
case uv meets the condition of the 0, or of both positive ends, and no
other: such a function is one of G with those conditions waived.  Every
non-edge question is the solver's exact ``delta(u, v)``, asked of its one
object for G, kept between calls, so every question about G shares one
routing of it and one gamma_tR(G).  :mod:`trd.solver` describes how it
answers each pair.

A graph with a nonempty complement is classified by its delta multiset:
supercritical (all 2), edge-critical (all >= 1), stable (all 0), or mixed;
complete graphs get their own class since criticality is only defined when
the complement has edges.
"""

from __future__ import annotations

from .errors import IsolatedVertexError, ValueTooSmallError
from .graphs import Graph, Record, add_edge
from .solver import _solved, gamma_t_value, gamma_tr_value

COMPLETE = "complete"
SUPERCRITICAL = "supercritical"
EDGE_CRITICAL = "edge-critical"
STABLE = "stable"
MIXED = "mixed"


class EdgeProfile(Record):
    """Base value, per-non-edge deltas, and the derived classification.

    ``deltas`` maps each complement edge (u, v), u < v, to its delta; the
    insertion order is the canonical sorted-pair order.
    """

    _fields = ("base_value", "deltas", "classification")


def classify_deltas(deltas: dict[tuple[int, int], int]) -> str:
    """Classification label for a complete non-edge delta map."""
    if not deltas:
        return COMPLETE
    values = deltas.values()
    if all(d == 2 for d in values):
        return SUPERCRITICAL
    if all(d >= 1 for d in values):
        return EDGE_CRITICAL
    if all(d == 0 for d in values):
        return STABLE
    return MIXED


def edge_delta(g: Graph, u: int, v: int) -> int:
    """gamma_tR(G) - gamma_tR(G+uv) for the non-edge uv."""
    return _solved(g).delta(u, v)


def is_critical_edge(g: Graph, u: int, v: int) -> bool:
    """Whether adding the non-edge uv lowers gamma_tR."""
    return _solved(g).delta(u, v) > 0


def edge_profile(g: Graph) -> EdgeProfile:
    """Deltas for every non-edge plus the classification."""
    if g.has_isolated_vertices():
        raise IsolatedVertexError("edge profiles need a graph without isolated vertices")
    deltas = {(u, v): edge_delta(g, u, v) for u, v in g.non_edges()}
    return EdgeProfile(gamma_tr_value(g), deltas, classify_deltas(deltas))


def _every_non_edge(g: Graph, drop: int, holds: bool) -> bool:
    """Whether "gamma_tR(G+uv) <= gamma_tR(G) - drop" is ``holds`` for every
    non-edge uv, stopping at the first where it is not; False on complete
    graphs."""
    non_edges = g.non_edges()
    if not non_edges:
        return False
    delta = _solved(g).delta
    return all((delta(u, v) >= drop) == holds for u, v in non_edges)


def is_edge_critical(g: Graph) -> bool:
    """Every non-edge lowers gamma_tR (supercritical graphs qualify too)."""
    return _every_non_edge(g, 1, True)


def is_stable(g: Graph) -> bool:
    """No non-edge lowers gamma_tR."""
    return _every_non_edge(g, 1, False)


def is_supercritical(g: Graph) -> bool:
    """Every non-edge lowers gamma_tR by exactly 2."""
    return _every_non_edge(g, 2, True)


def complete_to_critical(g: Graph) -> Graph:
    """Grow G into an edge-critical supergraph with the same gamma_tR.

    Scans G's non-edges once, in lexicographic order, and adds each whose
    delta in the graph grown so far is 0.  This adds the edges that a scan
    restarted after every addition would add: an added edge never raises
    gamma_tR, so a non-edge found critical stays critical.  Requires
    gamma_tR(G) >= 4: below that the value would collapse to 3 before
    criticality is reached.
    """
    if g.has_isolated_vertices():
        raise IsolatedVertexError("completion needs a graph without isolated vertices")
    base = gamma_tr_value(g)
    if base < 4:
        raise ValueTooSmallError(f"completion requires gamma_tR >= 4, got {base}")
    current = g
    for u, v in g.non_edges():
        if not _solved(current).delta(u, v):
            current = add_edge(current, u, v)
    return current


def is_k_gamma_t_edge_critical(g: Graph, k: int) -> bool:
    """gamma_t(G) = k and every non-edge strictly lowers gamma_t."""
    if g.has_isolated_vertices():
        raise IsolatedVertexError("gamma_t criticality needs no isolated vertices")
    non_edges = g.non_edges()
    if not non_edges or gamma_t_value(g) != k:
        return False
    return all(gamma_t_value(add_edge(g, u, v)) < k for u, v in non_edges)
