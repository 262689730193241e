"""Exact solvers for the domination invariants gamma, gamma_t, gamma_R, gamma_tR.

Every gamma_tR question about one graph G (value, witness, dead vertices,
the effect of adding a non-edge) is asked of one object, ``_Solved(G)``,
which validates G once.  gamma_R, the same minimum without the total
condition (Cockayne, Dreyer, Hedetniemi & Hedetniemi, Discrete Math. 278,
2004), and its dead vertices are asked of ``_Solved(G, total=False)``.
gamma_t and gamma are asked of the same two objects: a (total) dominating
set is a function with values {0, 2}, so each is half the least weight of
such a function, with and without the total condition (Telle &
Proskurowski's (sigma, rho) view, as in ``_fill``).  On first need the
object splits G into connected components and gives each its graph and
its engine; questions are answered one component at a time.  The engine
is the frontier dynamic program when the component has order >= 10 and
the greedy finds it a vertex order of frontier width <= 3, else branch
and bound.  The last object of each mode is kept in a one-slot cache, so
a graph whose questions different functions ask in turn is routed once.

The DP codes each frontier state as one base-6 integer and looks its
transitions up in rows shared by every DP through the step's shape,
built lazily.  Both engines answer through
``decide(pins, cap, first_hit, budget)``: the least weight <= cap of a
function with the pinned values, else None; a function of that weight;
and the nodes spent.  ``twos()`` gives the least weight with values
{0, 2}, asked of a component only when the constructive probe misses the
floor, 4 for gamma_t and 2 for gamma, that a dominating vertex (or, for
gamma_t, a dominating edge) meets.  The witness search skips every
value that a returned function already shows to work.  Both list the
dead vertices through ``dead(value)``, given the value their component
already has: branch and bound by two pinned searches per vertex, the DP
by reading the tables of its unpinned run and its backward completion
once, with no run per vertex.

For a non-edge uv, ``_Solved.delta(u, v)`` gives
gamma_tR(G) - gamma_tR(G+uv).  Order <= 6 reads the table.  A function
lighter than gamma_tR(G) uses uv in one of three cases (see
:mod:`trd.criticality`), each of which waives the conditions that uv
meets.  A pair inside one component is ``_Part.pair(u, v)``, the least
weight of a function of the component plus uv.  The DP's case tables run
the three cases on its own order.  The near scan (``_Near``) fills one
table per component at its first pair question (``_Part.near``), over
the functions of the component lighter than its gamma_tR whose unmet
conditions sit on at most two vertices; it builds no graph and runs no
pinned search.  Branch and bound always takes the scan.  A DP component
takes it, on a branch-and-bound engine built for it, when the sets of 2s
the scan may walk, at most C(n, (gamma_tR - 1) // 2), times
``_NEAR_WORK`` are at most the case-table work, estimated as the nodes of
the DP's unpinned run times the component's non-edges; else its case
tables.  A pair across two components builds no graph either: per case
it adds the two ends' ``at(w, xs, waive)``, each component's least
weight with f(w) in xs and w's condition waived if asked.

Every value of order <= 6 (gamma, gamma_t, gamma_R, gamma_tR) is read
from one memo: per invariant and order a bytearray indexed by the colex
edge mask, filled whole at its first read by one bit-parallel pass over
all edge masks (``_fill``), which runs no search.  A 0xFF entry, where the
invariant is undefined, runs the solve that validates the graph, which
raises.

The branch and bound searches partial weight assignments
f: V -> {0, 1, 2}.  It branches on an unsatisfied vertex of maximum
degree, trying the values 2, then 1, then 0; the 0 branch is expanded
over the choices of lowest-index neighbour that will carry the required
2, so every level of the tree satisfies at least one new vertex.  A node
is pruned by a slack test, whether a greedy cover bound reaches
best - weight, which reads only the candidate counts that decision needs.
In total mode two more cuts apply.  Every
TRD-function has f(N[v]) >= 2, so over a packing P fixed per engine
(closed neighbourhoods pairwise disjoint) the deficits
2 - f(N[p] & assigned) bound what a completion adds, whence
gamma_tR >= 2 |P| (Ahangar, Henning, Samodivkin & Yero, "Total Roman
domination in graphs", 2016).  And a vertex whose neighbours are all
assigned 0 can meet neither condition.  With the values {0, 2} the 1
branch is off and every weight is even, which tightens the slack by one
when it is even; the packing cut holds with or without the total
condition, as each N[p] needs a 2; and in total mode a 2 meets only its
neighbours' conditions, so every vertex needs a 2 among its neighbours
and none is left lone.

One deliberately independent scan of all 3^n weight vectors, which shares
nothing with either engine, is both the oracle :func:`brute_oracle_gamma_tr`
and the enumeration :func:`enumerate_min_trd`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache
from itertools import combinations

from .errors import (
    BudgetExceededError,
    GraphTooLargeError,
    IsolatedVertexError,
    LengthMismatchError,
    NotANonEdgeError,
    OutOfRangeError,
    TooSmallError,
)
from .graphs import (
    Graph, Record, cached, component_masks, induced_subgraph, iter_bits,
    pair_index,
)

SOLVER_MAX_N = 24
ENUMERATION_MAX_N = 12
_MEMO_MAX_N = 6
# the DP is faster on one graph from order 7 (value only, 2-vCPU VM: cycle(7)
# 0.17 ms against 0.25 ms for branch and bound), yet a cut at 7 slows `hunt
# Q1` and `hunt Q2 --all-labeled 7` from 0.64 and 0.62 s to 0.78 and 0.75 s
# (median of 5 runs), and no cut slows the registry benchmark's scaled_wall_s
# from 0.19-0.21 s to 0.27-0.28 s, so the cut stays at 10
_DP_MIN_N = 10
_DP_MAX_WIDTH = 3
# the weight of the near scan's walk in _Part.near, set from per-graph
# timings of both routes (CHANGES.md): the scan wins once the case-table
# work is about 9-12 times its bound, but the early-exit predicates, which
# ask few pairs, pay for its whole table
_NEAR_WORK = 25


class WeightFunction(Record):
    """An assignment f: V -> {0, 1, 2} stored as a value tuple."""

    _fields = ("values",)

    def __post_init__(self) -> None:
        for v, x in enumerate(self.values):
            if x not in (0, 1, 2):
                raise OutOfRangeError(f"weight {x} at vertex {v} not in {{0,1,2}}")

    @property
    def weight(self) -> int:
        return sum(self.values)


class TrdVerdict(Record):
    """Validity verdict with the first violating vertex and condition."""

    _fields = ("valid", "vertex", "condition")  # condition: "roman" or "total"
    _defaults = {"vertex": None, "condition": None}

    def __bool__(self) -> bool:
        return self.valid


class SolveResult(Record):
    _fields = ("invariant", "value", "witness", "nodes_explored")


def _require_no_isolated(g: Graph) -> None:
    if g.has_isolated_vertices():
        isolated = tuple(v for v, a in enumerate(g.adj) if not a)
        raise IsolatedVertexError(f"isolated vertices {isolated} present")


def is_trd_function(g: Graph, f: WeightFunction) -> TrdVerdict:
    """Check the two TRD conditions, reporting the first violating vertex."""
    if len(f.values) != g.n:
        raise LengthMismatchError(f"function length {len(f.values)} != order {g.n}")
    two = 0
    pos = 0
    for v, x in enumerate(f.values):
        if x == 2:
            two |= 1 << v
        if x > 0:
            pos |= 1 << v
    for v, x in enumerate(f.values):
        if x == 0:
            if not g.adj[v] & two:
                return TrdVerdict(False, v, "roman")
        else:
            if not g.adj[v] & pos:
                return TrdVerdict(False, v, "total")
    return TrdVerdict(True)


class _WeightSearch:
    """Branch-and-bound minimiser for RD/TRD-function weight, and with the
    1s off for twice the size of a (total) dominating set."""

    __slots__ = (
        "g", "n", "adj", "closed", "by_degree", "packing", "full", "total",
        "budget", "nodes", "best", "found", "cap",
        "first_hit", "done", "waived", "live", "ones", "meet",
    )

    def __init__(self, g: Graph, total: bool):
        self.g = g
        self.n = g.n
        self.adj = g.adj
        self.closed = closed = [a | 1 << w for w, a in enumerate(g.adj)]
        # branch candidates: highest degree first, lowest index on ties (the
        # sort is stable under reverse)
        order = sorted(range(g.n), key=g.degrees.__getitem__, reverse=True)
        self.by_degree = [1 << w for w in order]
        # the closed neighbourhoods of a packing, taken greedily by lowest
        # degree, then lowest index: f(N[p]) >= 2 holds for every
        # TRD-function and every function with values {0, 2}, not for
        # RD-functions
        packing = []
        used = 0
        for w in sorted(range(g.n), key=g.degrees.__getitem__):
            if not closed[w] & used:
                packing.append(closed[w])
                used |= closed[w]
        self.packing = self.live = packing
        self.full = g.full_mask
        self.total = total

    def decide(self, pins: dict[int, int], cap: int, first_hit: bool = False,
               budget: int | None = None) -> tuple[int | None, list | None, int]:
        """The engine contract (see the module docstring).  Without pins the
        search starts from the constructive probe, whose function is
        returned when it is the answer."""
        if pins:
            probe = cap + 1
        else:
            probe, self.found = _probe(self.g, self.total)
        weight = self.solve(pins, min(cap, probe - 1), first_hit, budget)
        if weight is None:
            if probe > cap:
                return None, None, self.nodes
            weight = probe
        two, pos = self.found
        return weight, [(two >> v & 1) + (pos >> v & 1) for v in range(self.n)], self.nodes

    def dead(self, value: int) -> list[int]:
        """The vertices that no function of weight ``value``, the minimum,
        gives a positive value: two pinned first-hit searches each."""
        return [v for v in range(self.n)
                if all(self.decide({v: x}, value, True)[0] is None for x in (1, 2))]

    def at(self, w: int, xs: tuple[int, ...], waive: bool) -> float:
        """The least weight with f(w) in ``xs`` and, if ``waive``, w's condition
        met from outside, else inf: one pinned search per value in ``xs``."""
        best = math.inf
        for x in xs:
            weight = self.solve({w: x}, min(best - 1, 2 * self.n), False, None,
                                w if waive else None)
            if weight is not None:
                best = weight
        return best

    def twos(self) -> int:
        """The least weight of a function with values {0, 2}: one search
        with the 1s off."""
        return self.solve({}, 2 * self.n, False, None, ones=False)

    def solve(self, pins, cap, first_hit, budget, waive: int | None = None,
              ones: bool = True) -> int | None:
        """Minimum feasible weight not exceeding ``cap``, else None, within
        ``budget`` nodes (``nodes`` counts this call's); ``found`` then holds
        the ``(two, pos)`` masks of a function of that weight.

        With ``first_hit`` the search stops at the first assignment within
        the cap (the result is then only an upper bound, suitable for
        yes/no questions).  The vertex ``waive`` has its condition met from
        outside: it starts satisfied, no cut asks it for a neighbour, and the
        packing drops the member centred at it, the one that changes.
        Without ``ones`` no vertex takes the value 1 and every completion
        adds an even weight, and in total mode a 2 meets only its
        neighbours' conditions, so no positive vertex is left lone.
        """
        self.nodes = 0
        if cap < 0:
            return None
        self.ones = ones
        # meet[w]: the vertices whose condition a 2 at w meets, N[w], or
        # N(w) for 2s alone in total mode
        self.meet = self.adj if self.total and not ones else self.closed
        self.budget = budget
        self.best = cap + 1
        self.cap = cap
        self.first_hit = first_hit
        self.done = False
        self.waived = sat = 0 if waive is None else 1 << waive
        packing = self.packing if self.total or not ones else []
        self.live = packing if waive is None else [
            c for c in packing if c != self.closed[waive]]
        assigned = two = pos = 0
        weight = 0
        if pins:
            for v, val in pins.items():
                bv = 1 << v
                assigned |= bv
                if val == 2:
                    two |= bv
                    pos |= bv
                    sat |= self.meet[v]
                    weight += 2
                elif val == 1:
                    pos |= bv
                    sat |= bv
                    weight += 1
                elif val != 0:
                    raise OutOfRangeError(f"pinned weight {val} not in {{0,1,2}}")
            zero = assigned & ~pos
            if self.total and zero and self._dead(zero, self.full & ~self.waived):
                return None
        self._rec(assigned, two, pos, 0, sat, weight)
        return self.best if self.best <= cap else None

    def _dead(self, zero: int, m: int) -> bool:
        """Whether some vertex of ``m`` has every neighbour in ``zero``, the
        vertices assigned 0: it can then meet neither TRD condition."""
        adj = self.adj
        while m:
            low = m & -m
            if not adj[low.bit_length() - 1] & ~zero:
                return True
            m ^= low
        return False

    def _packing_pruned(self, unassigned: int, two: int, pos: int, slack: int) -> bool:
        """Whether the packing proves that every completion adds at least
        ``slack``: the deficits 2 - f(N[p] & assigned), over disjoint closed
        neighbourhoods, sum to ``slack``, or some deficit has no unassigned
        vertex left to fill it."""
        short = 0
        for c in self.live:
            if c & two:
                continue
            k = (c & pos).bit_count()
            if k < 2:
                if not c & unassigned:
                    return True
                short += 2 - k
        return short >= slack

    def _cover_pruned(self, undom: int, unassigned: int, not2: int, slack: int) -> bool:
        """Whether the cover bound reaches ``slack``, for a nonzero ``undom``.

        The bound lets a future 2 at w satisfy at most c = |N[w] & undom|
        vertices for cost 2 and a future 1 one vertex for cost 1, and takes
        the 2s greedily, largest c first, while two or more vertices are
        left.  It lies between 1 and |undom|, and is at most
        2 + |undom| - c for any c >= 2, so one candidate with
        c >= |undom| + 3 - slack decides it; otherwise only the
        (slack - 1) // 2 largest counts can keep it below slack.
        """
        if slack <= 2:
            return slack < 2 or undom & (undom - 1) != 0
        remaining = undom.bit_count()
        if remaining < slack:
            return False
        top = (slack - 1) // 2
        enough = remaining + 3 - slack
        closed = self.closed
        m = unassigned & ~not2
        if top == 1:
            while m:
                low = m & -m
                if (closed[low.bit_length() - 1] & undom).bit_count() >= enough:
                    return False
                m ^= low
            return True
        counts = []
        while m:
            low = m & -m
            c = (closed[low.bit_length() - 1] & undom).bit_count()
            if c >= enough:
                return False
            if c > 1:
                counts.append(c)
            m ^= low
        counts.sort(reverse=True)
        cost = 0
        for c in counts[:top]:
            if remaining < 2:
                break
            remaining -= c
            cost += 2
        return cost + max(remaining, 0) >= slack

    def _rec(self, assigned, two, pos, not2, sat, weight):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceededError(f"node budget {self.budget} exhausted")
        undom = self.full & ~sat
        unassigned = self.full & ~assigned
        adj = self.adj
        slack = self.best - weight
        if not self.ones:
            slack = (slack - 1) | 1  # even weights: below slack is below this
        if self.live and self._packing_pruned(unassigned, two, pos, slack):
            return
        if undom:
            if self._cover_pruned(undom, unassigned, not2, slack):
                return
            # branch vertex: unsatisfied, maximum degree, lowest index
            for bv in self.by_degree:
                if undom & bv:
                    break
            v = bv.bit_length() - 1
            adjv, meet = adj[v], self.meet
            if unassigned & bv:
                if not not2 & bv:
                    self._rec(assigned | bv, two | bv, pos | bv, not2,
                              sat | meet[v], weight + 2)
                    if self.done:
                        return
                if self.ones:
                    self._rec(assigned | bv, two, pos | bv, not2, sat | bv, weight + 1)
                    if self.done:
                        return
                # with f(bv) = 0 a neighbour whose neighbours are all 0 is lost
                if self.total and self._dead((assigned | bv) & ~pos, adjv & ~self.waived):
                    return
                helpers = adjv & unassigned & ~not2 & ~bv
            else:
                helpers = adjv & unassigned & ~not2
                # a pinned 0, or a 2 that needs a 2 among its neighbours:
                # only cover branches apply
                bv = 0
            excl = 0
            while helpers:
                low = helpers & -helpers
                w = low.bit_length() - 1
                self._rec(assigned | bv | low, two | low, pos | low, not2 | excl,
                          sat | meet[w], weight + 2)
                if self.done:
                    return
                excl |= low
                helpers ^= low
            return
        if self.total:
            lone = 0
            m = pos & ~self.waived
            while m:
                low = m & -m
                if not adj[low.bit_length() - 1] & pos:
                    lone |= low
                m ^= low
            if lone:
                if weight + 1 >= self.best:
                    return
                v = (lone & -lone).bit_length() - 1
                helpers = adj[v] & unassigned
                excl = 0
                while helpers:
                    low = helpers & -helpers
                    self._rec(assigned | excl | low, two, pos | low, not2,
                              sat, weight + 1)
                    if self.done:
                        return
                    excl |= low
                    helpers ^= low
                return
        if weight < self.best:
            self.best = weight
            self.found = (two, pos)
            if self.first_hit and weight <= self.cap:
                self.done = True


@lru_cache(maxsize=None)
def _pair_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """``[a][b]``: ``pair_index(a, b)``, 0 when a = b."""
    return tuple(tuple(pair_index(a, b) if a != b else 0 for b in range(n))
                 for a in range(n))


class _Settled(Exception):
    """Every pair of a near scan has reached its floor."""


class _Near:
    """The near scan of one component H with gamma_tR(H) = ``value``, run
    on a branch-and-bound engine of H: that component's own, or one built
    for a DP component whose estimate picks the scan (``_Part.near``).
    ``least[pair_index(u, v)]`` is, for each non-edge uv, the least weight,
    down to the floor ``value - 2``, of a TRD-function of H+uv lighter than
    ``value``, else ``value``; each edge reads the floor.

    Such a function is one of H whose unmet conditions sit at u and v (see
    :mod:`trd.criticality`), a near function: it has a Roman defect r, a 0
    with no neighbour of value 2, alone, or one or two total defects,
    positive vertices with no positive neighbour.  The scan walks the sets
    T of 2s by size, fewest first.  The vertices T leaves undominated are
    1s, except at most one Roman defect; the lowest positive vertex with no
    positive neighbour either gets a 1 on a neighbour not tried before it,
    or is kept as a total defect, at most two and none beside a Roman
    defect.  Each near function found credits the pairs it repairs
    (``_credit``).  For every function of H+uv lighter than ``value`` the
    scan finds one with the same 2s, no heavier, that credits uv.

    The prunes are exact.  A set of 2s and its extensions are dropped when
    the packing bound of the engine, 2 |T| + 2 (members T misses) - s,
    exceeds the cap, s being 2 while a missed member's centre may still be
    a defect, else 0; or when the undominated vertices that no later
    candidate dominates, 1s but for one Roman defect, exceed it.  A vertex
    whose pairs have all reached the floor, or settled, is no defect; the
    cap falls to the floor once every pair has a function below ``value``,
    and the scan ends when every pair has settled.  Small sets go first as
    they settle pairs soonest: walked depth first by index instead, the
    scan took 2.2 s on cor(K11) against 4 ms (``edge_profile``, in-process,
    2-vCPU VM).
    """

    __slots__ = ("adj", "far", "index", "least", "left", "open", "cap", "floor",
                 "unfound", "unsettled", "two")

    def __init__(self, search: _WeightSearch, value: int):
        n = search.n
        self.adj = search.adj
        self.far = [search.full & ~c for c in search.closed]  # non-neighbours
        self.index = _pair_rows(n)
        self.floor, self.cap = value - 2, value - 1
        edges = search.g.edge_mask
        self.least = [self.floor if edges >> i & 1 else value
                      for i in range(n * (n - 1) // 2)]
        self.left = [c.bit_count() for c in self.far]  # unsettled pairs per vertex
        self.open = sum(1 << v for v, c in enumerate(self.far) if c)
        self.unfound = self.unsettled = sum(self.left) // 2
        try:
            self._walk(search)
        except _Settled:
            pass

    def _walk(self, search: _WeightSearch) -> None:
        """Score the sets of 2s by size, fewest first.  A set grows by each
        candidate above its highest member that passes both prunes; the
        undominated vertices that no candidate from c on dominates only
        grow with c.  A size's sets are kept as bare masks, what each
        dominates and the members it meets found again as it grows."""
        n, closed, full = search.n, search.closed, search.full
        # reach[c]: the vertices some candidate from c on dominates;
        # centre[v]: the centre, as a bit, of the packing member holding v
        reach = [0] * (n + 1)
        for c in range(n - 1, -1, -1):
            reach[c] = reach[c + 1] | closed[c]
        centre = [0] * n
        centres = 0
        for member in search.packing:
            p = 1 << next(p for p in iter_bits(member) if closed[p] == member)
            centres |= p
            for v in iter_bits(member):
                centre[v] = p
        sets = [0]
        size = 0
        while sets:
            grown = []
            two = 2 * size + 2
            for t in sets:
                dom = hit = 0
                m = t
                while m:
                    low = m & -m
                    v = low.bit_length() - 1
                    dom |= closed[v]
                    hit |= centre[v]
                    m ^= low
                undom = full & ~dom
                if 2 * size + undom.bit_count() <= self.cap + 1:
                    self._leaves(t, size, undom)
                cap, open = self.cap, self.open
                missed = centres & ~hit
                for c in range(t.bit_length(), n):
                    lost = undom & ~reach[c]
                    if two + lost.bit_count() - (lost & open != 0) > cap:
                        break
                    m = missed & ~centre[c]
                    if two + 2 * m.bit_count() - 2 * (m & open != 0) > cap:
                        continue
                    grown.append(t | 1 << c)
            sets = grown
            size += 1

    def _leaves(self, t: int, size: int, undom: int) -> None:
        """Every near function whose 2s are ``t``, leaving ``undom``
        undominated: with no Roman defect, and with each open vertex of
        ``undom`` as the Roman defect."""
        weight = 2 * size + undom.bit_count()
        adj = self.adj
        pos = t | undom
        lone = 0
        m = pos
        while m:
            low = m & -m
            if not adj[low.bit_length() - 1] & pos:
                lone |= low
            m ^= low
        self.two = t
        if lone and weight <= self.cap:
            self._repair(pos, lone, 0, 0, weight, 0)
        m = undom & self.open if t else 0  # a Roman defect needs a 2 to repair it
        while m:
            r = m & -m
            m ^= r
            p = pos ^ r
            nlone = lone & ~r
            k = adj[r.bit_length() - 1] & p
            while k:
                low = k & -k
                if not adj[low.bit_length() - 1] & p:
                    nlone |= low
                k ^= low
            self._repair(p, nlone, 0, r, weight - 1, r)

    def _repair(self, pos: int, lone: int, keep: int, excl: int, weight: int,
                r: int) -> None:
        """Complete the positive set ``pos``, of ``weight``, whose lone
        vertices ``lone`` are not yet kept: the lowest is kept as a total
        defect (``keep``), or gets a 1 on a neighbour outside ``excl``, the
        vertices that stay 0."""
        if weight > self.cap:
            return
        if not lone:
            self._credit(pos, keep, weight, r)
            return
        x = lone & -lone
        adj = self.adj
        xi = x.bit_length() - 1
        # a defect beside no Roman defect, at most two, the second only
        # while its pair with the first can still fall
        if not r and x & self.open and not keep & (keep - 1) and (
                not keep or self.least[self.index[xi][keep.bit_length() - 1]] > weight):
            self._repair(pos, lone ^ x, keep | x, excl | adj[xi], weight, 0)
        if weight >= self.cap:
            return
        helpers = adj[xi] & ~pos & ~excl
        while helpers:
            low = helpers & -helpers
            self._repair(pos | low, lone & ~adj[low.bit_length() - 1], keep, excl,
                         weight + 1, r)
            excl |= low
            helpers ^= low

    def _credit(self, pos: int, keep: int, weight: int, r: int) -> None:
        """Credit the pairs a near function repairs: with the Roman defect r,
        (t, r) for each 2 t; with one total defect x, (x, y) for each
        positive non-neighbour y; with two, the two.  A 0 raised to 1 beside
        a lone defect x would repair it at gamma_tR(H) or more: a 1 on a
        neighbour of x already makes the function one of H."""
        index = self.index
        if r:
            row = index[r.bit_length() - 1]
            m = self.two
            while m:
                low = m & -m
                self._set(row[low.bit_length() - 1], weight, r, low)
                m ^= low
        elif keep & (keep - 1):
            x = keep & -keep
            self._set(index[x.bit_length() - 1][(keep ^ x).bit_length() - 1],
                      weight, x, keep ^ x)
        elif keep:
            row = index[keep.bit_length() - 1]
            m = self.far[keep.bit_length() - 1] & pos & self.open
            while m:
                low = m & -m
                self._set(row[low.bit_length() - 1], weight, keep, low)
                m ^= low

    def _set(self, i: int, weight: int, a: int, b: int) -> None:
        """Lower the pair i, of the vertex bits a and b, to ``weight``."""
        least = self.least
        old = least[i]
        if weight >= old:
            return
        least[i] = weight
        if old == self.floor + 2:
            self.unfound -= 1
            if not self.unfound:
                self.cap = self.floor
        if weight == self.floor:
            for bit in (a, b):
                v = bit.bit_length() - 1
                self.left[v] -= 1
                if not self.left[v]:
                    self.open &= ~bit
            self.unsettled -= 1
            if not self.unsettled:
                raise _Settled


def _probe(g: Graph, total: bool, ones: bool = True) -> tuple[int, tuple[int, int]]:
    """A cheap feasible TRD-function (RD-function) found by direct
    construction, as its weight and its ``(two, pos)`` masks; without
    ``ones``, one with values {0, 2}.

    Candidates: a 2 on a dominating vertex, with a 1 (a 2 without ``ones``)
    on its lowest neighbour in total mode; in total mode a 2,2 pair on an
    edge whose closed neighbourhoods cover V; and the all-ones function
    (all-twos without ``ones``), which is an RD-function, and a
    TRD-function whenever no vertex is isolated.  With ``ones`` the first
    two are tried only where they can be lighter than the all-ones.
    """
    full, n = g.full_mask, g.n
    for v in range(n):
        if (n > 2 + total or not ones) and g.adj[v] | (1 << v) == full:
            pos = 1 << v | (g.adj[v] & -g.adj[v] if total else 0)
            two = 1 << v if ones else pos
            return two.bit_count() + pos.bit_count(), (two, pos)
    if total and (n > 4 or not ones):
        for u in range(n):
            au = g.adj[u]
            m = au >> (u + 1) << (u + 1)
            while m:
                low = m & -m
                if au | g.adj[low.bit_length() - 1] | (1 << u) | low == full:
                    return 4, (1 << u | low, 1 << u | low)
                m ^= low
    return (n, (0, full)) if ones else (2 * n, (full, full))


# One memo for every invariant: ``_MEMO[kind, n]`` is the whole table of
# ``kind`` at order 1 <= n <= 6, a bytearray indexed by the colex edge mask
# (32768 masks at n = 6), 0xFF where the invariant is undefined.
_MEMO: dict[tuple[str, int], bytearray] = {}

# (roman, total) of each kind: roman, values 0, 1, 2 rather than a set;
# total, every positive vertex needs a positive neighbour
_KINDS = {"gamma": (False, False), "gamma_t": (False, True),
          "gamma_R": (True, False), "gamma_tR": (True, True)}


def _table(kind: str, n: int) -> bytearray:
    """The table of ``kind`` at order 1 <= n <= 6, filled at its first read."""
    table = _MEMO.get((kind, n))
    if table is None:
        table = _MEMO[kind, n] = _fill(*_KINDS[kind], n)
    return table


def _fill(roman: bool, total: bool, n: int) -> bytearray:
    """The values on every edge mask of order n at once, with no search: one
    condition with two flags, Telle & Proskurowski's (sigma, rho) view.

    A set of masks is one int whose bit m stands for mask m.  ``edge[e]``
    holds the masks with edge e, a periodic pattern built by doubling, and
    ``near[x][s]`` those in which x has a neighbour in the vertex set s.  A
    function of weight <= n, its 2s t and its 1s o (for gamma and gamma_t
    a set t of weight |t| and no o), is valid on the masks in which each 0
    has a neighbour in t and, in total mode, each positive vertex one in
    t | o; those masks join ``level`` at its weight.  With ``roman`` the
    zeros are walked as the subsets z of the vertices outside t, each
    found from a smaller one by its lowest vertex.  No bitset outlives
    the fill: ``near`` holds about 0.8 MB at n = 6.
    """
    pairs = n * (n - 1) // 2
    size = 1 << pairs
    every = (1 << size) - 1
    edge = []
    for e in range(pairs):
        half = 1 << e
        bits, width = ((1 << half) - 1) << half, 2 * half
        while width < size:
            bits |= bits << width
            width *= 2
        edge.append(bits)
    index = _pair_rows(n)
    near = []
    for x in range(n):
        row = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            v = low.bit_length() - 1
            row[s] = row[s ^ low] if v == x else row[s ^ low] | edge[index[x][v]]
        near.append(row)
    met = [every] * (1 << n)  # met[p]: each vertex of p has a neighbour in p
    if total:
        for p in range(1, 1 << n):
            for v in iter_bits(p):
                met[p] &= near[v][p]
    vertices = (1 << n) - 1
    level = [0] * (n + 1)
    zero = [every] * (1 << n)  # zero[z]: each vertex of z has a neighbour in t
    for t in range(1 << n):
        base = (1 + roman) * t.bit_count()
        if base > n:
            continue
        rest = vertices & ~t
        if not roman:
            valid = met[t]
            for z in iter_bits(rest):
                valid &= near[z][t]
            level[base] |= valid
            continue
        fewest = rest.bit_count() + base - n  # zeros that keep the weight <= n
        z = 0
        while True:
            if z:
                low = z & -z
                zero[z] = zero[z ^ low] & near[low.bit_length() - 1][t]
            if z.bit_count() >= fewest:
                o = rest ^ z
                level[base + o.bit_count()] |= zero[z] & met[t | o]
            if z == rest:
                break
            z = (z - rest) & rest
    # a mask's value is the number of cumulative levels that miss it, n + 1
    # (0xFF once translated) where none holds it; the byte of mask 8i + j is
    # byte i of the sum of the misses shifted down by j
    missing, held = [], 0
    for bits in level:
        held |= bits
        missing.append(every & ~held)
    groups = -(-size // 8)
    ones = int.from_bytes(b"\1" * groups, "little")
    out = bytearray(8 * groups)
    for j in range(8):
        out[j::8] = sum(m >> j & ones for m in missing).to_bytes(groups, "little")
    del out[size:]
    return out.translate(bytes(range(n + 1)).ljust(256, b"\xff"))


def _memo(kind: str, g: Graph, solve: Callable[[Graph], int]) -> int:
    """The value of ``kind`` on G, read from its order's table when
    1 <= n <= 6, else ``solve(g)``; refused above the solver cap before any
    search.  ``solve``, which validates G, also runs on a 0xFF entry, where
    it raises."""
    n = g.n
    if n > SOLVER_MAX_N:
        raise GraphTooLargeError(f"{kind} capped at n <= {SOLVER_MAX_N}")
    if not 0 < n <= _MEMO_MAX_N:
        return solve(g)
    value = _table(kind, n)[g.edge_mask]
    return solve(g) if value == 0xFF else value


def reset_caches() -> None:
    """Drop all memoised invariant values and the routed graphs kept in
    ``_LAST`` (mainly for tests)."""
    _MEMO.clear()
    _LAST.clear()


def _frontier_order(g: Graph) -> list[int] | None:
    """A vertex order of frontier width <= ``_DP_MAX_WIDTH``, found greedily, or None.

    After a prefix of the order, the frontier is the set of placed vertices
    that still have an unplaced neighbour.  Each step places the vertex
    that leaves the smallest frontier, preferring more placed neighbours,
    then lower degree, then lower index.  It is the whole routing rule
    above order ``_DP_MIN_N``: a component gets the frontier DP exactly
    when this finds an order.
    """
    n, adj = g.n, g.adj
    deg = g.degrees
    placed = frontier = 0
    order = []
    for _ in range(n):
        best = None
        m = g.full_mask & ~placed
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            now = placed | low
            nf = frontier | low
            k = frontier & adj[v] | low
            while k:
                bit = k & -k
                if not adj[bit.bit_length() - 1] & ~now:
                    nf ^= bit
                k ^= bit
            key = (nf.bit_count(), -(adj[v] & placed).bit_count(), deg[v], v)
            if best is None or key < best[0]:
                best = (key, v, nf)
        key, v, frontier = best
        if key[0] > _DP_MAX_WIDTH:
            return None
        placed |= 1 << v
        order.append(v)
    return order


# transition rows of the frontier DP, one dict per step shape (see
# _FrontierDP), filled lazily: a row on the first reach of (shape, state).
_ROWS: dict[tuple, dict[int, tuple[int, int, int]]] = {}


def _row(shape: tuple, state: int) -> tuple[int, int, int]:
    """The next state for x = 0, 1, 2 from ``state`` over one step of
    ``shape``, or -1 where x is rejected, in one pass over the digits.
    Without the total condition a positive vertex is met at once, and a
    waived vertex is met when placed."""
    nbrs, keep, leave, stays, total, waive = shape
    row = [0, 0, 0]  # None once x leaves a slot unmet
    near = 0
    scale = 1
    for p in range(len(keep) + len(leave)):
        c = state % 6
        state //= 6
        codes = (c, c, c)
        if p in nbrs:
            near = max(near, c)
            codes = (c, c | (c > 1), c | 1)
        for x in (0, 1, 2):
            if p in leave and not codes[x] & 1:
                row[x] = None
            elif p in keep and row[x] is not None:
                row[x] += codes[x] * scale
        if p in keep:
            scale *= 6
    for x in (0, 1, 2):
        met = waive or (near >= 4 if x == 0 else near >= 2 or not total)
        if row[x] is None or not (stays or met):
            row[x] = -1
        elif stays:
            row[x] += (2 * x + met) * scale
    return tuple(row)


def _waived(step: tuple, waive: bool) -> tuple:
    """``step``, with its vertex placed met (condition waived) if ``waive``."""
    if not waive:
        return step
    shape = step[1][:5] + (True,)
    return step[0], shape, _ROWS.setdefault(shape, {})


def _advance(table: dict[int, int], step: tuple, xs: tuple[int, ...]) -> dict[int, int]:
    """The table after ``step``, the new vertex taking a value in ``xs``.

    A table maps a state to the least weight reaching it.  ``run`` walks
    back through the first entry and value, in table and ``xs`` order,
    that reach each state at its weight.
    """
    _, shape, rows = step
    nxt: dict[int, int] = {}
    for state, weight in table.items():
        row = rows.get(state)
        if row is None:
            row = rows[state] = _row(shape, state)
        for x in xs:
            key = row[x]
            if key < 0:
                continue
            old = nxt.get(key)
            if old is None or weight + x < old:
                nxt[key] = weight + x
    return nxt


# How a function lighter than gamma_tR(G) uses the non-edge uv, u placed
# first: (values of u, u waived, values of v, v waived).
_CASES = (((2,), False, (0,), True), ((0,), True, (2,), False),
          ((1, 2), True, (1, 2), True))


class _FrontierDP:
    """Minimum TRD-function (RD-function) weight by DP over a vertex order.

    Walking the order, a table maps each reachable state of the frontier
    to the least weight of the placed vertices.  A frontier vertex's state
    is its value and whether its condition is already met (a 0 has a
    neighbour of value 2, a positive vertex has a positive neighbour),
    coded as ``2 * value + met``; a frontier state is one integer whose
    base-6 digit p is the code of frontier slot p.  A vertex leaves the
    frontier once all its neighbours are placed, and only with its
    condition met.

    Each step has a shape, ``(nbrs, keep, leave, stays, total, waive)``:
    the frontier slots that neighbour the new vertex, the slots that stay
    and the slots that leave, whether the new vertex joins the frontier,
    whether the total condition applies, and whether the new vertex is
    placed met, its condition waived.  The next state depends only on
    the shape, the state and the new vertex's value, so transition rows
    are shared by every DP with a step of that shape, in ``_ROWS``.  Each
    table entry counts as one node; ``nodes`` holds the count of the last
    run.

    Every question is answered by runs, or by two tables (Telle &
    Proskurowski, SIAM J. Discrete Math. 10, 1997): the forward tables, the
    least weight per state after each step, which the unpinned run keeps,
    and the backward completion, the least weight of the remaining steps
    from a state.
    """

    __slots__ = ("n", "steps", "index", "nodes", "tables", "back", "cases", "left")

    def __init__(self, g: Graph, order: list[int], total: bool):
        self.n = g.n
        self.nodes = 0
        self.steps: list[tuple] = []  # (v, shape, rows), none waived
        self.left: list[int] = []  # non-edges from each step to a later one
        adj, frontier, placed = g.adj, [], 0
        for i, v in enumerate(order):
            placed |= 1 << v
            self.left.append(len(order) - i - 1 - (adj[v] & ~placed).bit_count())
            nbrs = tuple(p for p, u in enumerate(frontier) if adj[v] >> u & 1)
            keep = tuple(p for p, u in enumerate(frontier) if adj[u] & ~placed)
            leave = tuple(p for p, u in enumerate(frontier) if not adj[u] & ~placed)
            stays = bool(adj[v] & ~placed)
            shape = (nbrs, keep, leave, stays, total, False)
            self.steps.append((v, shape, _ROWS.setdefault(shape, {})))
            frontier = [frontier[p] for p in keep] + ([v] if stays else [])
        self.index = {v: i for i, v in enumerate(order)}
        self.tables: list[dict[int, int]] | None = None
        self.back: list[dict[int, float]] = [{} for _ in self.steps] + [{0: 0}]
        self.cases: dict[int, list[list[dict[int, int]]]] = {}

    def run(
        self, allowed: list[tuple[int, ...]], budget: int | None = None
    ) -> tuple[int | None, list[int]]:
        """Least weight with f(v) in ``allowed[v]``, and a function attaining it.

        Returns ``(None, [])`` when no function respects ``allowed``;
        raises once the run's table entries exceed ``budget``.  A run that
        allows every value, in the order 0, 1, 2, keeps its tables, those
        after 0, 1, ..., len(steps) steps, as the forward tables.
        """
        self.nodes = 0
        tables = [{0: 0}]
        for step in self.steps:
            tables.append(_advance(tables[-1], step, allowed[step[0]]))
            self.nodes += len(tables[-1])
            if budget is not None and self.nodes > budget:
                raise BudgetExceededError(f"node budget {budget} exhausted")
        if all(xs == (0, 1, 2) for xs in allowed):
            self.tables = tables
        if 0 not in tables[-1]:
            return None, []
        values = [0] * self.n
        state, weight = 0, tables[-1][0]
        for (v, _, rows), table in zip(reversed(self.steps), reversed(tables[:-1])):
            state, values[v] = next((s, x) for s, w in table.items() for x in allowed[v]
                                    if w + x == weight and rows[s][x] == state)
            weight -= values[v]
        return tables[-1][0], values

    def twos(self) -> int:
        """The least weight of a function with values {0, 2}: one run."""
        return self.run([(0, 2)] * self.n)[0]

    def decide(self, pins: dict[int, int], cap: int, first_hit: bool = False,
               budget: int | None = None) -> tuple[int | None, list | None, int]:
        """The engine contract; each call is one exact run, so ``first_hit``
        changes nothing."""
        allowed = [(pins[v],) if v in pins else (0, 1, 2) for v in range(self.n)]
        value, values = self.run(allowed, budget)
        if value is None or value > cap:
            return None, None, self.nodes
        return value, values, self.nodes

    def _forward(self) -> list[dict[int, int]]:
        """The forward tables: those of the last unpinned run, else of one
        run made now."""
        if self.tables is None:
            self.run([(0, 1, 2)] * self.n)
        return self.tables

    def _completion(self, k: int, state: int) -> float:
        """The least weight of steps k.. from ``state``, inf when no
        completion leaves every vertex met; memoised."""
        back = self.back[k]
        best = back.get(state)
        if best is None:
            _, shape, rows = self.steps[k]
            row = rows.get(state)
            if row is None:
                row = rows[state] = _row(shape, state)
            best = back[state] = min(
                (x + self._completion(k + 1, nxt) for x, nxt in enumerate(row) if nxt >= 0),
                default=math.inf,
            )
        return best

    def _join(self, k: int, table: dict[int, int]) -> float:
        """The least total weight through ``table``, a table after k steps."""
        return min((weight + self._completion(k, state) for state, weight in table.items()),
                   default=math.inf)

    def at(self, w: int, xs: tuple[int, ...], waive: bool) -> float:
        """The least weight with f(w) in ``xs`` and, if ``waive``, w's condition
        met from outside: w's step between G's forward table and completion."""
        i = self.index[w]
        return self._join(i + 1, _advance(self._forward()[i], _waived(self.steps[i], waive), xs))

    def dead(self, value: int) -> list[int]:
        """The vertices that every function of weight ``value``, the
        minimum, assigns 0: with a positive value, none reaches it."""
        return [v for v, _, _ in self.steps if self.at(v, (1, 2), False) > value]

    def pair(self, u: int, v: int) -> float:
        """The least weight of a function of G+uv in one of ``_CASES``,
        each run on G's own steps with the conditions uv meets waived;
        gamma_tR(G+uv) is the lesser of it and gamma_tR(G).  With u and v
        placed at steps a < b, the tables through step b - 1 are kept per u
        as far as some b asks, until the last non-edge from u; step b is run
        per pair, G's completion ends."""
        a, b = sorted((self.index[u], self.index[v]))
        cases = self.cases.get(a)
        if cases is None:
            start = self._forward()[a]
            cases = self.cases[a] = [[_advance(start, _waived(self.steps[a], waive), xs)]
                                     for xs, waive, _, _ in _CASES]
        best = math.inf
        for tables, (_, _, xs, waive) in zip(cases, _CASES):
            while len(tables) < b - a:
                tables.append(_advance(tables[-1], self.steps[a + len(tables)], (0, 1, 2)))
            table = _advance(tables[b - a - 1], _waived(self.steps[b], waive), xs)
            best = min(best, self._join(b + 1, table))
        self.left[a] -= 1
        if not self.left[a]:
            del self.cases[a]
        return best


def _witness(
    engine: _FrontierDP | _WeightSearch, value: int, values: list[int] | None,
    budget: int | None,
) -> tuple[tuple[int, ...], int]:
    """The lexicographically smallest function of weight ``value``, and the
    nodes spent finding it.

    Each vertex in index order keeps the smallest value that still admits a
    completion of weight ``value``.  ``values`` is a function of that weight
    when the last search returned one; its own value at the next vertex is
    then known to work and is not searched again.
    """
    pins: dict[int, int] = {}
    nodes = 0
    for v in range(engine.n):
        for x in (0, 1, 2):
            if values is not None and values[v] == x:
                break
            pins[v] = x
            remaining = None if budget is None else budget - nodes
            hit, found, used = engine.decide(pins, value, True, remaining)
            nodes += used
            if hit is not None:
                values = found
                break
        pins[v] = x
    return tuple(pins[v] for v in range(engine.n)), nodes


def _require_non_edge(g: Graph, u: int, v: int) -> None:
    if u == v or not (0 <= u < g.n and 0 <= v < g.n) or g.has_edge(u, v):
        raise NotANonEdgeError(f"({u}, {v}) is not a non-edge")


class _Part:
    """One connected component of a routed graph: its vertices in G's
    labels and its graph, and, on first need, its engine, its first
    unpinned search, value, least weight with values {0, 2}, pair table
    and ``at`` values."""

    def __init__(self, g: Graph, mask: int, total: bool):
        self.total = total
        self.verts = list(iter_bits(mask))
        self.h = g if mask == g.full_mask else induced_subgraph(g, self.verts)
        self.ats: dict[tuple, float] = {}

    @cached
    def engine(self) -> _FrontierDP | _WeightSearch:
        """The frontier DP from order ``_DP_MIN_N`` when the greedy finds a
        frontier order, in the component's own labels, else branch and
        bound."""
        order = _frontier_order(self.h) if self.h.n >= _DP_MIN_N else None
        if order is None:
            return _WeightSearch(self.h, self.total)
        return _FrontierDP(self.h, order, self.total)

    def first(self, budget: int | None) -> tuple[int, list[int], int]:
        """The engine's unpinned search, (weight, function, nodes), run once
        within ``budget`` and kept; it raises as a run would have."""
        if "kept" not in self.__dict__:
            self.kept = self.engine.decide({}, 2 * self.h.n, False, budget)
        elif budget is not None and self.kept[2] > budget:
            raise BudgetExceededError(f"node budget {budget} exhausted")
        return self.kept

    @cached
    def value(self) -> int:
        """gamma_tR (gamma_R) of the component, by its engine."""
        return self.first(None)[0]

    @cached
    def twos(self) -> int:
        """The least weight of a function of the component with values
        {0, 2}, twice its gamma_t (gamma without ``total``): the probe's
        when it meets the floor, 4 (2), with no engine built, else the
        engine's."""
        weight = _probe(self.h, self.total, False)[0]
        return weight if weight == 2 + 2 * self.total else self.engine.twos()

    @cached
    def near(self) -> list[int] | None:
        """The near scan's table of the component's pairs, made at its first
        pair question, or None when the DP's case tables answer them.
        Branch and bound scans on its own engine.  A DP hands its pairs to
        the scan of a branch-and-bound engine built for it when
        ``_NEAR_WORK`` times C(n, (gamma_tR - 1) // 2), a bound on the sets
        of 2s the scan may walk, is at most the case-table work, estimated
        as the unpinned run's nodes times the non-edges."""
        search = self.engine
        if isinstance(search, _FrontierDP):
            h = self.h
            non_edges = h.n * (h.n - 1) // 2 - h.edge_count
            if _NEAR_WORK * math.comb(h.n, (self.value - 1) // 2) > self.first(None)[2] * non_edges:
                return None
            search = _WeightSearch(h, self.total)
        return _Near(search, self.value).least

    def pair(self, i: int, j: int) -> int:
        """gamma_tR of the component plus its non-edge ij."""
        if self.near is None:
            return min(self.value, self.engine.pair(i, j))
        return self.near[pair_index(i, j)]

    def at(self, j: int, xs: tuple[int, ...], waive: bool) -> float:
        """The engine's ``at`` for the component's vertex j, kept."""
        key = j, xs, waive
        if key not in self.ats:
            self.ats[key] = self.engine.at(j, xs, waive)
        return self.ats[key]


class _Solved:
    """Every gamma_tR and gamma_t question about one graph G, with G
    validated and routed once (see the module docstring); without
    ``total``, gamma_R, its dead vertices and gamma, for any G of order
    <= 24.  A pair inside one
    component goes to that component's ``pair``, and a pair across two
    compares the least, over the cases, of the two components' ``at``
    values with the two components' values."""

    def __init__(self, g: Graph, total: bool = True):
        if total and g.n < 2:
            raise TooSmallError("gamma_tR needs order >= 2")
        if g.n > SOLVER_MAX_N:
            kind = "gamma_tR" if total else "gamma_R"
            raise GraphTooLargeError(f"{kind} capped at n <= {SOLVER_MAX_N}")
        if total:
            _require_no_isolated(g)
        self.g = g
        self.total = total

    @cached
    def parts(self) -> list[_Part]:
        return [_Part(self.g, mask, self.total) for mask in component_masks(self.g)]

    @cached
    def where(self) -> list[tuple[_Part, int]]:
        """Each vertex of G's part and its index in that part."""
        where: list = [None] * self.g.n
        for part in self.parts:
            for j, w in enumerate(part.verts):
                where[w] = part, j
        return where

    def value(self) -> int:
        return sum(part.value for part in self.parts)

    def domination(self) -> int:
        """gamma_t(G) (gamma(G) without ``total``): half the least weight of
        a function with values {0, 2}, summed over the components."""
        return sum(part.twos for part in self.parts) // 2

    def witness(self, budget: int | None) -> tuple[int, tuple[int, ...], int]:
        """gamma_tR(G), the lexicographically smallest function of that
        weight, and the nodes spent: components solved apart, values adding,
        each by its engine from the part's kept unpinned search, under one
        shared ``budget``."""
        value = nodes = 0
        values = [0] * self.g.n
        for part in self.parts:
            weight, found, used = part.first(None if budget is None else budget - nodes)
            nodes += used
            value += weight
            vec, used = _witness(part.engine, weight, found,
                                 None if budget is None else budget - nodes)
            nodes += used
            for v, x in zip(part.verts, vec):
                values[v] = x
        return value, tuple(values), nodes

    def dead(self) -> tuple[int, ...]:
        """The dead vertices: those of each component's engine, since the
        dead set of a disjoint union is the union of the parts' dead sets."""
        return tuple(sorted(part.verts[j] for part in self.parts
                            for j in part.engine.dead(part.value)))

    def delta(self, u: int, v: int) -> int:
        """gamma_tR(G) - gamma_tR(G+uv) for the non-edge uv.  Order <= 6
        reads both from the table, G+uv being free of isolated vertices like
        G; it builds no graph.  A pair inside one component is that
        component's ``pair``."""
        g = self.g
        _require_non_edge(g, u, v)
        if g.n <= _MEMO_MAX_N:
            table = _table("gamma_tR", g.n)
            return table[g.edge_mask] - table[g.edge_mask | 1 << pair_index(u, v)]
        (pu, i), (pv, j) = self.where[u], self.where[v]
        if pu is pv:
            return pu.value - pu.pair(i, j)
        return max(0, pu.value + pv.value - min(
            pu.at(i, xs, a) + pv.at(j, ys, b) for xs, a, ys, b in _CASES))


# The last graph routed in each mode, keyed by ``total``: value, witness,
# dead set and non-edges of one graph are often asked in turn by different
# functions, and then route it once.
_LAST: dict[bool, _Solved] = {}


def _solved(g: Graph, total: bool = True) -> _Solved:
    """The routed graph of G in the mode ``total``: the one kept when it is
    G's, else a new one, which is kept instead."""
    last = _LAST.get(total)
    if last is None or last.g is not g and last.g.adj != g.adj:
        last = _LAST[total] = _Solved(g, total)
    return last


def gamma_tr_value(g: Graph) -> int:
    """Exact gamma_tR(G), value only, read from a table for n <= 6."""
    return _memo("gamma_tR", g, lambda h: _solved(h).value())


# Two questions on the value alone, which nothing in trd asks: the
# benchmark's tracer (perfbench/tracer.py) binds both by name.
def has_trd_weight_at_most(g: Graph, cap: int) -> bool:
    """Whether gamma_tR(G) <= cap."""
    return gamma_tr_value(g) <= cap


def gamma_tr_equals_order(g: Graph) -> bool:
    """Whether gamma_tR(G) = |V(G)|."""
    return gamma_tr_value(g) == g.n


def gamma_tr(g: Graph, node_budget: int | None = None) -> SolveResult:
    """Exact gamma_tR(G) with the lexicographically smallest minimum witness.

    The graph is split into components, whose values add and whose
    smallest witnesses are put back in place.  A component of order
    >= ``_DP_MIN_N`` for which the greedy finds a vertex order of frontier
    width <= 3 is solved by the frontier DP; any other component by branch
    and bound seeded by constructive probes.  Either way the witness is
    found by pinned searches in index order.  ``node_budget`` bounds the
    total nodes, DP table entries included, across all components and
    searches.
    """
    solved = _solved(g)
    try:
        value, values, nodes = solved.witness(node_budget)
    except BudgetExceededError:
        # an engine names only what was left of the budget for its search
        raise BudgetExceededError(f"node budget {node_budget} exhausted") from None
    return SolveResult("gamma_tR", value, WeightFunction(values), nodes)


def _scan(g: Graph, ties: bool) -> tuple[int, list[tuple[int, int]]]:
    """The least weight of a TRD-function on G, over all 3^n weight vectors,
    and the ``(two, pos)`` masks found at that weight: every one with
    ``ties``, which then tries vectors as heavy as the best so far, else
    only lighter vectors and the first mask.  Each 2-set's optional 1s are
    tried fewest first, only while they weigh less.  Enforced cap n <= 12.
    """
    if g.n > ENUMERATION_MAX_N:
        kind = "enumeration" if ties else "oracle"
        raise GraphTooLargeError(f"{kind} capped at n <= {ENUMERATION_MAX_N}")
    _require_no_isolated(g)
    n, full, adj = g.n, g.full_mask, g.adj
    best = 2 * n + 1
    bound = best + ties  # a vector is tried while it weighs less than this
    found: list[tuple[int, int]] = []
    for two_set in range(1 << n):
        w2 = 2 * two_set.bit_count()
        if w2 >= bound:
            continue
        nbr = 0
        m = two_set
        while m:
            low = m & -m
            nbr |= adj[low.bit_length() - 1]
            m ^= low
        covered = two_set | nbr
        mandatory = full & ~covered  # weight-1 on these or the vector fails
        base = w2 + mandatory.bit_count()
        if base >= bound:
            continue
        free = covered & ~two_set
        w, extras = base, (0,)  # the masks of w - base optional 1s
        while True:
            for extra in extras:
                posmask = two_set | mandatory | extra
                mm = posmask
                while mm:
                    low = mm & -mm
                    if not adj[low.bit_length() - 1] & posmask:
                        break
                    mm ^= low
                else:
                    if w < best:
                        best, bound = w, w + ties
                        found = []
                    found.append((two_set, posmask))
                    if w >= bound:
                        break
            w += 1
            if w >= bound or w - base > free.bit_count():
                break
            extras = map(sum, combinations([1 << v for v in iter_bits(free)], w - base))
    return best, found


def brute_oracle_gamma_tr(g: Graph) -> int:
    """Exact gamma_tR(G) by the independent 3^n scan; cap n <= 12."""
    return _scan(g, False)[0]


def enumerate_min_trd(g: Graph) -> list[WeightFunction]:
    """All minimum TRD-functions, in lexicographic value-vector order, by
    the independent 3^n scan; cap n <= 12."""
    vectors = sorted(tuple((two >> v & 1) + (pos >> v & 1) for v in range(g.n))
                     for two, pos in _scan(g, True)[1])
    return [WeightFunction(vec) for vec in vectors]


def dead_vertices(g: Graph, *, total: bool = True) -> tuple[int, ...]:
    """Vertices assigned 0 by every minimum TRD-function (RD-function
    without ``total``; keyword-only, so a mode string cannot pass as a flag).

    Each component has its own engine and minimum (:meth:`_Solved.dead`),
    and each engine decides it without enumerating the minimum functions:
    branch and bound by two pinned searches per vertex, f(v) = 1 and
    f(v) = 2, the frontier DP by reading its forward and backward tables
    once.  Both modes refuse order > 24 before any search.
    """
    return _solved(g, total).dead()


def gamma_value(g: Graph) -> int:
    """The domination number gamma(G), read from a table for n <= 6."""
    return _memo("gamma", g, lambda h: _solved(h, False).domination())


def gamma_t_value(g: Graph) -> int:
    """The total domination number gamma_t(G), read from a table for n <= 6;
    0 on the empty graph."""
    def solve(h: Graph) -> int:
        _require_no_isolated(h)
        return _solved(h).domination() if h.n else 0
    return _memo("gamma_t", g, solve)


def gamma_r_value(g: Graph) -> int:
    """The Roman domination number gamma_R(G), read from a table for n <= 6."""
    return _memo("gamma_R", g, lambda h: _solved(h, False).value())


def classical_numbers(g: Graph) -> tuple[int, int, int]:
    """(gamma, gamma_t, gamma_R); raises on isolated vertices (gamma_t)."""
    _require_no_isolated(g)
    return gamma_value(g), gamma_t_value(g), gamma_r_value(g)
