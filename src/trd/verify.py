"""Theorem registry, instance universes, and counterexample hunts.

Every claim the workbench can machine-check is a registry entry: an
identifier, a default instance universe, a hypothesis filter, and a
per-instance check returning a violation detail or None.  Claims run in
sweeps: one sweep enumerates one universe once and offers each instance
to all the claims that share that universe, so ``run_registry`` makes one
sweep per distinct universe.  On an all-labelled universe a claim flagged
``label_invariant`` meets one canonical representative per isomorphism
class instead of every labelling, and each check counts as the class's
orbit, so ``instances_checked`` is the labelled count either way; a claim
that fails there names its failing classes' canonical representatives.
Reports are deterministic: the same universe and theorem always produce
the same bytes, however the claims are grouped and however many
processes run the checks.  A passing report over a bounded universe is
evidence, not proof; a failing one carries graph6 certificates.

gamma_tR, like gamma_t, exists only on graphs without isolated vertices,
so no universe holds a graph with one: ``_admits`` drops it wherever
instances are made, from all-labelled walks and class sweeps, random
draws (after the draw, so the later draws do not move) and family lists,
and no claim's hypothesis tests for it again.  An all-labelled universe
prints ``"no_isolated": true`` to state the rule.
"""

from __future__ import annotations

import itertools
import os
import random
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from . import families as fam
from .criticality import (
    complete_to_critical,
    is_critical_edge,
    is_edge_critical,
    is_k_gamma_t_edge_critical,
    is_stable,
    is_supercritical,
)
from .errors import (
    IncompatibleUniverseError,
    OutOfRangeError,
    UniverseTooLargeError,
    UnknownQuestionError,
    UnknownTheoremError,
)
from .graphs import (
    GRAPH6_MAX_N,
    Graph,
    Record,
    add_edge,
    complement,
    component_masks,
    diameter,
    from_edge_mask,
    graph6_encode,
    graph_classes,
    is_connected,
    iter_bits,
    pair_table,
    universal_vertex,
)
from .solver import (
    ENUMERATION_MAX_N,
    dead_vertices,
    enumerate_min_trd,
    gamma_r_value,
    gamma_t_value,
    gamma_tr_value,
    gamma_value,
)

ALL_LABELED_CEILING = 7


class AllLabeled(Record):
    """Every labelled graph on 1..max_n vertices, optionally connected only."""

    _fields = ("max_n", "connected_only")
    _defaults = {"connected_only": False}


class Families(Record):
    """A fixed list of family descriptors."""

    _fields = ("specs",)


class RandomGnp(Record):
    """``count`` seeded G(n, p) samples; fully determined by the seed."""

    _fields = ("count", "n", "p", "seed")


InstanceUniverse = AllLabeled | Families | RandomGnp


def universe_to_json(universe: InstanceUniverse) -> dict:
    if isinstance(universe, Families):
        return {
            "source": "families",
            "specs": [fam.family_to_text(s) for s in universe.specs],
        }
    if isinstance(universe, AllLabeled):
        return {"source": "all_labeled", **universe._asdict(), "no_isolated": True}
    if isinstance(universe, RandomGnp):
        return {"source": "random_gnp", **universe._asdict()}
    raise TypeError(f"not a universe: {universe!r}")


def _labeled_orders(universe: AllLabeled) -> range:
    if universe.max_n < 1:
        raise OutOfRangeError(
            f"all-labelled enumeration needs max_n >= 1, got {universe.max_n}")
    if universe.max_n > ALL_LABELED_CEILING:
        raise UniverseTooLargeError(
            f"all-labelled enumeration is capped at n <= {ALL_LABELED_CEILING}"
        )
    return range(1, universe.max_n + 1)


def _admits(universe: InstanceUniverse, g: Graph) -> bool:
    """Whether ``universe`` holds ``g``: never with an isolated vertex, and
    only when connected on a connected all-labelled universe."""
    if g.has_isolated_vertices():
        return False
    connected_only = isinstance(universe, AllLabeled) and universe.connected_only
    return not connected_only or is_connected(g)


def _class_instances(universe: AllLabeled) -> Iterator[tuple[int, Graph]]:
    """(orbit size, canonical representative) of every isomorphism class
    that ``universe`` holds, by order and then canonical mask.  The orbit
    sizes add up to the number of graphs ``enumerate_instances`` yields."""
    for n in _labeled_orders(universe):
        for mask, orbit in graph_classes(n):
            g = from_edge_mask(n, mask)
            if _admits(universe, g):
                yield orbit, g


def enumerate_instances(
    universe: InstanceUniverse,
) -> Iterator[tuple[fam.FamilySpec | None, Graph]]:
    """Stream (descriptor, graph) pairs; the descriptor is None unless the
    universe is family-based.  Deterministic order throughout."""
    if isinstance(universe, AllLabeled):
        for n in _labeled_orders(universe):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = from_edge_mask(n, mask)
                if _admits(universe, g):
                    yield None, g
        return
    if isinstance(universe, Families):
        for spec in universe.specs:
            g = fam.generate(spec)
            if _admits(universe, g):
                yield spec, g
        return
    if isinstance(universe, RandomGnp):
        if not 1 <= universe.n <= GRAPH6_MAX_N:
            raise OutOfRangeError(
                f"G(n, p) needs 1 <= n <= {GRAPH6_MAX_N}, got {universe.n}")
        rng = random.Random(universe.seed)
        pairs = pair_table(universe.n)
        for _ in range(universe.count):
            mask = 0
            for k in range(len(pairs)):
                if rng.random() < universe.p:
                    mask |= 1 << k
            g = from_edge_mask(universe.n, mask)
            if _admits(universe, g):
                yield None, g
        return
    raise TypeError(f"not a universe: {universe!r}")


class Counterexample(Record):
    _fields = ("graph6", "detail")


class VerificationReport(Record):
    # outcome: "pass" or "fail"
    _fields = ("theorem_id", "universe", "instances_checked", "outcome",
               "counterexamples")

    def to_json(self) -> dict:
        return {**self._asdict(), "universe": universe_to_json(self.universe),
                "counterexamples": [c._asdict() for c in self.counterexamples]}


MAX_COUNTEREXAMPLES = 20


# ---------------------------------------------------------------------------
# helper predicates shared by several checks


def _is_union_of_k2(g: Graph) -> bool:
    return all(d == 1 for d in g.degrees)


def _is_tree(g: Graph) -> bool:
    return is_connected(g) and g.edge_count == g.n - 1


def _endpath_leaves(g: Graph) -> list[tuple[int, int]]:
    """(leaf, endpath length) for each leaf whose chain ends at a branch
    vertex; the chain's internal vertices all have degree 2."""
    out = []
    for leaf in range(g.n):
        if g.degree(leaf) != 1:
            continue
        prev, cur = leaf, g.adj[leaf].bit_length() - 1
        length = 1
        while g.degree(cur) == 2:
            nxt_mask = g.adj[cur] & ~(1 << prev)
            prev, cur = cur, nxt_mask.bit_length() - 1
            length += 1
        if g.degree(cur) >= 3:
            out.append((leaf, length))
    return out


# ---------------------------------------------------------------------------
# per-theorem checks: return None on pass, a detail string on violation


def _check_delta_range(
    g: Graph, value: Callable[[Graph], int], name: str
) -> str | None:
    """The first non-edge whose delta in ``value`` lies outside 0..2."""
    base = value(g)
    for u, v in g.non_edges():
        after = value(add_edge(g, u, v))
        if not base - 2 <= after <= base:
            return f"{name} delta {base - after} outside 0..2 at edge ({u},{v})"
    return None


_ALLOWED_CRITICAL_PAIRS = {(2, 2), (1, 2), (0, 2), (1, 1)}


def _check_critedge_values(g: Graph, spec) -> str | None:
    base = gamma_tr_value(g)
    for u, v in g.non_edges():
        h = add_edge(g, u, v)
        if gamma_tr_value(h) >= base:
            continue
        minimums = enumerate_min_trd(h)
        for f in minimums:
            pair = tuple(sorted((f.values[u], f.values[v])))
            if pair not in _ALLOWED_CRITICAL_PAIRS:
                return (
                    f"critical edge ({u},{v}): minimum function assigns {pair}"
                )
        if g.degree(u) == 1 and g.degree(v) == 1:
            if not any(f.values[u] == 1 and f.values[v] == 1 for f in minimums):
                return (
                    f"degree-1 endpoints ({u},{v}) admit no minimum function"
                    " with both weights 1"
                )
    return None


def _check_tr3(g: Graph, spec) -> str | None:
    value_is_3 = gamma_tr_value(g) == 3
    universal = universal_vertex(g) is not None
    if value_is_3 != universal:
        return f"gamma_tR==3 is {value_is_3} but universal vertex is {universal}"
    return None


def _check_hen1(g: Graph, spec) -> str | None:
    classified = fam.hen1_classify(g) is not None
    full_value = gamma_tr_value(g) == g.n
    if classified != full_value:
        return f"classified={classified} but gamma_tR==n is {full_value}"
    return None


def _check_ncrit(g: Graph, spec) -> str | None:
    predicted = fam.predict_n_critical(g)
    measured = gamma_tr_value(g) == g.n and is_edge_critical(g)
    if predicted != measured:
        return f"predicted={predicted} but measured criticality is {measured}"
    return None


def _check_4crit(g: Graph, spec) -> str | None:
    lhs = gamma_tr_value(g) == 4 and is_edge_critical(g)
    rhs = fam.is_galaxy(complement(g))
    if lhs != rhs:
        return f"4-edge-critical is {lhs} but complement-galaxy is {rhs}"
    return None


def _value_mismatch(g: Graph, expected: int) -> str | None:
    """The detail when gamma_tR(G) is not the closed form ``expected``."""
    actual = gamma_tr_value(g)
    return None if actual == expected else f"gamma_tR={actual}, expected {expected}"


def _check_n3reg(g: Graph, spec) -> str | None:
    if detail := _value_mismatch(g, 4):
        return detail
    if not is_stable(g):
        return "not stable: some non-edge changes gamma_tR"
    return None


def _check_super(g: Graph, spec) -> str | None:
    if gamma_tr_value(g) == 5 and is_supercritical(g):
        return "supercritical graph with gamma_tR=5"
    if fam.is_union_of_completes(g):
        k = len(component_masks(g))
        value = gamma_tr_value(g)
        if value != 3 * k:
            return f"union of {k} complete graphs has gamma_tR={value}, not {3 * k}"
        if not is_supercritical(g):
            return f"union of {k} complete graphs is not supercritical"
    return None


def _check_hen2(g: Graph, spec) -> str | None:
    gt = gamma_t_value(g)
    gtr = gamma_tr_value(g)
    if not gt <= gtr <= 2 * gt:
        return f"gamma_t={gt}, gamma_tR={gtr} outside [gamma_t, 2 gamma_t]"
    equality = gtr == gt
    k2_union = _is_union_of_k2(g)
    if equality != k2_union:
        return f"gamma_tR==gamma_t is {equality} but union-of-K2 is {k2_union}"
    return None


def _check_hen3(g: Graph, spec) -> str | None:
    lhs = gamma_tr_value(g) == gamma_t_value(g) + 1
    rhs = universal_vertex(g) is not None
    if lhs != rhs:
        return f"gamma_tR==gamma_t+1 is {lhs} but universal vertex is {rhs}"
    return None


def _check_obs1(g: Graph, spec) -> str | None:
    gt = gamma_t_value(g)
    gtr = gamma_tr_value(g)
    if not gt + 2 <= gtr <= 2 * gt:
        return f"gamma_t={gt}, gamma_tR={gtr} outside [gamma_t+2, 2 gamma_t]"
    return None


def _check_t2iff(g: Graph, spec) -> str | None:
    gtr = gamma_tr_value(g)
    gt = gamma_t_value(g)
    if (gtr in (3, 4)) != (gt == 2):
        return f"gamma_tR={gtr} but gamma_t={gt}"
    if gtr == 3 and gamma_value(g) != 1:
        return f"gamma_tR=3 but gamma={gamma_value(g)}"
    if gtr == 4 and gamma_value(g) != 2:
        return f"gamma_tR=4 but gamma={gamma_value(g)}"
    return None


def _check_5crit(g: Graph, spec) -> str | None:
    if gamma_tr_value(g) != 5 or not is_edge_critical(g):
        return None
    if is_k_gamma_t_edge_critical(g, 3):
        return None
    orders = sorted(fam._complete_orders(g) or ())
    if len(orders) == 2 and orders[0] == 2 and orders[1] >= 3:
        return None
    return "5-edge-critical but neither 3-gamma_t-edge-critical nor K_2 u K_m"


def _check_enddeg3(g: Graph, spec) -> str | None:
    for w in range(g.n):
        if g.degree(w) != 1:
            continue
        x = g.adj[w].bit_length() - 1
        others = [u for u in iter_bits(g.adj[x]) if u != w]
        pairs = [
            (u, v)
            for i, u in enumerate(others)
            for v in others[i + 1:]
            if not g.has_edge(u, v)
        ]
        if not pairs:
            continue  # neighbourhood minus the leaf is complete
        for u, v in pairs:
            if is_critical_edge(g, u, v):
                return (
                    f"support {x} of leaf {w}: non-edge ({u},{v}) inside its"
                    " neighbourhood changes gamma_tR"
                )
        if is_edge_critical(g):
            return f"edge-critical despite leaf {w} with non-complete N({x})-w"
    return None


def _check_stems(g: Graph, spec) -> str | None:
    stems = {g.adj[v].bit_length() - 1 for v in range(g.n) if g.degree(v) == 1}
    if all(g.degree(s) <= 2 for s in stems):
        return None
    if is_edge_critical(g):
        return "edge-critical tree with a stem of degree >= 3"
    return None


def _check_longlegs(g: Graph, spec) -> str | None:
    long_ends = [(leaf, ln) for leaf, ln in _endpath_leaves(g) if ln >= 3]
    if len(long_ends) < 2:
        return None
    u, v = long_ends[0][0], long_ends[1][0]
    if is_critical_edge(g, u, v):
        return f"joining long-endpath leaves ({u},{v}) changed gamma_tR"
    if is_edge_critical(g):
        return "edge-critical despite two endpaths of length >= 3"
    return None


def _check_spider_formula(g: Graph, spec) -> str | None:
    predicted = fam.spider_gamma_formula(spec.legs)
    actual = gamma_tr_value(g)
    if predicted != actual:
        return f"formula gives {predicted} but solver gives {actual}"
    return None


def _check_spider_crit(g: Graph, spec) -> str | None:
    predicted = fam.spider_is_critical(spec.legs)
    measured = is_edge_critical(g)
    if predicted != measured:
        return f"predicate says {predicted} but measured criticality is {measured}"
    return None


def _check_span(g: Graph, spec) -> str | None:
    base = gamma_tr_value(g)
    h = complete_to_critical(g)
    after = gamma_tr_value(h)
    if after != base:
        return f"completion changed gamma_tR from {base} to {after}"
    if not is_edge_critical(h):
        return "completion is not edge-critical"
    return None


def _check_knkm(g: Graph, spec) -> str | None:
    return _value_mismatch(g, 2 * min(spec.n, spec.m))


def _check_diam2(g: Graph, spec) -> str | None:
    if isinstance(spec, fam.ProductDeleted):
        expected = 2 * spec.l + 1
        run_completion = spec.l == 2
    else:
        expected = 2 * min(spec.n, spec.m)
        run_completion = spec.n == spec.m
    if detail := _value_mismatch(g, expected):
        return detail
    if (d := diameter(g)) != 2:
        return f"diameter {d}, expected 2"
    if run_completion:
        h = complete_to_critical(g)
        if gamma_tr_value(h) != expected:
            return "completion changed gamma_tR"
        if not is_edge_critical(h):
            return "completion is not edge-critical"
        if (d := diameter(h)) != 2:
            return f"completion has diameter {d}"
    return None


def _check_dn(g: Graph, spec) -> str | None:
    if detail := _value_mismatch(g, 2 * spec.n + 1):
        return detail
    dead = dead_vertices(g)
    w = fam.dead_example_w_vertices(spec.n)
    if dead != w:
        return f"dead set {dead}, expected {w}"
    return None


def _check_dn_edges(g: Graph, spec) -> str | None:
    w = set(fam.dead_example_w_vertices(spec.n))
    if spec.n == 2:
        base = gamma_tr_value(g)
        w1, w2 = sorted(w)
        after = gamma_tr_value(add_edge(g, w1, w2))
        if after != base:
            return f"joining the two degree-2 rim vertices changed {base}->{after}"
        return None
    for u, v in g.non_edges():
        if u in w or v in w:
            if not is_critical_edge(g, u, v):
                return f"non-edge ({u},{v}) at a dead vertex is not critical"
    return None


def _check_rd_deadpair(g: Graph, spec) -> str | None:
    dead = dead_vertices(g, total=False)
    if len(dead) < 2:
        return None
    base = gamma_r_value(g)
    for i, u in enumerate(dead):
        for v in dead[i + 1:]:
            if g.has_edge(u, v):
                continue
            after = gamma_r_value(add_edge(g, u, v))
            if after != base:
                return f"dead pair ({u},{v}): gamma_R changed {base}->{after}"
    return None


# ---------------------------------------------------------------------------
# the registry


# the one dataclass in the package, left so because the benchmark's tracer
# rebuilds entries with dataclasses.replace
@dataclass(frozen=True)
class TheoremEntry:
    theorem_id: str
    title: str
    default_universe: InstanceUniverse
    check: Callable[[Graph, fam.FamilySpec | None], str | None]
    hypothesis: Callable[[Graph], bool] | None = None
    family_kinds: tuple[type, ...] | None = None  # required descriptor types
    # hypothesis and pass/fail of the check depend only on the isomorphism
    # class, so an all-labelled sweep may check one labelling per class
    label_invariant: bool = False


def _connected(min_n: int) -> Callable[[Graph], bool]:
    def hyp(g: Graph) -> bool:
        return g.n >= min_n and is_connected(g)

    return hyp


def _all6(connected: bool = False) -> AllLabeled:
    return AllLabeled(6, connected_only=connected)


_SPIDER_CORPUS = tuple(
    fam.Spider(legs)
    for k in (3, 4)
    for legs in itertools.combinations_with_replacement(range(1, 5), k)
)

_LONGLEG_CORPUS = (
    fam.Spider((1, 3, 3)),
    fam.Spider((2, 3, 3)),
    fam.Spider((3, 3, 3)),
    fam.Spider((2, 3, 4)),
    fam.Spider((1, 1, 3, 3)),
    fam.Spider((2, 2, 3, 4)),
)


def _entries() -> list[TheoremEntry]:
    return [
        TheoremEntry(
            "T_MYN1",
            "adding an edge changes gamma_t by at most 2, never upward",
            AllLabeled(5),
            lambda g, spec: _check_delta_range(g, gamma_t_value, "gamma_t"),
            label_invariant=True,
        ),
        TheoremEntry(
            "T_BOUNDS",
            "adding an edge changes gamma_tR by at most 2, never upward",
            AllLabeled(5),
            lambda g, spec: _check_delta_range(g, gamma_tr_value, "gamma_tR"),
            label_invariant=True,
        ),
        TheoremEntry(
            "T_CRITEDGE_VALUES",
            "minimum functions pin critical-edge endpoints to the four value sets",
            AllLabeled(5),
            _check_critedge_values,
            hypothesis=lambda g: g.n <= ENUMERATION_MAX_N,
            label_invariant=True,
        ),
        TheoremEntry(
            "T_TR3",
            "gamma_tR = 3 exactly on graphs with a universal vertex",
            _all6(),
            _check_tr3,
            hypothesis=lambda g: g.n >= 3,
            label_invariant=True,
        ),
        TheoremEntry(
            "T_HEN1",
            "gamma_tR = n exactly on the classified connected families",
            _all6(connected=True),
            _check_hen1,
            hypothesis=_connected(2),
            label_invariant=True,
        ),
        TheoremEntry(
            "T_NCRIT",
            "n-edge-critical graphs are exactly the predicted families",
            _all6(connected=True),
            _check_ncrit,
            hypothesis=_connected(4),
            label_invariant=True,
        ),
        TheoremEntry(
            "T_4CRIT",
            "4-edge-critical graphs are exactly those with galaxy complements",
            _all6(),
            _check_4crit,
            label_invariant=True,
        ),
        TheoremEntry(
            "T_N3REG",
            "(n-3)-regular graphs of order >= 6 have gamma_tR = 4 and are stable",
            _all6(),
            _check_n3reg,
            hypothesis=lambda g: g.n >= 6
            and all(d == g.n - 3 for d in g.degrees),
            label_invariant=True,
        ),
        TheoremEntry(
            "T_MYN2_ANALOGUE",
            "no 5-supercritical graphs; unions of >=2 complete graphs of order"
            " >=3 are 3k-supercritical",
            _all6(),
            _check_super,
            label_invariant=True,
        ),
        TheoremEntry(
            "T_HEN2",
            "gamma_t <= gamma_tR <= 2 gamma_t with equality only on unions of K_2",
            _all6(),
            _check_hen2,
            label_invariant=True,
        ),
        TheoremEntry(
            "T_HEN3",
            "gamma_tR = gamma_t + 1 exactly on graphs with a universal vertex",
            _all6(connected=True),
            _check_hen3,
            hypothesis=_connected(3),
            label_invariant=True,
        ),
        TheoremEntry(
            "T_OBS1",
            "without a universal vertex, gamma_t + 2 <= gamma_tR <= 2 gamma_t",
            _all6(connected=True),
            _check_obs1,
            hypothesis=lambda g: g.n >= 3
            and is_connected(g)
            and max(g.degrees) <= g.n - 2,
            label_invariant=True,
        ),
        TheoremEntry(
            "T_T2IFF",
            "gamma_tR in {3,4} exactly when gamma_t = 2, with gamma 1 resp. 2",
            _all6(connected=True),
            _check_t2iff,
            hypothesis=_connected(3),
            label_invariant=True,
        ),
        TheoremEntry(
            "T_5CRIT",
            "5-edge-critical graphs are 3-gamma_t-edge-critical or K_2 u K_m",
            _all6(),
            _check_5crit,
            label_invariant=True,
        ),
        TheoremEntry(
            "T_ENDDEG3",
            "a leaf whose support has a non-complete punctured neighbourhood"
            " blocks edge-criticality",
            _all6(),
            _check_enddeg3,
            label_invariant=True,
        ),
        TheoremEntry(
            "T_STEMS",
            "edge-critical trees have no stems of degree >= 3",
            _all6(connected=True),
            _check_stems,
            hypothesis=lambda g: g.n >= 2 and _is_tree(g),
            label_invariant=True,
        ),
        TheoremEntry(
            "T_LONGLEGS",
            "two endpaths of length >= 3 block edge-criticality",
            Families(_LONGLEG_CORPUS),
            _check_longlegs,
            # not label-invariant: it joins the first two long endpaths by label
        ),
        TheoremEntry(
            "T_SPIDER_FORMULA",
            "the three-case spider formula matches the solver",
            Families(_SPIDER_CORPUS),
            _check_spider_formula,
            family_kinds=(fam.Spider,),
        ),
        TheoremEntry(
            "T_SPIDER_CRIT",
            "the leg-pattern predicate matches measured spider criticality",
            Families(_SPIDER_CORPUS),
            _check_spider_crit,
            family_kinds=(fam.Spider,),
        ),
        TheoremEntry(
            "T_SPAN",
            "completion preserves gamma_tR >= 4 and reaches edge-criticality",
            AllLabeled(5),
            _check_span,
            hypothesis=lambda g: gamma_tr_value(g) >= 4,
            # not label-invariant: the completion adds edges in label order
        ),
        TheoremEntry(
            "T_KNKM",
            "gamma_tR of the rook's graph K_n x K_m is 2 min(n, m)",
            Families(
                tuple(
                    fam.CartesianComplete(n, m)
                    for n in (2, 3, 4)
                    for m in (2, 3, 4)
                    if n <= m
                )
            ),
            _check_knkm,
            family_kinds=(fam.CartesianComplete,),
        ),
        TheoremEntry(
            "T_DIAM2",
            "diameter-2 edge-critical graphs exist for every value >= 4",
            Families(
                (
                    fam.CartesianComplete(2, 2),
                    fam.CartesianComplete(3, 3),
                    fam.ProductDeleted(2),
                    fam.ProductDeleted(3),
                )
            ),
            _check_diam2,
            family_kinds=(fam.CartesianComplete, fam.ProductDeleted),
        ),
        TheoremEntry(
            "T_DN",
            "the shared-vertex K_4-e chain has gamma_tR = 2n+1 with dead rim"
            " vertices",
            Families((fam.DeadExample(2), fam.DeadExample(3), fam.DeadExample(4))),
            _check_dn,
            family_kinds=(fam.DeadExample,),
        ),
        TheoremEntry(
            "T_DN_EDGES",
            "for n >= 3 every non-edge at a dead rim vertex is critical",
            Families((fam.DeadExample(2), fam.DeadExample(3), fam.DeadExample(4))),
            _check_dn_edges,
            family_kinds=(fam.DeadExample,),
        ),
        TheoremEntry(
            "T_RD_DEADPAIR",
            "joining two Roman-dead vertices never changes gamma_R",
            AllLabeled(5),
            _check_rd_deadpair,
            label_invariant=True,
        ),
    ]


THEOREMS: dict[str, TheoremEntry] = {e.theorem_id: e for e in _entries()}

_PARALLEL_WINDOW = 2048


def parallel_map(fn, items: Iterable, jobs: int) -> Iterator:
    """``(item, fn(item))`` for each item, mapped over a pool of ``jobs``
    worker processes, at most one per CPU, since the pool starts them all
    at its first task.

    Results always arrive in input order, so output never depends on the
    number of workers.  Submission is windowed to keep memory bounded on
    very large streams.
    """
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        it = iter(items)
        while chunk := list(itertools.islice(it, _PARALLEL_WINDOW)):
            size = max(1, len(chunk) // (4 * workers))
            yield from zip(chunk, pool.map(fn, chunk, chunksize=size))


def _claim(claim_id: str) -> TheoremEntry:
    """A registry theorem or an open question.  ``THEOREMS`` is read on
    every call, so entries replaced after import are the ones that run."""
    entry = THEOREMS.get(claim_id)
    return entry if entry is not None else _QUESTION_ENTRIES[claim_id]


def _check_item(
    item: tuple[int, tuple[str, ...], fam.FamilySpec | None, Graph],
) -> tuple[str | None, ...]:
    """Run the checks of the claims ``ids`` on one instance."""
    _, ids, spec, g = item
    return tuple(_claim(cid).check(g, spec) for cid in ids)


def _sweep(
    universe: InstanceUniverse,
    ids: list[str],
    jobs: int,
) -> list[VerificationReport]:
    """Check the claims ``ids`` over one enumeration of ``universe``.

    On an all-labelled universe the label-invariant claims meet one
    canonical representative per isomorphism class, which counts as its
    whole orbit of labellings; the other claims meet every labelled
    graph.  Each instance meets every claim's descriptor filter and
    hypothesis in the order of ``ids``.  The claims that hold form one
    work item ``(weight, ids, spec, g)``, weight being the number of
    instances it counts for, whose checks run here when ``jobs`` is 1 and
    in a pool worker otherwise.  Results come back in instance order,
    so the reports do not depend on ``jobs``.  A label-invariant claim's
    counterexamples are therefore canonical class representatives, in
    class order; every other claim's are labelled graphs.
    """
    entries = [_claim(cid) for cid in ids]
    position = {cid: i for i, cid in enumerate(ids)}
    checked = [0] * len(ids)
    found: list[list[Counterexample]] = [[] for _ in ids]
    by_class = isinstance(universe, AllLabeled)
    classed = [cid for cid, e in zip(ids, entries) if by_class and e.label_invariant]
    labeled = [cid for cid in ids if cid not in classed]
    streams = []
    if classed:
        streams.append(
            (classed, ((w, None, g) for w, g in _class_instances(universe)))
        )
    if labeled:
        streams.append(
            (labeled, ((1, spec, g) for spec, g in enumerate_instances(universe)))
        )

    def items():
        for stream_ids, instances in streams:
            stream_entries = [entries[position[cid]] for cid in stream_ids]
            for weight, spec, g in instances:
                held = tuple(
                    cid
                    for cid, entry in zip(stream_ids, stream_entries)
                    if (entry.family_kinds is None
                        or isinstance(spec, entry.family_kinds))
                    and (entry.hypothesis is None or entry.hypothesis(g))
                )
                if held:
                    yield weight, held, spec, g

    if jobs <= 1:
        results = ((item, _check_item(item)) for item in items())
    else:
        results = parallel_map(_check_item, items(), jobs)
    for (weight, held, spec, g), details in results:
        for cid, detail in zip(held, details):
            i = position[cid]
            checked[i] += weight
            if detail is not None and len(found[i]) < MAX_COUNTEREXAMPLES:
                prefix = f"{fam.family_to_text(spec)}: " if spec is not None else ""
                found[i].append(Counterexample(graph6_encode(g), prefix + detail))
    return [
        VerificationReport(
            cid, universe, checked[i], "fail" if found[i] else "pass",
            tuple(found[i]),
        )
        for i, cid in enumerate(ids)
    ]


def _claim_universe(
    claim_id: str, universe: InstanceUniverse | None, kind: str = "theorem"
) -> InstanceUniverse:
    """The universe a theorem, or with ``kind`` "question" an open question,
    runs over: ``universe``, else its default."""
    entries, unknown = ((THEOREMS, UnknownTheoremError) if kind == "theorem"
                        else (_QUESTION_ENTRIES, UnknownQuestionError))
    entry = entries.get(claim_id)
    if entry is None:
        raise unknown(f"unknown {kind} {claim_id!r}; registered:"
                      f" {', '.join(sorted(entries))}")
    if universe is None:
        universe = entry.default_universe
    if entry.family_kinds is not None and not isinstance(universe, Families):
        raise IncompatibleUniverseError(
            f"{claim_id} needs a family universe carrying "
            f"{'/'.join(k.__name__ for k in entry.family_kinds)} descriptors"
        )
    return universe


def verify_theorem(
    theorem_id: str,
    universe: InstanceUniverse | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Evaluate one registered claim over a universe (default: its own)."""
    universe = _claim_universe(theorem_id, universe)
    return _sweep(universe, [theorem_id], jobs)[0]


def run_registry(
    universe_overrides: dict[str, InstanceUniverse] | None = None,
    jobs: int = 1,
) -> list[VerificationReport]:
    """Run every registered theorem at its default universe, or at its
    override, and return the reports in theorem-id order.

    Theorems whose universes are equal share one sweep: each distinct
    universe is enumerated once, and every instance is offered to its
    theorems in id order.  On an all-labelled universe the label-invariant
    theorems share one pass over the isomorphism classes instead, each
    class weighted by its orbit size.  Counts and counterexamples are
    those of running each theorem on its own.
    """
    overrides = universe_overrides or {}
    universes = {
        tid: _claim_universe(tid, overrides.get(tid)) for tid in sorted(THEOREMS)
    }
    groups: dict[InstanceUniverse, list[str]] = {}
    for tid, universe in universes.items():
        groups.setdefault(universe, []).append(tid)
    reports: dict[str, VerificationReport] = {}
    for universe, ids in groups.items():
        reports.update(zip(ids, _sweep(universe, ids, jobs)))
    # equal universes may still print differently (p=1 and p=1.0)
    return [reports[tid]._replace(universe=u) for tid, u in universes.items()]


def _hunt_q1(g: Graph, spec) -> str | None:
    if is_supercritical(g) and not fam.is_union_of_completes(g):
        return (
            f"supercritical with gamma_tR={gamma_tr_value(g)} but not a union"
            " of complete graphs of order >= 3"
        )
    return None


def _hunt_q2(g: Graph, spec) -> str | None:
    if is_edge_critical(g):
        dead = dead_vertices(g)
        if dead:
            return (
                f"edge-critical with dead vertices {dead} at"
                f" gamma_tR={gamma_tr_value(g)}"
            )
    return None


_QUESTION_ENTRIES: dict[str, TheoremEntry] = {
    e.theorem_id: e
    for e in (
        TheoremEntry(
            "Q1_supercritical",
            "every supercritical graph is a union of >= 2 complete graphs of"
            " order >= 3",
            _all6(),
            _hunt_q1,
            label_invariant=True,
        ),
        TheoremEntry(
            "Q2_dead_in_critical",
            "no edge-critical graph has a dead vertex",
            _all6(),
            _hunt_q2,
            label_invariant=True,
        ),
    )
}

QUESTIONS = tuple(sorted(_QUESTION_ENTRIES))


def hunt_counterexamples(
    question_id: str,
    universe: InstanceUniverse | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Search a universe for counterexamples to the open questions.

    Q1_supercritical: a supercritical graph that is not a disjoint union
    of two or more complete graphs of order >= 3.  Q2_dead_in_critical:
    an edge-critical graph with a nonempty dead-vertex set.  A passing
    report means only that the bounded universe holds no counterexample.
    """
    universe = _claim_universe(question_id, universe, "question")
    return _sweep(universe, [question_id], jobs)[0]
