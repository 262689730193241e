"""Edge deltas, profile classification, and critical completion."""

import hashlib
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    complete,
    connected_graphs,
    corona_complete,
    cycle,
    dead_example,
    disjoint_union,
    frontier_width,
    path,
    solvable_graphs,
    sparse_graphs,
    spider,
    two_degenerate,
    union,
)
from trd.criticality import (
    COMPLETE,
    EDGE_CRITICAL,
    MIXED,
    STABLE,
    SUPERCRITICAL,
    complete_to_critical,
    edge_delta,
    edge_profile,
    is_critical_edge,
    is_edge_critical,
    is_k_gamma_t_edge_critical,
    is_stable,
    is_supercritical,
)
from trd.errors import (
    IsolatedVertexError,
    NotANonEdgeError,
    ValueTooSmallError,
)
from trd.families import Complete, Cycle, Path, generate, parse_family
from trd import solver
from trd.graphs import (
    add_edge,
    build_graph,
    complement,
    component_masks,
    from_edge_mask,
    graph6_decode,
    graph_classes,
    is_connected,
    pair_index,
)
from trd.solver import (
    _FrontierDP,
    _Near,
    _frontier_order,
    _WeightSearch,
    brute_oracle_gamma_tr,
    dead_vertices,
    enumerate_min_trd,
    gamma_t_value,
    gamma_tr,
    gamma_tr_value,
    reset_caches,
)
from trd.verify import _LONGLEG_CORPUS, _SPIDER_CORPUS, run_registry, verify_theorem


def complete_bipartite(a: int, b: int):
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def narrow(g) -> bool:
    """Whether the greedy frontier order of ``g`` has width <= 2."""
    order = _frontier_order(g)
    return order is not None and frontier_width(g, order) <= 2


class TestEdgeDelta:
    def test_two_triangles_cross_pair(self):
        g = union(Complete(3), Complete(3))
        assert edge_delta(g, 0, 3) == 2

    def test_k2_k3_cross_pair(self):
        g = union(Complete(2), Complete(3))
        # brute values: 5 before, 4 after
        assert gamma_tr_value(g) == 5
        assert gamma_tr_value(add_edge(g, 0, 2)) == 4
        assert edge_delta(g, 0, 2) == 1

    def test_dead_example_rim_pair(self):
        assert edge_delta(dead_example(2), 5, 6) == 0

    def test_corona_triangle_leaf_to_inner(self):
        # leaf 3 hangs off inner vertex 0; inner vertices 1 and 2 are its
        # non-neighbours
        g = corona_complete(3)
        assert edge_delta(g, 3, 1) == 2

    def test_not_a_non_edge(self):
        with pytest.raises(NotANonEdgeError):
            edge_delta(cycle(4), 0, 1)
        with pytest.raises(NotANonEdgeError):
            edge_delta(cycle(4), 2, 2)

    def test_isolated(self):
        with pytest.raises(IsolatedVertexError):
            edge_delta(build_graph(3, [(0, 1)]), 0, 2)

    @given(solvable_graphs(2, 6), st.data())
    @settings(max_examples=100)
    def test_delta_in_range(self, g, data):
        non_edges = g.non_edges()
        assume(non_edges)
        u, v = data.draw(st.sampled_from(non_edges))
        assert edge_delta(g, u, v) in (0, 1, 2)
        assert is_critical_edge(g, u, v) == (edge_delta(g, u, v) > 0)
        assert gamma_t_value(g) - gamma_t_value(add_edge(g, u, v)) in (0, 1, 2)


class TestEdgeProfile:
    def test_subdivided_star_critical(self):
        assert edge_profile(spider(2, 2, 2)).classification == EDGE_CRITICAL

    def test_k33_stable(self):
        assert edge_profile(complete_bipartite(3, 3)).classification == STABLE

    def test_isolated(self):
        with pytest.raises(IsolatedVertexError,
                           match="^edge profiles need a graph without isolated vertices$"):
            edge_profile(build_graph(3, [(0, 1)]))

    def test_p5_mixed(self):
        profile = edge_profile(path(5))
        assert profile.classification == MIXED
        assert profile.deltas[(0, 4)] == 0
        assert profile.deltas[(0, 2)] == 1

    def test_k4_complete(self):
        profile = edge_profile(complete(4))
        assert profile.classification == COMPLETE
        assert profile.deltas == {}
        assert not is_edge_critical(complete(4))

    def test_supercritical_is_also_edge_critical(self):
        g = union(Complete(3), Complete(3))
        assert edge_profile(g).classification == SUPERCRITICAL
        assert is_supercritical(g) and is_edge_critical(g)

    def test_corona_of_cycle_10_pinned(self):
        # the paper's extremal corona, with 170 non-edges that all go to
        # branch and bound; the digest comes from the search without the
        # packing bound, which took 36 s on a 2-vCPU machine
        profile = edge_profile(generate(parse_family("cor(cycle(10))")))
        text = json.dumps([profile.base_value,
                           [[u, v, d] for (u, v), d in profile.deltas.items()],
                           profile.classification])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a50016187124f3d5fe61dbf09b3c9c17f2f6986be8ec201efd3d78a64e1ac39d")

    def test_corona_of_cycle_12(self):
        # order 24, the solver cap: every one of the 252 non-edges is
        # answered from the graph's own frontier order, including those
        # whose G+uv has no width-2 order; a sample is checked against exact
        # values
        g = generate(parse_family("cor(cycle(12))"))
        profile = edge_profile(g)
        assert profile.base_value == 24 and len(profile.deltas) == 252
        sample = list(profile.deltas)[::9]
        assert any(not narrow(add_edge(g, u, v)) for u, v in sample)
        for u, v in sample:
            assert profile.deltas[u, v] == 24 - gamma_tr_value(add_edge(g, u, v))

    @given(solvable_graphs(2, 6))
    @settings(max_examples=80)
    def test_keys_and_classification(self, g):
        profile = edge_profile(g)
        assert list(profile.deltas) == complement(g).edges()
        assert profile.base_value == gamma_tr_value(g)
        values = profile.deltas.values()
        if not profile.deltas:
            assert profile.classification == COMPLETE
        elif all(d == 2 for d in values):
            assert profile.classification == SUPERCRITICAL
        elif all(d >= 1 for d in values):
            assert profile.classification == EDGE_CRITICAL
        elif all(d == 0 for d in values):
            assert profile.classification == STABLE
        else:
            assert profile.classification == MIXED


class TestPredicates:
    """The early-exit predicates agree with the classification of the full
    delta profile."""

    @staticmethod
    def agree(g):
        classification = edge_profile(g).classification
        assert is_edge_critical(g) == (classification in (SUPERCRITICAL, EDGE_CRITICAL))
        assert is_stable(g) == (classification == STABLE)
        assert is_supercritical(g) == (classification == SUPERCRITICAL)

    @given(solvable_graphs(2, 6))
    @settings(max_examples=80)
    def test_memoised_orders(self, g):
        self.agree(g)

    @given(sparse_graphs(7, 9))
    @settings(max_examples=20, deadline=None)
    def test_first_hit_orders(self, g):
        self.agree(g)

    def test_named_graphs(self):
        assert is_edge_critical(spider(2, 2, 4)) and not is_stable(spider(2, 2, 4))
        assert is_stable(complete_bipartite(3, 3))
        assert is_supercritical(union(Complete(3), Complete(3)))
        assert not is_supercritical(cycle(6)) and is_edge_critical(cycle(6))
        for g in (complete(4), complete(2)):
            assert not (is_edge_critical(g) or is_stable(g) or is_supercritical(g))
        for g in (spider(2, 2, 4), complete_bipartite(3, 3), cycle(6), complete(4),
                  union(Complete(3), Complete(3)), union(Complete(3), Complete(4))):
            self.agree(g)


@st.composite
def dp_routed_graphs(draw):
    """Relabelled spiders and chorded cycles of order 10-16, the sparse
    graphs that the frontier DP solves."""
    if draw(st.booleans()):
        legs = draw(st.lists(st.integers(1, 4), min_size=3, max_size=5))
        assume(10 <= 1 + sum(legs) <= 16)
        g = spider(*legs)
    else:
        n = draw(st.integers(10, 13))
        g = add_edge(cycle(n), 0, draw(st.integers(2, n - 2)))
    perm = draw(st.permutations(range(g.n)))
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def width_three_graphs(draw, min_n=10, max_n=12):
    """Relabelled graphs of order min_n to max_n, each vertex joined to one
    or two earlier ones (so 2-degenerate), whose greedy order has width 3
    and none has width 2."""
    n = draw(st.integers(min_n, max_n))
    edges = [(0, 1)]
    for v in range(2, n):
        edges += [(u, v) for u in draw(st.sets(st.integers(0, v - 1), min_size=1, max_size=2))]
    perm = draw(st.permutations(range(n)))
    g = build_graph(n, [(perm[u], perm[v]) for u, v in edges])
    assume(_frontier_order(g) is not None and not narrow(g))
    return g


def waived_minima(g):
    """``{(w, xs, waive): least weight}`` over every vertex w and every
    ``(xs, waive)`` of a row of ``_CASES``, by a plain scan of all 3^n
    weight vectors: a vector counts when f(w) is in ``xs`` and every vertex
    meets its TRD condition, w excepted when ``waive``."""
    n, full, adj = g.n, g.full_mask, g.adj
    nbrs = [0] * (1 << n)  # the open neighbourhood of every vertex set
    for s in range(1, 1 << n):
        low = s & -s
        nbrs[s] = nbrs[s ^ low] | adj[low.bit_length() - 1]
    rows = [(xs, waive) for xs, waive, _, _ in solver._CASES]
    best = {}
    for two in range(1 << n):
        rest = full & ~two
        ones = rest
        while True:
            pos = two | ones
            bad = full & ~pos & ~nbrs[two] | pos & ~nbrs[pos]
            if not bad & (bad - 1):
                weight = 2 * two.bit_count() + ones.bit_count()
                for w in range(n) if not bad else (bad.bit_length() - 1,):
                    x = (two >> w & 1) + (pos >> w & 1)
                    for xs, waive in rows:
                        if (x in xs and (waive or not bad)
                                and weight < best.get((w, xs, waive), math.inf)):
                            best[w, xs, waive] = weight
            if not ones:
                break
            ones = (ones - 1) & rest
    return best


class TestDecidedDeltas:
    """Deltas worked out from the functions that use the new edge equal the
    difference of the two exact values."""

    @staticmethod
    def exact(g, pairs=None):
        base = gamma_tr_value(g)
        for u, v in g.non_edges() if pairs is None else pairs:
            assert edge_delta(g, u, v) == base - gamma_tr_value(add_edge(g, u, v))

    def test_every_class_of_order_7(self):
        for mask, _ in graph_classes(7):
            g = from_edge_mask(7, mask)
            if not g.has_isolated_vertices():
                self.exact(g)
                TestPredicates.agree(g)

    @given(dp_routed_graphs(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_dp_routed_graphs(self, g, data):
        assert _frontier_order(g) is not None
        pairs = data.draw(st.lists(st.sampled_from(g.non_edges()), min_size=1,
                                   max_size=6, unique=True))
        self.exact(g, pairs)

    @pytest.mark.parametrize("g", [
        union(Cycle(12), Complete(3)),
        union(Path(4), Cycle(5)),
        union(Complete(3), Complete(3), Path(4)),
        spider(2, 2, 3, 4, 4),
        add_edge(cycle(12), 0, 5),
    ])
    def test_disconnected_and_dp_routed_named_graphs(self, g):
        self.exact(g)
        TestPredicates.agree(g)

    @staticmethod
    def count_routing(monkeypatch):
        """Counts of frontier orders sought, DP builds, full DP runs and
        non-edges answered by the DP, from here on; an order sought is also
        counted under ``("_frontier_order", graph)``."""
        counts = Counter()
        order = solver._frontier_order
        monkeypatch.setattr(solver, "_frontier_order", lambda h: counts.update(
            ["_frontier_order", ("_frontier_order", h)]) or order(h))
        for name in ("__init__", "run", "pair"):
            original = getattr(_FrontierDP, name)
            monkeypatch.setattr(_FrontierDP, name, lambda self, *a, f=original, k=name:
                                counts.update([k]) or f(self, *a))
        return counts

    @staticmethod
    def every_question(g, counts):
        """Ask G's value, witness and dead set, then its edge profile;
        return the full DP runs that the profile made, and the profile."""
        gamma_tr_value(g)
        gamma_tr(g)
        dead_vertices(g)
        runs = counts["run"]
        profile = edge_profile(g)
        return counts["run"] - runs, profile

    @pytest.mark.parametrize("g,dps", [
        (cycle(12), 1),
        (spider(2, 2, 3, 4, 4), 1),
        (generate(parse_family("cor(cycle(7))")), 1),
        (union(Cycle(12), Complete(3)), 1),
    ], ids=["cycle(12)", "spider", "cor(cycle(7))", "cycle(12)+K3"])
    def test_one_order_and_one_dp_per_decider(self, monkeypatch, g, dps):
        # value, witness, dead set and every non-edge share one order sought
        # per component of order >= 10, the only ones whose engine asks for
        # an order (K3 is never ordered); each DP is its component's engine,
        # built only where an order is found, whose forward tables are its
        # one full run, so no non-edge costs a full run, only its case
        # steps; the DP takes the pairs inside its component, and no DP is
        # built for a pair across two components
        reset_caches()
        counts = self.count_routing(monkeypatch)
        runs, profile = self.every_question(g, counts)
        ordered = [m for m in component_masks(g) if m.bit_count() >= 10]
        assert counts["_frontier_order"] == len(ordered)
        assert counts["__init__"] == dps and runs == 0
        assert counts["pair"] == sum(any(m >> u & m >> v & 1 for m in ordered)
                                     for u, v in profile.deltas)

    @pytest.mark.parametrize("g,dps", [
        (generate(parse_family("KxK(3,4)")), 0),
        (union(Complete(4), Cycle(12)), 1),
        (corona_complete(5), 0),
    ], ids=["KxK(3,4)", "K4+cycle(12)", "cor(K5)"])
    def test_no_frontier_order_per_non_edge_without_two_degeneracy(
        self, monkeypatch, g, dps
    ):
        # each graph has a component that is not 2-degenerate; the greedy
        # seeks an order once, for the one component of order >= 10, and
        # never for a G+uv; a DP is built only when it finds one (KxK(3,4)
        # and cor(K5) get none); no order is sought for K4, of order 4, and
        # beside it the engine of cycle(12) answers that component's pairs
        reset_caches()
        counts = self.count_routing(monkeypatch)
        self.every_question(g, counts)
        assert counts["_frontier_order"] == 1
        assert counts["__init__"] == dps

    @pytest.mark.parametrize("code", [
        "ISDSqCxT?",
        "KSw??G@kdX?{",
        "OgB?_???o?XdSD??_?K?R",
        "U_?OP??_GA?CA?OC?a?G_?G?C?_@_h????o??Mc?",
    ], ids=["n=10", "n=12", "n=16", "n=22"])
    def test_width_three_order_routes_to_the_dp(self, code):
        # connected graphs that are not 2-degenerate but get a greedy order
        # of width 3: the DP takes them, and gives the value, smallest
        # witness, dead set and every delta that one whole-graph branch and
        # bound gives, and that the 3^n scan gives up to order 12
        g = graph6_decode(code)
        assert not two_degenerate(g)
        reset_caches()
        assert [type(part.engine) for part in solver._solved(g).parts] == [_FrontierDP]
        result, dead, profile = gamma_tr(g), dead_vertices(g), edge_profile(g)
        search = _WeightSearch(g, True)
        value, found, _ = search.decide({}, 2 * g.n)
        witness, _ = solver._witness(search, value, found, math.inf)
        least = _Near(g, value).least
        deltas = {(u, v): value - least[pair_index(u, v)] for u, v in g.non_edges()}
        assert (result.value, result.witness.values) == (value, witness)
        assert (dead, profile.base_value) == (tuple(search.dead(value)), value)
        assert profile.deltas == deltas
        if g.n <= 12:
            minimums = [f.values for f in enumerate_min_trd(g)]
            assert (brute_oracle_gamma_tr(g), minimums[0]) == (value, witness)
            assert dead == tuple(v for v in range(g.n)
                                 if all(vec[v] == 0 for vec in minimums))
            assert deltas == {(u, v): value - brute_oracle_gamma_tr(add_edge(g, u, v))
                              for u, v in g.non_edges()}

    @pytest.mark.parametrize("theorem", ["T_LONGLEGS", "T_ENDDEG3"])
    def test_verify_orders_each_graph_once(self, monkeypatch, theorem):
        # the checks ask a value, some deltas and whether G is edge-critical,
        # all of one routing of G
        reset_caches()
        counts = self.count_routing(monkeypatch)
        assert verify_theorem(theorem).outcome == "pass"
        ordered = [key for key in counts if key[0] == "_frontier_order"]
        assert all(counts[key] == 1 for key in ordered)
        if theorem == "T_LONGLEGS":
            assert ordered

    @pytest.mark.parametrize("question,most", [
        (lambda: edge_profile(cycle(24)), 1602),
        (run_registry, 3112),
    ], ids=["profile(cycle(24))", "registry"])
    def test_one_forward_walk_per_dp(self, monkeypatch, question, most):
        # the value run's tables are the forward tables that the dead set
        # and the non-edge cases read, so no DP walks its steps twice
        # unpinned; each u adds three case tables, kept, and each pair
        # three steps
        reset_caches()
        steps = []
        advance = solver._advance
        monkeypatch.setattr(solver, "_advance",
                            lambda *a: steps.append(1) or advance(*a))
        question()
        assert len(steps) <= most

    @given(dp_routed_graphs(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_span_deltas_across_components(self, g, data):
        # u and v in different components: each case adds the two
        # components' values with the condition that uv meets waived
        other = data.draw(st.sampled_from([path(4), cycle(5), complete(3), spider(1, 2, 3)]))
        h = disjoint_union([g, other])
        perm = data.draw(st.permutations(range(h.n)))
        h = build_graph(h.n, [(perm[a], perm[b]) for a, b in h.edges()])
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, g.n - 1), st.integers(g.n, h.n - 1)),
            min_size=1, max_size=4, unique=True))
        self.exact(h, [tuple(sorted((perm[a], perm[b]))) for a, b in pairs])

    def test_span_deltas_beside_a_branch_and_bound_component(self):
        # pairs inside the cycle go to the DP, and K4, which has no width-2
        # order, adds its value to every answer
        g = union(Cycle(12), Complete(4))
        self.exact(g, [(u, v) for u, v in g.non_edges() if v < 12])

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_span_deltas_without_a_width_two_order(self, monkeypatch, k):
        # for these non-edges G+uv has no width-2 order, but G does, so the
        # decider answers from G's order, as it does every non-edge
        g = generate(parse_family(f"cor(cycle({k}))"))
        perm = list(range(g.n))
        random.Random(k).shuffle(perm)
        g = build_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
        pairs = [(u, v) for u, v in g.non_edges()
                 if not narrow(add_edge(g, u, v))]
        assert pairs
        counts = self.count_routing(monkeypatch)
        self.exact(g, pairs)
        assert counts["pair"] == len(pairs)

    @staticmethod
    def waived_cases_match_the_oracle(g, pairs):
        """The DP's deltas for ``pairs`` against the 3^n scan of each G+uv."""
        reset_caches()
        solved = solver._Solved(g)
        base = solved.value()
        for u, v in pairs:
            assert solved.delta(u, v) == base - brute_oracle_gamma_tr(add_edge(g, u, v))

    @given(width_three_graphs(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_waived_cases_on_width_three_orders(self, g, data):
        # the three cases of the lemma, each run on G's own width-3 order
        # with the conditions that uv meets waived
        pairs = data.draw(st.lists(st.sampled_from(g.non_edges()), min_size=1,
                                   max_size=8, unique=True))
        self.waived_cases_match_the_oracle(g, pairs)
        assert [type(part.engine) for part in solver._Solved(g).parts] == [_FrontierDP]

    @given(width_three_graphs(9, 10), st.data())
    @settings(max_examples=20, deadline=None)
    def test_waived_cases_on_unions(self, g, data):
        # a second component, and pairs across and within: a pair within
        # goes to its component's engine, a pair across adds the two
        # components' waived values
        other = data.draw(st.sampled_from([complete(2), path(3), complete(3)]))
        assume(g.n + other.n <= 12)
        h = disjoint_union([g, other])
        perm = data.draw(st.permutations(range(h.n)))
        h = build_graph(h.n, [(perm[a], perm[b]) for a, b in h.edges()])
        pairs = data.draw(st.lists(st.sampled_from(h.non_edges()), min_size=1,
                                   max_size=8, unique=True))
        self.waived_cases_match_the_oracle(h, pairs)

    @given(width_three_graphs())
    @settings(max_examples=8, deadline=None)
    def test_case_values_of_both_engines_match_a_scan(self, g):
        # per vertex and case, branch and bound with the DP's waiver, the DP
        # on G's own order and a plain scan give the same least weight,
        # inf where no function exists
        expected = waived_minima(g)
        search, dp = _WeightSearch(g, True), _FrontierDP(g, _frontier_order(g), True)
        for w in range(g.n):
            for xs, waive, _, _ in solver._CASES:
                value = expected.get((w, xs, waive), math.inf)
                assert search.at(w, xs, waive) == dp.at(w, xs, waive) == value

    def test_no_graph_built_for_a_pair_across_components(self, monkeypatch):
        # KxK(3,4) takes branch and bound and cycle(12) the DP; a pair
        # across them adds the two parts' case values, so no search runs on
        # more than one component
        g = generate(parse_family("union(KxK(3,4),cycle(12))"))
        orders = []
        init = _WeightSearch.__init__
        monkeypatch.setattr(_WeightSearch, "__init__",
                            lambda self, h, *a: orders.append(h.n) or init(self, h, *a))
        reset_caches()
        profile = edge_profile(g)
        assert len(profile.deltas) == 12 * 12 + (66 - 30) + (66 - 12)
        assert orders and max(orders) <= 12

    def test_case_tables_dropped_after_the_last_pair(self):
        # a step's case tables go once every non-edge from it has been
        # asked; a pair asked again builds them anew, with the same answer
        g = generate(parse_family("D(6)"))
        profile = edge_profile(g)
        dp = solver._solved(g).parts[0].engine
        assert isinstance(dp, _FrontierDP) and not dp.cases
        for (u, v), delta in list(profile.deltas.items())[::20]:
            assert edge_delta(g, u, v) == delta

    def test_one_scan_answers_every_delta(self, monkeypatch):
        # one near scan per branch-and-bound component answers every pair
        # inside it: a whole profile makes no pinned search and builds no
        # G+uv; a G(14, 0.3) draw with no frontier order, so branch and
        # bound takes every non-edge
        g = graph6_decode("MG@ISKDcA@dyC?By?")
        assert _frontier_order(g) is None
        reset_caches()
        pinned, added = [], []
        solve = _WeightSearch.solve
        monkeypatch.setattr(_WeightSearch, "solve",
                            lambda self, pins, *a: pinned.append(bool(pins))
                            or solve(self, pins, *a))
        for module in ("trd.graphs", "trd.criticality"):
            monkeypatch.setattr(f"{module}.add_edge",
                                lambda h, u, v: added.append((u, v)) or add_edge(h, u, v))
        profile = edge_profile(g)
        assert not any(pinned) and not added
        assert set(profile.deltas.values()) == {0, 1, 2}

    def test_critical_edge_checks_ask_one_question(self, monkeypatch):
        # the dead-vertex edge checks read each delta from one near scan
        # per graph; the pinned searches are those of the dead sets
        reset_caches()
        pinned = []
        solve = _WeightSearch.solve
        monkeypatch.setattr(_WeightSearch, "solve",
                            lambda self, pins, *a: pinned.append(bool(pins))
                            or solve(self, pins, *a))
        report = verify_theorem("T_DN_EDGES")
        assert (report.outcome, report.instances_checked) == ("pass", 3)
        assert not report.counterexamples
        assert sum(pinned) <= 70

    @given(sparse_graphs(7, 10), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle(self, g, data):
        non_edges = g.non_edges()
        assume(non_edges)
        u, v = data.draw(st.sampled_from(non_edges))
        expected = brute_oracle_gamma_tr(g) - brute_oracle_gamma_tr(add_edge(g, u, v))
        assert edge_delta(g, u, v) == expected


@st.composite
def tree_like_graphs(draw, min_n=3, max_n=9):
    """Connected graphs: any, or a random tree with up to three more edges."""
    if draw(st.booleans()):
        return draw(connected_graphs(min_n, max_n))
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


class TestNearScan:
    """The table of one near scan holds gamma_tR(G+uv) for every non-edge uv
    with a drop, and gamma_tR(G) for the others."""

    @given(tree_like_graphs())
    @settings(max_examples=60, deadline=None)
    def test_table_matches_oracle(self, g):
        value = brute_oracle_gamma_tr(g)
        least = _Near(g, value).least
        for u, v in g.non_edges():
            assert least[pair_index(u, v)] == brute_oracle_gamma_tr(add_edge(g, u, v))

    @pytest.mark.parametrize("family", ["cor(K8)", "KxK(4,5)", "D(4)"])
    def test_named_graphs_match_exact_values(self, family):
        g = generate(parse_family(family))
        value = gamma_tr_value(g)
        least = _Near(g, value).least
        for u, v in g.non_edges()[::7]:
            assert least[pair_index(u, v)] == gamma_tr_value(add_edge(g, u, v))


# the DP-routed G(14, 0.3) draws of the `extremal_profile` benchmark at
# seeds 11 and 3: gamma_tR 11, 8 and 10 at each seed
PROFILE_DP_DRAWS = (
    "M@_?@@GKICK_GK@??", "M?HoL?OO?_?@@A|g_", "M?o_Co@?a_@sI?m??",
    "MI@CA??`@?`@GGPS?", "MIECBLB?_??K?YCW?", "MHO@OB???atpBC?O?",
)


def gnp_dp_draws(count=16, seed=2026):
    """Seeded connected G(n, p) draws of order 10-16 with a frontier order."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        n, p = rng.randint(10, 16), rng.choice((0.2, 0.25, 0.3))
        g = build_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
        if not g.has_isolated_vertices() and is_connected(g) and _frontier_order(g):
            draws.append(g)
    return draws


def dp_routable_graphs():
    """(id, graph): connected graphs of order 10-16 with a frontier order."""
    named = ([f"cycle({n})" for n in range(10, 15)] + [f"path({n})" for n in range(10, 15)]
             + [f"cor(cycle({k}))" for k in range(5, 8)]
             + [f"D({k})" for k in range(3, 6)] + ["familyG(2,3)", "familyH(2,2,r=3)"])
    graphs = [(code, graph6_decode(code)) for code in PROFILE_DP_DRAWS]
    graphs += [(family, generate(parse_family(family))) for family in named]
    for spec in _SPIDER_CORPUS + _LONGLEG_CORPUS:
        g = generate(spec)
        if 10 <= g.n <= 16 and _frontier_order(g):
            graphs.append((f"spider{spec.legs}", g))
    graphs += [(f"gnp{i}", g) for i, g in enumerate(gnp_dp_draws())]
    return graphs


class TestPairRouting:
    """A DP component's pairs go to its case tables or to one near scan by
    the estimate of ``_Part.near``, with the same answers either way."""

    @pytest.mark.parametrize("g", [pytest.param(g, id=name)
                                   for name, g in dp_routable_graphs()])
    def test_near_table_matches_case_tables(self, g):
        # the two tables give the same gamma_tR(G+uv) on every non-edge,
        # whichever engine the rule would pick
        assert is_connected(g) and 10 <= g.n <= 16
        dp = _FrontierDP(g, _frontier_order(g), True)
        value = dp.run([(0, 1, 2)] * g.n)[0]
        least = _Near(g, value).least
        for u, v in g.non_edges():
            assert least[pair_index(u, v)] == min(value, dp.pair(u, v))

    @pytest.mark.parametrize("g,near", [
        (graph6_decode("M?HoL?OO?_?@@A|g_"), True),
        (graph6_decode("M?o_Co@?a_@sI?m??"), True),
        (cycle(12), False),
        (cycle(14), False),
        (path(14), False),
        (path(20), False),
        (generate(parse_family("cor(cycle(7))")), False),
        (spider(1, 2, 2, 3, 4, 5), False),
        (generate(parse_family("D(6)")), False),
    ], ids=["gamma8-draw", "gamma10-draw", "cycle(12)", "cycle(14)", "path(14)",
            "path(20)", "cor(cycle(7))", "spider(1,2,2,3,4,5)", "D(6)"])
    def test_rule_picks_the_pair_engine(self, g, near):
        # the G(14, 0.3) draws of gamma_tR 8 and 10 have few sets of 2s to
        # walk against their case-table work; on cycles, paths and the
        # sparse families the scan would walk far more (3.7 s against 3 ms
        # for the case tables on path(20))
        reset_caches()
        [part] = solver._solved(g).parts
        assert isinstance(part.engine, _FrontierDP)
        assert (part.near is None) == (not near)

    def test_near_routed_dp_component_builds_no_search(self, monkeypatch):
        # a whole profile of a near-routed DP component builds no
        # branch-and-bound engine, as the scan reads the component's graph,
        # and asks no case table, runs no pinned search and builds no G+uv
        g = graph6_decode("M?o_Co@?a_@sI?m??")
        reset_caches()
        built, pinned, added, tables = [], [], [], []
        init, solve, pair = _WeightSearch.__init__, _WeightSearch.solve, _FrontierDP.pair
        monkeypatch.setattr(_WeightSearch, "__init__",
                            lambda self, *a: built.append(1) or init(self, *a))
        monkeypatch.setattr(_WeightSearch, "solve",
                            lambda self, pins, *a: pinned.append(bool(pins))
                            or solve(self, pins, *a))
        monkeypatch.setattr(_FrontierDP, "pair",
                            lambda self, *a: tables.append(1) or pair(self, *a))
        for module in ("trd.graphs", "trd.criticality"):
            monkeypatch.setattr(f"{module}.add_edge",
                                lambda h, u, v: added.append((u, v)) or add_edge(h, u, v))
        profile = edge_profile(g)
        assert not built and not any(pinned) and not added and not tables
        assert [type(part.engine) for part in solver._solved(g).parts] == [_FrontierDP]
        assert set(profile.deltas.values()) == {0, 1, 2}


class TestCriticalEdgeValueSets:
    ALLOWED = {(2, 2), (1, 2), (0, 2), (1, 1)}

    @given(solvable_graphs(2, 6), st.data())
    @settings(max_examples=80)
    def test_minimums_respect_value_sets(self, g, data):
        non_edges = g.non_edges()
        assume(non_edges)
        u, v = data.draw(st.sampled_from(non_edges))
        if edge_delta(g, u, v) == 0:
            return
        h = add_edge(g, u, v)
        minimums = enumerate_min_trd(h)
        for f in minimums:
            assert tuple(sorted((f.values[u], f.values[v]))) in self.ALLOWED
        if g.degree(u) == 1 and g.degree(v) == 1:
            assert any(f.values[u] == f.values[v] == 1 for f in minimums)


class TestCompleteToCritical:
    def test_cycle_already_critical(self):
        assert complete_to_critical(cycle(6)) == cycle(6)

    def test_p4_becomes_c4(self):
        # lexicographic scan: (0,2) and (1,3) would create a universal
        # vertex (delta 1); (0,3) keeps the value, giving C_4
        assert complete_to_critical(path(4)) == cycle(4)

    def test_critical_spider_unchanged(self):
        g = spider(2, 2, 4)
        assert complete_to_critical(g) == g

    def test_value_too_small(self):
        with pytest.raises(ValueTooSmallError):
            complete_to_critical(complete(3))

    def test_isolated(self):
        with pytest.raises(IsolatedVertexError):
            complete_to_critical(build_graph(3, [(0, 1)]))

    @pytest.mark.parametrize("g", [spider(1, 1, 2, 3), graph6_decode("MG@ISKDcA@dyC?By?")])
    def test_one_question_per_non_edge(self, g, monkeypatch):
        # an added edge never raises gamma_tR, so a non-edge found critical
        # stays critical: one pass asks each non-edge of G once and adds the
        # edges of a scan restarted after every addition
        restarted = g
        while True:
            pair = next(((u, v) for u, v in restarted.non_edges()
                         if not is_critical_edge(restarted, u, v)), None)
            if pair is None:
                break
            restarted = add_edge(restarted, *pair)
        asked = []
        delta = solver._Solved.delta
        monkeypatch.setattr(solver._Solved, "delta", lambda self, u, v:
                            asked.append((u, v)) or delta(self, u, v))
        h = complete_to_critical(g)
        assert asked == g.non_edges()
        assert h == restarted and h.edge_count > g.edge_count

    # orders 2 and 3 (K2, P3, K3) all have gamma_tR <= 3 and are rejected
    @given(solvable_graphs(4, 6))
    @settings(max_examples=60)
    def test_preserves_value_and_reaches_criticality(self, g):
        assume(gamma_tr_value(g) >= 4)
        h = complete_to_critical(g)
        assert gamma_tr_value(h) == gamma_tr_value(g)
        profile = edge_profile(h)
        assert profile.classification in (EDGE_CRITICAL, SUPERCRITICAL)
        assert set(g.edges()) <= set(h.edges())


class TestGammaTCriticality:
    def test_c5_is_3_critical(self):
        assert is_k_gamma_t_edge_critical(cycle(5), 3)

    def test_k2_union_k3_not_3_critical(self):
        assert not is_k_gamma_t_edge_critical(union(Complete(2), Complete(3)), 3)

    def test_complete_never_critical(self):
        assert not is_k_gamma_t_edge_critical(complete(4), 2)

    def test_isolated(self):
        with pytest.raises(IsolatedVertexError,
                           match="^gamma_t criticality needs no isolated vertices$"):
            is_k_gamma_t_edge_critical(build_graph(3, [(0, 1)]), 1)
