"""Solver correctness: validation, oracle agreement, enumeration, dead vertices.

Expected values come from two independent routes: hand-derivable closed
forms for named instances (paths, cycles, stars, complete unions), and
tiny brute-force scans written in this file (full 3^n or 2^n sweeps
through the raw definitions) that share nothing with the package's
search code.
"""

import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    any_graphs,
    complete,
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
from trd import solver
from trd.errors import (
    BudgetExceededError,
    GraphTooLargeError,
    IsolatedVertexError,
    LengthMismatchError,
    TooSmallError,
)
from trd.families import Complete, generate, parse_family
from trd.graphs import Graph, build_graph, component_masks, from_edge_mask, graph_classes
from trd.solver import (
    WeightFunction,
    _FrontierDP,
    _frontier_order,
    _WeightSearch,
    brute_oracle_gamma_tr,
    classical_numbers,
    dead_vertices,
    enumerate_min_trd,
    gamma_r_value,
    gamma_t_value,
    gamma_tr,
    gamma_tr_equals_order,
    gamma_tr_value,
    gamma_value,
    has_trd_weight_at_most,
    is_trd_function,
    reset_caches,
)
from trd.verify import AllLabeled, enumerate_instances, verify_theorem


# --- test-local oracles: raw definition scans, no search tricks ------------


def naive_is_rd(g: Graph, values) -> bool:
    return all(
        x > 0 or any(values[u] == 2 for u in range(g.n) if g.has_edge(v, u))
        for v, x in enumerate(values)
    )


def naive_is_trd(g: Graph, values) -> bool:
    if not naive_is_rd(g, values):
        return False
    positive = [v for v, x in enumerate(values) if x > 0]
    return all(
        any(g.has_edge(v, u) for u in positive if u != v) for v in positive
    )


def naive_gamma_tr(g: Graph) -> int:
    return min(
        sum(vec)
        for vec in itertools.product((0, 1, 2), repeat=g.n)
        if naive_is_trd(g, vec)
    )


def naive_gamma_r(g: Graph) -> int:
    return min(
        sum(vec)
        for vec in itertools.product((0, 1, 2), repeat=g.n)
        if naive_is_rd(g, vec)
    )


def naive_gamma(g: Graph) -> int:
    for size in range(g.n + 1):
        for s in itertools.combinations(range(g.n), size):
            if all(
                v in s or any(g.has_edge(v, u) for u in s) for v in range(g.n)
            ):
                return size
    raise AssertionError


def naive_gamma_t(g: Graph) -> int:
    for size in range(g.n + 1):
        for s in itertools.combinations(range(g.n), size):
            if all(any(g.has_edge(v, u) for u in s) for v in range(g.n)):
                return size
    raise AssertionError


def routed_gamma(g: Graph, total: bool) -> int:
    """gamma (gamma_t with ``total``) by the {0, 2} route on a fresh routed
    graph, read from no table."""
    return solver._Solved(g, total).domination()


def naive_dead(g: Graph, minimums) -> tuple[int, ...]:
    """The vertices that are 0 in every listed minimum weight vector."""
    return tuple(v for v in range(g.n) if all(vec[v] == 0 for vec in minimums))


def min_trd_vectors(g: Graph) -> list[tuple[int, ...]]:
    return [f.values for f in enumerate_min_trd(g)]


# --- validation -------------------------------------------------------------


class TestIsTrdFunction:
    def test_all_ones_valid(self):
        verdict = is_trd_function(cycle(4), WeightFunction((1, 1, 1, 1)))
        assert verdict.valid and bool(verdict)

    def test_total_violation(self):
        verdict = is_trd_function(cycle(4), WeightFunction((2, 0, 2, 0)))
        assert not verdict.valid
        assert verdict.vertex == 0 and verdict.condition == "total"

    def test_roman_violation(self):
        verdict = is_trd_function(cycle(4), WeightFunction((2, 1, 0, 0)))
        assert not verdict.valid
        assert verdict.vertex == 2 and verdict.condition == "roman"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            is_trd_function(cycle(4), WeightFunction((1, 1)))

    @given(solvable_graphs(2, 6))
    @settings(max_examples=60)
    def test_matches_naive_checker(self, g):
        for vec in itertools.islice(
            itertools.product((0, 1, 2), repeat=g.n), 0, 200, 3
        ):
            assert bool(is_trd_function(g, WeightFunction(vec))) == naive_is_trd(
                g, vec
            )


# --- values -----------------------------------------------------------------


class TestKnownValues:
    # cycles, paths, and K_2-unions all attain the full order
    @pytest.mark.parametrize(
        "g,value",
        [
            (path(4), 4),
            (cycle(4), 4),
            (cycle(5), 5),
            (complete(3), 3),
            (spider(1, 1, 3), 5),
            (union(Complete(2), Complete(2)), 4),
            (build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)]), 4),
        ],
    )
    def test_named_instances(self, g, value):
        assert brute_oracle_gamma_tr(g) == value
        assert gamma_tr_value(g) == value
        assert gamma_tr(g).value == value

    def test_exhaustive_agreement_small(self):
        from trd.graphs import from_edge_mask

        for n in range(2, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = from_edge_mask(n, mask)
                if g.has_isolated_vertices():
                    continue
                assert gamma_tr_value(g) == brute_oracle_gamma_tr(g)

    @given(solvable_graphs(2, 7))
    @settings(max_examples=150)
    def test_solver_matches_naive(self, g):
        if g.n <= 6:
            assert gamma_tr_value(g) == naive_gamma_tr(g)
        else:
            assert gamma_tr_value(g) == brute_oracle_gamma_tr(g)

    @given(solvable_graphs(2, 6))
    @settings(max_examples=100)
    def test_decision_consistent(self, g):
        # the memo's value, the routed graph's value and the witness weight
        # agree, and the two value questions read that value
        value = gamma_tr_value(g)
        assert solver._Solved(g).value() == gamma_tr(g).value == value
        assert has_trd_weight_at_most(g, value)
        assert not has_trd_weight_at_most(g, value - 1)
        assert gamma_tr_equals_order(g) == (value == g.n)

    def test_decisions_on_every_small_class(self):
        # the memo's value and the search's agree with the oracle's
        for n in range(2, 7):
            for mask, _ in graph_classes(n):
                g = from_edge_mask(n, mask)
                if g.has_isolated_vertices():
                    continue
                value = brute_oracle_gamma_tr(g)
                assert gamma_tr_value(g) == solver._Solved(g).value() == value


class TestClassicalNumbers:
    def test_complete_five(self):
        assert classical_numbers(complete(5)) == (1, 2, 2)

    def test_c4(self):
        # frozen from the brute-force scans below: gamma=2, gamma_t=2, gamma_R=3
        g = cycle(4)
        assert (naive_gamma(g), naive_gamma_t(g), naive_gamma_r(g)) == (2, 2, 3)
        assert classical_numbers(g) == (2, 2, 3)

    def test_union_total(self):
        assert classical_numbers(union(Complete(2), Complete(3)))[1] == 4

    def test_isolated_rejected(self):
        with pytest.raises(IsolatedVertexError):
            classical_numbers(build_graph(3, [(0, 1)]))

    def test_tables_raise_what_the_engines_raise(self):
        # a 0xFF entry reruns the solve that validates the graph: every graph
        # of order <= 6 with an isolated vertex gets the engine's error and
        # message, and order 1 gets TooSmallError for gamma_tR
        every = (from_edge_mask(n, m) for n in range(1, 7)
                 for m in range(1 << (n * (n - 1) // 2)))
        isolated = [g for g in every if g.has_isolated_vertices()]
        assert len(isolated) == 1 + 1 + 4 + 23 + 256 + 5319  # 2^C(n,2) - A006129(n)
        for g in isolated:
            message = f"isolated vertices {tuple(v for v in range(g.n) if not g.adj[v])} present"
            for value in (gamma_t_value, gamma_tr_value) if g.n > 1 else (gamma_t_value,):
                with pytest.raises(IsolatedVertexError) as raised:
                    value(g)
                assert str(raised.value) == message
            # gamma_R is defined with isolated vertices: each one weighs 1
            if g.n <= 4:
                assert gamma_r_value(g) == naive_gamma_r(g)
        single = isolated[0]
        assert single.n == 1
        with pytest.raises(TooSmallError) as raised:
            gamma_tr_value(single)
        assert str(raised.value) == "gamma_tR needs order >= 2"
        assert gamma_value(single) == gamma_r_value(single) == 1

    def test_reset_caches_empties_the_memo(self):
        graphs = [g for _, g in enumerate_instances(AllLabeled(4))]
        values = [(gamma_tr_value(g), *classical_numbers(g)) for g in graphs]
        assert {"gamma_tR", "gamma", "gamma_t", "gamma_R"} <= {
            kind for kind, _ in solver._MEMO}
        # one routed graph is kept per mode, gamma_tR and gamma_R
        assert gamma_tr_value(cycle(12)) == 12
        assert gamma_r_value(path(12)) == 8
        assert solver._LAST[True].g == cycle(12)
        assert solver._LAST[False].g == path(12)
        reset_caches()
        assert solver._MEMO == {} and solver._LAST == {}
        assert [(gamma_tr_value(g), *classical_numbers(g)) for g in graphs] == values

    @given(solvable_graphs(2, 6))
    @settings(max_examples=80)
    def test_matches_naive(self, g):
        assert classical_numbers(g) == (
            naive_gamma(g),
            naive_gamma_t(g),
            naive_gamma_r(g),
        )

    @given(st.lists(solvable_graphs(2, 6), min_size=2, max_size=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_additive_over_components(self, parts, rnd):
        # the parts are solved by the raw scans; their union, of order 4-18
        # and relabelled so that no component is a block of labels, by the
        # solver, which splits it above order 6
        g = disjoint_union(parts)
        perm = list(range(g.n))
        rnd.shuffle(perm)
        g = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert classical_numbers(g) == tuple(
            sum(naive(h) for h in parts)
            for naive in (naive_gamma, naive_gamma_t, naive_gamma_r)
        )

    def test_small_disconnected_classes_split(self):
        # the order <= 6 tables agree with the {0, 2} route, which splits
        # each disconnected class into its components
        split = 0
        for n in range(4, 7):
            for mask, _ in graph_classes(n):
                g = from_edge_mask(n, mask)
                if g.has_isolated_vertices() or len(component_masks(g)) == 1:
                    continue
                split += 1
                assert len(solver._Solved(g).parts) > 1
                assert gamma_value(g) == routed_gamma(g, False)
                assert gamma_t_value(g) == routed_gamma(g, True)
        assert split == 13

    @given(any_graphs(1, 8), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_twos_route_matches_naive(self, g, closed):
        # the route, and branch and bound alone on the whole graph, which
        # also meets the graphs that the probe settles
        if closed:
            expected = naive_gamma(g)
        else:
            assume(not g.has_isolated_vertices())
            expected = naive_gamma_t(g)
        assert routed_gamma(g, not closed) == expected
        assert _WeightSearch(g, not closed).twos() == 2 * expected

    def test_every_order_seven_class_matches_naive(self):
        # order 7 has no table: both values come from the {0, 2} route, by
        # the probe or by branch and bound
        classes = graph_classes(7)
        assert len(classes) == 1044  # A000088
        for mask, _ in classes:
            g = from_edge_mask(7, mask)
            assert gamma_value(g) == naive_gamma(g)
            if not g.has_isolated_vertices():
                assert gamma_t_value(g) == naive_gamma_t(g)

    def test_probe_at_the_floor_builds_no_engine(self, monkeypatch):
        # a dominating vertex settles gamma at 1 and gamma_t at 2, and so
        # does a dominating edge for gamma_t, before any engine is built
        def engine(self):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(solver._Part, "engine", property(engine))
        reset_caches()
        for g in (complete(7), spider(1, 1, 1, 1, 1, 1)):
            assert (gamma_value(g), gamma_t_value(g)) == (1, 2)
        double_star = build_graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
        assert gamma_t_value(double_star) == 2
        assert gamma_t_value(union(Complete(4), Complete(4))) == 4

    def test_orders_zero_and_one(self):
        empty, single = from_edge_mask(0, 0), from_edge_mask(1, 0)
        assert gamma_value(empty) == gamma_t_value(empty) == 0
        assert classical_numbers(empty) == (0, 0, 0)
        assert gamma_value(single) == 1
        # gamma_t of K1 names the isolated vertex; gamma_tR refuses the order
        with pytest.raises(IsolatedVertexError, match=r"^isolated vertices \(0,\) present$"):
            gamma_t_value(single)
        with pytest.raises(TooSmallError, match="^gamma_tR needs order >= 2$"):
            gamma_tr_value(empty)

    @given(solvable_graphs(2, 6))
    @settings(max_examples=80)
    def test_bound_chain(self, g):
        gamma, gamma_t, _ = classical_numbers(g)
        gtr = gamma_tr_value(g)
        assert gamma <= gamma_t <= gtr <= 2 * gamma_t


# --- the order <= 6 tables --------------------------------------------------

KINDS = ("gamma", "gamma_t", "gamma_R", "gamma_tR")


def engine_table(kind: str, n: int) -> bytearray:
    """The table of ``kind`` at order n worked out mask by mask by the
    engines, 0xFF where they raise: ``_Solved`` for all four, with the
    values {0, 2} for gamma and gamma_t.  The CI workflow compares it with
    ``solver._table`` at order 6."""
    engine = {"gamma": lambda g: routed_gamma(g, False),
              "gamma_t": lambda g: routed_gamma(g, True),
              "gamma_R": lambda g: solver._Solved(g, False).value(),
              "gamma_tR": lambda g: solver._Solved(g).value()}[kind]
    table = bytearray()
    for mask in range(1 << n * (n - 1) // 2):
        try:
            table.append(engine(from_edge_mask(n, mask)))
        except (IsolatedVertexError, TooSmallError):
            table.append(0xFF)
    return table


class TestTables:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_table_matches_the_engines(self, n, kind):
        # every mask of the order, 0xFF exactly where the engine raises
        reset_caches()
        assert solver._table(kind, n) == engine_table(kind, n)

    @given(any_graphs(6, 6))
    @settings(max_examples=60, deadline=None)
    def test_order_six_matches_the_raw_scans(self, g):
        isolated = g.has_isolated_vertices()
        assert tuple(solver._table(kind, 6)[g.edge_mask] for kind in KINDS) == (
            naive_gamma(g),
            0xFF if isolated else naive_gamma_t(g),
            naive_gamma_r(g),
            0xFF if isolated else brute_oracle_gamma_tr(g),
        )


# --- enumeration ------------------------------------------------------------


class TestEnumerateMinTrd:
    def test_k2(self):
        assert [f.values for f in enumerate_min_trd(complete(2))] == [(1, 1)]

    def test_k3(self):
        # brute scan of the 27 vectors: the six permutations of (2,1,0)
        # plus the all-ones vector are the weight-3 TRD-functions
        expected = sorted(
            vec
            for vec in itertools.product((0, 1, 2), repeat=3)
            if sum(vec) == 3 and naive_is_trd(complete(3), vec)
        )
        assert expected == [
            (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 1),
            (1, 2, 0), (2, 0, 1), (2, 1, 0),
        ]
        assert [f.values for f in enumerate_min_trd(complete(3))] == expected

    def test_c4_contains_all_ones(self):
        values = [f.values for f in enumerate_min_trd(cycle(4))]
        assert (1, 1, 1, 1) in values

    @given(solvable_graphs(2, 6))
    @settings(max_examples=60)
    def test_matches_naive_enumeration(self, g):
        target = naive_gamma_tr(g)
        expected = sorted(
            vec
            for vec in itertools.product((0, 1, 2), repeat=g.n)
            if sum(vec) == target and naive_is_trd(g, vec)
        )
        assert [f.values for f in enumerate_min_trd(g)] == expected

    @given(solvable_graphs(2, 6))
    @settings(max_examples=40)
    def test_all_valid_at_optimum(self, g):
        value = gamma_tr_value(g)
        for f in enumerate_min_trd(g):
            assert f.weight == value
            assert is_trd_function(g, f).valid

    def test_cap(self):
        with pytest.raises(GraphTooLargeError):
            enumerate_min_trd(dead_example(4))  # 13 vertices

    def test_independent_of_the_engines(self, monkeypatch):
        graphs = [cycle(5), spider(2, 2, 1), union(Complete(3), Complete(2))]
        expected = []
        for g in graphs:
            target = naive_gamma_tr(g)
            expected.append(sorted(
                vec
                for vec in itertools.product((0, 1, 2), repeat=g.n)
                if sum(vec) == target and naive_is_trd(g, vec)
            ))

        def engine(*args, **kwargs):
            raise AssertionError("the enumeration reached a gamma_tR engine")

        monkeypatch.setattr(solver, "gamma_tr_value", engine)
        monkeypatch.setattr(solver, "_Solved", engine)
        reset_caches()
        for g, vectors in zip(graphs, expected):
            assert brute_oracle_gamma_tr(g) == sum(vectors[0])
            assert [f.values for f in enumerate_min_trd(g)] == vectors

    @pytest.mark.parametrize("family,value,count,digest", [
        ("path(12)", 12, 421, "871e7d9e29e5"),
        ("cycle(12)", 12, 1111, "cf13324516c4"),
        ("cor(K6)", 12, 64, "280091c23b00"),
        ("KxK(3,4)", 6, 4, "32783f6c578e"),
        ("union(K3,K3,K3,K3)", 12, 2401, "2d1eebef8f83"),
        ("spider(2,2,2,5)", 12, 142, "7563a8d27994"),
        ("K12", 3, 132, "008d2519332b"),
        ("D(3)", 7, 8, "71b5e3d3c2c2"),
    ])
    def test_oracle_and_enumeration_pinned(self, family, value, count, digest):
        # the oracle and the enumeration share one scan; its value, the
        # number of minimum functions and the sha256 of their vectors
        g = generate(parse_family(family))
        vectors = [f.values for f in enumerate_min_trd(g)]
        assert brute_oracle_gamma_tr(g) == value
        assert len(vectors) == count
        assert hashlib.sha256(repr(vectors).encode()).hexdigest()[:12] == digest


# --- witnesses --------------------------------------------------------------


class TestWitness:
    @given(solvable_graphs(2, 6))
    @settings(max_examples=80)
    def test_lexicographically_smallest(self, g):
        result = gamma_tr(g)
        minimums = enumerate_min_trd(g)
        assert result.witness.values == minimums[0].values
        assert result.witness.weight == result.value
        assert is_trd_function(g, result.witness).valid

    def test_nodes_reported(self):
        assert gamma_tr(cycle(6)).nodes_explored > 0

    @pytest.mark.parametrize(
        "family,nodes",
        [
            ("cycle(6)", 81),  # branch and bound
            ("path(12)", 129),  # the DP
            ("cycle(14)", 483),
            ("union(K3,path(11))", 123),  # both
            ("D(6)", 626),  # the DP, over a width-3 order
            ("KxK(4,6)", 584),
            ("cor(K5)", 6),
            ("familyG(2,3)", 367),
        ],
    )
    def test_nodes_pinned(self, family, nodes):
        # nodes_explored is part of ``trd compute`` output; the DP's witness
        # search reuses the function each run returns.  A budget of exactly
        # that many nodes suffices, and one node fewer does not.
        g = generate(parse_family(family))
        result = gamma_tr(g)
        assert result.nodes_explored == nodes
        assert gamma_tr(g, node_budget=nodes) == result
        # the message names the budget given, not what an inner search had left
        with pytest.raises(BudgetExceededError,
                           match=f"^node budget {nodes - 1} exhausted$"):
            gamma_tr(g, node_budget=nodes - 1)

    def test_invariant_label(self):
        assert gamma_tr(cycle(4)).invariant == "gamma_tR"

    def test_corona_of_k12_is_proved_at_the_root(self):
        # the twelve leaves are a packing, so gamma_tR >= 24 before any
        # branching; the witness pins then die at once
        result = gamma_tr(generate(parse_family("cor(K12)")), node_budget=1000)
        assert result.value == 24
        assert result.witness.values == (1,) * 24


# --- dead vertices ----------------------------------------------------------


class TestDeadVertices:
    def test_dead_example_rim(self):
        assert dead_vertices(dead_example(2)) == (5, 6)

    def test_c4_none(self):
        assert dead_vertices(cycle(4)) == ()

    def test_k3_none(self):
        assert dead_vertices(complete(3)) == ()

    @given(solvable_graphs(2, 6))
    @settings(max_examples=60)
    def test_matches_enumeration(self, g):
        assert dead_vertices(g) == naive_dead(g, min_trd_vectors(g))

    @given(solvable_graphs(2, 5))
    @settings(max_examples=60)
    def test_roman_mode_matches_naive(self, g):
        target = naive_gamma_r(g)
        minimums = [
            vec
            for vec in itertools.product((0, 1, 2), repeat=g.n)
            if sum(vec) == target and naive_is_rd(g, vec)
        ]
        assert dead_vertices(g, total=False) == naive_dead(g, minimums)

    def test_bad_mode(self):
        # a mode string in the flag's place would be truthy, so the flag is
        # keyword-only and the call fails instead of answering gamma_tR's
        with pytest.raises(TypeError):
            dead_vertices(cycle(4), "roman")

    def test_one_engine_per_component(self, monkeypatch):
        # each component's frontier order and DP steps are built once, for
        # the dead vertices, the value and the witness together, and a DP
        # component reads its dead vertices off the tables of the run that
        # found its value, with no other full run
        counts = {"run": 0, "order": 0}
        run, order = _FrontierDP.run, _frontier_order

        def counted_run(self, *args, **kwargs):
            counts["run"] += 1
            return run(self, *args, **kwargs)

        def counted_order(g):
            counts["order"] += 1
            return order(g)

        monkeypatch.setattr(_FrontierDP, "run", counted_run)
        monkeypatch.setattr(solver, "_frontier_order", counted_order)

        def dead_and_counts(g):
            reset_caches()
            counts.update(run=0, order=0)
            dead, runs = dead_vertices(g), counts["run"]
            assert gamma_tr(g).value == gamma_tr_value(g) == g.n
            return dead, runs, counts["order"]

        one = dead_and_counts(cycle(12))
        two = dead_and_counts(generate(parse_family("union(cycle(12),cycle(12))")))
        assert one[0] == two[0] == ()
        assert (one[1], two[1]) == (1, 2)
        assert (one[2], two[2]) == (1, 2)

        # a branch-and-bound component builds one _WeightSearch, which runs
        # every search: value, witness and dead vertices
        builds = []
        init = _WeightSearch.__init__
        monkeypatch.setattr(_WeightSearch, "__init__",
                            lambda self, *a: builds.append(1) or init(self, *a))

        def count(solve):
            builds.clear()
            solve()
            return len(builds)

        cor_k4 = generate(parse_family("cor(K4)"))
        kxk = generate(parse_family("KxK(3,4)"))  # order 12, not 2-degenerate
        reset_caches()
        assert count(lambda: (gamma_tr_value(cor_k4), gamma_tr(cor_k4),
                              dead_vertices(cor_k4))) == 1
        # the Roman dead set: one for gamma_R and the 2n pinned decisions
        assert count(lambda: dead_vertices(kxk, total=False)) == 1

    @staticmethod
    def count_unpinned(monkeypatch):
        """The nodes of every unpinned search from here on, by either
        engine."""
        unpinned = []
        solve, run = _WeightSearch.solve, _FrontierDP.run

        def counted(self, pins, *args):
            weight = solve(self, pins, *args)
            if not pins:
                unpinned.append(self.nodes)
            return weight

        def counted_run(self, allowed, *args):
            result = run(self, allowed, *args)
            if all(xs == (0, 1, 2) for xs in allowed):
                unpinned.append(self.nodes)
            return result

        monkeypatch.setattr(_WeightSearch, "solve", counted)
        monkeypatch.setattr(_FrontierDP, "run", counted_run)
        return unpinned

    def test_dead_set_reuses_the_value(self, monkeypatch):
        # each part's unpinned search runs once, for its value and its dead
        # set together: T_DN asks gamma_tR and then the dead set of D(2),
        # by branch and bound, and of D(3) and D(4), by the DP
        unpinned = self.count_unpinned(monkeypatch)
        reset_caches()
        assert verify_theorem("T_DN").outcome == "pass"
        assert unpinned == [53, 102, 148]

    @pytest.mark.parametrize("family", ["D(3)", "KxK(3,4)", "union(K3,path(11))"])
    def test_witness_reuses_the_value(self, monkeypatch, family):
        # gamma_tr after gamma_tr_value runs no part's unpinned search
        # again, yet reports what a cold call does, budget failures included;
        # a kept search raises exactly when its nodes exceed the budget
        g = generate(parse_family(family))
        reset_caches()
        cold = gamma_tr(g)
        unpinned = self.count_unpinned(monkeypatch)
        reset_caches()
        gamma_tr_value(g)
        assert gamma_tr(g) == cold
        assert len(unpinned) == len(component_masks(g))
        nodes = cold.nodes_explored
        assert gamma_tr(g, node_budget=nodes) == cold
        for budget in (nodes - 1, unpinned[0] - 1):
            with pytest.raises(BudgetExceededError,
                               match=f"^node budget {budget} exhausted$"):
                gamma_tr(g, node_budget=budget)
        assert len(unpinned) == len(component_masks(g))
        part = solver._solved(g).parts[0]
        assert part.first(unpinned[0]) == part.first(None)
        with pytest.raises(BudgetExceededError, match=f"^node budget {unpinned[0] - 1} "):
            part.first(unpinned[0] - 1)

    def test_roman_questions_share_one_routing(self, monkeypatch):
        # the Roman dead set and gamma_R of one graph share its routed
        # graph, kept in the gamma_R slot
        builds, calls = [], []
        init, solve = solver._Solved.__init__, _WeightSearch.solve

        def counted_init(self, g, total=True):
            builds.append(total)
            init(self, g, total)

        monkeypatch.setattr(solver._Solved, "__init__", counted_init)
        monkeypatch.setattr(_WeightSearch, "solve",
                            lambda self, *a: calls.append(1) or solve(self, *a))
        reset_caches()
        assert verify_theorem("T_RD_DEADPAIR").outcome == "pass"
        # the values of order <= 6 come from the tables, so these count the
        # dead sets alone
        assert builds.count(False) == 33
        assert len(calls) == 299


# --- branch-and-bound cuts -------------------------------------------------


def reference_bound(search, undom, unassigned, not2):
    """The cover bound worked out in full, every count listed and sorted: a
    future 2 at w satisfies at most |N[w] & undom| vertices for cost 2, a
    future 1 satisfies one vertex for cost 1."""
    remaining = undom.bit_count()
    if remaining < 2:
        return remaining
    closed = search.closed
    counts = []
    m = unassigned & ~not2
    while m:
        low = m & -m
        c = (closed[low.bit_length() - 1] & undom).bit_count()
        if c > 1:
            counts.append(c)
        m ^= low
    cost = 0
    if counts:
        counts.sort(reverse=True)
        for c in counts:
            # a further 2 only beats finishing with 1s while it can still
            # satisfy two or more vertices
            if remaining < 2:
                break
            remaining -= c
            cost += 2
    return cost + max(remaining, 0)


def partial_assignments(n):
    """Each vertex unassigned (None) or assigned 0, 1 or 2."""
    return st.lists(st.sampled_from((None, 0, 1, 2)), min_size=n, max_size=n)


def lightest_completion(g, partial, total=True):
    """Least weight of a TRD-function (RD-function) that agrees with the
    partial assignment, by brute force, or None."""
    free = [v for v, x in enumerate(partial) if x is None]
    check = naive_is_trd if total else naive_is_rd
    best = None
    for fill in itertools.product((0, 1, 2), repeat=len(free)):
        values = list(partial)
        for v, x in zip(free, fill):
            values[v] = x
        if check(g, values) and (best is None or sum(values) < best):
            best = sum(values)
    return best


def masks_of(partial):
    assigned = two = pos = 0
    for v, x in enumerate(partial):
        if x is not None:
            assigned |= 1 << v
            two |= (x == 2) << v
            pos |= (x > 0) << v
    return assigned, two, pos


class TestBranchAndBoundCuts:
    @given(any_graphs(2, 16), st.data())
    @settings(max_examples=300, deadline=None)
    def test_slack_test_matches_reference_bound(self, g, data):
        search = _WeightSearch(g, False)
        masks = st.integers(0, g.full_mask)
        undom = data.draw(st.integers(1, g.full_mask))
        unassigned, not2 = data.draw(masks), data.draw(masks)
        bound = reference_bound(search, undom, unassigned, not2)
        for slack in range(-1, 2 * g.n + 3):
            pruned = search._cover_pruned(undom, unassigned, not2, slack)
            assert pruned == (bound >= slack)

    @given(solvable_graphs(2, 7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_packing_and_dead_neighbour_cuts_are_admissible(self, g, data):
        # a pruned node has no completion lighter than weight + slack, and a
        # dead one has no completion at all
        search = _WeightSearch(g, True)
        closed = [g.adj[v] | 1 << v for v in range(g.n)]
        for a, b in itertools.combinations(search.packing, 2):
            assert not a & b
        assert set(search.packing) <= set(closed)
        partial = data.draw(partial_assignments(g.n))
        assigned, two, pos = masks_of(partial)
        weight = sum(x for x in partial if x is not None)
        lightest = lightest_completion(g, partial)
        if search._dead(assigned & ~pos, g.full_mask):
            assert lightest is None
        for slack in range(-1, 2 * g.n + 3):
            if search._packing_pruned(g.full_mask & ~assigned, two, pos, slack):
                assert lightest is None or lightest - weight >= slack

    @given(solvable_graphs(2, 7), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_decide_returns_the_function_it_found(self, g, total, data):
        search = _WeightSearch(g, total)
        partial = data.draw(partial_assignments(g.n))
        pins = {v: x for v, x in enumerate(partial) if x is not None}
        cap = data.draw(st.integers(0, 2 * g.n))
        first_hit = data.draw(st.booleans())
        lightest = lightest_completion(g, partial, total)
        value, values, _ = search.decide(pins, cap, first_hit)
        if lightest is None or lightest > cap:
            assert value is None
            return
        assert value == lightest or (first_hit and value <= cap)
        assert sum(values) == value
        assert all(values[v] == x for v, x in pins.items())
        assert (naive_is_trd if total else naive_is_rd)(g, values)


# --- structure and errors ---------------------------------------------------


class TestStructuralProperties:
    @given(solvable_graphs(2, 5), solvable_graphs(2, 5))
    @settings(max_examples=60)
    def test_additive_over_components(self, a, b):
        g = disjoint_union([a, b])
        assert gamma_tr_value(g) == gamma_tr_value(a) + gamma_tr_value(b)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            gamma_tr(build_graph(1, []))

    def test_isolated(self):
        with pytest.raises(IsolatedVertexError):
            gamma_tr(build_graph(3, [(0, 1)]))
        with pytest.raises(IsolatedVertexError):
            brute_oracle_gamma_tr(build_graph(3, [(0, 1)]))

    def test_oracle_cap(self):
        with pytest.raises(GraphTooLargeError):
            brute_oracle_gamma_tr(dead_example(4))

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            gamma_tr(path(12), node_budget=3)

    def test_budget_generous_succeeds(self):
        assert gamma_tr(path(8), node_budget=500_000).value == 8

    @pytest.mark.parametrize(
        "solve",
        [
            lambda g: has_trd_weight_at_most(g, 3),
            gamma_value,
            gamma_t_value,
            gamma_r_value,
        ],
        ids=["has_trd_weight_at_most", "gamma_value", "gamma_t_value",
             "gamma_r_value"],
    )
    def test_solver_cap(self, solve):
        with pytest.raises(GraphTooLargeError):
            solve(cycle(25))

    def test_classical_numbers_refuse_before_any_search(self, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("a search ran on an oversized graph")

        for name in ("component_masks", "_frontier_order", "_probe"):
            monkeypatch.setattr(solver, name, search)
        monkeypatch.setattr(_WeightSearch, "solve", search)
        monkeypatch.setattr(_FrontierDP, "__init__", search)
        with pytest.raises(GraphTooLargeError):
            classical_numbers(cycle(25))

    def test_roman_dead_set_refuses_before_any_search(self, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("a search ran on an oversized graph")

        for name in ("component_masks", "_frontier_order", "_probe"):
            monkeypatch.setattr(solver, name, search)
        monkeypatch.setattr(_WeightSearch, "solve", search)
        monkeypatch.setattr(_FrontierDP, "__init__", search)
        with pytest.raises(GraphTooLargeError):
            dead_vertices(cycle(25), total=False)


# --- the component split and the frontier DP -------------------------------


@st.composite
def width_two_graphs(draw, min_n=7, max_n=12):
    """Relabelled trees and cycles with pendants, of order min_n to max_n."""
    n = draw(st.integers(min_n, max_n))
    if draw(st.booleans()):
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    else:
        k = draw(st.integers(3, n - 1))
        edges = [(v, (v + 1) % k) for v in range(k)]
        edges += [(draw(st.integers(0, k - 1)), v) for v in range(k, n)]
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def near_width_two_graphs(draw):
    """Width-2 graphs of order 4 to 24 with up to three random edges added."""
    g = draw(width_two_graphs(4, 24))
    pair = st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1))
    extra = [(a, b) for a, b in draw(st.lists(pair, max_size=3)) if a != b]
    return build_graph(g.n, g.edges() + extra)


def reference_run(dp, allowed, budget=None):
    """``dp.run`` on tuple-coded frontier states, one code per slot, with
    every transition worked out per table entry: ``(value, values, nodes)``.
    Without the total condition a positive vertex is met at once, and a
    waived vertex is met when placed.
    """
    nodes = 0
    table = {(): (0, None, 0)}
    tables = []
    for v, (nbrs, keep, leave, stays, total, waive), _ in dp.steps:
        nxt = {}
        for state, (weight, _, _) in table.items():
            near = max((state[p] for p in nbrs), default=0)
            for x in allowed[v]:
                codes = list(state)
                for p in nbrs:
                    c = codes[p]
                    if x == 2 or (x and c >= 2):
                        codes[p] = c | 1
                if any(not codes[p] & 1 for p in leave):
                    continue
                met = waive or (near >= 4 if x == 0 else near >= 2 or not total)
                if not stays and not met:
                    continue
                key = tuple(codes[p] for p in keep)
                if stays:
                    key += (2 * x + met,)
                old = nxt.get(key)
                if old is None or weight + x < old[0]:
                    nxt[key] = (weight + x, state, x)
        nodes += len(nxt)
        if budget is not None and nodes > budget:
            raise BudgetExceededError(f"node budget {budget} exhausted")
        tables.append(nxt)
        table = nxt
    if () not in table:
        return None, [], nodes
    values = [0] * dp.n
    state = ()
    for (v, _, _), entries in zip(reversed(dp.steps), reversed(tables)):
        _, state, values[v] = entries[state]
    return table[()][0], values, nodes


def cube():
    return build_graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b])


def petersen():
    return build_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                       + [(i, 5 + i) for i in range(5)])


@st.composite
def dense_graphs(draw):
    """K_n, 4 <= n <= 6, less at most n - 2 edges (so no vertex is isolated)."""
    n = draw(st.integers(4, 6))
    pairs = list(itertools.combinations(range(n), 2))
    drop = draw(st.lists(st.sampled_from(pairs), max_size=n - 2))
    return build_graph(n, [e for e in pairs if e not in drop])


class TestSparseEngine:
    @given(st.one_of(
        sparse_graphs(2, 10), sparse_graphs(7, 10), solvable_graphs(2, 10)
    ))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_and_enumeration(self, g):
        result = gamma_tr(g)
        assert result.value == brute_oracle_gamma_tr(g)
        assert result.witness.values == enumerate_min_trd(g)[0].values

    @given(width_two_graphs())
    @settings(max_examples=100, deadline=None)
    def test_dp_matches_branch_and_bound(self, g):
        order = _frontier_order(g)
        assume(order is not None)
        value, values = _FrontierDP(g, order, True).run([(0, 1, 2)] * g.n)
        assert value == _WeightSearch(g, True).decide({}, 2 * g.n)[0]
        f = WeightFunction(tuple(values))
        assert f.weight == value and is_trd_function(g, f).valid
        # the values {0, 2}: twice gamma_t, and without total twice gamma
        for total in (True, False):
            assert _FrontierDP(g, order, total).twos() == _WeightSearch(g, total).twos()

    @given(width_two_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_dp_matches_tuple_reference(self, g, data):
        # integer states and shared rows change no value, witness, node
        # count or budget failure, under any pins and allowed-value order,
        # with or without the total condition, and with any vertices waived
        order = _frontier_order(g)
        assume(order is not None)
        dp = _FrontierDP(g, order, data.draw(st.booleans()))
        waived = data.draw(st.sets(st.sampled_from(order)))
        dp.steps = [solver._waived(step, step[0] in waived) for step in dp.steps]
        subsets = st.lists(st.sampled_from((0, 1, 2)), min_size=1, max_size=3,
                           unique=True).map(tuple)
        allowed = [data.draw(subsets) for _ in range(g.n)]
        budget = data.draw(st.none() | st.integers(0, 40))
        try:
            expected = reference_run(dp, allowed, budget)
        except BudgetExceededError:
            with pytest.raises(BudgetExceededError):
                dp.run(allowed, budget)
            return
        value, values = dp.run(allowed, budget)
        assert (value, values, dp.nodes) == expected

    def test_transition_rows_are_lazy_and_bounded(self):
        # no row at import; after a profile every row covers x = 0, 1, 2,
        # and a shape holds at most one row per state of its frontier
        script = textwrap.dedent("""
            import json, trd.cli
            from trd import solver
            from trd.criticality import edge_profile
            from trd.families import generate, parse_family
            print(len(solver._ROWS))
            edge_profile(generate(parse_family("spider(1,2,2,3,4,5)")))
            print(json.dumps([[len(keep) + len(leave), [len(r) for r in rows.values()]]
                              for (_, keep, leave, *_), rows in solver._ROWS.items()]))
        """)
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(solver.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout.splitlines()
        assert out[0] == "0"
        shapes = json.loads(out[1])
        assert shapes
        for width, rows in shapes:
            assert all(length == 3 for length in rows)
            assert len(rows) <= 6 ** width

    @given(near_width_two_graphs())
    @settings(max_examples=100, deadline=None)
    def test_frontier_orders_have_width_two(self, g):
        # orders have width <= 3; a graph with a width-2 order keeps it, as
        # test_nodes_pinned shows on path(12), cycle(14) and familyG(2,3)
        order = _frontier_order(g)
        if order is not None:
            assert sorted(order) == list(range(g.n))
            assert frontier_width(g, order) <= 3

    @given(near_width_two_graphs())
    @settings(max_examples=100, deadline=None)
    def test_two_degenerate_matches_naive_peel(self, g):
        # a width-2 order gives each vertex at most two earlier neighbours,
        # so the peel empties the graph; a width-3 order need not (K4 has
        # one)
        order = _frontier_order(g)
        if order is not None and frontier_width(g, order) <= 2:
            assert two_degenerate(g)

    @given(width_two_graphs(10, 20))
    @settings(max_examples=40, deadline=None)
    def test_dp_dead_vertices_match_pinned_runs(self, g):
        # the forward and backward tables give the dead set that pinned
        # runs give, two per vertex
        order = _frontier_order(g)
        assume(order is not None)
        dp = _FrontierDP(g, order, True)
        value = dp.decide({}, 2 * g.n)[0]
        pinned = [v for v in range(g.n)
                  if all(dp.decide({v: x}, value)[0] is None for x in (1, 2))]
        assert sorted(dp.dead(value)) == pinned
        assert dead_vertices(g) == tuple(pinned)

    @pytest.mark.parametrize("g", [complete(4), cube(), petersen()],
                             ids=["K4", "Q3", "Petersen"])
    def test_no_frontier_order_without_a_vertex_of_degree_two(self, g):
        # none of these is 2-degenerate, so no order has width <= 2; K4 has
        # one of width 3, but K4 and Q3 are below order 10, and the greedy
        # finds the Petersen graph none, so all three take branch and bound
        order = _frontier_order(g)
        assert order is None or frontier_width(g, order) > 2
        assert isinstance(solver._Part(g, g.full_mask, True).engine, _WeightSearch)

    @given(width_two_graphs(9, 12))
    @settings(max_examples=40, deadline=None)
    def test_decisions_and_dead_vertices(self, g):
        # orders 10-12 go to the DP, order 9 to branch and bound
        assert gamma_tr_value(g) == brute_oracle_gamma_tr(g)
        assert dead_vertices(g) == naive_dead(g, min_trd_vectors(g))

    @given(width_two_graphs(9, 12), dense_graphs(), st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_decisions_and_dead_vertices_on_unions(self, sparse, dense, rnd):
        # the pins of a dead-vertex decision stay in their own component
        perm = list(range(sparse.n + dense.n))
        rnd.shuffle(perm)
        g = disjoint_union([sparse, dense])
        g = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        value = brute_oracle_gamma_tr(sparse) + brute_oracle_gamma_tr(dense)
        assert gamma_tr_value(g) == value
        dead = naive_dead(sparse, min_trd_vectors(sparse))
        dead += tuple(sparse.n + v for v in naive_dead(dense, min_trd_vectors(dense)))
        assert dead_vertices(g) == tuple(sorted(perm[v] for v in dead))

    @given(width_two_graphs(10, 20))
    @settings(max_examples=40, deadline=None)
    def test_roman_dp_matches_branch_and_bound(self, g):
        # gamma_R and the Roman dead set by the frontier DP, against one
        # whole-graph branch and bound
        assume(_frontier_order(g) is not None)
        solved = solver._Solved(g, total=False)
        search = _WeightSearch(g, False)
        value = search.decide({}, 2 * g.n)[0]
        assert solved.value() == value
        assert solved.dead() == tuple(search.dead(value))
        assert [type(part.engine) for part in solved.parts] == [_FrontierDP]

    @given(width_two_graphs(10, 14), dense_graphs(), st.randoms())
    @example(  # routing once missed the order of this relabelled component
        sparse=Graph(n=12, adj=(78, 33, 2049, 17, 8, 386, 1, 544, 1056, 128,
                                256, 4)),
        dense=generate(Complete(4)), rnd=random.Random(0))
    @settings(max_examples=20, deadline=None)
    def test_roman_route_on_unions(self, sparse, dense, rnd):
        # one DP component, one branch-and-bound component and one isolated
        # vertex, which gamma_R allows
        g = disjoint_union([sparse, dense, build_graph(1, [])])
        perm = list(range(g.n))
        rnd.shuffle(perm)
        g = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        reset_caches()
        gamma_tr_value(sparse)
        solved = solver._Solved(g, total=False)
        # routing orders the relabelled component, not sparse itself
        assume(isinstance(next(part for part in solved.parts
                               if part.h.n == sparse.n).engine, _FrontierDP))
        search = _WeightSearch(g, False)
        value = search.decide({}, 2 * g.n)[0]
        assert gamma_r_value(g) == solved.value() == value
        assert dead_vertices(g, total=False) == tuple(search.dead(value))
        engines = sorted(type(part.engine).__name__ for part in solved.parts)
        assert engines == ["_FrontierDP", "_WeightSearch", "_WeightSearch"]
        # gamma_R and the Roman dead set share the gamma_R slot, and leave
        # the gamma_tR slot alone
        assert solver._LAST[False].g == g
        assert solver._LAST[True].g == sparse

    @pytest.mark.parametrize(
        "family,value",
        [
            ("cycle(24)", 24),
            ("path(24)", 24),
            ("cor(cycle(12))", 24),
            ("union(K3,K3,K3,K3,K3,K3,K3,K3)", 24),
            ("substar(11)", 23),
            ("spider(2,2,2,2,2,2,2,2,2,2,3)", 24),
        ],
    )
    def test_closed_forms_at_order_24(self, family, value):
        g = generate(parse_family(family))
        perm = list(range(g.n))
        random.Random(24).shuffle(perm)
        g = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        result = gamma_tr(g, node_budget=600_000)
        assert result.value == value
        assert result.witness.weight == value
        assert is_trd_function(g, result.witness).valid
