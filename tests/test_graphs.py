"""Graph construction, editing, metrics, and the graph6 / edge-list codecs."""

import itertools
import math
import pickle
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import trd.graphs

from conftest import (
    any_graphs,
    complete,
    cycle,
    disjoint_union,
    path,
    rook,
    star,
    union,
)
from trd.errors import (
    EdgeExistsError,
    GraphTooLargeError,
    MalformedEdgeListError,
    MalformedGraph6Error,
    OutOfRangeError,
    SelfLoopError,
    TrdError,
)
from trd.graphs import (
    _canonical_form,
    _colours,
    add_edge,
    build_graph,
    complement,
    component_masks,
    from_edge_mask,
    graph6_decode,
    graph6_encode,
    graph_classes,
    induced_subgraph,
    iter_bits,
    is_connected,
    metrics,
    pair_index,
    pair_table,
    parse_edge_list,
)
from trd.families import Complete


class TestBuildGraph:
    def test_cycle(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert all(d == 2 for d in g.degrees)

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.edge_count == 1

    def test_duplicates_collapse(self):
        g = build_graph(3, [(0, 1), (0, 1)])
        assert g.edge_count == 1
        assert g.degrees == (1, 1, 0)

    def test_vertex_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            build_graph(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(1, 1)])

    def test_bad_order(self):
        with pytest.raises(OutOfRangeError):
            build_graph(0, [])


class TestComplement:
    def test_c4_gives_2k2(self):
        assert complement(cycle(4)).edges() == [(0, 2), (1, 3)]

    def test_complete_gives_empty(self):
        assert complement(complete(5)).edge_count == 0

    def test_p4_self_complementary(self):
        co = complement(path(4))
        assert co.edges() == [(0, 2), (0, 3), (1, 3)]
        assert sorted(co.degrees) == [1, 1, 2, 2]
        assert metrics(co).connected

    @given(any_graphs(2, 7))
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestAddEdge:
    def test_path_to_cycle(self):
        assert add_edge(path(4), 0, 3) == cycle(4)

    def test_cross_edge_connects(self):
        g = add_edge(union(Complete(2), Complete(3)), 0, 2)
        assert g.edge_count == 5
        assert metrics(g).connected

    def test_c4_to_diamond(self):
        g = add_edge(cycle(4), 0, 2)
        assert sorted(g.degrees) == [2, 2, 3, 3]

    def test_edge_exists(self):
        with pytest.raises(EdgeExistsError):
            add_edge(cycle(4), 0, 1)

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            add_edge(cycle(4), 2, 2)

    @given(any_graphs(2, 7), st.data())
    def test_add_then_complement_is_complement_minus_edge(self, g, data):
        non_edges = g.non_edges()
        if not non_edges:
            return
        u, v = data.draw(st.sampled_from(non_edges))
        lhs = complement(add_edge(g, u, v))
        rhs_edges = set(complement(g).edges()) - {(u, v)}
        assert set(lhs.edges()) == rhs_edges


@st.composite
def edge_lists(draw, min_n, max_n):
    """Graphs of at most 2n random edges: often disconnected, with long
    paths and isolated vertices."""
    n = draw(st.integers(min_n, max_n))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return build_graph(n, [(u, v) for u, v in pairs if u != v])


class TestMetrics:
    def test_star_universal(self):
        info = metrics(star(4))
        assert info.universal_vertex == 0
        assert info.diameter == 2
        assert info.connected

    def test_rook_3x3(self):
        info = metrics(rook(3, 3))
        assert info.universal_vertex is None
        assert info.diameter == 2

    def test_rook_diameter_is_two(self):
        for n in (2, 3, 4):
            for m in range(n, 5):
                assert metrics(rook(n, m)).diameter == 2

    def test_two_components(self):
        info = metrics(union(Complete(2), Complete(3)))
        assert len(info.components) == 2
        assert info.isolated_vertices == ()
        assert info.diameter is None

    def test_isolated_vertices(self):
        info = metrics(build_graph(3, [(0, 1)]))
        assert info.isolated_vertices == (2,)

    @given(st.one_of(any_graphs(1, 12), edge_lists(1, 12)))
    @settings(max_examples=200)
    def test_against_all_pairs_bfs(self, g):
        """Components, connectivity and the diameter agree with a plain
        breadth-first search from every vertex, on graphs of any
        connectivity and diameter, isolated vertices included."""
        dist = []
        for s in range(g.n):
            d, queue = {s: 0}, [s]
            for u in queue:
                for w in range(g.n):
                    if g.has_edge(u, w) and w not in d:
                        d[w] = d[u] + 1
                        queue.append(w)
            dist.append(d)
        comps = sorted({tuple(sorted(d)) for d in dist})
        assert [tuple(iter_bits(m)) for m in component_masks(g)] == comps
        connected = len(comps) == 1
        assert is_connected(g) == connected
        expected = max(max(d.values()) for d in dist) if connected else None
        assert metrics(g).diameter == expected

    @given(any_graphs(1, 7))
    def test_universal_iff_degree(self, g):
        info = metrics(g)
        assert (info.universal_vertex is not None) == (g.n - 1 in g.degrees)
        members = sorted(v for comp in info.components for v in comp)
        assert members == list(range(g.n))


class TestEdgeMask:
    @given(st.integers(1, 24), st.data())
    def test_colex_sum(self, n, data):
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
        g = build_graph(n, [(u, v) for u, v in pairs if u != v])
        expected = sum(1 << pair_index(u, v) for u, v in g.edges())
        assert g.edge_mask == expected
        assert from_edge_mask(g.n, g.edge_mask) == g

    def test_kept_after_the_first_read(self):
        # the mask is stored on the graph, but equality, hashing and
        # pickling still see only n and adj
        g, h = cycle(6), cycle(6)
        mask = g.edge_mask
        assert g.__dict__["edge_mask"] == mask == h.edge_mask
        assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.edge_mask == mask


class TestGraph6:
    # Hand derivations per the published format: the order byte is
    # chr(63 + n); data bits run x01, x02, x12, x03, ... packed into
    # big-endian 6-bit groups offset by 63.
    def test_k2_encodes_to_A_underscore(self):
        # n=2 -> 'A'; single bit x01=1 -> 100000 = 32 -> chr(95) = '_'
        assert graph6_encode(complete(2)) == "A_"

    def test_decode_A_underscore(self):
        g = graph6_decode("A_")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_decode_A_question(self):
        # all-zero data byte '?' -> no edges
        g = graph6_decode("A?")
        assert g.n == 2 and g.edge_count == 0

    def test_encode_empty_two(self):
        assert graph6_encode(build_graph(2, [])) == "A?"

    def test_c4_roundtrip(self):
        assert graph6_decode(graph6_encode(cycle(4))) == cycle(4)

    def test_exhaustive_roundtrip_small(self):
        for n in range(1, 5):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = from_edge_mask(n, mask)
                assert graph6_decode(graph6_encode(g)) == g

    @given(any_graphs(1, 8))
    def test_roundtrip(self, g):
        assert graph6_decode(graph6_encode(g)) == g

    @given(any_graphs(1, 8))
    def test_string_roundtrip(self, g):
        s = graph6_encode(g)
        assert graph6_encode(graph6_decode(s)) == s

    def test_decode_strips_whitespace(self):
        assert graph6_decode("A_\n") == complete(2)

    def test_too_large_encode(self):
        with pytest.raises(GraphTooLargeError):
            graph6_encode(build_graph(63, []))

    @pytest.mark.parametrize(
        "text",
        [
            "",  # empty
            "A",  # missing data byte
            "A__",  # extra data byte
            "A" + chr(200),  # byte out of range
            "~??",  # long form marker
            "AO",  # nonzero padding bits
            "?",  # order zero
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedGraph6Error):
            graph6_decode(text)


class TestEdgeList:
    def test_parse(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == path(3)

    @pytest.mark.parametrize(
        "text",
        ["", "3\n", "3 2\n0 1\n", "3 1\n0 x\n", "2 1\nnope\n"],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedEdgeListError):
            parse_edge_list(text)

    def test_vertex_errors_propagate(self):
        with pytest.raises(OutOfRangeError):
            parse_edge_list("2 1\n0 5\n")

    @pytest.mark.parametrize("text", ["1000000000 0\n", "63 1\n0 1\n"])
    def test_oversized_header_rejected_before_allocation(self, monkeypatch, text):
        def refuse(n, edges):
            raise AssertionError(f"build_graph called with n={n}")

        monkeypatch.setattr(trd.graphs, "build_graph", refuse)
        with pytest.raises(GraphTooLargeError):
            parse_edge_list(text)

    def test_largest_header_accepted(self):
        assert parse_edge_list("62 1\n0 61\n").n == 62


# text near each format: characters around graph6's 63..126, and lines of
# small integers, words and odd numerals
_GRAPH6_LIKE = st.text(st.characters(min_codepoint=58, max_codepoint=130), max_size=24)
_EDGE_LIST_LIKE = st.lists(
    st.lists(st.integers(-3, 70).map(str)
             | st.sampled_from(["x", "1.5", "0x3", "1_0", "+2", "\u0663", "9" * 5000]),
             max_size=3).map(" ".join),
    max_size=8,
).map("\n".join)


class TestParserFuzz:
    """Arbitrary text gets a graph or a workbench error, never another
    exception."""

    @given(st.text() | _GRAPH6_LIKE)
    @settings(max_examples=400)
    def test_graph6_decode(self, text):
        try:
            g = graph6_decode(text)
        except TrdError:
            return
        assert graph6_encode(g) == text.strip()

    @given(st.text() | _EDGE_LIST_LIKE)
    @settings(max_examples=400)
    def test_parse_edge_list(self, text):
        try:
            g = parse_edge_list(text)
        except TrdError:
            return
        assert 1 <= g.n <= 62


# OEIS, indexed by n = 1..7
A000088 = (1, 2, 4, 11, 34, 156, 1044)  # graphs
A001349 = (1, 1, 2, 6, 21, 112, 853)  # connected graphs
A001187 = (1, 1, 4, 38, 728, 26704, 1866256)  # labelled connected graphs
A006129 = (0, 1, 4, 41, 768, 27449, 1887284)  # labelled, no isolated vertex


def _least_relabelling(n: int, mask: int) -> int:
    """The least colex mask over all n! relabellings: a canonical form
    found without colour refinement."""
    edges = [(i, j) for k, (i, j) in enumerate(pair_table(n)) if mask >> k & 1]
    return min(
        sum(1 << pair_index(p[i], p[j]) for i, j in edges)
        for p in itertools.permutations(range(n))
    )


@lru_cache(maxsize=None)
def _every_candidate_classes(n: int) -> tuple[tuple[int, int], ...]:
    """graph_classes(n) without canonical deletion: every candidate, each
    class representative of order n - 1 plus vertex n - 1 with any
    neighbour set, is canonicalised."""
    if n == 1:
        return ((0, 1),)
    last = n - 1
    forms: dict[int, int] = {}
    for mask, _ in _every_candidate_classes(last):
        base = list(from_edge_mask(last, mask).adj)
        for joined in range(1 << last):
            adj = [a | (joined >> v & 1) << last for v, a in enumerate(base)]
            adj.append(joined)
            form, aut = _canonical_form(adj, _colours(adj))
            forms.setdefault(form, aut)
    labellings = math.factorial(n)
    return tuple((form, labellings // aut) for form, aut in sorted(forms.items()))


class TestGraphClasses:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_canonical_deletion_keeps_every_class(self, n):
        assert graph_classes(n) == _every_candidate_classes(n)

    @given(any_graphs(1, 8))
    def test_colours_refine_degrees(self, g):
        colour = _colours(list(g.adj))
        for u, v in itertools.permutations(range(g.n), 2):
            if g.degree(u) > g.degree(v):
                assert colour[u] > colour[v]

    @given(any_graphs(1, 8), st.data())
    def test_colours_commute_with_relabelling(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        adj = [0] * g.n
        for v, a in enumerate(g.adj):
            adj[perm[v]] = sum(1 << perm[w] for w in iter_bits(a))
        colour = _colours(list(g.adj))
        moved = _colours(adj)
        assert [moved[perm[v]] for v in range(g.n)] == colour

    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_oeis(self, n):
        classes = graph_classes(n)
        reps = [from_edge_mask(n, mask) for mask, _ in classes]
        assert len(classes) == A000088[n - 1]
        assert [mask for mask, _ in classes] == sorted(set(m for m, _ in classes))
        assert sum(1 for g in reps if is_connected(g)) == A001349[n - 1]
        assert sum(orbit for _, orbit in classes) == 2 ** (n * (n - 1) // 2)
        assert sum(
            orbit for g, (_, orbit) in zip(reps, classes) if is_connected(g)
        ) == A001187[n - 1]
        assert sum(
            orbit
            for g, (_, orbit) in zip(reps, classes)
            if not g.has_isolated_vertices()
        ) == A006129[n - 1]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_orbits_match_labelled_grouping(self, n):
        groups = Counter(
            _least_relabelling(n, mask) for mask in range(1 << (n * (n - 1) // 2))
        )
        classes = graph_classes(n)
        assert len(groups) == len(classes)
        for mask, orbit in classes:
            assert groups[_least_relabelling(n, mask)] == orbit


class TestInvariants:
    @given(any_graphs(1, 8))
    def test_symmetric_irreflexive(self, g):
        for v in range(g.n):
            assert not g.adj[v] >> v & 1
            for u in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    @given(any_graphs(2, 6), any_graphs(2, 6))
    def test_disjoint_union_blocks(self, a, b):
        g = disjoint_union([a, b])
        assert g.n == a.n + b.n
        assert g.edge_count == a.edge_count + b.edge_count
        assert induced_subgraph(g, range(a.n)) == a
        assert induced_subgraph(g, range(a.n, g.n)) == b
