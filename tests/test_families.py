"""Family generators, the spider closed form, recognizers, and the parser."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import complete, corona_complete, cycle, path, spider, union
from trd.errors import (
    DisconnectedError,
    InvalidSpecError,
    TooFewLegsError,
    TooSmallError,
    TrdError,
)
from trd.families import (
    CORONA,
    FAMILY_G,
    FAMILY_H,
    PATH_OR_CYCLE,
    SUBDIVIDED_STAR,
    CartesianComplete,
    Complete,
    Corona,
    Cycle,
    DeadExample,
    DisjointUnion,
    DoubleStar,
    FamilyG,
    FamilyH,
    Galaxy,
    Hen1Class,
    Path,
    ProductDeleted,
    Spider,
    Star,
    SubdividedStar,
    dead_example_w_vertices,
    family_to_text,
    generate,
    hen1_classify,
    is_galaxy,
    is_union_of_completes,
    parse_family,
    predict_n_critical,
    spider_gamma_formula,
    spider_is_critical,
)
from trd.graphs import build_graph, graph6_encode, is_connected
from trd.solver import gamma_tr_value

# 1,200 nested unions: deep enough to overflow a recursive parser
DEEP_UNION = "union(" * 1200 + "K2" + ")" * 1200

FAMILY_ALPHABET = [
    "path", "cycle", "complete", "star", "substar", "doublestar", "cor",
    "spider", "familyG", "familyH", "galaxy", "KxK", "Gd", "D", "union",
    "PATH", "nope", "K", "k", "r=", "R=", "-", "+", "(", ")", ",", " ",
    *"0123456789",
]


@st.composite
def descriptor_trees(draw):
    """Descriptor trees with non-negative parameters, nested through cor
    and union."""
    ints = st.integers(0, 10**6)
    legs = st.lists(ints, min_size=1, max_size=4).map(tuple)
    leaves = st.one_of(
        *(
            st.builds(cls, *[ints] * arity)
            for cls, arity in [
                (Path, 1), (Cycle, 1), (Complete, 1), (Star, 1),
                (SubdividedStar, 1), (DoubleStar, 2), (FamilyG, 2),
                (FamilyH, 3), (CartesianComplete, 2), (ProductDeleted, 1),
                (DeadExample, 1),
            ]
        ),
        st.builds(Spider, legs),
        st.builds(Galaxy, legs),
    )
    return draw(st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Corona, inner),
            st.builds(DisjointUnion,
                      st.lists(inner, min_size=1, max_size=3).map(tuple)),
        ),
        max_leaves=8,
    ))


@st.composite
def tree_like_graphs(draw, min_n=8, max_n=16):
    """Relabelled trees and unicyclic graphs of order min_n to max_n.

    Half are random trees, some closed into one cycle; the other half hang
    pendant 2-paths on a small tree or cycle core, plus a stray leaf when
    the order is odd, so that the gamma_tR = n clauses and their near
    misses both come up often.
    """
    n = draw(st.integers(min_n, max_n))
    if draw(st.booleans()):
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u < v and (u, v) not in edges and draw(st.booleans()):
            edges.append((u, v))
    else:
        c = draw(st.integers(1, 5))
        if c >= 3 and draw(st.booleans()):
            edges = [(v, (v + 1) % c) for v in range(c)]
        else:
            edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, c)]
        v = c
        while v + 1 < n:
            edges += [(draw(st.integers(0, c - 1)), v), (v, v + 1)]
            v += 2
        if v < n:
            edges.append((draw(st.integers(0, v - 1)), v))
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


class TestGenerate:
    def test_spider_order_and_degrees(self):
        g = generate(Spider((2, 2, 2)))
        assert g.n == 7
        assert sorted(g.degrees, reverse=True) == [3, 2, 2, 2, 1, 1, 1]
        assert g.degree(0) == 3  # head label

    def test_dead_example(self):
        g = generate(DeadExample(3))
        assert g.n == 10
        assert g.degree(0) == 6
        assert dead_example_w_vertices(3) == (7, 8, 9)
        for w in dead_example_w_vertices(3):
            assert g.degree(w) == 2

    def test_product_deleted_orders(self):
        assert generate(ProductDeleted(2)).n == 8
        assert generate(ProductDeleted(3)).n == 14

    def test_k2_square_is_c4(self):
        g = generate(CartesianComplete(2, 2))
        assert g.n == 4 and all(d == 2 for d in g.degrees)
        assert is_connected(g)

    def test_order_formulas(self):
        assert generate(Spider((1, 2, 3))).n == 7
        for k1, k2 in [(1, 0), (2, 1), (0, 3)]:
            assert generate(FamilyG(k1, k2)).n == 4 + 2 * (k1 + k2)
        for a, b, r in [(1, 1, 0), (2, 3, 4), (1, 2, 2)]:
            assert generate(FamilyH(a, b, r)).n == 2 * (a + b) + r + 2
        for n, m in [(2, 3), (3, 4)]:
            assert generate(CartesianComplete(n, m)).n == n * m
        for l in (2, 3, 4):
            assert generate(ProductDeleted(l)).n == (l + 1) ** 2 - (l + 1) // 2
        for n in (2, 3, 5):
            assert generate(DeadExample(n)).n == 3 * n + 1
        assert generate(SubdividedStar(4)).n == 9
        assert generate(Corona(Complete(4))).n == 8
        assert generate(Galaxy((1, 2, 3))).n == 9
        assert generate(DoubleStar(2, 3)).n == 7

    def test_legs_normalised(self):
        assert Spider((4, 1, 2)).legs == (1, 2, 4)
        assert generate(Spider((4, 1, 2))) == generate(Spider((1, 2, 4)))

    @pytest.mark.parametrize(
        "spec",
        [
            Path(0),
            Cycle(2),
            Complete(0),
            Star(0),
            SubdividedStar(1),
            DoubleStar(0, 1),
            Spider((2,)),
            Spider((0, 1, 1)),
            FamilyG(0, 0),
            FamilyH(0, 1, 0),
            FamilyH(1, 1, -1),
            Galaxy((3,)),
            Galaxy((0, 1)),
            CartesianComplete(1, 3),
            ProductDeleted(1),
            DeadExample(1),
            DisjointUnion(()),
        ],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(InvalidSpecError):
            generate(spec)

    @pytest.mark.parametrize(
        "text, graph6",
        [
            ("path(5)", "DhC"),
            ("cycle(6)", "EhEG"),
            ("K4", "C~"),
            ("star(3)", "Cs"),
            ("substar(3)", "FkE?G"),
            ("doublestar(2,3)", "FsPA?"),
            ("cor(K3)", "E{O_"),
            ("spider(1,2,3)", "Fp_GG"),
            ("familyG(2,1)", "Il_K?D??G"),
            ("familyH(1,2,r=2)", "Ih_G_CO?G"),
            ("galaxy(1,2,3)", "H`G?GGC"),
            ("KxK(2,3)", "E{Sw"),
            ("Gd(3)", "M~`HW|CGgbgcGdCR_"),
            ("D(3)", "IsqcaOcC_"),
            ("union(K2,cor(K2),path(3))", "H`GO?C@"),
            ("cor(cor(K2))", "Gq`@?_"),
            ("union(union(K1,K2),cor(union(K1,path(2))))", "HG?G_OC"),
        ],
    )
    def test_canonical_labelling_pinned(self, text, graph6):
        """One member of every descriptor kind keeps its canonical
        labelling, byte for byte."""
        assert graph6_encode(generate(parse_family(text))) == graph6

    @given(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    def test_generated_graphs_are_wellformed(self, legs):
        g = generate(Spider(tuple(legs)))
        assert g.n == 1 + sum(legs)
        for v in range(g.n):
            assert not g.adj[v] >> v & 1


class TestSpiderFormula:
    def test_all_length_two(self):
        assert spider_gamma_formula((2, 2, 2)) == 7

    def test_no_length_two(self):
        assert spider_gamma_formula((1, 1, 3)) == 5

    def test_middle_case(self):
        assert spider_gamma_formula((1, 2, 3)) == 6

    def test_too_few_legs(self):
        with pytest.raises(TooFewLegsError):
            spider_gamma_formula((2, 2))

    @given(st.lists(st.integers(1, 4), min_size=3, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_solver(self, legs):
        legs = tuple(sorted(legs))
        assert spider_gamma_formula(legs) == gamma_tr_value(generate(Spider(legs)))


class TestSpiderCriticalPredicate:
    @pytest.mark.parametrize(
        "legs,expected",
        [
            ((2, 2, 2), True),
            ((2, 2, 4), True),
            ((2, 2, 2, 2), True),
            ((2, 2, 6), True),
            ((2, 2, 7), True),
            ((2, 2, 3), False),
            ((2, 2, 5), False),
            ((2, 3, 3), False),
            ((1, 2, 2), False),
        ],
    )
    def test_cases(self, legs, expected):
        assert spider_is_critical(legs) == expected

    def test_too_few(self):
        with pytest.raises(TooFewLegsError):
            spider_is_critical((2, 2))


class TestHen1Classify:
    def test_cycle(self):
        assert hen1_classify(cycle(9)).kind == PATH_OR_CYCLE

    def test_corona(self):
        assert hen1_classify(corona_complete(3)).kind == CORONA

    def test_subdivided_star(self):
        assert hen1_classify(spider(2, 2, 2, 2)).kind == SUBDIVIDED_STAR

    def test_complete_is_none(self):
        assert hen1_classify(complete(4)) is None

    def test_p5_priority(self):
        # P_5 is also the k=2 subdivided star; the path clause wins
        assert hen1_classify(path(5)).kind == PATH_OR_CYCLE

    def test_family_h_paths_report_path(self):
        for r in range(4):
            cls = hen1_classify(generate(FamilyH(1, 1, r)))
            assert cls.kind == PATH_OR_CYCLE

    def test_family_g_roundtrip(self):
        for k1 in range(4):
            for k2 in range(4 - k1):
                if k1 + k2 < 1:
                    continue
                cls = hen1_classify(generate(FamilyG(k1, k2)))
                assert cls.kind == FAMILY_G

    def test_family_h_roundtrip_recovers_r(self):
        for a, b in [(1, 2), (2, 1), (2, 2)]:
            for r in range(6):
                cls = hen1_classify(generate(FamilyH(a, b, r)))
                assert cls.kind == FAMILY_H
                assert cls.r == r

    @given(tree_like_graphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_gamma_tr_equals_order_beyond_order_7(self, g):
        # T_HEN1's statement, past the exhaustive order-7 sweep
        assert (hen1_classify(g) is not None) == (gamma_tr_value(g) == g.n)

    def test_relabelled_members_to_order_24(self):
        cases = [(SubdividedStar(k), SUBDIVIDED_STAR, None) for k in range(3, 12)]
        cases += [
            (FamilyG(k1, k2), FAMILY_G, None)
            for k1 in range(11) for k2 in range(11 - k1) if k1 + k2
        ]
        cases += [
            (FamilyH(a, b, r), FAMILY_H, r)
            for a in range(1, 11) for b in range(1, 11) for r in range(19)
            if a + b >= 3 and 2 * (a + b) + r + 2 <= 24
        ]
        cases += [(Corona(Complete(m)), CORONA, None) for m in range(3, 13)]
        rnd = random.Random(24)
        for spec, kind, r in cases:
            g = generate(spec)
            perm = list(range(g.n))
            rnd.shuffle(perm)
            g = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert hen1_classify(g) == Hen1Class(kind, r), family_to_text(spec)

    def test_errors(self):
        with pytest.raises(TooSmallError):
            hen1_classify(build_graph(1, []))
        with pytest.raises(DisconnectedError):
            hen1_classify(union(Complete(2), Complete(2)))


class TestIsGalaxy:
    def test_two_k2(self):
        assert is_galaxy(generate(Galaxy((1, 1))))

    def test_mixed_stars(self):
        assert is_galaxy(generate(Galaxy((2, 3))))

    def test_single_star(self):
        assert not is_galaxy(generate(Star(3)))

    def test_triangle_component(self):
        assert not is_galaxy(union(Complete(3), Complete(2)))

    def test_isolated_vertex_component(self):
        assert not is_galaxy(build_graph(3, [(0, 1)]))


class TestUnionOfCompletes:
    def test_positive(self):
        assert is_union_of_completes(union(Complete(3), Complete(4)))

    def test_needs_two_parts(self):
        assert not is_union_of_completes(complete(5))

    def test_order_floor(self):
        assert not is_union_of_completes(union(Complete(2), Complete(3)))


class TestPredictNCritical:
    def test_cycle(self):
        assert predict_n_critical(cycle(7))

    def test_path_false(self):
        assert not predict_n_critical(path(7))

    def test_corona_k2_false(self):
        assert not predict_n_critical(corona_complete(2))

    def test_corona_k3_true(self):
        assert predict_n_critical(corona_complete(3))

    def test_corona_of_path_false(self):
        assert not predict_n_critical(generate(Corona(Path(3))))

    def test_family_h_r2_false(self):
        assert not predict_n_critical(generate(FamilyH(2, 1, 2)))

    def test_family_h_r1_true(self):
        assert predict_n_critical(generate(FamilyH(2, 1, 1)))

    def test_subdivided_star(self):
        assert predict_n_critical(spider(2, 2, 2))

    def test_errors(self):
        with pytest.raises(TooSmallError):
            predict_n_critical(complete(3))
        with pytest.raises(DisconnectedError):
            predict_n_critical(union(Complete(2), Complete(2)))


class TestFamilyText:
    @pytest.mark.parametrize(
        "text",
        [
            "spider(2,2,4)",
            "cor(K3)",
            "cycle(7)",
            "familyG(1,0)",
            "familyH(2,3,r=4)",
            "KxK(3,3)",
            "Gd(3)",
            "D(3)",
            "union(K2,K3)",
            "galaxy(1,2,3)",
            "union(cor(K3),K2)",
            "path(6)",
            "star(4)",
            "substar(3)",
            "doublestar(2,2)",
        ],
    )
    def test_roundtrip(self, text):
        spec = parse_family(text)
        assert parse_family(family_to_text(spec)) == spec

    def test_atom(self):
        assert parse_family("K7") == Complete(7)
        assert parse_family("complete(7)") == Complete(7)

    def test_case_insensitive_names(self):
        assert parse_family("SPIDER(2,2,2)") == Spider((2, 2, 2))

    def test_bare_r_argument(self):
        assert parse_family("familyH(1,2,3)") == FamilyH(1, 2, 3)

    def test_whitespace(self):
        assert parse_family("  union( K2 , K3 ) ") == DisjointUnion(
            (Complete(2), Complete(3))
        )

    @pytest.mark.parametrize(
        "text",
        [
            "nope(3)",
            "spider()",
            "cycle(a)",
            "cor(K3",
            "cycle(3))",
            "cor(K2,K3)",
            "KxK(3)",
            "",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(InvalidSpecError):
            parse_family(text)

    def test_generated_matches_text(self):
        spec = parse_family("spider(1,1,3)")
        assert gamma_tr_value(generate(spec)) == 5

    def test_nesting_depth_bounded(self):
        with pytest.raises(InvalidSpecError):
            parse_family(DEEP_UNION)
        with pytest.raises(InvalidSpecError):
            parse_family("union(" * 63 + "K2" + ")" * 63)
        deepest = "union(" * 62 + "K2" + ")" * 62
        assert family_to_text(parse_family(deepest)) == deepest
        assert generate(parse_family(deepest)).n == 2

    @given(st.lists(st.sampled_from(FAMILY_ALPHABET), max_size=40).map("".join))
    @example(DEEP_UNION)
    @example("cor(" * 6 + "K2" + ")" * 6)
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_text_raises_only_trd_errors(self, text):
        try:
            generate(parse_family(text))
        except TrdError:
            pass

    @given(descriptor_trees())
    @settings(max_examples=200, deadline=None)
    def test_text_roundtrip_of_descriptor_trees(self, spec):
        assert parse_family(family_to_text(spec)) == spec
