"""Universe enumeration, theorem reports, hunts, and report serialization."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import trd.verify
from conftest import solvable_graphs
from trd.criticality import edge_profile, is_edge_critical, is_supercritical
from trd.errors import (
    IncompatibleUniverseError,
    OutOfRangeError,
    UniverseTooLargeError,
    UnknownQuestionError,
    UnknownTheoremError,
)
from trd.families import (
    Complete,
    Corona,
    DeadExample,
    DisjointUnion,
    Spider,
    generate,
    parse_family,
)
from trd.graphs import (
    _canonical_form,
    _colours,
    add_edge,
    build_graph,
    from_edge_mask,
    graph6_decode,
    graph6_encode,
    graph_classes,
    is_connected,
)
from trd.solver import (
    brute_oracle_gamma_tr,
    dead_vertices,
    enumerate_min_trd,
    gamma_tr_value,
)
from trd.verify import (
    MAX_COUNTEREXAMPLES,
    QUESTIONS,
    AllLabeled,
    Families,
    RandomGnp,
    THEOREMS,
    Counterexample,
    TheoremEntry,
    enumerate_instances,
    hunt_counterexamples,
    run_registry,
    universe_to_json,
    verify_theorem,
)


_FAMILY_TEXTS = ("union(K1,K2)", "cor(K3)", "path(5)", "union(K1,cycle(5))")
_CONNECTED_CLAIMS = ("T_HEN1", "T_HEN3", "T_NCRIT", "T_OBS1", "T_T2IFF")


class TestEnumeration:
    def test_all_labeled_two(self):
        graphs = [g for _, g in enumerate_instances(AllLabeled(2))]
        assert len(graphs) == 1
        assert graphs[0].edges() == [(0, 1)]

    def test_all_labeled_three_connected(self):
        # hand enumeration: at order 3 the 8 labelled graphs reduce to the
        # three labelled paths plus the triangle; cumulative enumeration
        # also yields K_2 from the order-2 stratum
        graphs = [g for _, g in enumerate_instances(AllLabeled(3, connected_only=True))]
        orders = sorted(g.n for g in graphs)
        assert orders == [2, 3, 3, 3, 3]
        stratum3 = [g for g in graphs if g.n == 3]
        assert sum(1 for g in stratum3 if g.edge_count == 2) == 3  # paths
        assert sum(1 for g in stratum3 if g.edge_count == 3) == 1  # triangle

    def test_all_labeled_counts_without_isolated(self):
        # inclusion-exclusion check: 1 + 4 + 41 labelled graphs at n <= 4
        graphs = [g for _, g in enumerate_instances(AllLabeled(4))]
        assert len(graphs) == 46

    def test_exactly_once(self):
        graphs = [g for _, g in enumerate_instances(AllLabeled(3))]
        keys = [(g.n, g.edge_mask) for g in graphs]
        assert len(keys) == len(set(keys)) == 1 + 4

    def test_ceiling(self):
        with pytest.raises(UniverseTooLargeError):
            list(enumerate_instances(AllLabeled(8)))

    @pytest.mark.parametrize("stream", [enumerate_instances, trd.verify._class_instances])
    def test_all_labeled_refuses_order_below_one(self, stream):
        with pytest.raises(OutOfRangeError, match="max_n >= 1, got 0"):
            next(stream(AllLabeled(0)))

    def test_random_gnp_deterministic(self):
        a = [g.edge_mask for _, g in enumerate_instances(RandomGnp(5, 8, 0.5, 42))]
        b = [g.edge_mask for _, g in enumerate_instances(RandomGnp(5, 8, 0.5, 42))]
        assert a == b and len(a) == 5

    def test_random_gnp_seed_matters(self):
        a = [g.edge_mask for _, g in enumerate_instances(RandomGnp(5, 8, 0.5, 42))]
        b = [g.edge_mask for _, g in enumerate_instances(RandomGnp(5, 8, 0.5, 43))]
        assert a != b

    @pytest.mark.parametrize("n", [0, -2])
    def test_random_gnp_refuses_order_below_one(self, n):
        with pytest.raises(OutOfRangeError):
            next(enumerate_instances(RandomGnp(3, n, 0.5, 0)))

    @pytest.mark.parametrize("n", [63, 1000])
    def test_random_gnp_refuses_order_above_graph6(self, monkeypatch, n):
        # refused before the pair table of n(n-1)/2 entries is built
        def refuse(m):
            raise AssertionError(f"pair_table called with n={m}")

        monkeypatch.setattr(trd.verify, "pair_table", refuse)
        with pytest.raises(OutOfRangeError):
            next(enumerate_instances(RandomGnp(1, n, 0.5, 0)))

    def test_family_instances_carry_specs(self):
        universe = Families((Spider((2, 2, 2)), DeadExample(2)))
        pairs = list(enumerate_instances(universe))
        assert [spec for spec, _ in pairs] == list(universe.specs)
        assert [g.n for _, g in pairs] == [7, 7]


class TestNoIsolatedUniverse:
    """No universe holds a graph with an isolated vertex, and no claim's
    hypothesis asks again."""

    def test_random_draws_skip_isolated_graphs_in_place(self):
        rng = random.Random(7)
        masks = [sum(1 << k for k in range(15) if rng.random() < 0.2)
                 for _ in range(60)]
        kept = [m for m in masks if not from_edge_mask(6, m).has_isolated_vertices()]
        drawn = [g.edge_mask for _, g in enumerate_instances(RandomGnp(60, 6, 0.2, 7))]
        assert drawn == kept and len(drawn) == 14

    def test_family_members_with_isolated_vertices_are_skipped(self):
        specs = tuple(parse_family(t) for t in _FAMILY_TEXTS)
        kept = [spec for spec, _ in enumerate_instances(Families(specs))]
        assert kept == [specs[1], specs[2]]

    @pytest.mark.parametrize("universe, most, fewer", [
        (RandomGnp(60, 6, 0.2, 7), 14,
         {**dict.fromkeys(_CONNECTED_CLAIMS, 9), "T_STEMS": 5, "T_N3REG": 0}),
        (RandomGnp(20, 8, 0.15, 7), 2,
         {**dict.fromkeys(_CONNECTED_CLAIMS, 0), "T_STEMS": 0, "T_N3REG": 0}),
        (Families(tuple(parse_family(t) for t in _FAMILY_TEXTS)), 2,
         {"T_STEMS": 1, "T_N3REG": 0}),
    ], ids=["gnp-6", "gnp-8", "families"])
    def test_counts_on_universes_with_isolated_graphs(self, universe, most, fewer):
        # T_SPAN's hypothesis solves, so an isolated graph reaching it
        # would raise
        for cid in [*THEOREMS, *QUESTIONS]:
            if trd.verify._claim(cid).family_kinds is not None:
                continue
            report = (hunt_counterexamples(cid, universe) if cid in QUESTIONS
                      else verify_theorem(cid, universe))
            assert (report.instances_checked, report.outcome) == (
                fewer.get(cid, most), "pass"), cid

    def test_critedge_values_checks_order_twelve(self):
        # enumerate_min_trd runs on G+uv, whose order is that of G
        report = verify_theorem("T_CRITEDGE_VALUES", RandomGnp(2, 12, 0.5, 0))
        assert (report.instances_checked, report.outcome) == (2, "pass")


@pytest.mark.parametrize("jobs", [1, 2, 100_000])
def test_pool_has_at_most_one_worker_per_cpu(monkeypatch, jobs):
    # a stand-in for ProcessPoolExecutor records max_workers and maps in this
    # process, so that no process starts
    import concurrent.futures

    workers = []

    class Pool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(trd.verify.os, "cpu_count", lambda: 2)
    items = list(range(-5, 5))
    assert list(trd.verify.parallel_map(abs, items, jobs)) == [(x, abs(x)) for x in items]
    assert workers == [min(jobs, 2)]


class TestVerifyTheorem:
    def test_unknown(self):
        with pytest.raises(UnknownTheoremError) as exc:
            verify_theorem("T_NOPE")
        assert str(exc.value) == ("unknown theorem 'T_NOPE'; registered: "
                                  + ", ".join(sorted(THEOREMS)))

    def test_incompatible_universe(self):
        with pytest.raises(IncompatibleUniverseError):
            verify_theorem("T_KNKM", AllLabeled(4))

    def test_tr3_small(self):
        report = verify_theorem("T_TR3", AllLabeled(4))
        assert report.outcome == "pass"
        assert report.instances_checked == 45  # order-3 and order-4 strata

    def test_dn_defaults(self):
        report = verify_theorem("T_DN")
        assert report.outcome == "pass"
        assert report.instances_checked == 3

    def test_registry_ids(self):
        expected = {
            "T_BOUNDS", "T_CRITEDGE_VALUES", "T_TR3", "T_HEN1", "T_NCRIT",
            "T_4CRIT", "T_N3REG", "T_MYN2_ANALOGUE", "T_HEN2", "T_HEN3",
            "T_OBS1", "T_T2IFF", "T_5CRIT", "T_ENDDEG3", "T_STEMS",
            "T_LONGLEGS", "T_SPIDER_FORMULA", "T_SPIDER_CRIT", "T_SPAN",
            "T_KNKM", "T_DIAM2", "T_DN", "T_DN_EDGES", "T_MYN1",
            "T_RD_DEADPAIR",
        }
        assert set(THEOREMS) == expected

    def test_family_universe_skips_foreign_specs(self):
        universe = Families((Spider((2, 2, 2)), DeadExample(2)))
        report = verify_theorem("T_SPIDER_FORMULA", universe)
        assert report.instances_checked == 1
        assert report.outcome == "pass"

    def test_jobs_parallel_matches_serial(self):
        serial = verify_theorem("T_KNKM")
        parallel = verify_theorem("T_KNKM", jobs=2)
        assert json.dumps(serial.to_json()) == json.dumps(parallel.to_json())


@pytest.fixture
def failing_entry(monkeypatch):
    entry = TheoremEntry(
        "T_ALWAYS_FAIL",
        "synthetic failing check",
        AllLabeled(4),
        lambda g, spec: "synthetic violation",
    )
    monkeypatch.setitem(THEOREMS, "T_ALWAYS_FAIL", entry)
    return entry


class TestFailurePath:
    def test_counterexamples_capped_at_twenty(self, failing_entry):
        report = verify_theorem("T_ALWAYS_FAIL", AllLabeled(4))
        assert report.outcome == "fail"
        assert len(report.counterexamples) == 20
        assert report.instances_checked > 20
        assert report.counterexamples[0].detail == "synthetic violation"

    def test_outcome_iff_counterexamples(self, failing_entry):
        passing = verify_theorem("T_TR3", AllLabeled(4))
        failing = verify_theorem("T_ALWAYS_FAIL", AllLabeled(4))
        assert passing.outcome == "pass" and not passing.counterexamples
        assert failing.outcome == "fail" and failing.counterexamples


def _labeled_at_four() -> dict:
    """Every claim with a labelled default universe, moved to AllLabeled(4)."""
    return {
        tid: AllLabeled(4)
        for tid, entry in THEOREMS.items()
        if isinstance(entry.default_universe, AllLabeled)
    }


def _flagged() -> list[str]:
    """The registry claims and questions flagged label-invariant."""
    return [
        cid
        for cid in [*THEOREMS, *QUESTIONS]
        if trd.verify._claim(cid).label_invariant
    ]


class TestClassSweep:
    @pytest.mark.parametrize("connected_only", [False, True])
    @pytest.mark.parametrize("no_isolated", [False, True])
    def test_orbits_add_up_to_the_labelled_count(self, connected_only, no_isolated):
        if no_isolated:
            # the universe's own filter: no graph with an isolated vertex
            universe = AllLabeled(5, connected_only)
            weights = sum(w for w, _ in trd.verify._class_instances(universe))
            assert weights == len(list(enumerate_instances(universe)))
            return
        # graphs with isolated vertices left in: the raw class table
        def kept(n, mask):
            return not connected_only or is_connected(from_edge_mask(n, mask))

        for n in range(1, 6):
            weights = sum(w for mask, w in graph_classes(n) if kept(n, mask))
            labelled = sum(kept(n, m) for m in range(1 << (n * (n - 1) // 2)))
            assert weights == labelled, n

    def test_class_stream_keeps_the_ceiling(self):
        with pytest.raises(UniverseTooLargeError):
            list(trd.verify._class_instances(AllLabeled(8)))

    def test_flags(self):
        flagged = set(_flagged())
        labeled_defaults = {
            tid
            for tid, entry in THEOREMS.items()
            if isinstance(entry.default_universe, AllLabeled)
        }
        assert flagged == (labeled_defaults - {"T_SPAN"}) | set(QUESTIONS)

    # graphs that a universe may hold: none has an isolated vertex
    @given(solvable_graphs(2, 6), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_flagged_claims_ignore_labels(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        for cid in _flagged():
            entry = trd.verify._claim(cid)
            held = entry.hypothesis is None or entry.hypothesis(g)
            assert held == (entry.hypothesis is None or entry.hypothesis(h)), cid
            if held:
                assert (entry.check(g, None) is None) == (
                    entry.check(h, None) is None
                ), cid

    @pytest.mark.parametrize("connected_only", [False, True])
    def test_class_sweep_matches_labelled_sweep(self, connected_only):
        # the labelled reference: each flagged claim's hypothesis and check
        # run here over every labelled graph of the universe
        universe = AllLabeled(5, connected_only)
        ids = _flagged()
        entries = [trd.verify._claim(cid) for cid in ids]
        checked = [0] * len(ids)
        failed = [False] * len(ids)
        for spec, g in enumerate_instances(universe):
            for i, entry in enumerate(entries):
                if entry.hypothesis is None or entry.hypothesis(g):
                    checked[i] += 1
                    failed[i] |= entry.check(g, spec) is not None
        reports = trd.verify._sweep(universe, ids, 1)
        assert [(r.instances_checked, r.outcome) for r in reports] == [
            (c, "fail" if f else "pass") for c, f in zip(checked, failed)
        ]

    def test_every_labelling_agrees_with_its_representative(self):
        # a flagged claim meets only class representatives, so a wrong
        # label_invariant flag would hide failures: every labelled graph of
        # order <= 5 gets the hypothesis and verdict of its representative
        entries = [trd.verify._claim(cid) for cid in _flagged()]

        def verdicts(g):
            # per claim: None if the hypothesis drops g, else whether g passes
            return [
                None if e.hypothesis is not None and not e.hypothesis(g)
                else e.check(g, None) is None
                for e in entries
            ]

        classes = {n: {mask for mask, _ in graph_classes(n)} for n in range(1, 6)}
        of_class = {}
        for _, g in enumerate_instances(AllLabeled(5)):
            mask, _ = _canonical_form(g.adj, _colours(g.adj))
            assert mask in classes[g.n]
            if (g.n, mask) not in of_class:
                of_class[g.n, mask] = verdicts(from_edge_mask(g.n, mask))
            assert verdicts(g) == of_class[g.n, mask], graph6_encode(g)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_flagged_claim_reports_its_classes(
        self, failing_entry, monkeypatch, jobs
    ):
        flagged = replace(failing_entry, label_invariant=True)
        monkeypatch.setitem(THEOREMS, "T_ALWAYS_FAIL", flagged)
        universe = AllLabeled(4)
        classes = list(trd.verify._class_instances(universe))
        expected = tuple(
            Counterexample(graph6_encode(g), "synthetic violation")
            for _, g in classes[:MAX_COUNTEREXAMPLES]
        )
        report = verify_theorem("T_ALWAYS_FAIL", universe, jobs)
        assert report.instances_checked == 46 == sum(w for w, _ in classes)
        assert report.outcome == "fail"
        assert report.counterexamples == expected

    def test_failing_flagged_claim_in_a_shared_group(
        self, failing_entry, monkeypatch
    ):
        overrides = _labeled_at_four()
        before = {r.theorem_id: r for r in run_registry(overrides)}
        flagged = replace(failing_entry, label_invariant=True)
        monkeypatch.setitem(THEOREMS, "T_ALWAYS_FAIL", flagged)
        after = {r.theorem_id: r for r in run_registry(overrides)}
        alone = verify_theorem("T_ALWAYS_FAIL", AllLabeled(4))
        assert after.pop("T_ALWAYS_FAIL") == alone != before.pop("T_ALWAYS_FAIL")
        assert after == before

    def test_flagged_claims_never_reach_the_labelled_stream(
        self, failing_entry, monkeypatch
    ):
        monkeypatch.setitem(
            THEOREMS, "T_ALWAYS_FAIL", replace(failing_entry, label_invariant=True)
        )

        def refuse(universe):
            raise AssertionError(f"enumerate_instances({universe!r})")

        monkeypatch.setattr(trd.verify, "enumerate_instances", refuse)
        assert verify_theorem("T_ALWAYS_FAIL", AllLabeled(4)).outcome == "fail"
        assert verify_theorem("T_TR3", AllLabeled(4)).outcome == "pass"
        assert hunt_counterexamples("Q2_dead_in_critical", AllLabeled(4)).outcome == "pass"

    def test_classes_never_reach_other_universes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            trd.verify, "_class_instances", lambda u: calls.append(u) or iter(())
        )
        verify_theorem("T_TR3", RandomGnp(3, 5, 0.5, 0))
        verify_theorem("T_SPAN", AllLabeled(3))
        assert calls == []


class TestGroupedSweep:
    def test_failing_claim_in_a_shared_group(self, failing_entry):
        reports = {r.theorem_id: r for r in run_registry(_labeled_at_four())}
        failing = reports["T_ALWAYS_FAIL"]
        assert failing.outcome == "fail"
        assert len(failing.counterexamples) == 20
        assert failing.instances_checked == 46
        assert reports["T_TR3"] == verify_theorem("T_TR3", AllLabeled(4))

    def test_one_enumeration_per_distinct_universe(self, monkeypatch):
        overrides = _labeled_at_four()
        enumerated = []
        original = trd.verify.enumerate_instances

        def counting(universe):
            enumerated.append(universe)
            return original(universe)

        monkeypatch.setattr(trd.verify, "enumerate_instances", counting)
        run_registry(overrides)
        universes = {
            overrides.get(tid, entry.default_universe)
            for tid, entry in THEOREMS.items()
        }
        assert len(enumerated) == len(universes) < len(THEOREMS)
        assert set(enumerated) == universes

    def test_jobs_parallel_matches_serial(self):
        overrides = _labeled_at_four()
        assert run_registry(overrides, jobs=2) == run_registry(overrides)

    def test_reports_keep_their_own_universe(self):
        # equal universes share a sweep but may print differently
        overrides = {
            **_labeled_at_four(),
            "T_TR3": RandomGnp(2, 5, 1, 0),
            "T_HEN2": RandomGnp(2, 5, 1.0, 0),
        }
        reports = {r.theorem_id: r for r in run_registry(overrides)}
        for tid in ("T_TR3", "T_HEN2"):
            printed = json.dumps(reports[tid].to_json()["universe"])
            assert printed == json.dumps(universe_to_json(overrides[tid]))


class TestReportSerialization:
    def test_stable_key_order(self):
        report = verify_theorem("T_KNKM")
        payload = json.loads(json.dumps(report.to_json()))
        assert list(payload) == [
            "theorem_id", "universe", "instances_checked", "outcome",
            "counterexamples",
        ]
        assert payload["universe"]["source"] == "families"

    def test_byte_identical_reruns(self):
        a = json.dumps(verify_theorem("T_DN_EDGES").to_json())
        b = json.dumps(verify_theorem("T_DN_EDGES").to_json())
        assert a == b

    def test_counterexample_shape(self, monkeypatch):
        entry = TheoremEntry(
            "T_ALWAYS_FAIL", "synthetic", AllLabeled(2),
            lambda g, spec: "boom",
        )
        monkeypatch.setitem(THEOREMS, "T_ALWAYS_FAIL", entry)
        payload = verify_theorem("T_ALWAYS_FAIL", AllLabeled(2)).to_json()
        assert payload["counterexamples"] == [
            {"graph6": "A_", "detail": "boom"}
        ]


class TestHunts:
    def test_unknown_question(self):
        with pytest.raises(UnknownQuestionError, match="Q3_whatever"):
            hunt_counterexamples("Q3_whatever")

    def test_q1_confirms_union_of_triangles(self):
        universe = Families((DisjointUnion((Complete(3), Complete(3))),))
        report = hunt_counterexamples("Q1_supercritical", universe)
        assert report.outcome == "pass"
        assert report.instances_checked == 1

    def test_q1_small_sweep(self):
        report = hunt_counterexamples("Q1_supercritical", AllLabeled(5))
        assert report.outcome == "pass"

    def test_q2_spider_sweep(self):
        universe = Families(
            tuple(Spider(legs) for legs in [(2, 2, 2), (2, 2, 4), (1, 1, 3)])
        )
        report = hunt_counterexamples("Q2_dead_in_critical", universe)
        assert report.outcome == "pass"
        assert report.instances_checked == 3


def oracle_deltas(g):
    """gamma_tR of G and the set of gamma_tR(G) - gamma_tR(G+e), by the 3^n
    oracle, with the weight of the first enumerated minimum as a check."""
    def value(h):
        v = brute_oracle_gamma_tr(h)
        assert enumerate_min_trd(h)[0].weight == v
        return v

    base = value(g)
    return base, {base - value(add_edge(g, u, v)) for u, v in g.non_edges()}


class TestQuestionCounterexamples:
    """Q1 and Q2 as the registry states them fail beyond the default order-6
    universe; each counterexample is checked by the solver and the oracle."""

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_q1_coronas_of_complete_graphs(self, m):
        g = generate(Corona(Complete(m)))
        assert is_supercritical(g) and gamma_tr_value(g) == g.n
        if g.n <= 10:
            assert oracle_deltas(g) == (g.n, {2})

    @pytest.mark.parametrize(
        "g6,dead",
        [
            ("G`LZZk", (0,)),
            ("GxOyo{", (0,)),
            ("GKd`y{", (0,)),
            ("GS\\RH{", (0, 1, 4)),
        ],
    )
    def test_q2_order_eight(self, g6, dead):
        g = graph6_decode(g6)
        profile = edge_profile(g)
        assert profile.base_value == 5 and set(profile.deltas.values()) == {1}
        assert is_edge_critical(g) and dead_vertices(g) == dead
        assert oracle_deltas(g) == (5, {1})
        minimums = enumerate_min_trd(g)
        assert tuple(
            v for v in range(g.n) if all(f.values[v] == 0 for f in minimums)
        ) == dead
