"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every expected value here is either proved in the source material or
reproduced by an independent brute-force route; each test prints one
PASS/FAIL line (run pytest with ``-s`` to see them).
"""

import hashlib
import itertools
import json
import time

from trd.criticality import (
    edge_delta,
    is_edge_critical,
    is_stable,
    is_supercritical,
)
from trd.families import (
    CartesianComplete,
    Complete,
    Corona,
    Cycle,
    DisjointUnion,
    FamilyG,
    FamilyH,
    SubdividedStar,
    generate,
)
from trd.graphs import add_edge, build_graph
from trd.solver import (
    brute_oracle_gamma_tr,
    enumerate_min_trd,
    gamma_t_value,
    gamma_tr_value,
)
from trd.verify import (
    AllLabeled,
    Families,
    RandomGnp,
    enumerate_instances,
    verify_theorem,
)

SEED = 20260810


def _report(num: int, passed: bool, detail: str, started: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {num:02d} {status}: {detail} ({time.time() - started:.1f}s)")
    assert passed, f"criterion {num}: {detail}"


def _random_no_isolated(n: int, count: int, seed: int):
    """First ``count`` draws of a seeded G(n, 1/2) universe, which skips
    the draws with isolated vertices."""
    draws = (g for _, g in enumerate_instances(RandomGnp(4 * count, n, 0.5, seed)))
    graphs = list(itertools.islice(draws, count))
    assert len(graphs) == count, "seeded stream ran dry before reaching the quota"
    return graphs


def test_criterion_01_oracle_equivalence():
    started = time.time()
    checked = 0
    for _, g in enumerate_instances(AllLabeled(6, connected_only=True)):
        assert gamma_tr_value(g) == brute_oracle_gamma_tr(g), g
        checked += 1
    assert checked == 27475
    for n in (7, 8):
        for g in _random_no_isolated(n, 100, SEED + n):
            assert gamma_tr_value(g) == brute_oracle_gamma_tr(g), g
            checked += 1
    _report(1, checked == 27675, f"solver = oracle on {checked} instances", started)


def test_criterion_02_rook_graph_values():
    started = time.time()
    report = verify_theorem("T_KNKM")
    _report(
        2,
        report.outcome == "pass" and report.instances_checked == 6,
        f"gamma_tR(K_n x K_m) = 2n on {report.instances_checked} instances",
        started,
    )


def test_criterion_03_dead_example_chain():
    started = time.time()
    values = verify_theorem("T_DN")
    edges = verify_theorem("T_DN_EDGES")
    ok = (
        values.outcome == "pass"
        and values.instances_checked == 3
        and edges.outcome == "pass"
        and edges.instances_checked == 3
    )
    _report(3, ok, "values 5,7,9 with dead rims; rim non-edges critical", started)


def test_criterion_04_diameter_two():
    started = time.time()
    report = verify_theorem("T_DIAM2")
    _report(
        4,
        report.outcome == "pass" and report.instances_checked == 4,
        "deleted products reach 2l+1; completions stay diameter 2",
        started,
    )


def test_criterion_05_spiders():
    started = time.time()
    formula = verify_theorem("T_SPIDER_FORMULA")
    crit = verify_theorem("T_SPIDER_CRIT")
    ok = (
        formula.outcome == "pass"
        and formula.instances_checked == 55
        and crit.outcome == "pass"
        and crit.instances_checked == 55
    )
    _report(5, ok, "55 spiders: formula and criticality predicate exact", started)


def test_criterion_06_four_critical_galaxy():
    started = time.time()
    report = verify_theorem("T_4CRIT")
    _report(
        6,
        report.outcome == "pass" and report.instances_checked == 28263,
        f"4-edge-critical iff galaxy complement on {report.instances_checked}"
        " graphs",
        started,
    )


def test_criterion_07_no_5_supercritical():
    started = time.time()
    report = verify_theorem("T_MYN2_ANALOGUE")
    ok = report.outcome == "pass"
    for a, b in [(3, 3), (3, 4), (4, 4)]:
        g = generate(DisjointUnion((Complete(a), Complete(b))))
        ok = ok and gamma_tr_value(g) == 6 and is_supercritical(g)
    _report(
        7,
        ok,
        "no 5-supercritical graph at n <= 6; complete-unions 6-supercritical",
        started,
    )


def test_criterion_08_delta_ranges_and_value_sets():
    started = time.time()
    allowed = {(2, 2), (1, 2), (0, 2), (1, 1)}
    checked = 0
    for n in (5, 6, 7, 8):
        for g in _random_no_isolated(n, 125, SEED + 10 * n):
            checked += 1
            base = gamma_tr_value(g)
            for u, v in g.non_edges():
                d = edge_delta(g, u, v)
                assert d in (0, 1, 2), (g, u, v)
                h = add_edge(g, u, v)
                assert gamma_t_value(g) - gamma_t_value(h) in (0, 1, 2), (g, u, v)
                if d >= 1:
                    minimums = enumerate_min_trd(h)
                    for f in minimums:
                        pair = tuple(sorted((f.values[u], f.values[v])))
                        assert pair in allowed, (g, u, v, f)
                    if g.degree(u) == 1 and g.degree(v) == 1:
                        assert any(
                            f.values[u] == f.values[v] == 1 for f in minimums
                        ), (g, u, v)
    _report(8, checked == 500, f"deltas and value sets on {checked} graphs", started)


def test_criterion_09_order_value_and_criticality():
    started = time.time()
    hen1 = verify_theorem(
        "T_HEN1", AllLabeled(7, connected_only=True)
    )
    ncrit = verify_theorem(
        "T_NCRIT", AllLabeled(7, connected_only=True)
    )
    corpus = []
    corpus += [Cycle(n) for n in range(4, 10)]
    corpus += [Corona(Complete(r)) for r in range(2, 6)]
    corpus += [SubdividedStar(k) for k in (2, 3, 4)]  # orders 5, 7, 9
    corpus += [
        FamilyG(k1, k2)
        for k1 in range(4)
        for k2 in range(4 - k1)
        if k1 + k2 >= 1
    ]
    h_specs = [
        FamilyH(a, b, r) for a in (1, 2) for b in (1, 2) for r in range(6)
    ]
    corpus += h_specs
    family_report = verify_theorem("T_NCRIT", Families(tuple(corpus)))
    # among proper double-star members, criticality fails exactly at r in {0, 2}
    pattern_ok = all(
        is_edge_critical(generate(spec)) == (spec.r not in (0, 2))
        for spec in h_specs
        if spec.a + spec.b >= 3
    )
    ok = (
        hen1.outcome == "pass"
        and hen1.instances_checked == 1893731
        and ncrit.outcome == "pass"
        and family_report.outcome == "pass"
        and family_report.instances_checked == len(corpus)
        and pattern_ok
    )
    _report(
        9,
        ok,
        f"order-value iff classification on {hen1.instances_checked} graphs;"
        f" criticality prediction exact on {ncrit.instances_checked} graphs"
        f" and {len(corpus)} family members",
        started,
    )


def test_criterion_10_value_gap_bounds():
    started = time.time()
    hen2 = verify_theorem("T_HEN2")
    hen3 = verify_theorem("T_HEN3")
    t2 = verify_theorem("T_T2IFF")
    obs = verify_theorem("T_OBS1")
    ok = all(r.outcome == "pass" for r in (hen2, hen3, t2, obs))
    _report(
        10,
        ok,
        f"gamma_t/gamma_tR bounds and equivalences on {hen2.instances_checked}"
        " graphs",
        started,
    )


def test_criterion_11_nearly_regular_stable():
    started = time.time()
    k33 = build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    prism = generate(CartesianComplete(2, 3))  # K_2 x K_3, 3-regular on 6
    named_ok = all(
        gamma_tr_value(g) == 4 and is_stable(g) for g in (k33, prism)
    )
    report = verify_theorem("T_N3REG", AllLabeled(7))
    # 3-regular on 6 vertices and 4-regular on 7 vertices, all labellings
    ok = named_ok and report.outcome == "pass" and report.instances_checked == 535
    _report(
        11,
        ok,
        f"(n-3)-regular sweeps stable with value 4 on"
        f" {report.instances_checked} graphs",
        started,
    )


def test_criterion_12_five_critical_structure():
    started = time.time()
    report = verify_theorem("T_5CRIT")
    _report(
        12,
        report.outcome == "pass" and report.instances_checked == 28263,
        "every 5-edge-critical graph at n <= 6 matches the dichotomy",
        started,
    )


def test_criterion_13_roman_dead_pairs():
    started = time.time()
    report = verify_theorem("T_RD_DEADPAIR", AllLabeled(6))
    _report(
        13,
        report.outcome == "pass" and report.instances_checked == 28263,
        "gamma_R unchanged across all non-adjacent Roman-dead pairs",
        started,
    )


def test_hunts_find_nothing_at_order_six():
    started = time.time()
    from trd.verify import hunt_counterexamples

    q1 = hunt_counterexamples("Q1_supercritical", AllLabeled(6))
    q2 = hunt_counterexamples("Q2_dead_in_critical", AllLabeled(6))
    ok = q1.outcome == "pass" and q2.outcome == "pass"
    print(
        f"HUNTS {'PASS' if ok else 'FAIL'}: no counterexamples among"
        f" {q1.instances_checked} graphs ({time.time() - started:.1f}s)"
    )
    assert ok


def test_registry_master_suite():
    # every registered claim passes over its own default universe
    started = time.time()
    from trd.verify import run_registry

    reports = run_registry()
    for report in reports:
        status = "PASS" if report.outcome == "pass" else "FAIL"
        print(
            f"REGISTRY {status}: {report.theorem_id}"
            f" ({report.instances_checked} instances)"
        )
    failed = [r.theorem_id for r in reports if r.outcome != "pass"]
    print(f"registry sweep finished in {time.time() - started:.1f}s")
    assert not failed, failed
    # the reports' bytes, counterexamples and universes included
    payload = json.dumps([r.to_json() for r in reports]).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "e801dcd3d9992aba854a91a53bdccca51c789db05d7ead757ae6da83ec047ee6"
    )
