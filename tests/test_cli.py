"""CLI behaviour: payload shapes, exit codes, determinism, formats."""

import json
from pathlib import Path

import pytest

import trd.families
import trd.graphs
from trd.cli import main
from trd.graphs import graph6_decode


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text()
)


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN]
)
def test_golden_transcript(capsys, case):
    """The README examples (all but the bare ``trd verify``, whose JSON
    sha256 the registry acceptance test pins) print exactly their recorded
    stdout and exit code, in JSON and in TSV."""
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


class TestCompute:
    def test_spider(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "spider(1,1,3)")
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma_tR"] == 5
        assert sum(payload["witness"]) == 5
        assert payload["n"] == 6

    def test_graph6_input(self, capsys):
        code, out, _ = run(capsys, "compute", "--graph6", "Cs")  # K_{1,3}
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma_tR"] == 3

    def test_edges_file(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run(capsys, "compute", "--edges", str(f))
        assert code == 0
        assert json.loads(out)["gamma_tR"] == 4

    def test_isolated_vertex_is_input_error(self, capsys):
        code, _, err = run(capsys, "compute", "--graph6", "B?")
        assert code == 3
        assert "error" in err

    def test_malformed_graph6(self, capsys):
        code, _, err = run(capsys, "compute", "--graph6", "@@@")
        assert code == 3

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "path(12)",
                           "--budget", "3")
        assert code == 3
        assert "budget" in err

    def test_order_24_cycle_within_budget(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "cycle(24)",
                           "--budget", "600000")
        assert code == 0
        assert json.loads(out)["gamma_tR"] == 24

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "compute", "--edges", str(tmp_path / "no"))
        assert code == 3

    def test_oversized_edge_list_header(self, capsys, tmp_path, monkeypatch):
        def refuse(n, edges):
            raise AssertionError(f"build_graph called with n={n}")

        monkeypatch.setattr(trd.graphs, "build_graph", refuse)
        f = tmp_path / "huge.txt"
        f.write_text("1000000000 0\n")
        code, out, err = run(capsys, "compute", "--edges", str(f))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestClassifyAndProfile:
    def test_k2_complete(self, capsys):
        code, out, _ = run(capsys, "classify", "--graph6", "A_")
        assert code == 0
        assert json.loads(out)["classification"] == "complete"

    def test_profile_p5(self, capsys):
        code, out, _ = run(capsys, "profile", "--family", "path(5)")
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "mixed"
        deltas = {(d["u"], d["v"]): d["delta"] for d in payload["deltas"]}
        assert deltas[(0, 4)] == 0 and deltas[(0, 2)] == 1

    def test_profile_jobs_independent(self, capsys):
        _, serial, _ = run(capsys, "profile", "--family", "path(5)")
        _, parallel, _ = run(capsys, "--jobs", "2", "profile",
                             "--family", "path(5)")
        assert serial == parallel


class TestGenerate:
    def test_cycle(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "cycle(5)")
        assert code == 0
        payload = json.loads(out)
        g = graph6_decode(payload["graph6"])
        assert g.n == 5 and all(d == 2 for d in g.degrees)

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "K3", "--dot")
        assert code == 0
        payload = json.loads(out)
        assert payload["dot"].startswith("graph G {")
        assert "0 -- 1;" in payload["dot"]

    def test_invalid_family(self, capsys):
        code, _, _ = run(capsys, "generate", "--family", "wat(3)")
        assert code == 3

    @pytest.mark.parametrize(
        "family",
        [
            "KxK(1000,1000)",
            "complete(100000)",
            "spider(1000000000,1)",
            "Gd(100000)",
            "D(1000000000)",
            "galaxy(1000000000,1)",
            "cor(" * 6 + "K2" + ")" * 6,
        ],
    )
    def test_oversized_family_is_refused_before_building(
        self, capsys, monkeypatch, family
    ):
        def refuse(n, edges):
            raise AssertionError(f"build_graph called with n={n}")

        monkeypatch.setattr(trd.families, "build_graph", refuse)
        monkeypatch.setattr(trd.graphs, "build_graph", refuse)
        code, out, err = run(capsys, "generate", "--family", family)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeds 62" in err

    def test_deep_nesting_is_input_error(self, capsys):
        family = "union(" * 1200 + "K2" + ")" * 1200
        code, out, err = run(capsys, "generate", "--family", family)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRecognize:
    def test_corona(self, capsys):
        code, out, _ = run(capsys, "recognize", "--family", "cor(K3)")
        assert code == 0
        payload = json.loads(out)
        assert payload["hen1_class"] == "corona"
        assert payload["predicts_n_critical"] is True

    def test_galaxy_complement(self, capsys):
        code, out, _ = run(capsys, "recognize", "--family", "galaxy(1,1)")
        assert code == 0
        assert json.loads(out)["is_galaxy"] is True


class TestVerifyCommand:
    def test_single_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "T_KNKM")
        assert code == 0
        assert json.loads(out)["outcome"] == "pass"

    def test_universe_override(self, capsys):
        code, out, _ = run(capsys, "verify", "T_TR3", "--all-labeled", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["universe"]["max_n"] == 4

    def test_unknown_theorem_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "T_NOPE")
        assert code == 2

    def test_family_universe(self, capsys):
        code, out, _ = run(capsys, "verify", "T_SPIDER_FORMULA",
                           "--family", "spider(2,2,2)",
                           "--family", "spider(1,1,3)")
        assert code == 0
        assert json.loads(out)["instances_checked"] == 2

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "T_DN")
        _, out2, _ = run(capsys, "verify", "T_DN")
        assert out1 == out2

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "--format", "tsv", "verify", "T_KNKM")
        assert code == 0
        assert out.strip() == "T_KNKM\t6\tpass\t0"


class TestArgumentTypes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "T_TR3", "--random", "x,5,0.5"],
            ["verify", "T_TR3", "--random", "3,5"],
            ["hunt", "Q1", "--random", "3,5,half"],
            ["--jobs", "0", "verify", "T_KNKM"],
            ["--jobs", "-2", "verify", "T_KNKM"],
            ["--jobs", "two", "verify", "T_KNKM"],
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "error" in captured.err


class TestHuntCommand:
    def test_q1_alias(self, capsys):
        code, out, _ = run(capsys, "hunt", "Q1", "--family", "union(K3,K4)")
        assert code == 0
        payload = json.loads(out)
        assert payload["theorem_id"] == "Q1_supercritical"
        assert payload["outcome"] == "pass"

    def test_counterexample_exits_one(self, capsys):
        argv = ["hunt", "Q1", "--family", "cor(K4)", "--family", "cor(K5)"]
        code1, out1, _ = run(capsys, "--jobs", "1", *argv)
        code2, out2, _ = run(capsys, "--jobs", "2", *argv)
        assert (code1, code2) == (1, 1)
        assert out1 == out2
        assert json.loads(out1)["outcome"] == "fail"

    def test_random_universe_seeded(self, capsys):
        _, out1, _ = run(capsys, "--seed", "7", "hunt", "Q1",
                         "--random", "5,6,0.5")
        _, out2, _ = run(capsys, "--seed", "7", "hunt", "Q1",
                         "--random", "5,6,0.5")
        assert out1 == out2


class TestCompleteCritical:
    def test_p4(self, capsys):
        code, out, _ = run(capsys, "complete-critical", "--family", "path(4)")
        assert code == 0
        payload = json.loads(out)
        assert payload["added_edges"] == [[0, 3]]
        assert payload["gamma_tR"] == 4
        assert payload["classification"] in ("edge-critical", "supercritical")

    def test_value_too_small(self, capsys):
        code, _, _ = run(capsys, "complete-critical", "--graph6", "Bw")  # K_3
        assert code == 3
