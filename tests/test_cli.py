"""CLI behaviour: payload shapes, exit codes, determinism, formats."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trd.cli
import trd.families
import trd.graphs
from trd.cli import _COMMANDS, _parse, main
from trd.graphs import graph6_decode
from trd.solver import reset_caches


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line, exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _gnp_spec(text: str) -> tuple[int, int, float]:
    parts = text.split(",")
    try:
        if len(parts) != 3:
            raise ValueError
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"wants COUNT,N,P (integer, integer, number), got {text!r}"
        ) from None


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph6", help="short-form graph6 string")
    group.add_argument("--edges", help="edge-list file ('n m' header)")
    group.add_argument("--family", help="family descriptor, e.g. spider(2,2,4)")


def _add_universe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--all-labeled", type=int, metavar="N",
                   help="all labelled graphs of order up to N (N <= 7)")
    p.add_argument("--connected", action="store_true",
                   help="restrict --all-labeled to connected graphs")
    p.add_argument("--allow-isolated", action="store_true",
                   help="keep graphs with isolated vertices in --all-labeled")
    p.add_argument("--random", type=_gnp_spec, metavar="COUNT,N,P",
                   help="seeded G(n,p) samples")
    p.add_argument("--family", action="append", metavar="SPEC",
                   help="family universe member (repeatable)")


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI once used, one subparser per command,
    which the table-driven parser must read alike."""
    parser = _Parser(
        prog="trd",
        description="total Roman domination workbench",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for --random universes (default 0)")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for verify/hunt instances"
                             " (profile runs serially)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariants of one graph")
    _add_input_flags(p)
    p.add_argument("--budget", type=int, help="solver node budget")

    p = sub.add_parser("profile", help="per-non-edge gamma_tR deltas")
    _add_input_flags(p)

    p = sub.add_parser("classify", help="criticality classification")
    _add_input_flags(p)

    p = sub.add_parser("generate", help="emit a family member as graph6")
    p.add_argument("--family", required=True)
    p.add_argument("--dot", action="store_true", help="also emit DOT")

    p = sub.add_parser("recognize", help="structural recognition report")
    _add_input_flags(p)

    p = sub.add_parser("verify", help="machine-check registered theorems")
    p.add_argument("theorem", nargs="?", metavar="THEOREM_ID",
                   help="registry id; omit to run the whole registry")
    _add_universe_flags(p)

    p = sub.add_parser("hunt", help="search for open-question counterexamples")
    p.add_argument("question", choices=("Q1", "Q2", "Q1_supercritical",
                                        "Q2_dead_in_critical"))
    _add_universe_flags(p)

    p = sub.add_parser("complete-critical",
                       help="grow a graph to an edge-critical supergraph")
    _add_input_flags(p)
    p.add_argument("--dot", action="store_true", help="also emit DOT")
    return parser


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


W3_N22 = "U_?OP??_GA?CA?OC?a?G_?G?C?_@_h????o??Mc?"

# sha256 of the stdout of profile deltas, compute outputs (nodes_explored
# included) and criticality commands, each run from cold caches as a fresh
# process would
PINNED = [
    (["profile", "--family", "cor(K5)"],
     "db11a9716e67e07e6dacca32a0130a338a70f4a5b0c1e999aaaeca17a9e480fa"),
    (["profile", "--family", "spider(1,2,2,3,4,5)"],
     "b5bba4061c89282c6fc0e62c5d4dc26615ec2a84ebfe2ec8c589a8f00c9c2d4e"),
    (["profile", "--graph6", "MCDC[`u_CVhdg?FA?"],
     "f52204b875f280cf61a2512b721f393f6cac73e8daf3988f05a220c01f842047"),
    (["profile", "--graph6", "M@_?@@GKICK_GK@??"],
     "1bd877eb256102c677add550788980ab17602ad5bd0da9274585ee8656bc555a"),
    (["profile", "--graph6", "M?o_Co@?a_@sI?m??"],
     "af9578ad308ce62fab4b31b5c0aed150461d02db42728eb8918f0a90ba1938c3"),
    (["profile", "--family", "cor(cycle(12))"],
     "7ced1eb59177692b5bf14e2dae564b226045d098ee3a32630ae622ddb3e129e8"),
    (["profile", "--family", "path(24)"],
     "8456bc7ca7ee524806e2e1bb24f2e677924ec00f3f9b507d15ae0bd29a295cda"),
    (["profile", "--family", "union(cycle(10),path(4),K3)"],
     "4344a329bec941e5dff1ac96951d15455cafd874974bec55979b824087e22b57"),
    (["profile", "--family", "union(cycle(12),K4)"],
     "ce39fc62fd8b292e5c3879f5cb4dfc78fad00893524f3b757f613af314dab086"),
    (["profile", "--family", "D(6)"],
     "91aabacccdfca10733bec372dec7a8170a4dfd6efeca22684a97823f110a22cc"),
    (["profile", "--family", "union(KxK(3,4),cycle(12))"],
     "050688a039b864138fba5c1724b6a553e1b5ff5a55bb10d99afb8429fd1dc5d8"),
    (["profile", "--graph6", W3_N22],
     "8cc8750d319e38b969b65f530a3f930e07446601d92d8bf6cd936f0c434cb3be"),
    (["compute", "--family", "union(K3,path(11))"],
     "019dec287c6e3d422b989c8b1fbf5346e5398dd4280673a07a61daab055870e2"),
    (["compute", "--family", "cor(K5)"],
     "27796c59faba64d178629b9fa424f3439b4e5bd105cb79fe03bf4dfb6e2afd84"),
    (["compute", "--family", "D(6)"],
     "030ed63ed368692d0a3263e6b551d99e5feba0e9e2ebc2ce198b35794395aaef"),
    (["compute", "--family", "cycle(24)"],
     "8391011e2f5d3905abd9f8299d43d3cd788b2759ff28ab98382d35ec3ce8359e"),
    (["compute", "--family", "cor(cycle(12))"],
     "34d4a5d835f28ce6ea0ef6ebe08e85f2df965114b3a54780f11d3c7900bf32c8"),
    (["compute", "--family", "cor(K12)"],
     "8732ac3b8ce82de9c26ad2bff7d947c6d8d425488fa2e9dbd3f0d0a4e5069a6a"),
    (["compute", "--family", "union(cycle(10),path(4),K3)"],
     "1e82db1bc90c5b9ffa25d7c1d502554850c75caab13db6b2b7a72d8be54d99aa"),
    (["compute", "--family", "union(cycle(12),K4)"],
     "9bcfcf0bc6e8ce077e2ee308cd81e2f0b528e5184d28cbf3dd7de6e3d5a896ad"),
    (["compute", "--family", "cor(cycle(7))"],
     "33df0b2eabff5ba4ae2313d585507cf0a04c42914750216cf3b8be28f507f981"),
    (["compute", "--family", "spider(1,2,2,3,4,5)"],
     "cbacf4b7082800c27df3a63bda7691fa0f0bc6e9dd8b0d9d3e99fe29921659c4"),
    (["compute", "--graph6", W3_N22],
     "c3337b171f9b74ff9c3d271aab254306ea4ce3a6100fbe17a4c88f3235367c71"),
    # the DP's case tables on each grown graph
    (["complete-critical", "--family", "spider(1,2,2,3,4,5)"],
     "2f90c48c85ed19012d09a28e68d0432afef96440bf107002f3d6ceaee5d9d8c5"),
    # pairs across components
    (["complete-critical", "--family", "union(cycle(10),path(4),K3)"],
     "b2bf8a7a65cc0e30c5f7b2cc2206caaf640efc5df20ece821ff58c7f93507d0d"),
    (["complete-critical", "--family", "D(4)"],
     "2ecfd33bd80c90107b7f2d1a836a6973e106a4c657e93b533572d90c385e0990"),
    (["complete-critical", "--family", "cor(path(6))"],
     "e33a0cc7678542a6f5d3ffa3432459fb36b69d3d852f6df577ec6967e998faa6"),
    (["classify", "--family", "union(KxK(3,4),cycle(12))"],
     "926817574b2a69b59e6dc72d77009054120c11b4b5b4a41d3306047cc4c455be"),
]


@pytest.mark.parametrize("argv, digest", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_pinned_output(capsys, argv, digest):
    reset_caches()
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_edge_file_is_input_error(self, capsys):
        # read up to the byte bound and refused, never read to its end
        code, out, err = run(capsys, "compute", "--edges", "/dev/zero")
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("data", [
        b"\xff3 1\n0 1\n",
        b"2 1\n0 1\n".ljust(trd.graphs.EDGE_LIST_MAX_BYTES + 1, b" "),
    ], ids=["not-ascii", "one-byte-too-long"])
    def test_refused_edge_file(self, capsys, tmp_path, data):
        f = tmp_path / "g.txt"
        f.write_bytes(data)
        code, out, err = run(capsys, "compute", "--edges", str(f))
        assert (code, out) == (3, "")
        assert err == ("error: an edge-list file is ASCII text of at most"
                       f" {trd.graphs.EDGE_LIST_MAX_BYTES} bytes\n")

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

    def test_profile_corona_of_cycle_12(self, capsys):
        # order 24; the digest is the one CI pins
        code, out, _ = run(capsys, "profile", "--family", "cor(cycle(12))")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7ced1eb59177692b5bf14e2dae564b226045d098ee3a32630ae622ddb3e129e8")

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

    def test_all_labeled_above_the_cap_is_input_error(self, capsys):
        code, out, err = run(capsys, "verify", "T_TR3", "--all-labeled", "8")
        assert (code, out) == (3, "")
        assert err == "error: all-labelled enumeration is capped at n <= 7\n"

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


# documented error paths, each run as the entry point: the exit code, no
# stdout, and one stderr line, where an escaping exception would print its
# traceback
ERROR_PATHS = [
    (["compute", "--family", "cycle(40)"], 3),
    (["profile", "--family", "path(30)"], 3),
    (["classify", "--family", "K1"], 3),
    (["complete-critical", "--family", "K3"], 3),
    (["recognize", "--family", "cycle(63)"], 3),
    (["generate", "--family", "union()"], 3),
    (["compute", "--graph6", "@"], 3),
    (["profile", "--graph6", "B?"], 3),
    (["verify", "T_SPIDER_FORMULA", "--random", "2,5,0.5"], 3),
    (["hunt", "Q1", "--all-labeled", "8"], 3),
    (["verify", "T_MYN1", "--family", "path(26)"], 3),  # the gamma_t cap
    (["verify", "T_RD_DEADPAIR", "--family", "path(30)"], 3),  # the gamma_R cap
    (["compute", "--budget", "0", "--family", "K3"], 2),
]


@pytest.mark.parametrize("argv, code", ERROR_PATHS,
                         ids=[" ".join(a) for a, _ in ERROR_PATHS])
def test_error_path_exits_with_one_line(argv, code):
    env = dict(os.environ, PYTHONPATH=str(Path(trd.cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "trd.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr


# --- the table-driven parse against the argparse reference -----------------

VALID_ARGV = [
    ["compute", "--graph6", "Bg"],
    ["compute", "--edges", "g.txt", "--budget", "500"],
    ["compute", "--graph6=Bg", "--budget=7"],
    ["--format=tsv", "compute", "--family=spider(1,1,3)"],
    ["--form", "tsv", "profile", "--graph6", "DhC"],
    ["--jobs", "2", "profile", "--family", "path(5)"],
    ["classify", "--edges", "g.txt"],
    ["generate", "--family", "D(3)", "--dot"],
    ["generate", "--family=K3"],
    ["recognize", "--family", "cor(K3)"],
    ["verify"],
    ["--jobs", "2", "verify"],
    ["verify", "T_4CRIT", "--all-labeled", "6", "--connected"],
    ["verify", "--all-labeled=4", "--allow-isolated", "T_TR3"],
    ["verify", "T_SPIDER_FORMULA", "--family", "spider(2,2,2)",
     "--family", "spider(1,1,3)"],
    ["verify", "T_KNKM", "--fam", "K3"],
    ["--seed", "-3", "verify", "T_TR3", "--random", "3,5,0.5"],
    ["--seed=7", "--jobs=2", "hunt", "Q1", "--random", "5,6,0.5"],
    ["hunt", "Q2_dead_in_critical", "--family", "cor(K4)"],
    ["complete-critical", "--graph6", "Bg", "--dot"],
]


@pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
def test_parse_matches_reference(argv):
    assert vars(_parse(argv)) == vars(reference_parser().parse_args(argv))


def test_parse_table_covers_every_command():
    named = {next(a for a in argv if a in _COMMANDS) for argv in VALID_ARGV}
    assert named == set(_COMMANDS)


USAGE_ERRORS = [
    [],
    ["bogus"],
    ["--jobs", "2"],
    ["compute", "--graph6", "Bg", "--format", "tsv"],
    ["verify", "T_KNKM", "--jobs", "2"],
    ["compute", "--graph6", "Bg", "--family", "K3"],
    ["profile"],
    ["generate", "--dot"],
    ["compute", "--graph6", "Bg", "--budget", "many"],
    ["--jobs", "0", "verify"],
    ["--jobs=two", "verify"],
    ["verify", "T_TR3", "--random", "3,5"],
    ["hunt", "Q3"],
    ["verify", "--al", "4"],
    ["generate", "--family", "K3", "--dot=1"],
    ["compute", "--graph6"],
    ["verify", "T_TR3", "-x"],
    ["--", "compute", "--graph6", "Bg"],
    ["compute", "--", "--graph6", "Bg"],
]


@pytest.mark.parametrize("parse", [_parse, reference_parser().parse_args],
                         ids=["two-phase", "reference"])
@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda a: " ".join(a) or "-")
def test_usage_errors_match_reference(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in captured.err


# argparse's wording, which the table-driven parser keeps, and the errors
# that argparse never raised
USAGE_WORDING = [
    (["verify", "--al", "4"], "trd verify: error: ambiguous option: --al could"
                              " match --all-labeled, --allow-isolated"),
    (["generate", "--family", "K3", "--dot=1"],
     "trd generate: error: argument --dot: ignored explicit argument '1'"),
    (["compute", "--graph6"],
     "trd compute: error: argument --graph6: expected one argument"),
    (["compute", "--graph6", "Bg", "--family", "K3"], "trd compute: error:"
     " argument --family: not allowed with argument --graph6"),
    (["profile"], "trd profile: error: one of the arguments --graph6 --edges"
                  " --family is required"),
    (["--format", "xml", "verify"], "trd: error: argument --format: invalid"
                                    " choice: 'xml' (choose from 'json', 'tsv')"),
    (["verify", "A", "B", "-x", "C"],
     "trd verify: error: unrecognized arguments: B -x C"),
    (["verify", "T_TR3", "--random", "3,5,2.0"], "trd verify: error: argument --random:"
     " wants COUNT,N,P (integer, integer, probability in [0, 1]), got '3,5,2.0'"),
    (["hunt", "Q1", "--all-labeled", "3", "--random", "2,5,0.5"], "trd hunt:"
     " error: argument --random: not allowed with argument --all-labeled"),
    (["verify", "T_TR3", "--family", "K3", "--all-labeled", "3"], "trd verify:"
     " error: argument --all-labeled: not allowed with argument --family"),
    (["verify", "T_TR3", "--all-labeled", "0"],
     "trd verify: error: argument --all-labeled: must be at least 1, got 0"),
    (["compute", "--family", "K3", "--budget", "-5"],
     "trd compute: error: argument --budget: must be at least 1, got -5"),
    (["compute", "--family", "K3", "--budget", "0"],
     "trd compute: error: argument --budget: must be at least 1, got 0"),
    (["verify", "T_TR3", "--random=3,-2,0.5"], "trd verify: error: argument"
     " --random: COUNT and N must be at least 1, got '3,-2,0.5'"),
    (["verify", "T_TR3", "--random=-3,5,0.5"], "trd verify: error: argument"
     " --random: COUNT and N must be at least 1, got '-3,5,0.5'"),
    (["hunt", "Q2", "--random", "3,0,0.5"], "trd hunt: error: argument"
     " --random: COUNT and N must be at least 1, got '3,0,0.5'"),
    (["verify", "T_TR3", "--random", "1,1000,0.5"], "trd verify: error:"
     " argument --random: N must be at most 62, got '1,1000,0.5'"),
    (["verify", "--all-labeled", "3"], "trd verify: error: argument"
     " --all-labeled: not allowed without a theorem id"),
    (["verify", "--random", "2,5,0.5"], "trd verify: error: argument"
     " --random: not allowed without a theorem id"),
    (["verify", "T_TR3", "--connected"], "trd verify: error: argument"
     " --connected: not allowed without argument --all-labeled"),
    (["hunt", "Q1", "--allow-isolated"], "trd hunt: error: argument"
     " --allow-isolated: not allowed without argument --all-labeled"),
]


@pytest.mark.parametrize("argv, err", USAGE_WORDING,
                         ids=[" ".join(argv) for argv, _ in USAGE_WORDING])
def test_usage_error_wording(capsys, argv, err):
    with pytest.raises(SystemExit) as exc:
        _parse(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == err + "\n"


def test_bare_trd_names_the_missing_command(capsys):
    with pytest.raises(SystemExit):
        main([])
    assert capsys.readouterr().err == (
        "trd: error: the following arguments are required: command\n")


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for name, row in _COMMANDS.items():
        assert f"  {name} " in out and row[-1] in out
    for flag in ("--format", "--seed", "--jobs"):
        assert flag in out


def test_command_help_lists_its_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith("usage: trd compute ")
    for flag in ("--graph6", "--edges", "--family", "--budget"):
        assert flag in out


def test_only_the_command_parser_is_built(monkeypatch):
    # the flag tables are the only parser: a parse builds no argparse one
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    args = _parse(["--format", "tsv", "verify", "T_KNKM"])
    assert (args.command, args.format) == ("verify", "tsv")
    assert built == []


def test_import_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(1)\n"
        "import trd.cli\n"
        "print(len(built))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(trd.cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0\n"


def test_main_imports_no_argparse():
    # a command pays for no argparse, and so for no gettext or locale
    script = (
        "import sys\n"
        "import trd.cli\n"
        "trd.cli.main(['compute', '--graph6', 'Bg'])\n"
        "print([m for m in ('argparse', 'gettext', 'locale')"
        " if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(trd.cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
