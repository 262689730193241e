"""Smoke test of the benchmark: every workload at tiny size, same code paths.

    python3 perfbench/smoke.py

Checks that each run prints every metric that BENCHMARK.json names, with
its unit; that the output checks pass; that two traced runs at one seed
give identical deterministic counts; and that the benchmark fails without
printing a result when the checkout holds no trd sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run(workload: str, trace: int, seed: int = 3, root: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def assert_metrics(self, res: dict, declared: list[dict]) -> None:
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(res["metrics"]), set(units))
        for name, metric in res["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result(workload, 0)
                self.assert_metrics(res, SPEC["end_to_end"])
                for name, metric in res["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_repeat_their_counts(self):
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = result(workload, 1), result(workload, 1)
                self.assert_metrics(first, SPEC["per_layer"])
                self.assert_metrics(second, SPEC["per_layer"])
                self.assertGreater(first["metrics"]["cli.commands"]["value"], 0)
                for name in counts:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_fails_without_sources(self):
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(WORKLOADS[0], 0, root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
