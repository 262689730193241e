"""Benchmark of the ``trd`` command line, standard library only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it uses the package under ``src/`` as is.
Every ``trd`` command and every set-up probe runs in a fresh interpreter
(``perfbench/child.py``), as users run them: the memo starts cold on each
command.  A workload is a fixed command list built from the seed; one
client runs it as a closed loop, each command starting when the previous
one has exited.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats the command list while another pass fits in
``--seconds`` (at least two passes) and reports, with tracing off:

* ``setup_s``: median over set-up probes of the time from interpreter
  start to the first command (import, registry construction, inputs);
* ``scaled_wall_s``, ``scaled_cpu_s``: median over passes of the command
  list's wall time, and of the user+sys time of its processes and their
  pool children;
* ``peak_rss_mb``: largest resident set of any one of those processes;
* ``solved_ratio``: commands that exit 0 over commands attempted.  The
  rest are ``compute`` commands that exhausted ``--budget`` (exit 3), the
  documented answer, which passes the check and is not a failed operation.

Every time above is scaled to one machine speed (``speed.py``): each timed
part, a set-up probe or a span of a command between readings taken every
``child.PERIOD_S`` of its CPU time, is multiplied by ``speed.NOMINAL_S``
over the mean of the reference search's readings just before and just
after it, made in the same process.  The raw seconds are printed on the
line before the result.

``--trace 1`` runs the list once untraced and once traced (``tracer.py``)
and reports the per-module counters and timers of the traced pass, plus
``trace.overhead_ratio``; it ignores ``--seconds``.  The merged spans and
counters are written to ``.perfbench/trace-<workload>-<seed>.json``.

Outputs are checked after timing ends (``workloads.check``); a digest of
every pass's exit codes and stdout, with ``nodes_explored`` removed, is
printed before the result so two commits can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# src/ for the output checks, which run after timing ends
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
MIN_PASSES = 2

# (metric, unit, stat, field); field "ratio" is hits over calls
PER_LAYER = (
    ("graphs.from_edge_mask.calls", "count", "graphs.from_edge_mask", "calls"),
    ("graphs.from_edge_mask.s", "s", "graphs.from_edge_mask", "total"),
    ("graphs.graph6.calls", "count", "graphs.graph6", "calls"),
    ("graphs.graph6.s", "s", "graphs.graph6", "total"),
    ("verify.enumerate.instances", "count", "verify.enumerate", "calls"),
    ("verify.enumerate.s", "s", "verify.enumerate", "self_time"),
    ("verify.hypothesis.calls", "count", "verify.hypothesis", "calls"),
    ("verify.hypothesis.s", "s", "verify.hypothesis", "total"),
    ("verify.hypothesis.pass_ratio", "ratio", "verify.hypothesis", "ratio"),
    ("verify.check.calls", "count", "verify.check", "calls"),
    ("verify.check.s", "s", "verify.check", "total"),
    ("verify.pool.items", "count", "verify.pool", "calls"),
    ("verify.pool.wait_s", "s", "verify.pool", "self_time"),
    ("families.hen1_classify.calls", "count", "families.hen1_classify", "calls"),
    ("families.hen1_classify.s", "s", "families.hen1_classify", "total"),
    ("families.predict_n_critical.s", "s", "families.predict_n_critical", "total"),
    ("families.is_galaxy.s", "s", "families.is_galaxy", "total"),
    ("families.generate.s", "s", "families.generate", "total"),
    ("solver.gamma_tr_value.calls", "count", "solver.gamma_tr_value", "calls"),
    ("solver.gamma_tr_value.s", "s", "solver.gamma_tr_value", "total"),
    ("solver.gamma_tr_value.repeat_ratio", "ratio", "solver.gamma_tr_value", "ratio"),
    ("solver.gamma_tr_equals_order.calls", "count", "solver.gamma_tr_equals_order", "calls"),
    ("solver.gamma_tr_equals_order.s", "s", "solver.gamma_tr_equals_order", "total"),
    ("solver.has_trd_weight_at_most.calls", "count", "solver.has_trd_weight_at_most", "calls"),
    ("solver.has_trd_weight_at_most.s", "s", "solver.has_trd_weight_at_most", "total"),
    ("solver.dead_vertices.s", "s", "solver.dead_vertices", "total"),
    ("solver.enumerate_min_trd.s", "s", "solver.enumerate_min_trd", "total"),
    ("solver.gamma_tr.calls", "count", "solver.gamma_tr", "calls"),
    ("solver.gamma_tr.s", "s", "solver.gamma_tr", "total"),
    ("solver.gamma_tr.nodes", "count", "solver.gamma_tr", "nodes"),
    ("solver.gamma_tr.budget_exceeded", "count", "solver.gamma_tr", "budget_exceeded"),
    ("solver.classical.s", "s", "solver.classical", "total"),
    ("criticality.edge_delta.calls", "count", "criticality.edge_delta", "calls"),
    ("criticality.edge_delta.s", "s", "criticality.edge_delta", "total"),
    ("criticality.edge_delta.nonzero_ratio", "ratio", "criticality.edge_delta", "ratio"),
    ("criticality.complete_to_critical.s", "s", "criticality.complete_to_critical", "total"),
    ("cli.commands", "count", "cli.main", "calls"),
    ("cli.self_s", "s", "cli.main", "self_time"),
)


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    parts: list[list[float]]  # wall s, CPU s, reference s
    rss_kb: int

    def seconds(self, field: int, scaled: bool) -> float:
        """Wall (``field`` 0) or CPU (1) seconds of the timed parts."""
        return sum(part[field] * (speed.NOMINAL_S / part[2] if scaled else 1)
                   for part in self.parts)


@dataclass
class Pass:
    results: list[Result]
    elapsed: float

    def seconds(self, field: int, scaled: bool) -> float:
        return sum(r.seconds(field, scaled) for r in self.results)


def scaled_median(passes: list[Pass], field: int) -> float:
    return statistics.median(p.seconds(field, True) for p in passes)


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def setup_probe(workload: str, seed: int, size: str, tmp: str):
    """The timed part from spawning an interpreter until it could run the
    first command, and the command list it built."""
    stamp = os.path.join(tmp, "setup.json")
    start = time.monotonic()
    subprocess.run(
        [sys.executable, CHILD, "setup", stamp, workload, str(seed), size],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
    )
    with open(stamp) as f:
        data = json.load(f)
    seconds = data["ready"] - start - data["paused"]
    return [seconds, 0.0, data["ref"]], data["commands"]


def run_command(argv: list[str], trace_dir: str | None, tmp: str) -> Result:
    out, err = os.path.join(tmp, "out"), os.path.join(tmp, "err")
    times = os.path.join(tmp, "times.json")
    if os.path.exists(times):
        os.remove(times)
    with open(out, "wb") as fo, open(err, "wb") as fe:
        proc = subprocess.Popen(
            [sys.executable, CHILD, "run", trace_dir or "-", times, "--", *argv],
            cwd=ROOT, stdout=fo, stderr=fe,
        )
        try:
            # wait4 reports the peak memory of the command and of the pool
            # workers it reaped
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    parts = []
    if os.path.exists(times):
        with open(times) as f:
            parts = json.load(f)["parts"]
    return Result(proc.returncode, _read(out), _read(err), parts,
                  usage.ru_maxrss)


def run_pass(commands: list[dict], trace_dir: str | None, tmp: str) -> Pass:
    start = time.monotonic()
    results = [run_command(c["argv"], trace_dir, tmp) for c in commands]
    return Pass(results, time.monotonic() - start)


def merge_traces(trace_dir: str) -> dict:
    stats: dict[str, dict] = {}
    spans: list[dict] = []
    processes = 0
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as f:
            data = json.load(f)
        processes += 1
        spans.extend(data["spans"])
        for stat, fields in data["stats"].items():
            into = stats.setdefault(stat, dict.fromkeys(fields, 0))
            for key, value in fields.items():
                into[key] += value
    spans.sort(key=lambda s: s["start"])
    return {"processes": processes, "stats": stats, "spans": spans}


def layer_metrics(stats: dict) -> dict:
    metrics = {}
    for name, unit, stat, field in PER_LAYER:
        fields = stats.get(stat, {})
        if field == "ratio":
            calls = fields.get("calls", 0)
            value = fields.get("hits", 0) / calls if calls else 0.0
        else:
            value = fields.get(field, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs on the same code paths (smoke test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "trd", "cli.py")):
        print(f"perfbench: no trd sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, tmp: str) -> int:
    # the first probe also writes the bytecode caches; it is not timed
    _, commands = setup_probe(args.workload, args.seed, args.size, tmp)
    setups = []
    inputs_repeat = True
    for _ in range(SETUP_PROBES):
        part, again = setup_probe(args.workload, args.seed, args.size, tmp)
        setups.append(part[0] * speed.NOMINAL_S / part[2])
        inputs_repeat &= again == commands

    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(tmp, "trace")
        os.mkdir(trace_dir)
        passes = [run_pass(commands, None, tmp), run_pass(commands, trace_dir, tmp)]
    else:
        passes = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(commands, None, tmp))
            typical = statistics.median(p.elapsed for p in passes)
            if len(passes) >= MIN_PASSES and \
                    time.monotonic() - start + typical > args.seconds:
                break

    # checks, outside the timed region
    attempted = failed = solved = 0
    digests = set()
    for p in passes:
        digest = hashlib.sha256()
        for command, r in zip(commands, p.results):
            attempted += 1
            solved += r.code == 0
            why = workloads.check(command, r.code, r.stdout, r.stderr)
            if why is not None:
                failed += 1
                print(f"perfbench: check failed: {why}", file=sys.stderr)
            digest.update(f"{r.code}\n{workloads.digest_text(r.stdout)}".encode())
        digests.add(digest.hexdigest())
    if len(digests) != 1:
        print("perfbench: passes gave different outputs", file=sys.stderr)
    if not inputs_repeat:
        print("perfbench: set-up probes built different inputs", file=sys.stderr)
    correct = failed == 0 and len(digests) == 1 and inputs_repeat
    print(f"perfbench: {args.workload} seed={args.seed} passes={len(passes)}"
          f" commands={len(commands)} output-sha256={min(digests)}"
          f" raw-wall-s={[round(p.seconds(0, False), 3) for p in passes]}"
          f" raw-cpu-s={[round(p.seconds(1, False), 3) for p in passes]}"
          f" scaled-wall-s={[round(p.seconds(0, True), 3) for p in passes]}")

    if args.trace:
        base, traced = passes
        trace = merge_traces(trace_dir)
        metrics = layer_metrics(trace["stats"])
        metrics["trace.overhead_ratio"] = _metric(
            traced.seconds(0, True) / base.seconds(0, True), "ratio")
        gaps = []
        if trace["stats"].get("verify.pool", {}).get("calls") and \
                trace["processes"] <= len(commands):
            gaps.append("pool workers wrote no trace: worker-side counts missing")
        for gap in gaps:
            print(f"perfbench: trace gap: {gap}", file=sys.stderr)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "gaps": gaps, **trace}, f)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "scaled_wall_s": _metric(scaled_median(passes, 0), "s"),
            "scaled_cpu_s": _metric(scaled_median(passes, 1), "s"),
            "peak_rss_mb": _metric(
                max(r.rss_kb for p in passes for r in p.results) / 1024, "MB"),
            "solved_ratio": _metric(solved / attempted, "ratio"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
