"""Traced runs: time the calls into each trd module from outside the program.

``install()`` wraps the public functions listed in ``_TARGETS`` under one
metric name each.  The trd modules bind solver functions by name at import
(``trd.verify.gamma_tr_value``, ``trd.criticality.gamma_tr_value``, ...), so
a wrapper replaces every global of every loaded trd module that names the
original function.  Registry checks and hypotheses are held by the theorem
entries themselves and are wrapped there.

Per-call leaves (mask decoding, hypotheses, memo hits) are aggregated into
per-name counters and timers, so memory stays bounded; only the coarse calls
named in ``_SPANS`` are kept as spans (name, start, end, parent).  A span's
or a timer's self time is its duration minus the time its child calls
cover.  Pool workers forked from a traced command inherit the wrappers,
reset the counters after the fork and write their own file when they exit.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing.util as mp_util
import os
import sys
import time

clock = time.perf_counter

_SPANS = frozenset({
    "cli.main", "verify.theorem", "solver.gamma_tr",
    "criticality.edge_delta", "criticality.complete_to_critical",
})
MAX_SPANS = 100_000


class Stat:
    """Counters and timers of one metric name."""

    __slots__ = ("calls", "total", "self_time", "active", "hits", "nodes",
                 "budget_exceeded")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0          # calls, or items for generators
        self.total = 0.0        # inclusive seconds, nested same-name calls once
        self.self_time = 0.0    # seconds minus the time of child calls
        self.active = 0
        self.hits = 0           # per-metric: passes, repeats or nonzero results
        self.nodes = 0
        self.budget_exceeded = 0


class Tracer:
    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.seen_graphs: set = set()
        # frames are [child seconds, id of the innermost open span]
        self.stack: list[list] = [[0.0, 0]]
        self._set_pid()

    def _set_pid(self) -> None:
        self.pid = os.getpid()
        # span ids stay unique across the processes of a run
        self.next_span = self.pid * 1_000_000_000 + 1

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        stat = self.stat(name)
        stack = self.stack
        spans = name in _SPANS

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, self._open_span() if spans else parent[1]]
            stack.append(frame)
            stat.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(self, stat, args, None, exc)
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                if not stat.active:
                    stat.total += dt
                stat.self_time += dt - frame[0]
                parent[0] += dt
                if spans:
                    self._close_span(frame[1], parent[1], name, t0, t1)
            if observe is not None:
                observe(self, stat, args, result, None)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        """Time each step of a generator; ``calls`` counts the items."""
        stat = self.stat(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                    done = False
                except StopIteration:
                    done = True
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stat.total += dt
                    stat.self_time += dt - frame[0]
                    parent[0] += dt
                if done:
                    return
                stat.calls += 1
                yield item

        return wrapper

    def _open_span(self) -> int:
        sid = self.next_span
        self.next_span += 1
        return sid

    def _close_span(self, sid, parent_sid, name, start, end) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent_sid, name, start, end))
        else:
            self.spans_dropped += 1

    # -- processes ---------------------------------------------------------

    def after_fork(self) -> None:
        """In a forked pool worker: count only the worker's own calls."""
        parent_span = self.stack[-1][1]
        for stat in self.stats.values():
            stat.reset()  # in place: the wrappers hold these objects
        self.spans = []
        self.spans_dropped = 0
        self.seen_graphs = set()
        self.stack[:] = [[0.0, parent_span]]
        self._set_pid()
        mp_util.Finalize(self, self.flush, exitpriority=10)

    def flush(self) -> None:
        data = {
            "pid": self.pid,
            "stats": {name: {slot: getattr(s, slot) for slot in Stat.__slots__
                             if slot != "active"}
                      for name, s in self.stats.items()},
            "spans": [dict(zip(("id", "parent", "name", "start", "end"), s),
                           pid=self.pid) for s in self.spans],
            "spans_dropped": self.spans_dropped,
        }
        path = os.path.join(self.out_dir, f"trace-{self.pid}.json")
        with open(path, "w") as f:
            json.dump(data, f)


# -- what is wrapped ---------------------------------------------------------


def _count_truthy(tracer, stat, args, result, exc):
    if result:
        stat.hits += 1


def _count_nonzero(tracer, stat, args, result, exc):
    if exc is None and result != 0:
        stat.hits += 1


def _count_repeat(tracer, stat, args, result, exc):
    """Calls whose labelled graph this process has already asked about."""
    g = args[0]
    key = (g.n, g.adj)
    if key in tracer.seen_graphs:
        stat.hits += 1
    else:
        tracer.seen_graphs.add(key)


def _solve_result(tracer, stat, args, result, exc):
    if exc is None:
        stat.nodes += result.nodes_explored
    elif type(exc).__name__ == "BudgetExceededError":
        stat.budget_exceeded += 1


_TARGETS = (
    # (metric, module, function, observer)
    ("graphs.from_edge_mask", "trd.graphs", "from_edge_mask", None),
    ("graphs.graph6", "trd.graphs", "graph6_encode", None),
    ("graphs.graph6", "trd.graphs", "graph6_decode", None),
    ("verify.theorem", "trd.verify", "verify_theorem", None),
    ("families.hen1_classify", "trd.families", "hen1_classify", None),
    ("families.predict_n_critical", "trd.families", "predict_n_critical", None),
    ("families.is_galaxy", "trd.families", "is_galaxy", None),
    ("families.generate", "trd.families", "generate", None),
    ("solver.gamma_tr_value", "trd.solver", "gamma_tr_value", _count_repeat),
    ("solver.gamma_tr_equals_order", "trd.solver", "gamma_tr_equals_order", None),
    ("solver.has_trd_weight_at_most", "trd.solver", "has_trd_weight_at_most", None),
    ("solver.dead_vertices", "trd.solver", "dead_vertices", None),
    ("solver.enumerate_min_trd", "trd.solver", "enumerate_min_trd", None),
    ("solver.gamma_tr", "trd.solver", "gamma_tr", _solve_result),
    ("solver.classical", "trd.solver", "classical_numbers", None),
    ("solver.classical", "trd.solver", "gamma_value", None),
    ("solver.classical", "trd.solver", "gamma_t_value", None),
    ("solver.classical", "trd.solver", "gamma_r_value", None),
    ("criticality.edge_delta", "trd.criticality", "edge_delta", _count_nonzero),
    ("criticality.complete_to_critical", "trd.criticality",
     "complete_to_critical", None),
    ("cli.main", "trd.cli", "main", None),
)

_GENERATORS = (
    ("verify.enumerate", "trd.verify", "enumerate_instances"),
    ("verify.pool", "trd.verify", "parallel_map"),
)


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every trd module global that names ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "trd" and not mod_name.startswith("trd."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(out_dir: str) -> Tracer:
    """Wrap the trd modules (already imported) and return the tracer."""
    import trd.cli  # noqa: F401  (loads every trd module)
    import trd.verify

    tracer = Tracer(out_dir)
    for name, mod_name, attr, observe in _TARGETS:
        original = getattr(sys.modules[mod_name], attr)
        _replace_everywhere(original, tracer.wrap(name, original, observe))
    for name, mod_name, attr in _GENERATORS:
        original = getattr(sys.modules[mod_name], attr)
        _replace_everywhere(original, tracer.wrap_generator(name, original))

    for tid, entry in list(trd.verify.THEOREMS.items()):
        changes = {"check": tracer.wrap("verify.check", entry.check)}
        if entry.hypothesis is not None:
            changes["hypothesis"] = tracer.wrap(
                "verify.hypothesis", entry.hypothesis, _count_truthy)
        trd.verify.THEOREMS[tid] = dataclasses.replace(entry, **changes)

    mp_util.register_after_fork(tracer, Tracer.after_fork)
    return tracer
