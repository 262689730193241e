"""Command-line front end.

Every command is one row of ``_COMMANDS``: its handler, the function that
adds its flags, and its help line.  ``main`` parses in two phases.  A small
top-level parser reads the global options (``--format``, ``--seed``,
``--jobs``) and the command name, and keeps the rest of the line; then only
that command's parser is built, and it parses the rest into the same
namespace.  Nothing is built at import.

Exit codes: 0 success or pass, 1 verification failure or counterexample
found, 2 usage error (including unknown theorem/question identifiers),
3 input or solver error (malformed graph6, isolated vertices, exceeded
node budget, invalid family syntax).  Data goes to stdout as JSON (or
TSV with ``--format tsv``); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import families as fam
from .criticality import complete_to_critical, edge_profile
from .errors import TrdError, UnknownQuestionError, UnknownTheoremError
from .graphs import (
    Graph,
    complement,
    graph6_decode,
    graph6_encode,
    metrics,
    parse_edge_list,
)
from .solver import classical_numbers, gamma_tr
from .verify import (
    AllLabeled,
    Families,
    InstanceUniverse,
    RandomGnp,
    VerificationReport,
    hunt_counterexamples,
    run_registry,
    verify_theorem,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3


def _to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines)


def _load_graph(args) -> Graph:
    if args.graph6 is not None:
        return graph6_decode(args.graph6)
    if args.edges is not None:
        return parse_edge_list(Path(args.edges).read_text())
    return fam.generate(fam.parse_family(args.family))


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
        return
    # TSV: reports become one row each, plain objects become key/value rows
    rows = payload if isinstance(payload, list) else [payload]
    for row in rows:
        if "theorem_id" in row:
            print(
                f"{row['theorem_id']}\t{row['instances_checked']}"
                f"\t{row['outcome']}\t{len(row['counterexamples'])}"
            )
        else:
            for key, value in row.items():
                print(f"{key}\t{json.dumps(value)}")


def _universe_from_args(args) -> InstanceUniverse | None:
    if args.all_labeled is not None:
        return AllLabeled(
            args.all_labeled,
            connected_only=args.connected,
            no_isolated=not args.allow_isolated,
        )
    if args.random is not None:
        return RandomGnp(*args.random, args.seed)
    if args.family:
        return Families(tuple(fam.parse_family(t) for t in args.family))
    return None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line, exit 2."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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


def _compute_flags(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    p.add_argument("--budget", type=int, help="solver node budget")


def _generate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True)
    p.add_argument("--dot", action="store_true", help="also emit DOT")


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("theorem", nargs="?", metavar="THEOREM_ID",
                   help="registry id; omit to run the whole registry")
    _add_universe_flags(p)


def _hunt_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("question", choices=("Q1", "Q2", "Q1_supercritical",
                                        "Q2_dead_in_critical"))
    _add_universe_flags(p)


def _complete_critical_flags(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    p.add_argument("--dot", action="store_true", help="also emit DOT")


def _cmd_compute(args) -> int:
    g = _load_graph(args)
    result = gamma_tr(g, node_budget=args.budget)
    gamma, gamma_t, gamma_r = classical_numbers(g)
    _emit(
        {
            "graph6": graph6_encode(g),
            "n": g.n,
            "gamma": gamma,
            "gamma_t": gamma_t,
            "gamma_R": gamma_r,
            "gamma_tR": result.value,
            "witness": list(result.witness.values),
            "nodes_explored": result.nodes_explored,
        },
        args.format,
    )
    return EXIT_OK


def _cmd_profile(args) -> int:
    g = _load_graph(args)
    profile = edge_profile(g)
    _emit(
        {
            "graph6": graph6_encode(g),
            "base_value": profile.base_value,
            "classification": profile.classification,
            "deltas": [
                {"u": u, "v": v, "delta": d} for (u, v), d in profile.deltas.items()
            ],
        },
        args.format,
    )
    return EXIT_OK


def _cmd_classify(args) -> int:
    g = _load_graph(args)
    profile = edge_profile(g)
    _emit(
        {
            "graph6": graph6_encode(g),
            "base_value": profile.base_value,
            "classification": profile.classification,
        },
        args.format,
    )
    return EXIT_OK


def _cmd_generate(args) -> int:
    spec = fam.parse_family(args.family)
    g = fam.generate(spec)
    payload = {
        "family": fam.family_to_text(spec),
        "graph6": graph6_encode(g),
        "n": g.n,
        "edges": g.edge_count,
    }
    if args.dot:
        payload["dot"] = _to_dot(g)
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_recognize(args) -> int:
    g = _load_graph(args)
    info = metrics(g)
    connected = info.connected
    hen1 = None
    if connected and g.n >= 2:
        hen1 = fam.hen1_classify(g)
    predicts = None
    if connected and g.n >= 4:
        predicts = fam.predict_n_critical(g)
    _emit(
        {
            "graph6": graph6_encode(g),
            "n": g.n,
            "connected": connected,
            "hen1_class": hen1.kind if hen1 else None,
            "hen1_r": hen1.r if hen1 else None,
            "is_galaxy": fam.is_galaxy(g),
            "complement_is_galaxy": fam.is_galaxy(complement(g)),
            "predicts_n_critical": predicts,
            "universal_vertex": info.universal_vertex,
            "diameter": info.diameter,
        },
        args.format,
    )
    return EXIT_OK


def _report_exit(reports: list[VerificationReport]) -> int:
    return EXIT_OK if all(r.outcome == "pass" for r in reports) else EXIT_FAIL


def _cmd_verify(args) -> int:
    universe = _universe_from_args(args)
    if args.theorem is None:
        reports = run_registry(jobs=args.jobs)
    else:
        reports = [verify_theorem(args.theorem, universe, jobs=args.jobs)]
    payload = [r.to_json() for r in reports]
    _emit(payload if args.theorem is None else payload[0], args.format)
    return _report_exit(reports)


def _cmd_hunt(args) -> int:
    question = {
        "Q1": "Q1_supercritical",
        "Q2": "Q2_dead_in_critical",
    }.get(args.question, args.question)
    report = hunt_counterexamples(question, _universe_from_args(args),
                                  jobs=args.jobs)
    _emit(report.to_json(), args.format)
    return _report_exit([report])


def _cmd_complete_critical(args) -> int:
    g = _load_graph(args)
    h = complete_to_critical(g)
    added = sorted(set(h.edges()) - set(g.edges()))
    profile = edge_profile(h)
    payload = {
        "input_graph6": graph6_encode(g),
        "graph6": graph6_encode(h),
        "gamma_tR": profile.base_value,
        "added_edges": [[u, v] for u, v in added],
        "classification": profile.classification,
    }
    if args.dot:
        payload["dot"] = _to_dot(h)
    _emit(payload, args.format)
    return EXIT_OK


# name -> (handler, flags of its own parser, help line)
_COMMANDS = {
    "compute": (_cmd_compute, _compute_flags, "invariants of one graph"),
    "profile": (_cmd_profile, _add_input_flags, "per-non-edge gamma_tR deltas"),
    "classify": (_cmd_classify, _add_input_flags, "criticality classification"),
    "generate": (_cmd_generate, _generate_flags,
                 "emit a family member as graph6"),
    "recognize": (_cmd_recognize, _add_input_flags,
                  "structural recognition report"),
    "verify": (_cmd_verify, _verify_flags, "machine-check registered theorems"),
    "hunt": (_cmd_hunt, _hunt_flags, "search for open-question counterexamples"),
    "complete-critical": (_cmd_complete_critical, _complete_critical_flags,
                          "grow a graph to an edge-critical supergraph"),
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Parse in two phases: the global options and the command name, then
    the command's own flags, by a parser built for that command only."""
    top = _Parser(
        prog="trd",
        description="total Roman domination workbench",
        epilog="commands:\n" + "\n".join(
            f"  {name:<21}{help_line}"
            for name, (_, _, help_line) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument("--format", choices=("json", "tsv"), default="json")
    top.add_argument("--seed", type=int, default=0,
                     help="seed for --random universes (default 0)")
    top.add_argument("--jobs", type=_positive_int, default=1,
                     help="worker processes for verify/hunt instances"
                          " (profile runs serially)")
    top.add_argument("command", choices=_COMMANDS, metavar="command",
                     help="one of the commands below")
    remainder = top.add_argument(
        "rest", nargs=argparse.REMAINDER, metavar="ARGS",
        help="the command's flags (trd <command> --help)")
    remainder.required = False  # a bare `trd` names only the missing command
    args = top.parse_args(argv)
    rest = vars(args).pop("rest")
    sub = _Parser(prog=f"trd {args.command}")
    _COMMANDS[args.command][1](sub)
    return sub.parse_args(rest, namespace=args)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (UnknownTheoremError, UnknownQuestionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
