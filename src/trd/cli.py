"""Command-line front end.

Every command is one row of ``_COMMANDS``: its handler, its flags, its
positional, a group of flags of which at most one may be given (exactly
one when the group is required), and its help line.
``_parse`` reads the line in two phases from these tables alone: the global
flags (``--format``, ``--seed``, ``--jobs``) and the command name by the
row ``_TOP``, then the rest of the line by the command's row.  Flags match
by exact name or unique prefix, as ``--flag VALUE`` or ``--flag=VALUE``,
and a negative number is a value.  A usage error is one stderr line
``trd[ <command>]: error: ...`` and ``SystemExit(2)``; ``-h``/``--help``
prints the help of the phase it is read in and ``SystemExit(0)``.  No
argument parser is built and ``argparse`` is not imported.

Exit codes: 0 success or pass, 1 verification failure or counterexample
found, 2 usage error (including unknown theorem/question identifiers),
3 input or solver error (malformed graph6, isolated vertices, exceeded
node budget, invalid family syntax).  Data goes to stdout as JSON (or
TSV with ``--format tsv``); diagnostics go to stderr.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import families as fam
from .criticality import complete_to_critical, edge_profile
from .errors import TrdError, UnknownQuestionError, UnknownTheoremError
from .graphs import (
    GRAPH6_MAX_N,
    Graph,
    complement,
    diameter,
    graph6_decode,
    graph6_encode,
    is_connected,
    read_edge_list,
    universal_vertex,
)
from .solver import classical_numbers, gamma_tr
from .verify import (
    ALL_LABELED_CEILING,
    QUESTIONS,
    AllLabeled,
    Families,
    InstanceUniverse,
    RandomGnp,
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
        return read_edge_list(args.edges)
    return fam.generate(fam.parse_family(args.family))


def _emit(payload, fmt: str) -> int:
    """Print a command's payload; the exit code is 1 exactly when a report
    in it failed."""
    rows = payload if isinstance(payload, list) else [payload]
    if fmt == "json":
        print(json.dumps(payload))
    else:  # TSV: reports one row each, plain objects key/value rows
        for row in rows:
            if "theorem_id" in row:
                print(f"{row['theorem_id']}\t{row['instances_checked']}"
                      f"\t{row['outcome']}\t{len(row['counterexamples'])}")
            else:
                for key, value in row.items():
                    print(f"{key}\t{json.dumps(value)}")
    return EXIT_FAIL if any(row.get("outcome") == "fail" for row in rows) else EXIT_OK


def _universe_from_args(args) -> InstanceUniverse | None:
    if args.all_labeled is not None:
        return AllLabeled(args.all_labeled, connected_only=args.connected)
    if args.random is not None:
        return RandomGnp(*args.random, args.seed)
    if args.family:
        return Families(tuple(fam.parse_family(t) for t in args.family))
    return None


class _Usage(Exception):
    """A usage error, printed as ``trd[ <command>]: error: <message>``."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _Usage(f"not an integer: {text!r}") from None
    if value < 1:
        raise _Usage(f"must be at least 1, got {value}")
    return value


def _gnp_spec(text: str) -> tuple[int, int, float]:
    parts = text.split(",")
    try:
        if len(parts) != 3 or not 0 <= float(parts[2]) <= 1:
            raise ValueError
        count, n, p = int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        raise _Usage(
            f"wants COUNT,N,P (integer, integer, probability in [0, 1]), got {text!r}"
        ) from None
    if count < 1 or n < 1:
        raise _Usage(f"COUNT and N must be at least 1, got {text!r}")
    if n > GRAPH6_MAX_N:
        raise _Usage(f"N must be at most {GRAPH6_MAX_N}, got {text!r}")
    return count, n, p


# flag -> (dest, kind, help); the kind is a converter, a tuple of choices,
# _SWITCH (no value, True when given) or _APPEND (a list of every value)
_SWITCH, _APPEND = "switch", "append"
_GLOBAL = {
    "--format": ("format", ("json", "tsv"), "output format (default json)"),
    "--seed": ("seed", int, "seed for --random universes (default 0)"),
    "--jobs": ("jobs", _positive_int, "worker processes for verify/hunt"
                                      " instances (profile runs serially)"),
}
_INPUT = {
    "--graph6": ("graph6", str, "short-form graph6 string"),
    "--edges": ("edges", str, "edge-list file ('n m' header)"),
    "--family": ("family", str, "family descriptor, e.g. spider(2,2,4)"),
}
_UNIVERSE = {
    "--all-labeled": ("all_labeled", _positive_int,
                      "all labelled graphs of order up to this"
                      f" (at most {ALL_LABELED_CEILING})"),
    "--connected": ("connected", _SWITCH,
                    "restrict --all-labeled to connected graphs"),
    "--random": ("random", _gnp_spec, "seeded G(n,p) samples, as COUNT,N,P"),
    "--family": ("family", _APPEND, "family universe member (repeatable)"),
}
_DOT = ("dot", _SWITCH, "also emit DOT")
# hunt's choices, short names first, each to its registered question id
_QUESTIONS = {**{q.partition("_")[0]: q for q in QUESTIONS},
              **{q: q for q in QUESTIONS}}


def _cmd_compute(args) -> dict:
    g = _load_graph(args)
    result = gamma_tr(g, node_budget=args.budget)
    gamma, gamma_t, gamma_r = classical_numbers(g)
    return {
        "graph6": graph6_encode(g),
        "n": g.n,
        "gamma": gamma,
        "gamma_t": gamma_t,
        "gamma_R": gamma_r,
        "gamma_tR": result.value,
        "witness": list(result.witness.values),
        "nodes_explored": result.nodes_explored,
    }


def _cmd_profile(args) -> dict:
    """``profile``, and ``classify``, which is ``profile`` without deltas."""
    g = _load_graph(args)
    profile = edge_profile(g)
    payload = {
        "graph6": graph6_encode(g),
        "base_value": profile.base_value,
        "classification": profile.classification,
    }
    if args.command == "profile":
        payload["deltas"] = [
            {"u": u, "v": v, "delta": d} for (u, v), d in profile.deltas.items()
        ]
    return payload


def _cmd_generate(args) -> dict:
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
    return payload


def _cmd_recognize(args) -> dict:
    g = _load_graph(args)
    connected = is_connected(g)
    hen1 = None
    if connected and g.n >= 2:
        hen1 = fam.hen1_classify(g)
    predicts = None
    if connected and g.n >= 4:
        predicts = fam.predict_n_critical(g)
    return {
        "graph6": graph6_encode(g),
        "n": g.n,
        "connected": connected,
        "hen1_class": hen1.kind if hen1 else None,
        "hen1_r": hen1.r if hen1 else None,
        "is_galaxy": fam.is_galaxy(g),
        "complement_is_galaxy": fam.is_galaxy(complement(g)),
        "predicts_n_critical": predicts,
        "universal_vertex": universal_vertex(g),
        "diameter": diameter(g),
    }


def _cmd_verify(args) -> dict | list[dict]:
    if args.theorem is None:
        return [r.to_json() for r in run_registry(jobs=args.jobs)]
    return verify_theorem(args.theorem, _universe_from_args(args),
                          jobs=args.jobs).to_json()


def _cmd_hunt(args) -> dict:
    return hunt_counterexamples(_QUESTIONS[args.question],
                                _universe_from_args(args),
                                jobs=args.jobs).to_json()


def _cmd_complete_critical(args) -> dict:
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
    return payload


# name -> (handler, flags, positional, group, help line): the positional
# is (dest, choices, help), required when it has choices and optional when
# they are None; the group is (flags, required), of whose flags at most one
# may be given, and exactly one when required
_GROUP = (tuple(_INPUT), True)
_ONE_UNIVERSE = (("--all-labeled", "--random", "--family"), False)
_COMMANDS = {
    "compute": (_cmd_compute,
                {**_INPUT, "--budget": ("budget", _positive_int,
                                        "solver node budget")},
                None, _GROUP, "invariants of one graph"),
    "profile": (_cmd_profile, _INPUT, None, _GROUP,
                "per-non-edge gamma_tR deltas"),
    "classify": (_cmd_profile, _INPUT, None, _GROUP,
                 "criticality classification"),
    "generate": (_cmd_generate,
                 {"--family": _INPUT["--family"], "--dot": _DOT},
                 None, (("--family",), True), "emit a family member as graph6"),
    "recognize": (_cmd_recognize, _INPUT, None, _GROUP,
                  "structural recognition report"),
    "verify": (_cmd_verify, _UNIVERSE,
               ("theorem", None,
                "registry id; omit to run the whole registry"),
               _ONE_UNIVERSE, "machine-check registered theorems"),
    "hunt": (_cmd_hunt, _UNIVERSE,
             ("question", tuple(_QUESTIONS),
              "Q1_supercritical or Q2_dead_in_critical (Q1, Q2 for short)"),
             _ONE_UNIVERSE, "search for open-question counterexamples"),
    "complete-critical": (_cmd_complete_critical, {**_INPUT, "--dot": _DOT},
                          None, _GROUP,
                          "grow a graph to an edge-critical supergraph"),
}
# the global flags and the command name; the tokens after it are the command's
_TOP = (None, _GLOBAL, ("command", tuple(_COMMANDS),
                        "one of the commands above (trd COMMAND --help)"),
        ((), False),
        "total Roman domination workbench\n\ncommands:\n" + "\n".join(
            f"  {name:<19}{row[-1]}" for name, row in _COMMANDS.items()))


def _classify(tok: str, flags: dict) -> tuple[str | None, str | None]:
    """What one token is, as argparse read it: (flag, the value after "=" or
    None) for -h/--help or a flag of ``flags`` by its exact name or a unique
    prefix, ("", None) for an unknown option, (None, None) for a value."""
    if tok[:1] != "-" or tok == "-":
        return None, None
    if tok[:2] == "-h":
        return "--help", tok[2:] or None
    if tok[1] == "-" and tok != "--":
        name, eq, value = tok.partition("=")
        matches = ([name] if name in flags
                   else [f for f in ("--help", *flags) if f.startswith(name)])
        if len(matches) > 1:
            raise _Usage(f"ambiguous option: {tok} could match"
                         f" {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    # a negative number (-3, -1.5, -.5) or a word with a space is a value
    head, dot, tail = tok[1:].partition(".")
    number = ((tail if dot else head).isdecimal()
              and (head.isdecimal() or not head))
    return (None, None) if number or " " in tok else ("", None)


def _value(name: str, kind, text: str):
    """``text`` converted for the flag or positional ``name``."""
    if isinstance(kind, tuple):
        if text not in kind:
            raise _Usage(f"argument {name}: invalid choice: {text!r} (choose"
                         f" from {', '.join(map(repr, kind))})")
        return text
    try:
        return kind(text)
    except _Usage as exc:
        raise _Usage(f"argument {name}: {exc}") from None
    except ValueError:
        raise _Usage(f"argument {name}: invalid {kind.__name__} value:"
                     f" {text!r}") from None


def _read(prog: str, argv: list[str], row: tuple, args) -> list[str]:
    """Read the tokens of one phase into ``args``, in order, then check for
    a missing positional or required flag and for unrecognized tokens.  At
    the top level, stop at the command and return the tokens after it."""
    _, flags, positional, (group, required), _ = row
    kinds = [_classify(tok, flags) for tok in argv]  # ambiguity comes first
    for dest, kind, _ in flags.values():
        vars(args).setdefault(dest, False if kind == _SWITCH else None)
    slot = positional[0] if positional else None
    if slot:
        vars(args).setdefault(slot, None)
    extras, rest, chosen, i = [], [], None, 0
    while i < len(argv):
        (flag, value), tok = kinds[i], argv[i]
        i += 1
        if flag is None and slot and getattr(args, slot) is None:
            setattr(args, slot, _value(slot, positional[1] or str, tok))
            if row is _TOP:
                rest = argv[i:]
                break
        elif not flag:
            extras.append(tok)
        else:
            dest, kind, _ = flags.get(flag, ("", _SWITCH, ""))  # or --help
            if kind == _SWITCH:
                if value is not None:
                    raise _Usage(f"argument {flag}: ignored explicit argument"
                                 f" {value!r}")
                if flag == "--help":
                    print(_help(prog, row))
                    raise SystemExit(EXIT_OK)
                value = True
            else:
                if value is None:
                    if i == len(argv) or kinds[i][0] is not None:
                        raise _Usage(f"argument {flag}: expected one argument")
                    value, i = argv[i], i + 1
                value = _value(flag, str if kind == _APPEND else kind, value)
            if flag in group:
                if chosen not in (None, flag):
                    raise _Usage(f"argument {flag}: not allowed with argument"
                                 f" {chosen}")
                chosen = flag
            if kind == _APPEND:
                value = (getattr(args, dest) or []) + [value]
            setattr(args, dest, value)
    if slot and positional[1] and getattr(args, slot) is None:
        raise _Usage(f"the following arguments are required: {slot}")
    if required and chosen is None:
        raise _Usage(
            f"one of the arguments {' '.join(group)} is required"
            if len(group) > 1 else
            f"the following arguments are required: {group[0]}")
    if extras:
        raise _Usage(f"unrecognized arguments: {' '.join(extras)}")
    return rest


def _help(prog: str, row: tuple) -> str:
    """The -h/--help text of the top level or of one command."""
    _, flags, positional, (group, required), about = row
    specs = {}
    for flag, (dest, kind, _) in flags.items():
        meta = ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                else dest.upper())
        specs[flag] = flag if kind == _SWITCH else f"{flag} {meta}"
    words = ["[-h]"]
    if group:
        alternatives = " | ".join(specs[flag] for flag in group)
        words.append(f"({alternatives})" if required else f"[{alternatives}]")
    words += [f"[{specs[flag]}]" for flag in flags if flag not in group]
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(specs[flag], flags[flag][2]) for flag in flags]
    if positional:
        dest, choices, text = positional
        words.append(dest if choices else f"[{dest.upper()}]")
        rows.append((dest if choices else dest.upper(), text))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([f"usage: {prog} {' '.join(words)}", "", about, "",
                      "options:", *(f"  {left:<{width}}{text}"
                                    for left, text in rows)])


def _check_universe(args) -> None:
    """Refuse a universe flag that would be ignored: any on ``verify``
    without a theorem id, and a switch of ``--all-labeled`` without it."""
    given = [flag for flag, (dest, _, _) in _UNIVERSE.items() if getattr(args, dest)]
    if given and args.command == "verify" and args.theorem is None:
        raise _Usage(f"argument {given[0]}: not allowed without a theorem id")
    switches = [flag for flag in given if _UNIVERSE[flag][1] == _SWITCH]
    if switches and "--all-labeled" not in given:
        raise _Usage(f"argument {switches[0]}: not allowed without argument --all-labeled")


def _parse(argv: list[str] | None) -> SimpleNamespace:
    """Read the global flags and the command name, then the command's own
    flags and positional, from the one table of each.  Usage errors print
    one stderr line and exit 2; -h/--help prints the help and exits 0."""
    args = SimpleNamespace(format="json", seed=0, jobs=1)
    prog = "trd"
    try:
        rest = _read(prog, sys.argv[1:] if argv is None else argv, _TOP, args)
        prog = f"trd {args.command}"
        _read(prog, rest, _COMMANDS[args.command], args)
        if args.command in ("verify", "hunt"):
            _check_universe(args)
    except _Usage as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return _emit(_COMMANDS[args.command][0](args), args.format)
    except (UnknownTheoremError, UnknownQuestionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
