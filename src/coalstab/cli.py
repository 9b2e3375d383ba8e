"""Command-line interface.

Exit codes are a stable contract: 0 for a positive verdict (member,
nonempty, stable), 1 for a negative verdict, 2 for input errors and size
guard refusals, 3 for an internal error (a fault in the program, never a
verdict).
"""

from __future__ import annotations

import argparse
import json
import sys

from .cores import MODES, _core_find, core_contains
from .errors import CoalstabError, EmptyBlockAllocation, InputError
from .game import PAPair, equal_surplus_allocation, worth
from .io import (load_game, mask_to_names, parse_allocation, parse_partition,
                 partition_names, partition_to_text, rational_json)
from .lattice import GRAPH_EXPORT_MAX_N, export_graph
from .rational import format_rational
from .sam import sam_run
from .stability import enumerate_stable_partitions, stable_contains


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (default: table)")

    parser = argparse.ArgumentParser(
        prog="coalstab",
        description="Exact cores, partition-based stability, and steepest ascent "
                    "for transferable-utility coalitional games.")
    sub = parser.add_subparsers(dest="command", required=True)

    core = sub.add_parser("core", parents=[common],
                          help="check core membership or find a core member")
    core.add_argument("action", choices=("check", "find"))
    core.add_argument("game", help="game JSON file")
    core.add_argument("--mode", required=True, choices=MODES)
    core.add_argument("--alloc", help='allocation to check, e.g. "0,6,2"')

    stab = sub.add_parser("stability", parents=[common],
                          help="check stability of a partition-allocation pair")
    stab.add_argument("game", help="game JSON file")
    stab.add_argument("--mode", required=True, choices=MODES)
    stab.add_argument("--partition", required=True,
                      help='block syntax, e.g. "A,C|B"')
    stab.add_argument("--alloc",
                      help="allocation; defaults to the equal-surplus split when feasible")

    samp = sub.add_parser("sam", parents=[common],
                          help="steepest ascent to a mediumly stable pair")
    samp.add_argument("game", help="game JSON file")
    samp.add_argument("--start", help="starting partition (default: all singletons)")

    graph = sub.add_parser("graph", parents=[common],
                           help="DOT export of the coalition-structure graph")
    graph.add_argument("game", nargs="?", help="game JSON file fixing the player count")
    graph.add_argument("-n", "--players", type=int,
                       help=f"player count (guard: at most {GRAPH_EXPORT_MAX_N})")
    graph.add_argument("-o", "--output", help="write DOT here instead of stdout")

    enum_ = sub.add_parser("enumerate", parents=[common],
                           help="list partitions that support stable pairs")
    enum_.add_argument("game", help="game JSON file")
    enum_.add_argument("--mode", required=True, choices=MODES)

    return parser


def _load(args):
    loaded = load_game(args.game)
    if loaded.filled:
        shown = [mask_to_names(m, loaded.players) for m in loaded.filled[:12]]
        extra = len(loaded.filled) - len(shown)
        tail = f"; ... (+{extra} more)" if extra > 0 else ""
        print(f"warning: {len(loaded.filled)} coalition value(s) defaulted to 0: "
              + "; ".join(shown) + tail, file=sys.stderr)
    return loaded


def _emit(args, payload, lines) -> None:
    """Print the output ``--format`` asks for. ``payload`` (the JSON object)
    and ``lines`` (the table rows) are callables, and only the chosen one
    runs: a table line can cost a 2^n join the JSON never needs."""
    if args.format == "json":
        print(json.dumps(payload(), indent=2))
    else:
        print("".join(f"{ln}\n" for ln in lines()), end="")


def _cmd_core(args) -> int:
    loaded = _load(args)
    game, players = loaded.game, loaded.players
    if args.action == "check":
        if not args.alloc:
            raise InputError("core check needs --alloc")
        x = parse_allocation(args.alloc, game.n)
        report = core_contains(game, x, args.mode)

        def lines():
            out = [f"mode: {report.mode}", f"member: {'yes' if report.member else 'no'}"]
            if report.coalition is not None:
                out.append(f"blocking coalition: {mask_to_names(report.coalition, players)}")
            if report.partition is not None:
                out.append(f"violating partition: {partition_to_text(report.partition, players)}")
            if report.satisfied is not None:
                out.append("satisfied coalitions: "
                           + "; ".join(mask_to_names(m, players) for m in report.satisfied))
            if report.reason:
                out.append(f"reason: {report.reason}")
            return out

        _emit(args, lambda: {"command": "core-check", "players": list(players)}
              | report.to_json(players), lines)
        return 0 if report.member else 1

    nonempty, witness = _core_find(game, args.mode)

    def lines():
        out = [f"mode: {args.mode}", f"nonempty: {'yes' if nonempty else 'no'}"]
        if witness is not None:
            out.append("witness: " + ",".join(format_rational(v) for v in witness))
        return out

    _emit(args, lambda: {
        "command": "core-find", "mode": args.mode, "players": list(players),
        "nonempty": nonempty,
        "witness": None if witness is None else [rational_json(v) for v in witness]}, lines)
    return 0 if nonempty else 1


def _cmd_stability(args) -> int:
    loaded = _load(args)
    game, players = loaded.game, loaded.players
    partition = parse_partition(args.partition, players)
    if args.alloc:
        x = parse_allocation(args.alloc, game.n)
    else:
        try:
            x = equal_surplus_allocation(game, partition)
        except EmptyBlockAllocation as err:
            _emit(args, lambda: {"command": "stability", "mode": args.mode,
                                 "players": list(players),
                                 "partition": partition_names(partition, players),
                                 "feasible": False, "stable": False, "reason": str(err)},
                  lambda: ["stable: no", "feasible: no", f"reason: {err}"])
            return 1
    report = stable_contains(game, PAPair(partition, x), args.mode)

    def lines():
        out = [f"mode: {report.mode}",
               f"partition: {partition_to_text(partition, players)}",
               "allocation: " + ",".join(format_rational(v) for v in x),
               f"stable: {'yes' if report.stable else 'no'}"]
        if not report.feasible:
            out.append("feasible: no")
        if report.fission_resistant is not None:
            out.append(f"fission-resistant: {'yes' if report.fission_resistant else 'no'}")
            out.append(f"fusion-resistant: {'yes' if report.fusion_resistant else 'no'}")
        if report.fission_certificate is not None:
            out.append("defeating refinement: "
                       + partition_to_text(report.fission_certificate, players))
        if report.fusion_certificate is not None:
            out.append("defeating coarsening: "
                       + partition_to_text(report.fusion_certificate, players))
        if report.reason:
            out.append(f"reason: {report.reason}")
        return out

    _emit(args, lambda: {"command": "stability", "players": list(players),
                         "allocation": [rational_json(v) for v in x]}
          | report.to_json(players), lines)
    return 0 if report.stable else 1


def _cmd_sam(args) -> int:
    loaded = _load(args)
    game, players = loaded.game, loaded.players
    start = parse_partition(args.start, players) if args.start else None
    trace = sam_run(game, start)

    def lines():
        out = [f"start: {partition_to_text(trace.start, players)}"]
        for k, step in enumerate(trace.steps, 1):
            out.append(f"step {k}: {step.direction} "
                       f"{partition_to_text(step.source, players)} "
                       f"(worth {format_rational(step.source_worth)}) -> "
                       f"{partition_to_text(step.target, players)} "
                       f"(worth {format_rational(step.target_worth)})")
        out.append(f"terminal: {partition_to_text(trace.terminal, players)}")
        out.append("allocation: "
                   + ",".join(format_rational(v) for v in trace.terminal_pair.allocation))
        return out

    _emit(args, lambda: {"command": "sam", "players": list(players)} | trace.to_json(players),
          lines)
    return 0


def _cmd_graph(args) -> int:
    if (args.players is None) == (args.game is None):
        raise InputError("graph needs exactly one of -n or a game file")
    if args.players is not None:
        n = args.players
    else:
        n = _load(args).game.n
    dot = export_graph(n)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(dot)
        except OSError as err:
            raise InputError(f"cannot write {args.output}: {err}") from err
    else:
        print(dot, end="")
    return 0


def _cmd_enumerate(args) -> int:
    loaded = _load(args)
    game, players = loaded.game, loaded.players
    found = list(enumerate_stable_partitions(game, args.mode))
    _emit(args, lambda: {
        "command": "enumerate", "mode": args.mode, "players": list(players),
        "partitions": [{"partition": partition_names(p, players),
                        "worth": rational_json(worth(game, p))} for p in found]},
          lambda: [f"{partition_to_text(p, players)}  worth {format_rational(worth(game, p))}"
                   for p in found] + [f"({len(found)} stable partition(s), mode {args.mode})"])
    return 0 if found else 1


_HANDLERS = {
    "core": _cmd_core,
    "stability": _cmd_stability,
    "sam": _cmd_sam,
    "graph": _cmd_graph,
    "enumerate": _cmd_enumerate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CoalstabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a fault must not exit 1, which reads as a verdict
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
