"""Command-line interface.

Subcommands: check (necessary-condition battery, plus diameter-3
analysis when it applies), lewis (partition report), construct and
family (graph generators), enumerate (exhaustive streams and summaries).

Exit codes: 0 success, 1 failed check verdict, 2 usage or parse errors,
141 when the reader of standard output closes it early.
Graphs travel as graph6 (default) or as plain edge lists ("n", then one
"u v" line per edge); results render as text or JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from . import graph as gr
from . import lewis
from .checks import run_battery
from .constructions import complete_graph, direct_product, figure2_graph, odd_family
from .enumeration import (
    MAX_ADMISSIBLE_N,
    MAX_ENUMERATION_N,
    enumerate_admissible,
    enumerate_nonisomorphic,
    verify_section_3,
)
from .formats import GRAPH6_MAX_N, decode_graph_text, encode_edgelist, encode_graph6
from .graph import Graph

# Input files and stdin are read up to this many characters, far above the
# largest graph either format holds (a complete n = 62 edge list is 10,739
# characters); one more character read marks the input as too long.
_MAX_INPUT_CHARS = 1 << 20


def _read_graph(args: argparse.Namespace) -> Graph:
    if args.g6 is not None:
        if args.input is not None:
            raise ValueError("give either an input path or --g6, not both")
        if args.format == "edgelist":
            raise ValueError("--g6 takes a graph6 string; --format edgelist reads an input path")
        return decode_graph_text(args.g6, "graph6")
    if args.input is None or args.input == "-":
        text = sys.stdin.read(_MAX_INPUT_CHARS + 1)
    else:
        # newline="" keeps a lone "\r", which ends no line, for the decoder.
        with open(args.input, "r", encoding="ascii", newline="") as handle:
            text = handle.read(_MAX_INPUT_CHARS + 1)
    if len(text) > _MAX_INPUT_CHARS:
        raise ValueError(f"input is longer than {_MAX_INPUT_CHARS} characters")
    return decode_graph_text(text, args.format)


def _emit_graph(g: Graph, emit: str) -> None:
    if emit == "edgelist":
        sys.stdout.write(encode_edgelist(g))
    else:
        print(encode_graph6(g).decode("ascii"))


def _cmd_check(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    report = run_battery(g)
    payload: dict[str, Any] = report.to_dict()
    lewis_report = lewis.partition_report(g, args.eulerian)
    if lewis_report["applicable"]:
        payload["lewis"] = lewis_report
    if args.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(report.render_text())
        if lewis_report["applicable"]:
            print(lewis.render_partition_text(lewis_report))
    return 0 if report.overall else 1


def _cmd_lewis(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    report = lewis.partition_report(g, args.eulerian)
    if args.output == "json":
        print(json.dumps(report, indent=2))
    else:
        print(lewis.render_partition_text(report))
    return 0


def _require_graph6_size(n: int) -> None:
    # Refuse before anything is sized by n: every emitted graph must fit
    # the graph6 header, and n = 10**9 must not allocate 10**9 masks.
    if n > GRAPH6_MAX_N:
        raise ValueError(f"vertex count {n} exceeds the n <= {GRAPH6_MAX_N} graph6 limit")


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "complete":
        _require_graph6_size(args.n)
        g = complete_graph(args.n)
    elif args.kind == "figure2":
        g = figure2_graph()
    else:
        a, b = decode_graph_text(args.a, "graph6"), decode_graph_text(args.b, "graph6")
        _require_graph6_size(a.n + b.n)
        g = direct_product(a, b)
    _emit_graph(g, args.emit)
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    _require_graph6_size(args.n)
    _emit_graph(odd_family(args.n), args.emit)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.summary:
        if args.filter != "all":
            raise ValueError(
                f"--filter {args.filter} selects a stream; --summary surveys every admissible graph"
            )
        if args.emit == "edgelist":
            raise ValueError("--emit edgelist formats a stream; --summary prints JSON")
        print(verify_section_3(args.n).to_json())
        return 0
    if args.filter == "admissible":
        graphs = (g for g, _ in enumerate_admissible(args.n))
    elif args.filter == "all-odd":
        graphs = (
            g for g, _ in enumerate_admissible(args.n) if gr.all_degrees_odd(g)
        )
    else:
        graphs = enumerate_nonisomorphic(args.n)
    if args.emit == "json":
        payload = {
            "n": args.n,
            "filter": args.filter,
            "graphs": [encode_graph6(g).decode("ascii") for g in graphs],
        }
        print(json.dumps(payload, indent=2))
    else:
        for i, g in enumerate(graphs):
            if args.emit == "edgelist" and i:
                print()  # blank line between edge-list blocks
            _emit_graph(g, args.emit)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdgraph",
        description="Structural checks for candidate character degree graphs of finite solvable groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, summary in (
        ("check", _cmd_check, "run the necessary-condition battery"),
        ("lewis", _cmd_lewis, "diameter-3 partition analysis"),
    ):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument(
            "input",
            nargs="?",
            help="input file path, or '-' for standard input (default: standard input)",
        )
        cmd.add_argument("--g6", metavar="STRING", help="inline graph6 string")
        cmd.add_argument(
            "--format",
            choices=("auto", "graph6", "g6", "edgelist"),
            default="auto",
            help="input format (auto: edge list when the first line is an integer)",
        )
        # The two parity readings of "Eulerian" among lewis.RHO23_PREDICATES:
        # the cycle reading ("hamiltonian") and the linking parity are
        # library-only.
        cmd.add_argument(
            "--eulerian",
            choices=(lewis.EULERIAN_STANDARD, lewis.EULERIAN_EVEN_ONLY),
            default=lewis.EULERIAN_STANDARD,
            help="Eulerian predicate used by the odd-degree characterization",
        )
        cmd.add_argument("--output", choices=("text", "json"), default="text")
        cmd.set_defaults(func=func)

    construct = sub.add_parser("construct", help="emit a constructed graph")
    csub = construct.add_subparsers(dest="kind", required=True)
    complete = csub.add_parser("complete", help="complete graph on n vertices")
    complete.add_argument("n", type=int)
    figure2 = csub.add_parser("figure2", help="the 6-vertex odd-degree seed graph")
    product = csub.add_parser("product", help="join of two graph6-encoded graphs")
    product.add_argument("a")
    product.add_argument("b")
    for p in (complete, figure2, product):
        p.add_argument("--emit", choices=("graph6", "g6", "edgelist"), default="graph6")
    construct.set_defaults(func=_cmd_construct)

    family = sub.add_parser("family", help="odd-degree non-regular family member")
    family.add_argument("--n", type=int, required=True, help="vertex count (even, >= 6)")
    family.add_argument("--emit", choices=("graph6", "g6", "edgelist"), default="graph6")
    family.set_defaults(func=_cmd_family)

    enum = sub.add_parser("enumerate", help="exhaustive non-isomorphic enumeration")
    enum.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"vertex count: 1..{MAX_ENUMERATION_N} for --filter all, "
        f"1..{MAX_ADMISSIBLE_N} for the admissible streams and --summary",
    )
    enum.add_argument("--filter", choices=("all", "admissible", "all-odd"), default="all")
    enum.add_argument("--emit", choices=("graph6", "g6", "edgelist", "json"), default="graph6")
    enum.add_argument(
        "--summary",
        action="store_true",
        help="print the exhaustive theorem-survey summary as JSON instead of a stream "
        "(no --filter admissible|all-odd, no --emit edgelist)",
    )
    enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe (``| head -1``): stop without an
        # error line, and point stdout at devnull so that the flush at
        # shutdown cannot fail again. 141 = 128 + SIGPIPE, as a shell
        # reports a writer that the signal ended.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
