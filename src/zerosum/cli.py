"""Command-line surface.

Subcommands: find (tree|path|diam3|connect|matching), thresholds,
extremal, decompose, verify.  Graph files use the edge-list format; `-`
reads standard input so extremal generators pipe straight into finders.

Exit codes: 0 found/verified, 1 not found or counterexample, 2 input
error, 3 budget refusal.  The ZEROSUM_BUDGET environment variable, when
set, becomes the default cap for every enumeration budget field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import extremal as extremal_mod
from . import finders, oracle
from .decompositions import hamilton_cycle_decomposition, hamilton_path_decomposition
from .errors import BudgetExceeded, DomainError, GraphFormatError
from .graphs import (
    COMPLETE,
    ColoredGraph,
    DTree,
    MAXIMAL_PLANAR_STACKED,
    TRIANGLE_FREE,
    read_edge_list,
    write_edge_list,
)
from .oracle import EnumerationBudget, exhaustive_theorem_check
from .thresholds import (
    GUARANTEES,
    ex_forest,
    ex_linear_forest,
    ex_star,
    forest_bound_degenerate,
    forest_bound_planar,
    forest_bound_triangle_free,
)

EXIT_FOUND = 0
EXIT_NOT_FOUND = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError(
            f"not UTF-8 text: byte 0x{data[exc.start]:02x} cannot be decoded", line_no
        ) from None


def _read_graph(path: str) -> ColoredGraph:
    if path == "-":
        stdin = sys.stdin
        # a replaced stdin may be a text stream without a byte buffer
        text = _decode(stdin.buffer.read()) if hasattr(stdin, "buffer") else stdin.read()
        return read_edge_list(text)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    return read_edge_list(_decode(data))


def _budget_from_env() -> EnumerationBudget:
    raw = os.environ.get("ZEROSUM_BUDGET")
    if not raw:
        return oracle.DEFAULT_BUDGET
    try:
        cap = int(raw)
    except ValueError:
        raise DomainError(f"ZEROSUM_BUDGET must be an integer, got {raw!r}") from None
    return EnumerationBudget(cap, cap, cap, cap)


def _report_json(report: finders.FindReport, kind: str) -> dict:
    return {
        "found": report.found,
        "kind": kind,
        "edges": sorted(map(list, report.subgraph.edges)) if report.subgraph else None,
        "weight": report.weight if report.found else None,
        "certificate": report.certificate,
        "chain_replacements": report.chain_replacements,
    }


def _print_report(report: finders.FindReport, kind: str, as_json: bool) -> int:
    if as_json:
        print(json.dumps(_report_json(report, kind)))
    else:
        print(f"found: {'yes' if report.found else 'no'}")
        if report.found:
            print(f"weight: {report.weight}")
            print("edges: " + " ".join(f"{u}-{v}" for u, v in sorted(report.subgraph.edges)))
        print(f"certificate: {report.certificate}")
        print(f"chain replacements: {report.chain_replacements}")
    return EXIT_FOUND if report.found else EXIT_NOT_FOUND


def _cmd_find(args) -> int:
    g = _read_graph(args.file)
    if args.what == "tree":
        if args.host_class == "dtree" and args.d is None:
            raise DomainError("--d is required with --host-class dtree")
        host_class = HOST_CLASSES[args.host_class](args.d)
        report = finders.find_zero_sum_spanning_tree(g, host_class)
        return _print_report(report, "spanning-tree", args.json)
    if args.what == "path":
        report = finders.find_zero_sum_spanning_path(g)
        return _print_report(report, "hamiltonian-path", args.json)
    if args.what == "diam3":
        report = finders.find_zero_sum_diam3_tree(g)
        return _print_report(report, "diameter-3-tree", args.json)
    if args.what == "connect":
        if args.pair is None:
            raise DomainError("find connect requires --pair X Y")
        report = finders.find_zero_sum_path_leq4(g, args.pair[0], args.pair[1])
        return _print_report(report, "path-leq-4", args.json)
    report = finders.check_zero_sum_matching(g, _budget_from_env())
    return _print_report(report, "perfect-matching", args.json)


# --host-class choice -> host class, given --d
HOST_CLASSES = {
    "complete": lambda d: COMPLETE,
    "triangle-free": lambda d: TRIANGLE_FREE,
    "dtree": DTree,
    "planar": lambda d: MAXIMAL_PLANAR_STACKED,
}

# threshold family -> (parameter count, formula); path, tree and diam3
# are the census bounds of the guarantees on K_n
THRESHOLDS = {
    "path": (1, GUARANTEES["path-census", "complete"].threshold),
    "tree": (1, GUARANTEES["tree", "complete"].threshold),
    "diam3": (1, GUARANTEES["diam3", "complete"].threshold),
    "linear-forest": (2, ex_linear_forest),
    "forest": (2, ex_forest),
    "star": (2, ex_star),
    "forest-triangle-free": (1, forest_bound_triangle_free),
    "forest-degenerate": (2, forest_bound_degenerate),
    "forest-planar": (1, forest_bound_planar),
}


def _cmd_thresholds(args) -> int:
    fam = args.family
    p = args.params
    arity, formula = THRESHOLDS[fam]
    if len(p) != arity:
        raise DomainError(f"wrong number of parameters for family {fam!r}: expected {arity}")
    value = formula(*p)
    if args.json:
        print(json.dumps({"family": fam, "params": p, "value": value}))
    else:
        print(value)
    return EXIT_FOUND


def _cmd_extremal(args) -> int:
    cid = extremal_mod.construction_from_args(args.construction, args.params)
    g = extremal_mod.make_extremal_graph(cid)
    text = write_edge_list(g, header_comments=[extremal_mod.construction_header(cid)])
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {args.output}: {exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_FOUND


def _cmd_decompose(args) -> int:
    if args.what == "paths":
        dec = hamilton_path_decomposition(args.n)
    else:
        dec = hamilton_cycle_decomposition(args.n)
    if args.json:
        print(
            json.dumps(
                {
                    "n": args.n,
                    "kind": args.what,
                    "orders": [list(o) for o in dec.orders],
                    "parts": [sorted(map(list, p.edges)) for p in dec.parts],
                }
            )
        )
    else:
        for i, order in enumerate(dec.orders):
            print(f"part {i}: " + "-".join(map(str, order)))
    return EXIT_FOUND


def _cmd_verify(args) -> int:
    budget = _budget_from_env()
    if args.budget is not None:
        budget = EnumerationBudget(args.budget, args.budget, args.budget, args.budget)
    shard = tuple(args.shard) if args.shard else None

    def emit(event):
        if args.json:
            print(json.dumps(event), flush=True)

    report = exhaustive_theorem_check(
        args.theorem, args.n, budget=budget, jobs=args.jobs, shard=shard, emit=emit
    )
    summary = {
        "type": "summary",
        "theorem": report.theorem,
        "n": report.n,
        "range": [report.lo, report.hi],
        "colourings": report.colourings,
        "hypothesis_met": report.hypothesis_met,
        "confirmed": report.confirmed,
        "counterexamples": len(report.counterexamples),
    }
    if args.json:
        for ce in report.counterexamples:
            print(json.dumps({"type": "counterexample", **ce}), flush=True)
        print(json.dumps(summary))
    else:
        print(
            f"{report.theorem} n={report.n}: {report.colourings} colourings, "
            f"{report.hypothesis_met} met the hypothesis, {report.confirmed} confirmed, "
            f"{len(report.counterexamples)} counterexamples"
        )
        for ce in report.counterexamples[:20]:
            print(f"counterexample: {ce}")
    return EXIT_FOUND if report.passed else EXIT_NOT_FOUND


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerosum",
        description="Zero-sum and almost zero-sum spanning subgraphs of +-1-coloured graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_find = sub.add_parser("find", help="run a finder on an edge-list file")
    p_find.add_argument("what", choices=["tree", "path", "diam3", "connect", "matching"])
    p_find.add_argument("file", help="edge-list file, or - for stdin")
    p_find.add_argument("--pair", nargs=2, type=int, metavar=("X", "Y"))
    p_find.add_argument("--host-class", choices=list(HOST_CLASSES), default="complete")
    p_find.add_argument("--d", type=int, help="degeneracy for --host-class dtree")
    p_find.add_argument("--json", action="store_true")
    p_find.set_defaults(func=_cmd_find)

    p_thr = sub.add_parser("thresholds", help="evaluate an exact threshold formula")
    p_thr.add_argument("family", choices=list(THRESHOLDS))
    p_thr.add_argument("params", nargs="+", type=int)
    p_thr.add_argument("--json", action="store_true")
    p_thr.set_defaults(func=_cmd_thresholds)

    p_ext = sub.add_parser("extremal", help="emit an extremal construction as an edge list")
    p_ext.add_argument("construction", help="construction name (see README)")
    p_ext.add_argument("params", nargs="*")
    p_ext.add_argument("-o", "--output", help="output file (default stdout)")
    p_ext.set_defaults(func=_cmd_extremal)

    p_dec = sub.add_parser("decompose", help="decompose K_n into spanning paths or cycles")
    p_dec.add_argument("what", choices=["paths", "cycles"])
    p_dec.add_argument("n", type=int)
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=_cmd_decompose)

    p_ver = sub.add_parser("verify", help="exhaustively check a guarantee at small order")
    p_ver.add_argument("theorem", choices=list(oracle.THEOREMS))
    p_ver.add_argument("n", type=int)
    p_ver.add_argument("--shard", nargs=2, type=int, metavar=("LO", "HI"))
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--budget", type=int, help="override every budget cap")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
