"""Command line front end.

Subcommands: ``count`` for the counting sequence by several methods,
``generate`` for the avoiders themselves, ``triangle`` for csv dumps of
the refinement triangles, ``tree`` for dot or json exports of the
generating tree, and ``verify`` to run the consistency suites.  Output is
deterministic; caps that protect against runaway enumerations can be
lifted with ``--force``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from . import brute, counting, gentree
from .blocks import PATTERN
# ``expand`` is unused here; perfbench/tracing.py requires this binding.
from .eco import expand, reduce
from .perms import parse_dashed_pattern

# `generate` streams the walk and holds no level.  On one CPU of a 2-vCPU
# x86-64 Xeon, Python 3.11, where `count --n 0` takes 0.09 s: n = 10 takes
# about 1.9 s (20x that) and 16 MB for 22 MB of lines (35 MB of json),
# n = 11 about 19 s and 16 MB for 205 MB of lines (317 MB of json).  Each
# level past that is about 8x the text and the time.
GENERATE_CAP = 11
# Words per write (with PYTHONUNBUFFERED each write is a system call).  A
# batch holds its words, strings, text and bytes at once: 1024 peak 0.85 MB
# below 4096 at n = 9, and at n = 11 their json (38 KB) fits a 64 KiB pipe.
GENERATE_BATCH = 1024
CENSUS_CAP = 9
# Every suite but pde walks the tree to length n, labelling to n + 1 (all
# 1,071,704 words of length 10 at n = 9), eco the oracle's too.  None holds
# a level: at n = 9 labelling 1.2 s, eco 0.85 s, under 16 MB on one CPU.
VERIFY_CAP = 9
# `count --n 1000` and `triangle --which u --n 1000` hold one row of the
# rule's census at a time: about 0.5 s and 19 MB, and, for the 435 MB of
# csv, about 10 s and 20 MB (one CPU of a 2-CPU Xeon, Python 3.11).
# The 31-4-2 recursion at 300 takes about 2 s, the pde check at 400
# about 0.2 s.  The continued fraction grows as the cube of its order:
# 0.03 s at 60, about 1 s at 200; its cap stays at 60.
RECURRENCE_CAP = 1000
CALLAN_CAP = 300
CFRAC_CAP = 60
PDE_CAP = 400


def _check_cap(n: int, cap: int, what: str, force: bool) -> None:
    if n > cap and not force:
        raise ValueError(f"{what} past n={cap} needs --force")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


def _cmd_count(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError(f"length must be nonnegative: {args.n}")
    pattern = parse_dashed_pattern(args.pattern)
    if args.method in ("tree", "cfrac") and pattern != PATTERN:
        raise ValueError(f"--method {args.method} is specific to {PATTERN}")
    if args.method == "recurrence":
        if pattern == PATTERN:
            _check_cap(args.n, RECURRENCE_CAP, "recurrence counting", args.force)
            values = counting.avoider_counts(args.n)
        elif pattern == counting.PATTERN_3142:
            _check_cap(args.n, CALLAN_CAP, "the 31-4-2 recursion", args.force)
            values = counting.callan_3142(args.n)
        else:
            raise ValueError(f"no recurrence known for {pattern}; use --method brute")
    elif args.method == "tree":
        _check_cap(args.n, GENERATE_CAP, "tree counting", args.force)
        # the empty word and the root; every longer word is a child in the walk
        values = [1, 1][: args.n + 1] + [0] * (args.n - 1)
        for node, children in gentree.walk(args.n):
            values[len(node) + 1] += len(children)
    elif args.method == "brute":
        _check_cap(args.n, brute.ENUMERATION_CAP, "brute counting", args.force)
        values = brute.level_sizes(pattern, args.n, force=args.force)
    else:
        _check_cap(args.n, CFRAC_CAP, "the continued fraction", args.force)
        comparison = counting.compare_cfrac_with_counts(args.n)
        if comparison.first_mismatch is not None:
            print(f"warning: {comparison}", file=sys.stderr)
        values = list(comparison.series)
    for value in values:
        print(value)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    _check_cap(args.n, GENERATE_CAP, "generating", args.force)
    words = gentree.iter_level(args.n)
    text = [str(v) for v in range(args.n + 1)]
    if args.format == "lines":
        while batch := list(islice(words, GENERATE_BATCH)):
            sys.stdout.write("".join([" ".join([text[v] for v in word]) + "\n" for word in batch]))
    else:
        # json.dumps(level) and a newline, one batch of items at a time
        sep = "["
        while batch := list(islice(words, GENERATE_BATCH)):
            items = ", ".join(["[" + ", ".join([text[v] for v in word]) + "]" for word in batch])
            sys.stdout.write(sep + items)
            sep = ", "
        sys.stdout.write("]\n")
    return 0


def _cmd_triangle(args: argparse.Namespace) -> int:
    if args.which == "census":
        _check_cap(args.n, CENSUS_CAP, "brute census", args.force)
        rows = brute.census_rows(PATTERN, args.n, force=args.force)
    else:
        _check_cap(args.n, RECURRENCE_CAP, f"triangle {args.which}", args.force)
        rule = gentree.lambda_rule() if args.which == "u" else gentree.omega_rule()
        rows = counting.triangle_rows(rule, args.n)
    # a write per row: with PYTHONUNBUFFERED set, each write is a system call
    sys.stdout.writelines(counting.csv_rows(rows))
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    pieces = gentree.export_tree(args.n, args.format, force=args.force)
    while batch := list(islice(pieces, GENERATE_BATCH)):
        sys.stdout.write("".join(batch))
    return 0


def _verify_eco(n_max: int, force: bool) -> tuple[bool, str]:
    """Check in one walk that level n of the tree holds each 1-32-4 avoider
    of length n once, n = 1..n_max: each child reduces to its node, no node
    repeats a child, and each length has the oracle's number of words.

    That is exact.  Every tree word is an avoider: the root (1) is, and
    ``reduce`` runs ``check_avoider`` on every child.  Level n repeats no
    word, by induction on n: two equal words have the same ``reduce``, so
    the same parent, which level n - 1 holds once, and its children are
    distinct.  So level n is a subset of the avoiders of length n, and a
    subset of equal size is the whole set.
    """
    if n_max < 1:
        raise ValueError(f"need at least length 1: {n_max}")
    sizes = [1, 1] + [0] * (n_max - 1)  # the empty word, the root, then the children
    for node, children in gentree.walk(n_max):
        if len(set(children)) < len(children):
            child = next(c for i, c in enumerate(children) if c in children[:i])
            return False, f"duplicated child {child} of {node}"
        for child in children:
            try:
                if reduce(child) != node:
                    return False, f"reduce({child}) is not {node}"
            except ValueError as exc:
                return False, f"child {child} of {node}: {exc}"
        sizes[len(node) + 1] += len(children)
    mismatch = brute.oracle_diff(sizes, force=force)
    if mismatch is not None:
        return False, mismatch
    through = f"through length {n_max}"
    return True, f"tree agrees with brute force {through}; reduce inverts expand {through}"


def _cmd_verify(args: argparse.Namespace) -> int:
    wanted = ("eco", "labelling", "series", "pde") if args.suite == "all" else (args.suite,)
    _check_cap(args.n, PDE_CAP if wanted == ("pde",) else VERIFY_CAP, "verifying", args.force)
    results: dict[str, dict[str, object]] = {}
    for suite in wanted:
        if suite == "eco":
            ok, detail = _verify_eco(args.n, args.force)
        elif suite == "labelling":
            report = gentree.verify_labelling(args.n)
            ok, detail = report.ok, str(report)
        elif suite == "series":
            fe = counting.check_functional_equation(args.n)
            cf = counting.compare_cfrac_with_counts(args.n)
            ok = fe.ok
            detail = f"functional equation: {fe}; note: {cf}"
        else:
            report_pde = counting.check_pde(args.n)
            ok, detail = report_pde.ok, str(report_pde)
        results[suite] = {"ok": ok, "detail": detail}
    all_ok = all(bool(r["ok"]) for r in results.values())
    if args.json:
        print(json.dumps({"n": args.n, "ok": all_ok, "suites": results}, indent=2))
    else:
        for suite, r in results.items():
            print(f"{suite}: {'ok' if r['ok'] else 'FAIL'} ({r['detail']})")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vincular",
        description="Generating tree, recurrences and checks for 1-32-4 avoiding permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print the counting sequence for lengths 0..n")
    count.add_argument("--pattern", default="1-32-4")
    count.add_argument("--n", type=int, required=True)
    count.add_argument(
        "--method", choices=("tree", "recurrence", "brute", "cfrac"), default="recurrence"
    )
    count.set_defaults(func=_cmd_count)

    generate = sub.add_parser("generate", help="print all avoiders of length n in tree order")
    generate.add_argument("--n", type=int, required=True)
    generate.add_argument("--format", choices=("lines", "json"), default="lines")
    generate.set_defaults(func=_cmd_generate)

    triangle = sub.add_parser("triangle", help="csv dump of a refinement triangle")
    triangle.add_argument("--which", choices=("u", "v", "census"), required=True)
    triangle.add_argument("--n", type=int, required=True)
    triangle.set_defaults(func=_cmd_triangle)

    tree = sub.add_parser("tree", help="export the generating tree")
    tree.add_argument("--n", type=int, required=True)
    tree.add_argument("--format", choices=("dot", "json"), default="dot")
    tree.set_defaults(func=_cmd_tree)

    verify = sub.add_parser("verify", help="run consistency suites; exit 0 only if all pass")
    verify.add_argument(
        "--suite", choices=("eco", "labelling", "series", "pde", "all"), default="all"
    )
    verify.add_argument("--n", type=int, default=6)
    # verify-pool in perfbench/run.py passes --threads 2; it changes nothing
    verify.add_argument(
        "--threads", type=_positive_int, default=1, help="ignored: every command runs in one process"
    )
    verify.add_argument("--json", action="store_true", help="machine readable report")
    verify.set_defaults(func=_cmd_verify)

    for subparser in (count, generate, triangle, tree, verify):
        subparser.add_argument("--force", action="store_true", help="lift the size caps")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, not at exit, so that a closed pipe lands below
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: drop what is left, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    raise SystemExit(main())
