"""Command line front end.

Subcommands: ``count`` for the counting sequence by several methods,
``generate`` for the avoiders themselves, ``triangle`` for csv dumps of
the refinement triangles, ``tree`` for dot or json exports of the
generating tree, and ``verify`` to run the consistency suites.  Each
command returns its exit status and its text as an iterable of strings,
and writes nothing; ``main`` alone writes that text to stdout, cut into
writes of ``WRITE_SIZE`` characters whatever the command.  Output is
deterministic; caps that protect against runaway enumerations can be
lifted with ``--force``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Iterable, Iterator
from itertools import chain

from . import brute, counting, gentree
from .blocks import PATTERN
# ``expand`` is unused here; perfbench/tracing.py requires this binding.
from .eco import _children, _shape, expand, reduce
from .perms import Perm, check_length, parse_dashed_pattern

# `generate` streams the walk and holds no level.  One CPU of an AMD EPYC, Python 3.11:
# n = 10 about 0.25 s in 17.4 MB, n = 11 (205 MB of lines) 1.4 s in 21.7 MB; each level ~7x.
GENERATE_CAP = 11
# Levels one template per shape spans below `generate`'s walk: at n = 11 the 256 take
# 1.8 MB (lines), 3 levels 8 times that; 3 and 4 levels were slower at n = 9 and 10.
# Templates are built from the words as bytes: n <= 255 even forced.
GENERATE_DEPTH = 2
# Each write is a system call with PYTHONUNBUFFERED, and a pipe holds 64 KiB:
# `main` cuts every command's text into writes of exactly that size.  Writes
# of varying size make the 64 KiB reads of perfbench/spawn.py vary too, and
# its heap grew by about 3 MB a pass (whole node texts of `generate`).
WRITE_SIZE = 64 * 1024
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
SUITES = ("eco", "labelling", "series", "pde")


def _check_cap(n: int, cap: int, what: str, force: bool) -> None:
    if n > cap and not force:
        raise ValueError(f"{what} past n={cap} needs --force")


def _integer(text: str) -> int:
    # ASCII digits only: int() also takes other scripts' digits, "1_0" and " 2 "
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


def _cmd_count(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
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
    return 0, (f"{value}\n" for value in values)


def _template(node: Perm, depth: int, start: str, sep: str, end: str, codes: list[str]) -> str:
    """The text, in tree order, of the descendants ``depth`` levels down of any
    node of this one's shape, with the new minima as their digits and each
    letter of the node, moved up by ``depth``, as the code of its position:
    ``codes[i]`` for the letter at ``node[i]``.  Each move in ``eco._moves``
    places the node's letters by their positions alone, so the text of any
    node of the shape is this one with its own letters filled in."""
    words = [node]
    for _ in range(depth):
        words = [child for word in words for child in _children(word)]
    # the words as chars, U+0000 between two, and between two letters a gap char above
    # every letter: ASCII through n = 126, as translate's one-char-for-one path needs
    gap = chr(len(node) + depth + 1)
    text = gap.join(b"\0".join(map(bytes, words)).decode("latin-1")).replace(gap + "\0" + gap, "\0")
    table = {0: "\n", ord(gap): " ", **{v: str(v) for v in range(1, depth + 1)}}
    table.update({v + depth: code for v, code in zip(node, codes)})  # no code is " " or "\n"
    return start + text.translate(table).replace(" ", sep).replace("\n", end + start) + end


def _writes(texts: Iterable[str]) -> Iterator[str]:
    """The texts, joined and cut into writes of ``WRITE_SIZE`` characters;
    the last write is shorter, and none is empty."""
    rest = ""
    for text in texts:
        rest += text
        while len(rest) >= WRITE_SIZE:
            yield rest[:WRITE_SIZE]
            rest = rest[WRITE_SIZE:]
    if rest:
        yield rest


def _cmd_generate(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    _check_cap(args.n, GENERATE_CAP, "generating", args.force)
    n, lines = args.n, args.format == "lines"
    depth = min(max(n - 1, 0), GENERATE_DEPTH)  # 0 for n < 1, which iter_level rejects
    nodes = gentree.iter_level(n - depth)
    start, sep, end = ("", " ", "\n") if lines else (", [", ", ", "]")
    # a position's code is `width` chars, none a digit or a separator, ASCII first
    width = len(str(n))
    chars = [c for c in range(128 + n * width) if chr(c) not in "0123456789 ,[]\n"]
    codes = ["".join(map(chr, chars[i : i + width])) for i in range(0, n * width, width)]
    # a node letter's text, moved up and left-padded with None, which translate deletes
    texts = [(None,) * (width - len(t)) + tuple(t) for t in map(str, range(depth, n + depth + 1))]
    templates: dict[tuple[int, ...], str] = {}

    def node_texts() -> Iterator[str]:
        for node in nodes:
            shape = _shape(node)
            if shape not in templates:
                templates[shape] = _template(node, depth, start, sep, end, codes)
            letters = chain.from_iterable(map(texts.__getitem__, node))
            yield templates[shape].translate(dict(zip(chars, letters)))

    pieces = node_texts()
    if not lines:  # json.dumps(level) and a newline: the first item drops its ", "
        pieces = chain(["[" + next(pieces)[2:]], pieces, ["]\n"])
    return 0, pieces


def _cmd_triangle(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    if args.which == "census":
        _check_cap(args.n, CENSUS_CAP, "brute census", args.force)
        rows = brute.census_rows(PATTERN, args.n, force=args.force)
    else:
        _check_cap(args.n, RECURRENCE_CAP, f"triangle {args.which}", args.force)
        rule = gentree.LAMBDA_RULE if args.which == "u" else gentree.OMEGA_RULE
        rows = counting.triangle_rows(rule, args.n)
    return 0, counting.csv_rows(rows)


def _cmd_tree(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    return 0, gentree.export_tree(args.n, args.format, force=args.force)


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
    check_length(n_max, 1)
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


def _cmd_verify(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    wanted = SUITES if args.suite == "all" else (args.suite,)
    _check_cap(args.n, PDE_CAP if wanted == ("pde",) else VERIFY_CAP, "verifying", args.force)
    results: dict[str, dict[str, object]] = {}
    for suite in wanted:
        if suite == "eco":
            ok, detail = _verify_eco(args.n, args.force)
        elif suite == "series":
            fe = counting.check_functional_equation(args.n)
            cf = counting.compare_cfrac_with_counts(args.n)
            ok = fe.ok
            detail = f"functional equation: {fe}; note: {cf}"
        else:
            check = gentree.verify_labelling if suite == "labelling" else counting.check_pde
            report = check(args.n)
            ok, detail = report.ok, str(report)
        results[suite] = {"ok": ok, "detail": detail}
    all_ok = all(bool(r["ok"]) for r in results.values())
    if args.json:
        import json  # here alone: it costs every other command's start about 1 ms
        text = json.dumps({"n": args.n, "ok": all_ok, "suites": results}, indent=2) + "\n"
    else:
        text = "".join(
            f"{suite}: {'ok' if r['ok'] else 'FAIL'} ({r['detail']})\n" for suite, r in results.items()
        )
    return (0 if all_ok else 1), [text]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vincular",
        description="Generating tree, recurrences and checks for 1-32-4 avoiding permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print the counting sequence for lengths 0..n")
    count.add_argument("--pattern", default="1-32-4")
    count.add_argument("--n", type=_integer, required=True)
    count.add_argument(
        "--method", choices=("tree", "recurrence", "brute", "cfrac"), default="recurrence"
    )
    count.set_defaults(func=_cmd_count)

    generate = sub.add_parser("generate", help="print all avoiders of length n in tree order")
    generate.add_argument("--n", type=_integer, required=True)
    generate.add_argument("--format", choices=("lines", "json"), default="lines")
    generate.set_defaults(func=_cmd_generate)

    triangle = sub.add_parser("triangle", help="csv dump of a refinement triangle")
    triangle.add_argument("--which", choices=("u", "v", "census"), required=True)
    triangle.add_argument("--n", type=_integer, required=True)
    triangle.set_defaults(func=_cmd_triangle)

    tree = sub.add_parser("tree", help="export the generating tree")
    tree.add_argument("--n", type=_integer, required=True)
    tree.add_argument("--format", choices=("dot", "json"), default="dot")
    tree.set_defaults(func=_cmd_tree)

    verify = sub.add_parser("verify", help="run consistency suites; exit 0 only if all pass")
    verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    verify.add_argument("--n", type=_integer, default=6)
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
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()  # Python 3.10.7 and later
    if args.force and limit is not None:
        sys.set_int_max_str_digits(0)  # counts past 4,300 digits; --n was parsed under the limit
    try:
        code, texts = args.func(args)
        # one WRITE_SIZE cut of the text per write; with PYTHONUNBUFFERED, a system call
        for text in _writes(texts):
            sys.stdout.write(text)
        sys.stdout.flush()  # here, not at exit, so that a closed pipe lands below
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: drop what is left, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:  # after the writes, where the texts turn counts into digits
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
