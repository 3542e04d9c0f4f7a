"""Succession rules and the generating tree of ``eco.expand``.

The tree has the single letter 1 at its root; the children of a node are
its expansions in canonical order.  Labels evolve by the rule

    (0),  (k) -> (0)(1)(1)(2)(2)(2)...(k)^{k+1}(k+1)

and a shifted variant with axiom (1) describes the same tree with every
label moved up by one.  Level n of the tree (root at level 1) holds the
avoiders of length n exactly once.

``generate_level`` walks the tree with an explicit stack of nodes kept as
their last block's runs and the word before it, and builds each child from
its move without re-checking avoidance or decomposing again.  The public
``expand`` and ``reduce`` still validate their input; ``verify_labelling``
and the ``eco`` verify suite use them, and the tests pin the walk to
``expand`` applied level by level.
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from typing import Callable

from .eco import expand
from .perms import Perm, label

ROOT: Perm = (1,)

# Past this a dot file is unreadable and slow to lay out, and the json
# tree of n = 9 is already 90 MB.
TREE_CAP = 8


@dataclasses.dataclass(frozen=True)
class SuccessionRule:
    axiom: int
    productions: Callable[[int], tuple[int, ...]]


def omega_rule() -> SuccessionRule:
    """Rule with axiom (0); label k produces each i in 0..k exactly i+1
    times, then k+1 once.

    >>> omega_rule().productions(2)
    (0, 1, 1, 2, 2, 2, 3)
    """

    def productions(k: int) -> tuple[int, ...]:
        if k < 0:
            raise ValueError(f"label must be nonnegative: {k}")
        out: list[int] = []
        for i in range(k + 1):
            out.extend([i] * (i + 1))
        out.append(k + 1)
        return tuple(out)

    return SuccessionRule(0, productions)


def lambda_rule() -> SuccessionRule:
    """Rule with axiom (1); label h produces each i in 1..h exactly i
    times, then h+1 once.  It is ``omega_rule`` with all labels up by one.

    >>> lambda_rule().productions(3)
    (1, 2, 2, 3, 3, 3, 4)
    """

    def productions(h: int) -> tuple[int, ...]:
        if h < 1:
            raise ValueError(f"label must be positive: {h}")
        out: list[int] = []
        for i in range(1, h + 1):
            out.extend([i] * i)
        out.append(h + 1)
        return tuple(out)

    return SuccessionRule(1, productions)


def level_label_counts(rule: SuccessionRule, n: int) -> dict[int, int]:
    """Multiset of labels at depth n of the rule's tree, root at depth 0.

    >>> level_label_counts(omega_rule(), 2)
    {0: 2, 1: 3, 2: 1}
    """
    if n < 0:
        raise ValueError(f"depth must be nonnegative: {n}")
    counts = {rule.axiom: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for lab, mult in counts.items():
            for child in rule.productions(lab):
                nxt[child] = nxt.get(child, 0) + mult
        counts = nxt
    return dict(sorted(counts.items()))


# A walk state (length, prefix, runs) is a tree node stored as its
# decomposition: ``prefix`` is the word before the head of the last block and
# ``runs`` are the increasing runs of that block.  Entries are stored as codes
# length + 1 - value, so a parent's entries keep their codes in every child:
# the new minimum takes code length + 1 and the old one keeps code length.
_State = tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]

_ROOT_STATE: _State = (1, (), ())


def _children(
    length: int, prefix: tuple[int, ...], runs: tuple[tuple[int, ...], ...]
) -> list[_State]:
    """Child states in the canonical order of ``eco.expand``, built from the
    moves alone: every child of an avoider is an avoider, so nothing is
    checked or decomposed again."""
    old, new = length, length + 1
    k = len(runs)
    out: list[_State] = []
    for i in range(k):
        # Partial(i, j): run j of the last i+1 runs joins the prefix
        cut = k - i - 1
        head = prefix + (old,)
        for run in runs[:cut]:
            head += run
        tail = runs[cut:]
        for j in range(i + 1):
            out.append((new, head + tail[j], tail[:j] + tail[j + 1 :]))
    out.append((new, prefix + (old,), runs))  # MoveAll
    for p in range(k):  # Insert(p + 1): the old minimum heads run p + 1
        out.append((new, prefix, runs[:p] + ((old,) + runs[p],) + runs[p + 1 :]))
    out.append((new, prefix, runs + ((old,),)))  # Insert(k + 1)
    return out


def _walk(start: _State, n: int) -> list[Perm]:
    """Descendants of length n of a walk state, in depth-first tree order."""
    out: list[Perm] = []
    stack = [start]
    while stack:
        length, prefix, runs = stack.pop()
        if length < n:
            stack.extend(reversed(_children(length, prefix, runs)))
            continue
        flat = prefix + (length,)
        for run in runs:
            flat += run
        top = length + 1
        out.append(tuple([top - code for code in flat]))
    return out


def pool_size(workers: int, chunks: int) -> int:
    """Processes worth starting for ``chunks`` pieces of work: at most
    ``workers``, the number of pieces and the CPU count, and at least one."""
    return max(1, min(workers, chunks, os.cpu_count() or 1))


def generate_level(n: int, workers: int = 1) -> list[Perm]:
    """All avoiders of length n, in depth-first tree order.

    The order is canonical: it does not depend on ``workers``.

    >>> generate_level(3)
    [(3, 2, 1), (3, 1, 2), (2, 3, 1), (2, 1, 3), (1, 2, 3), (1, 3, 2)]
    """
    if n < 1:
        raise ValueError(f"level must be positive: {n}")
    seed_len = 4
    if workers <= 1 or n <= seed_len:
        return _walk(_ROOT_STATE, n)
    seeds = [_ROOT_STATE]
    for _ in range(seed_len - 1):
        seeds = [child for state in seeds for child in _children(*state)]
    out: list[Perm] = []
    with ProcessPoolExecutor(max_workers=pool_size(workers, len(seeds))) as pool:
        for chunk in pool.map(_walk, seeds, repeat(n)):
            out.extend(chunk)
    return out


@dataclasses.dataclass(frozen=True)
class LabellingReport:
    ok: bool
    nodes_checked: int
    first_violation: tuple[Perm, tuple[int, ...], tuple[int, ...]] | None

    def __str__(self) -> str:
        if self.ok:
            return f"labelling consistent on {self.nodes_checked} nodes"
        node, expected, got = self.first_violation  # type: ignore[misc]
        return f"labelling broken at {node}: expected {expected}, got {got}"


def verify_labelling(n_max: int) -> LabellingReport:
    """Check, for every tree node of length at most n_max, that the labels
    of its children in canonical order are exactly the productions of its
    own label under ``omega_rule``.  n_max must be at least 1.
    """
    if n_max < 1:
        raise ValueError(f"need at least length 1: {n_max}")
    rule = omega_rule()
    if label(ROOT) != rule.axiom:
        return LabellingReport(False, 0, (ROOT, (rule.axiom,), (label(ROOT),)))
    checked = 0
    stack: list[Perm] = [ROOT]
    while stack:
        node = stack.pop()
        if len(node) > n_max:
            continue
        children = expand(node)
        expected = rule.productions(label(node))
        got = tuple(label(child) for _, child in children)
        checked += 1
        if got != expected:
            return LabellingReport(False, checked, (node, expected, got))
        if len(node) < n_max:
            stack.extend(child for _, child in children)
    return LabellingReport(True, checked, None)


def _compact(word: Perm) -> str:
    sep = "" if len(word) <= 9 else ","
    return sep.join(str(v) for v in word)


def _dot_lines(word: Perm, n_max: int, lines: list[str]) -> None:
    me = f'"{_compact(word)} ({label(word)})"'
    lines.append(f"  {me};")
    if len(word) < n_max:
        for _, child in expand(word):
            lines.append(f'  {me} -> "{_compact(child)} ({label(child)})";')
            _dot_lines(child, n_max, lines)


def _json_node(word: Perm, n_max: int) -> dict:
    node: dict = {"perm": list(word), "label": label(word)}
    if len(word) < n_max:
        node["children"] = [_json_node(child, n_max) for _, child in expand(word)]
    return node


def export_tree(n_max: int, fmt: str = "dot", force: bool = False) -> str:
    """Serialize the tree down to length n_max as graphviz dot or as
    nested json.  Both forms refuse n_max beyond ``TREE_CAP`` unless forced.
    """
    if n_max < 1:
        raise ValueError(f"need at least the root level: {n_max}")
    if n_max > TREE_CAP and not force:
        raise ValueError(f"tree export past n={TREE_CAP} needs --force (force=True)")
    if fmt == "dot":
        lines = ["digraph gentree {", "  node [shape=box];"]
        _dot_lines(ROOT, n_max, lines)
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(_json_node(ROOT, n_max), indent=2) + "\n"
    raise ValueError(f"unknown tree format: {fmt!r}")
