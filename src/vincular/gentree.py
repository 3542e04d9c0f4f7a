"""The succession rule and the generating tree of ``eco.expand``.

The tree has the single letter 1 at its root; the children of a node are
its expansions in canonical order.  Labels evolve by the rule

    (0),  (k) -> (0)(1)(1)(2)(2)(2)...(k)^{k+1}(k+1)

and the same rule with axiom (1) describes the tree with every label
moved up by one; both are instances of ``SuccessionRule``.  Level n of the
tree (root at level 1) holds the avoiders of length n exactly once, and
``SuccessionRule.levels`` gives the multiset of their labels one suffix
sum per level; the triangles of ``counting`` are read from it.

``iter_level`` is ``eco._walk`` from the root: an explicit stack of
words, each node's children built by ``eco._children`` from the moves
without re-checking avoidance or decomposing again, and each avoider
yielded as the walk reaches it.  The last level is never pushed: a node
of length n - 1 yields its children as they come.  ``generate`` and
``count --method tree`` stream from it without holding a level;
``generate_level`` lists it.  ``verify_labelling`` walks the same words,
each node's children from one ``eco._children`` call, and labels each word
once.  ``eco.expand`` is one step of the walk behind validation of its
input; the dot and json exports use it.
"""

from __future__ import annotations

import json
from itertools import accumulate, islice
from typing import Iterator, NamedTuple

from .eco import _children, _walk, expand
from .perms import Perm, label

ROOT: Perm = (1,)

# Past this a dot file is unreadable and slow to lay out, and the json
# tree of n = 9 is already 90 MB.
TREE_CAP = 8


# Unused here, but perfbench/tracing.py patches gentree.ProcessPoolExecutor;
# resolved on first access, since the pool stack costs ~20 ms per command.
def __getattr__(name: str) -> type:
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SuccessionRule(NamedTuple):
    """Rule with axiom (a): label k produces each i in a..k exactly
    i + 1 - a times, then k + 1 once."""

    axiom: int

    def productions(self, k: int) -> tuple[int, ...]:
        """Child labels of a node labelled k, in canonical order."""
        a = self.axiom
        if k < a:
            raise ValueError(f"label below the axiom {a}: {k}")
        out: list[int] = []
        for i in range(a, k + 1):
            out += [i] * (i + 1 - a)
        out.append(k + 1)
        return tuple(out)

    def levels(self) -> Iterator[dict[int, int]]:
        """Label multisets at depths 0, 1, 2, ... of the rule's tree, each
        in increasing label.

        Label i at the next depth is the last production of every label
        i - 1, and is produced i + 1 - a times by every label j >= i, so
        one suffix sum per level makes the whole step:

            next[i] = prev[i-1] + (i+1-a) * sum_{j>=i} prev[j]

        >>> list(islice(SuccessionRule(1).levels(), 3))
        [{1: 1}, {1: 1, 2: 1}, {1: 2, 2: 3, 3: 1}]
        """
        row = [1]  # row[m] counts label a + m
        while True:
            yield {self.axiom + m: c for m, c in enumerate(row)}
            suffix = [*accumulate(reversed(row))][::-1] + [0]  # sum of row[m:]
            row = [p + (m + 1) * s for m, (p, s) in enumerate(zip([0] + row, suffix))]


def omega_rule() -> SuccessionRule:
    """The tree's rule: axiom (0), (k) -> (0)(1)(1)...(k)^{k+1}(k+1).

    >>> omega_rule().productions(2)
    (0, 1, 1, 2, 2, 2, 3)
    """
    return SuccessionRule(0)


def lambda_rule() -> SuccessionRule:
    """``omega_rule`` with every label moved up by one: axiom (1).

    >>> lambda_rule().productions(3)
    (1, 2, 2, 3, 3, 3, 4)
    """
    return SuccessionRule(1)


def level_label_counts(rule: SuccessionRule, n: int) -> dict[int, int]:
    """Multiset of labels at depth n of the rule's tree, root at depth 0.

    >>> level_label_counts(omega_rule(), 2)
    {0: 2, 1: 3, 2: 1}
    """
    if n < 0:
        raise ValueError(f"depth must be nonnegative: {n}")
    return next(islice(rule.levels(), n, None))


def iter_level(n: int) -> Iterator[Perm]:
    """The avoiders of length n, yielded one by one in depth-first tree
    order.  n is checked here, at the call, not at the first ``next``.

    >>> words = iter_level(3)
    >>> next(words), sum(1 for _ in words)
    ((3, 2, 1), 5)
    """
    if n < 1:
        raise ValueError(f"level must be positive: {n}")
    return _walk(n)


def generate_level(n: int) -> list[Perm]:
    """All avoiders of length n, in depth-first tree order.

    >>> generate_level(3)
    [(3, 2, 1), (3, 1, 2), (2, 3, 1), (2, 1, 3), (1, 2, 3), (1, 3, 2)]
    """
    return list(iter_level(n))


class LabellingReport(NamedTuple):
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

    The nodes are words built by the moves, so no node is validated again;
    that every node avoids 1-32-4 is checked against the brute-force oracle
    by ``verify --suite eco``.
    """
    if n_max < 1:
        raise ValueError(f"need at least length 1: {n_max}")
    rule = omega_rule()
    if label(ROOT) != rule.axiom:
        return LabellingReport(False, 0, (ROOT, (rule.axiom,), (label(ROOT),)))
    checked = 0
    # (word, label) of each node still to check
    stack = [(ROOT, rule.axiom)]
    while stack:
        node, node_label = stack.pop()
        words = _children(node)
        expected = rule.productions(node_label)
        got = tuple(label(word) for word in words)
        checked += 1
        if got != expected:
            return LabellingReport(False, checked, (node, expected, got))
        if len(node) < n_max:
            stack.extend(zip(words, got))
    return LabellingReport(True, checked, None)


def _dot_name(word: Perm) -> str:
    sep = "" if len(word) <= 9 else ","
    return f'"{sep.join(str(v) for v in word)} ({label(word)})"'


def _dot_lines(word: Perm, name: str, n_max: int, lines: list[str]) -> None:
    lines.append(f"  {name};")
    if len(word) < n_max:
        for _, child in expand(word):
            child_name = _dot_name(child)
            lines.append(f"  {name} -> {child_name};")
            _dot_lines(child, child_name, n_max, lines)


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
        _dot_lines(ROOT, _dot_name(ROOT), n_max, lines)
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(_json_node(ROOT, n_max), indent=2) + "\n"
    raise ValueError(f"unknown tree format: {fmt!r}")
