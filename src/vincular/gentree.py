"""The succession rule and the generating tree of ``eco.expand``.

The tree has the single letter 1 at its root; the children of a node are
its expansions in canonical order.  Labels evolve by the rule

    (0),  (k) -> (0)(1)(1)(2)(2)(2)...(k)^{k+1}(k+1)

and the same rule with axiom (1) describes the tree with every label
moved up by one; both are instances of ``SuccessionRule``.  Level n of the
tree (root at level 1) holds the avoiders of length n exactly once, and
``SuccessionRule.levels`` gives the multiset of their labels one suffix
sum per level; the triangles of ``counting`` are read from it.

``walk(n)`` is the traversal every level reader uses: an explicit stack of
words from the root, each node's children from one ``eco._children`` call,
built from the moves without re-checking avoidance.  ``iter_level`` streams
its last level and the other readers take its (node, children) pairs; the
dot and json exports stream, recursing through the validated ``eco.expand``.
"""

from __future__ import annotations

import functools
from itertools import accumulate, chain, islice
from typing import Iterator, NamedTuple

from .eco import _children, expand
from .perms import Perm, label

ROOT: Perm = (1,)

# For readability and time, not memory: a dot file past it is unreadable and
# slow to lay out, and `tree --n 9 --format json --force` streams 91 MB, in
# about 1 s of CPU at a 15 MB peak (one CPU of a Xeon, Python 3.11).
TREE_CAP = 8


# Unused here and in brute, which imports this hook; perfbench/tracing.py patches
# ProcessPoolExecutor in both, resolved on first access (the pool stack costs ~20 ms).
def __getattr__(name: str) -> type:
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module has no attribute {name!r}")


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


def walk(n: int) -> Iterator[tuple[Perm, list[Perm]]]:
    """Every tree node of length 1..n-1 with its children, in depth-first
    tree order, one ``_children`` call each; no child of length n is pushed.

    >>> [(node, len(children)) for node, children in walk(3)]
    [((1,), 2), ((2, 1), 2), ((1, 2), 4)]
    """
    stack = [ROOT] if n > 1 else []
    while stack:
        node = stack.pop()
        children = _children(node)
        if len(node) < n - 1:
            stack.extend(reversed(children))
        yield node, children


def iter_level(n: int) -> Iterator[Perm]:
    """The avoiders of length n, yielded one by one in depth-first tree
    order.  n is checked here, at the call, not at the first ``next``.

    >>> words = iter_level(3)
    >>> next(words), sum(1 for _ in words)
    ((3, 2, 1), 5)
    """
    if n < 1:
        raise ValueError(f"level must be positive: {n}")
    if n == 1:
        return iter([ROOT])
    return chain.from_iterable(children for node, children in walk(n) if len(node) == n - 1)


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

    The root needs no check of its own: it is the walk's first node, and
    label k has (k+1)(k+2)/2 + 1 productions, so only the axiom 0 matches
    the root's two children.  The nodes are built by the moves, so none is
    validated again; ``verify --suite eco`` checks that every node avoids
    1-32-4, through the scan that ``reduce`` runs on each child.
    """
    if n_max < 1:
        raise ValueError(f"need at least length 1: {n_max}")
    productions = functools.cache(omega_rule().productions)  # once per label, not per node
    for checked, (node, children) in enumerate(walk(n_max + 1), 1):
        expected = productions(label(node))
        got = tuple(map(label, children))
        if got != expected:
            return LabellingReport(False, checked, (node, expected, got))
    return LabellingReport(True, checked, None)


def _dot_name(word: Perm) -> str:
    sep = "" if len(word) <= 9 else ","
    return f'"{sep.join(str(v) for v in word)} ({label(word)})"'


def _dot(word: Perm, name: str, n_max: int) -> Iterator[str]:
    """Each child's edge and line, just before the child's own subtree."""
    for _, child in expand(word) if len(word) < n_max else ():
        child_name = _dot_name(child)
        yield f"  {name} -> {child_name};\n  {child_name};\n"
        yield from _dot(child, child_name, n_max)


def _json(word: Perm, n_max: int, pad: str = "\n  ", head: str = "") -> Iterator[str]:
    """``json.dumps(node, indent=2)`` of the subtree at ``word``, after ``head``;
    ``pad`` is the newline and indent before each of its keys."""
    letters = f",{pad}  ".join(map(str, word))
    yield f'{head}{{{pad}"perm": [{pad}  {letters}{pad}],{pad}"label": {label(word)}'
    if len(word) < n_max:
        head = f',{pad}"children": [{pad}  '
        for _, child in expand(word):
            yield from _json(child, n_max, pad + "    ", head)
            head = f",{pad}  "
        yield f"{pad}]"
    yield f"{pad[:-2]}}}"


def export_tree(n_max: int, fmt: str = "dot", force: bool = False) -> Iterator[str]:
    """Stream the tree down to length n_max as graphviz dot or nested json, a
    node at a time; past ``TREE_CAP`` only if forced, every check at the call."""
    if n_max < 1:
        raise ValueError(f"need at least the root level: {n_max}")
    if n_max > TREE_CAP and not force:
        raise ValueError(f"tree export past n={TREE_CAP} needs --force (force=True)")
    if fmt == "dot":
        root = _dot_name(ROOT)
        head = f"digraph gentree {{\n  node [shape=box];\n  {root};\n"
        return chain([head], _dot(ROOT, root, n_max), ["}\n"])
    if fmt == "json":
        return chain(_json(ROOT, n_max), ["\n"])
    raise ValueError(f"unknown tree format: {fmt!r}")
