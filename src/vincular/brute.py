"""Brute-force oracle: grow avoiders by appending a letter, with a generic
occurrence test.

A node is an avoider of length m, a permutation of 1..m.  A child appends a
last letter of rank v in 1..m + 1 and moves the letters >= v up by one (the
tree of all permutations with active sites on the right; West, Discrete
Math. 1995).  That keeps the order and adjacency of the letters, so every
prefix of an avoider is an avoider, each avoider of length m is reached
once, at depth m, and a child is dropped as soon as its new letter ends an
occurrence.  ``_walk`` goes depth first and so meets each length in
breadth-first order; only ``brute_avoiders`` sorts its one length.
Everything here ignores the block structure of the class, so its output can
arbitrate the fast paths; the tests pin it to ``_filter_avoiders``, which
filters the whole symmetric group with ``avoids``.

One search per word, ``perms.ranks_ending``, finds every rank whose letter
ends an occurrence: they form a union of intervals, one per match of the
pattern's other letters in the word, whose order and positions the new
letter does not change.  A match ends an occurrence exactly when the new
letter falls between its letters lo and hi just below and just above the
last pattern letter (0 and m + 1 for none), and the letter of rank v sits
between v - 1 and v: at the ranks lo + 1..hi.  When the last pattern letter
is the largest (1-32-4, 1-23-4), hi is always m + 1 and the union is an
up-set; for 31-4-2 it may have gaps.

``_walk`` yields each word with the bitmask of the ranks that extend it and
the children it built for its stack, none at length n_max - 1.  The child of
rank v differs from that of rank v - 1 only in its last letter and in the
letter v - 1, which stays instead of moving up to v, so ``_grown`` builds
them by increasing rank from one list, with two stores each.  The folds
``avoider_levels`` and ``census_rows`` read those children and build only
the last length's, so each avoider is built once; ``level_sizes`` adds up
the bits.  Only ``avoider_levels`` holds a level.  ``oracle_diff``
holds the tree's count of each length against ``level_sizes`` for
``verify --suite eco``.  ``_check_length`` checks a length with
``perms.check_length`` and caps it at 10 unless ``force`` is passed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import permutations

from .blocks import PATTERN
# Unused here; perfbench/tracing.py needs ``generate_level`` and the pool hook.
from .gentree import __getattr__, generate_level
from .perms import DashedPattern, Perm, avoids, check_length, label, ranks_ending

# The walk holds no level: at n = 10, `count --method brute` takes 0.9-1.3 s for
# 1-32-4, 1-23-4 and 31-4-2, `triangle --which census` 2.0 s, all in 15 MB (one
# CPU of a 2-vCPU Xeon, Python 3.11, where `count --n 0` takes 0.06-0.08 s, 14.7 MB).
ENUMERATION_CAP = 10

# Unused here; perfbench/tracing.py requires this entry.
STATISTICS = {"label": label}


def _filter_avoiders(pattern: DashedPattern, n: int) -> list[Perm]:
    # The reference for ``brute_avoiders``: test every word in full.
    return [w for w in permutations(range(1, n + 1)) if avoids(pattern, w)]


def _grown(word: Perm, free: int) -> list[Perm]:
    # The children of the ranks in free: the list holds rank v's, then keeps the letter v.
    m = len(word)
    child = [x + 1 for x in word] + [0]
    children = []
    for v, p in enumerate(sorted(range(m), key=word.__getitem__) + [m], 1):
        child[m] = v
        if free >> v & 1:
            children.append(tuple(child))
        child[p] = v
    return children


def _walk(pattern: DashedPattern, n_max: int) -> Iterator[tuple[Perm, int, list[Perm] | None]]:
    # Every avoider shorter than n_max, depth first, with its free ranks and children.
    stack: list[Perm] = [()] if n_max > 0 else []
    while stack:
        word = stack.pop()
        m = len(word)
        free = ~ranks_ending(pattern, word) & ((2 << (m + 1)) - 2)
        children = _grown(word, free) if m < n_max - 1 else None
        stack += reversed(children or ())
        yield word, free, children


def _check_length(n_max: int, force: bool) -> None:
    check_length(n_max)
    if n_max > ENUMERATION_CAP and not force:
        raise ValueError(f"enumerating length {n_max} needs force=True (cap {ENUMERATION_CAP})")


def avoider_levels(pattern: DashedPattern, n_max: int, *, force: bool = False) -> list[list[Perm]]:
    """The avoiders of ``pattern`` of every length 0..n_max: each word's
    children in one walk, each length in the order the walk meets it.

    >>> [len(level) for level in avoider_levels(PATTERN, 5)]
    [1, 1, 2, 6, 23, 105]
    """
    _check_length(n_max, force)
    levels: list[list[Perm]] = [[()]] + [[] for _ in range(n_max)]
    for word, free, children in _walk(pattern, n_max):
        levels[len(word) + 1] += _grown(word, free) if children is None else children
    return levels


def level_sizes(pattern: DashedPattern, n_max: int, *, force: bool = False) -> list[int]:
    """The number of avoiders of ``pattern`` of every length 0..n_max: each
    word's free ranks in one walk, counted; no word of length n_max is built.

    >>> level_sizes(PATTERN, 5)
    [1, 1, 2, 6, 23, 105]
    """
    _check_length(n_max, force)
    sizes = [1] + [0] * n_max
    for word, free, _ in _walk(pattern, n_max):
        sizes[len(word) + 1] += free.bit_count()
    return sizes


def brute_avoiders(pattern: DashedPattern, n: int, *, force: bool = False) -> list[Perm]:
    """All avoiders of ``pattern`` of length n, in lexicographic order:
    the last level of ``avoider_levels``, sorted.

    >>> len(brute_avoiders(PATTERN, 4))
    23
    """
    return sorted(avoider_levels(pattern, n, force=force)[n])


def histogram(stat: Callable[[Perm], int], words: Iterable[Perm]) -> dict[int, int]:
    """How many of ``words`` take each value of ``stat``, by increasing value."""
    return dict(sorted(Counter(map(stat, words)).items()))


def census_rows(pattern: DashedPattern, n_max: int, *, force: bool = False) -> Iterator[dict[int, int]]:
    """Rows 0..n_max of the label census, n_max checked on the call: row n
    is the label histogram of length n, row 0 empty (the empty word has no
    label).  The labels of each word's children in one walk, counted.

    >>> list(census_rows(PATTERN, 3))
    [{}, {0: 1}, {0: 1, 1: 1}, {0: 2, 1: 3, 2: 1}]
    """
    _check_length(n_max, force)
    rows: list[Counter[int]] = [Counter() for _ in range(n_max + 1)]
    for word, free, children in _walk(pattern, n_max):
        rows[len(word) + 1].update(map(label, _grown(word, free) if children is None else children))
    return (dict(sorted(row.items())) for row in rows)


def brute_census(pattern: DashedPattern, n: int, *, force: bool = False) -> dict[int, int]:
    """Histogram of the label at length n: the last row of ``census_rows``.

    >>> brute_census(PATTERN, 4)
    {0: 6, 1: 10, 2: 6, 3: 1}
    """
    check_length(n, 1)
    return list(census_rows(pattern, n, force=force))[n]


def oracle_diff(sizes: Sequence[int], *, force: bool = False) -> str | None:
    """The first length n where ``sizes[n]`` is not the number of 1-32-4
    avoiders of length n, named with both counts, or ``None``.

    >>> oracle_diff([1, 1, 2, 5])
    'length 3: 5 words, brute force finds 6'
    """
    for n, (size, found) in enumerate(zip(sizes, level_sizes(PATTERN, len(sizes) - 1, force=force))):
        if size != found:
            return f"length {n}: {size} words, brute force finds {found}"
    return None
