"""Brute-force oracle: grow avoiders by appending a letter, with a generic
occurrence test.

A node is an avoider of length m, a permutation of 1..m.  A child appends
a last letter of rank v in 1..m + 1 and moves the letters >= v up by one
(the tree of all permutations with active sites on the right; West,
Discrete Math. 1995).  That keeps the order and adjacency of the letters,
so every prefix of an avoider is an avoider, each avoider of length m is
reached once, at depth m, and a child is dropped as soon as its new letter
ends an occurrence (``perms.occurs_ending_at``).  ``_walk`` goes depth
first and so meets each length in breadth-first order; only
``brute_avoiders`` sorts its one length.  Everything here ignores the
block structure of the class, so its output can arbitrate the fast paths;
``_filter_avoiders``, which filters the whole symmetric group with
``avoids``, is the slow reference the tests pin the search to.

When the pattern's last letter is its largest value (1-32-4, 1-23-4), the
ranks whose letter ends an occurrence form an up-set, so ``_walk`` tests
them from m + 1 down and stops at the first that ends none.  That is
exact.  Say rank v ends an occurrence and v' > v.  The occurrence matches
its other letters in the word, whose order and positions the new letter
does not change, and the new letter is above all of them at rank v, so
still above all of them at rank v'; the same positions are an occurrence
ending at rank v'.  So the first rank from the top that ends none, and
every rank below it, ends none.  Other patterns test every rank.

``avoider_levels``, ``level_sizes`` and ``census_rows`` are each one fold
over the walk, and only ``avoider_levels`` holds a level.  ``oracle_diff``
holds the tree's count of each length against ``level_sizes`` for
``verify --suite eco``.  Enumeration is capped at length 10 unless
``force`` is passed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import permutations

from .blocks import PATTERN
# Unused here; perfbench/tracing.py needs ``generate_level`` and the pool hook.
from .gentree import __getattr__, generate_level
from .perms import DashedPattern, Perm, avoids, label, occurs_ending_at

# The walk holds no level: at n = 10, `count --method brute` takes 1.2 s
# (31-4-2, which tests every rank, 3.7-4.5 s) and `triangle --which census`
# 3.0-3.2 s, all 15 MB, on one CPU of a 2-vCPU Xeon, Python 3.11
# (`count --n 0` 0.07 s and 14.6 MB there).
ENUMERATION_CAP = 10

# Unused here; perfbench/tracing.py requires this entry.
STATISTICS = {"label": label}


def _filter_avoiders(pattern: DashedPattern, n: int) -> list[Perm]:
    # The reference for ``brute_avoiders``: test every word in full.
    return [w for w in permutations(range(1, n + 1)) if avoids(pattern, w)]


def _grown(word: Perm, ranks: list[int]) -> list[Perm]:
    # The word's children, by increasing rank of the new last letter.
    return [tuple([x + (x >= v) for x in word]) + (v,) for v in ranks]


def _walk(pattern: DashedPattern, n_max: int) -> Iterator[tuple[Perm, list[int]]]:
    # Every avoider shorter than n_max, depth first, with the increasing ranks
    # of the last letters that end no occurrence (the cut: module docstring).
    cut = pattern.underlying[-1] == len(pattern.underlying)
    stack: list[Perm] = [()] if n_max > 0 else []
    while stack:
        word = stack.pop()
        m = len(word)
        # the new last letter, of rank v, sits between v - 1 and v
        probe = [*word, 0.0]
        ranks: list[int] = []
        for v in range(m + 1, 0, -1):
            probe[m] = v - 0.5
            if not occurs_ending_at(pattern, probe, m):
                if cut:
                    ranks = list(range(1, v + 1))
                    break
                ranks.insert(0, v)
        if m < n_max - 1:
            stack += reversed(_grown(word, ranks))
        yield word, ranks


def _check_length(n_max: int, force: bool) -> None:
    if n_max < 0:
        raise ValueError(f"length must be nonnegative: {n_max}")
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
    for word, ranks in _walk(pattern, n_max):
        levels[len(word) + 1] += _grown(word, ranks)
    return levels


def level_sizes(pattern: DashedPattern, n_max: int, *, force: bool = False) -> list[int]:
    """The number of avoiders of ``pattern`` of every length 0..n_max: each
    word's ranks in one walk, summed; no word of length n_max is built.

    >>> level_sizes(PATTERN, 5)
    [1, 1, 2, 6, 23, 105]
    """
    _check_length(n_max, force)
    sizes = [1] + [0] * n_max
    for word, ranks in _walk(pattern, n_max):
        sizes[len(word) + 1] += len(ranks)
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
    for word, ranks in _walk(pattern, n_max):
        rows[len(word) + 1].update(map(label, _grown(word, ranks)))
    return (dict(sorted(row.items())) for row in rows)


def brute_census(pattern: DashedPattern, n: int, *, force: bool = False) -> dict[int, int]:
    """Histogram of the label at length n: the last row of ``census_rows``.

    >>> brute_census(PATTERN, 4)
    {0: 6, 1: 10, 2: 6, 3: 1}
    """
    if n < 1:
        raise ValueError(f"census needs length at least 1: {n}")
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
