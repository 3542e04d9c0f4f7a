"""Brute-force oracle: grow avoiders by appending a letter, with a generic
occurrence test.

A node is an avoider of length m, a permutation of 1..m.  A child appends
a last letter of rank v in 1..m + 1 and moves the letters >= v up by one
(the tree of all permutations with active sites on the right; West,
Discrete Math. 1995).  That keeps the order and adjacency of the letters,
so every prefix of an avoider is an avoider, each avoider of length m is
reached once, at depth m, and a child is dropped as soon as its new letter
ends an occurrence (``perms.occurs_ending_at``).  One search yields every
length up to n_max, each in the order it finds it; only
``brute_avoiders`` sorts its one length.  Everything here ignores the
block structure of the class, so its output can arbitrate the fast paths;
``_filter_avoiders``, which filters the whole symmetric group with
``avoids``, is the slow reference the tests pin the search to.
``oracle_diff`` holds the tree's count of each length against the search's
for ``verify --suite eco``.  Enumeration is capped at length 10 unless
``force`` is passed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from itertools import permutations

from .blocks import PATTERN
# ``generate_level`` is unused here; perfbench/tracing.py requires this binding.
from .gentree import generate_level
from .perms import DashedPattern, Perm, avoids, label, occurs_ending_at

# `count --method brute --n 10` holds every level: 7.1-7.5 s, 174 MB peak RSS
# on one CPU of a 2-CPU Xeon, Python 3.11 (`count --n 0` 0.11-0.15 s there).
ENUMERATION_CAP = 10

STATISTICS = {"label": label}


# Unused here, but perfbench/tracing.py patches brute.ProcessPoolExecutor;
# resolved on first access, since the pool stack costs ~20 ms per command.
def __getattr__(name: str) -> type:
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _filter_avoiders(pattern: DashedPattern, n: int) -> list[Perm]:
    # The reference for ``brute_avoiders``: test every word in full.
    return [w for w in permutations(range(1, n + 1)) if avoids(pattern, w)]


def avoider_levels(pattern: DashedPattern, n_max: int, *, force: bool = False) -> list[list[Perm]]:
    """The avoiders of ``pattern`` of every length 0..n_max: one search from
    the empty word, each length in the order the search finds it.

    >>> [len(level) for level in avoider_levels(PATTERN, 5)]
    [1, 1, 2, 6, 23, 105]
    """
    if n_max < 0:
        raise ValueError(f"length must be nonnegative: {n_max}")
    if n_max > ENUMERATION_CAP and not force:
        raise ValueError(f"enumerating length {n_max} needs force=True (cap {ENUMERATION_CAP})")
    levels: list[list[Perm]] = [[()]]
    for _ in range(n_max):
        children: list[Perm] = []
        for word in levels[-1]:
            m = len(word)
            # the new last letter, of rank v, sits between v - 1 and v
            probe = [*word, 0.0]
            for v in range(1, m + 2):
                probe[m] = v - 0.5
                if not occurs_ending_at(pattern, probe, m):
                    children.append(tuple([x + (x >= v) for x in word]) + (v,))
        levels.append(children)
    return levels


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


def brute_census(pattern: DashedPattern, n: int, *, force: bool = False) -> dict[int, int]:
    """Histogram of the label over the avoiders of length n.

    >>> brute_census(PATTERN, 4)
    {0: 6, 1: 10, 2: 6, 3: 1}
    """
    if n < 1:
        raise ValueError(f"census needs length at least 1: {n}")
    return histogram(label, avoider_levels(pattern, n, force=force)[n])


def oracle_diff(sizes: Sequence[int], *, force: bool = False) -> str | None:
    """The first length n where ``sizes[n]`` is not the number of 1-32-4
    avoiders of length n, named with both counts, or ``None``.

    >>> oracle_diff([1, 1, 2, 5])
    'length 3: 5 words, brute force finds 6'
    """
    levels = avoider_levels(PATTERN, len(sizes) - 1, force=force)
    for n, (size, level) in enumerate(zip(sizes, levels)):
        if size != len(level):
            return f"length {n}: {size} words, brute force finds {len(level)}"
    return None
