"""Brute-force oracle: grow avoiders by appending a letter, with a generic
occurrence test.

A node is an avoider of length m, a permutation of 1..m.  A child appends
a last letter of rank v in 1..m + 1 and moves the letters >= v up by one
(the tree of all permutations with active sites on the right; West,
Discrete Math. 1995).  That keeps the order and adjacency of the letters,
so every prefix of an avoider is an avoider, each avoider of length m is
reached once, at depth m, and a child is dropped as soon as its new letter
ends an occurrence (``perms.occurs_ending_at``).  One search yields every
length up to n_max, each sorted at the end.  Everything here ignores the
block structure of the class, so its output can arbitrate the fast paths;
``_filter_avoiders``, which filters the whole symmetric group with
``avoids``, is the slow reference the tests pin the search to.
Enumeration is capped at length 10 unless ``force`` is passed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from itertools import permutations
from typing import NamedTuple

from .blocks import PATTERN
from .gentree import generate_level
from .perms import DashedPattern, Perm, avoids, label, occurs_ending_at

# `count --method brute --n 10` holds every level: 7.2-9.3 s, 178 MB peak RSS
# on one CPU of a 2-CPU Xeon, Python 3.11 (`count --n 0` 0.12-0.17 s there).
ENUMERATION_CAP = 10
# oracle_diff enumerates every level up to its length twice, by tree and by
# brute force.
ORACLE_CAP = 9

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


def _grow(pattern: DashedPattern, n_max: int) -> list[list[Perm]]:
    """The avoiders of every length 0..n_max, level by level, each level in
    no particular order."""
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


def avoider_levels(pattern: DashedPattern, n_max: int, *, force: bool = False) -> list[list[Perm]]:
    """The avoiders of ``pattern`` of every length 0..n_max, each length in
    lexicographic order: one search from the empty word, in this process.

    >>> [len(level) for level in avoider_levels(PATTERN, 5)]
    [1, 1, 2, 6, 23, 105]
    """
    if n_max < 0:
        raise ValueError(f"length must be nonnegative: {n_max}")
    if n_max > ENUMERATION_CAP and not force:
        raise ValueError(f"enumerating length {n_max} needs force=True (cap {ENUMERATION_CAP})")
    levels = _grow(pattern, n_max)
    for level in levels:
        level.sort()
    return levels


def brute_avoiders(pattern: DashedPattern, n: int, *, force: bool = False) -> list[Perm]:
    """All avoiders of ``pattern`` of length n, in lexicographic order:
    the last level of ``avoider_levels``.

    >>> len(brute_avoiders(PATTERN, 4))
    23
    """
    return avoider_levels(pattern, n, force=force)[n]


def histogram(stat: Callable[[Perm], int], words: Iterable[Perm]) -> dict[int, int]:
    """How many of ``words`` take each value of ``stat``, by increasing value."""
    return dict(sorted(Counter(map(stat, words)).items()))


def brute_census(
    pattern: DashedPattern, n: int, statistic: str = "label", force: bool = False
) -> dict[int, int]:
    """Histogram of a statistic over the avoiders of length n.

    >>> brute_census(PATTERN, 4)
    {0: 6, 1: 10, 2: 6, 3: 1}
    """
    try:
        stat = STATISTICS[statistic]
    except KeyError:
        raise ValueError(f"unknown statistic {statistic!r}, have {sorted(STATISTICS)}") from None
    if n < 1:
        raise ValueError(f"census needs length at least 1: {n}")
    return histogram(stat, brute_avoiders(pattern, n, force=force))


class DiffReport(NamedTuple):
    ok: bool
    levels: tuple[tuple[int, int, int], ...]
    missing: tuple[Perm, ...]
    extra: tuple[Perm, ...]
    duplicates: tuple[Perm, ...]

    def __str__(self) -> str:
        if self.ok:
            top = self.levels[-1][0] if self.levels else 0
            return f"tree agrees with brute force through length {top}"
        return (
            f"tree disagrees with brute force: {len(self.missing)} missing, "
            f"{len(self.extra)} extra, {len(self.duplicates)} duplicated"
        )


def oracle_diff(n_max: int, *, force: bool = False) -> DiffReport:
    """Compare the generating tree against brute enumeration, level by
    level up to length n_max (capped at ``ORACLE_CAP`` without ``force``).
    Both sides run in this process.

    ``missing`` holds avoiders the tree never produced, ``extra`` holds
    tree output the brute filter rejects, ``duplicates`` holds tree output
    produced more than once; a sample of at most ten each is kept.
    """
    if n_max < 1:
        raise ValueError(f"need at least length 1: {n_max}")
    if n_max > ORACLE_CAP and not force:
        raise ValueError(f"oracle_diff past length {ORACLE_CAP} needs force=True, got {n_max}")
    levels: list[tuple[int, int, int]] = []
    missing: list[Perm] = []
    extra: list[Perm] = []
    duplicates: list[Perm] = []
    for n, brute in enumerate(avoider_levels(PATTERN, n_max, force=force)[1:], 1):
        tree = generate_level(n)
        levels.append((n, len(tree), len(brute)))
        tree_set = set(tree)
        brute_set = set(brute)
        if len(tree_set) < len(tree):
            seen: set[Perm] = set()
            for w in tree:
                if w in seen and len(duplicates) < 10:
                    duplicates.append(w)
                seen.add(w)
        missing.extend(sorted(brute_set - tree_set)[: max(0, 10 - len(missing))])
        extra.extend(sorted(tree_set - brute_set)[: max(0, 10 - len(extra))])
    ok = not missing and not extra and not duplicates
    return DiffReport(ok, tuple(levels), tuple(missing), tuple(extra), tuple(duplicates))
