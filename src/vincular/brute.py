"""Brute-force oracle: build avoiders letter by letter with a generic
occurrence test.

Words grow depth-first, one letter at a time, with values tried in
increasing order, so avoiders come out in lexicographic order.  Dashes only
constrain adjacency, so an occurrence inside a prefix stays an occurrence in
every extension of it: a prefix is pruned as soon as it contains one, and
each new letter is checked only for the occurrences that end at it
(``perms.occurs_ending_at``).  Everything here deliberately ignores the
block structure of the class, so its output can arbitrate the fast paths.
``_filter_avoiders``, which filters the whole symmetric group with
``avoids``, is the slow reference the tests pin the search to.
Enumeration is capped at length 10 (3.6 million words) to keep accidental
calls cheap; pass ``force`` to go past the cap.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from itertools import permutations, repeat

from .blocks import PATTERN
from .gentree import generate_level
from .perms import DashedPattern, Perm, avoids, label, occurs_ending_at

ENUMERATION_CAP = 10
# oracle_diff enumerates every level up to its length twice, by tree and by
# brute force.
ORACLE_CAP = 9

STATISTICS = {"label": label}


def _filter_avoiders(pattern: DashedPattern, n: int) -> list[Perm]:
    # The reference for ``brute_avoiders``: test every word in full.
    return [w for w in permutations(range(1, n + 1)) if avoids(pattern, w)]


def _avoider_chunk(pattern: DashedPattern, n: int, first: int) -> list[Perm]:
    """Avoiders of length n >= 1 that begin with ``first``, in
    lexicographic order."""
    word = [first] + [0] * (n - 1)
    if occurs_ending_at(pattern, word, 0):
        return []
    # free[m] lists the values not in word[:m] in increasing order, and
    # tried[m] is the index in free[m] of the value last put at word[m].
    free: list[list[int]] = [[]] * (n + 1)
    free[1] = [v for v in range(1, n + 1) if v != first]
    tried = [-1] * (n + 1)
    out: list[Perm] = []
    m = 1
    while m > 0:
        if m == n:
            out.append(tuple(word))
            m -= 1
            continue
        values = free[m]
        i = tried[m] + 1
        if i == len(values):
            m -= 1
            continue
        tried[m] = i
        word[m] = values[i]
        if occurs_ending_at(pattern, word, m):
            continue
        m += 1
        free[m] = values[:i] + values[i + 1 :]
        tried[m] = -1
    return out


def pool_size(workers: int, chunks: int) -> int:
    """Processes worth starting for ``chunks`` pieces of work: at most
    ``workers``, the number of pieces and the CPU count, and at least one."""
    return max(1, min(workers, chunks, os.cpu_count() or 1))


def brute_avoiders(
    pattern: DashedPattern, n: int, workers: int = 1, force: bool = False
) -> list[Perm]:
    """All avoiders of ``pattern`` of length n, in lexicographic order.

    The search runs one chunk per first letter, in a process pool when
    ``workers`` > 1 and n > 6; the order and content do not depend on
    ``workers``.

    >>> len(brute_avoiders(PATTERN, 4))
    23
    """
    if n < 0:
        raise ValueError(f"length must be nonnegative: {n}")
    if n > ENUMERATION_CAP and not force:
        raise ValueError(f"enumerating length {n} needs force=True (cap {ENUMERATION_CAP})")
    if n == 0:
        return [()]
    firsts = range(1, n + 1)
    if workers <= 1 or n <= 6:
        chunks = [_avoider_chunk(pattern, n, first) for first in firsts]
    else:
        with ProcessPoolExecutor(max_workers=pool_size(workers, n)) as pool:
            chunks = list(pool.map(_avoider_chunk, repeat(pattern), repeat(n), firsts))
    return [w for chunk in chunks for w in chunk]


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
    counts: dict[int, int] = {}
    for word in brute_avoiders(pattern, n, force=force):
        value = stat(word)
        counts[value] = counts.get(value, 0) + 1
    return dict(sorted(counts.items()))


@dataclasses.dataclass(frozen=True)
class DiffReport:
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


def oracle_diff(n_max: int, workers: int = 1, force: bool = False) -> DiffReport:
    """Compare the generating tree against brute enumeration, level by
    level up to length n_max (capped at ``ORACLE_CAP`` without ``force``).
    ``workers`` goes to ``brute_avoiders``; the tree is walked serially.

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
    for n in range(1, n_max + 1):
        tree = generate_level(n)
        brute = brute_avoiders(PATTERN, n, workers=workers, force=force)
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
