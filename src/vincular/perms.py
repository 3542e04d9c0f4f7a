"""Permutations as tuples, dashed patterns, and occurrence search.

A permutation of length n is a tuple containing each of 1..n exactly once.
The empty tuple is the empty permutation.  Functions that only compare
entries (occurrence search, reduction, maxima scans) accept any sequence of
distinct integers and are documented as such.

A dashed pattern is a permutation together with adjacency constraints: two
neighbouring letters written without a dash between them must occupy
adjacent positions in any occurrence, while a dash allows an arbitrary gap.
So an occurrence of 1-32-4 in t is a classical occurrence of 1324 whose
middle two letters sit side by side in t.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple, Sequence

Perm = tuple[int, ...]


def check_permutation(word: Sequence[int]) -> Perm:
    """Return ``word`` as a tuple, raising ValueError unless it is a
    permutation of 1..n.

    >>> check_permutation([2, 1, 3])
    (2, 1, 3)
    """
    w = tuple(word)
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {w}")
    return w


class _Dashes(NamedTuple):
    underlying: Perm
    adjacency: tuple[bool, ...]


# A subclass, so that ``__new__`` can check the fields and
# ``_suffix_plan`` has an instance ``__dict__`` to be cached in.
class DashedPattern(_Dashes):
    """A dashed (vincular) pattern.

    ``underlying`` is the classical pattern and ``adjacency[i]`` is True
    when letters i and i+1 (0-based) are written without a dash, i.e. must
    be matched to adjacent positions.
    """

    def __new__(cls, underlying: Perm, adjacency: tuple[bool, ...]) -> DashedPattern:
        check_permutation(underlying)
        if len(underlying) == 0:
            raise ValueError("empty pattern")
        if len(adjacency) != len(underlying) - 1:
            raise ValueError(f"need {len(underlying) - 1} adjacency flags, got {len(adjacency)}")
        return super().__new__(cls, underlying, adjacency)

    @functools.cached_property
    def _suffix_plan(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # For each pattern index j < k-1: the indices among j+1..k-1 whose
        # values are just below and just above pattern[j], -1 when there is
        # none.  See ``occurs_ending_at``.
        pat = self.underlying
        lows: list[int] = []
        highs: list[int] = []
        for j, value in enumerate(pat[:-1]):
            later = range(j + 1, len(pat))
            below = [i for i in later if pat[i] < value]
            above = [i for i in later if pat[i] > value]
            lows.append(max(below, key=pat.__getitem__) if below else -1)
            highs.append(min(above, key=pat.__getitem__) if above else -1)
        return tuple(lows), tuple(highs)

    def __str__(self) -> str:
        # adjacent letters are juxtaposed, or comma separated once a value has two digits
        join = "," if any(v > 9 for v in self.underlying) else ""
        parts = [str(self.underlying[0])]
        for adj, value in zip(self.adjacency, self.underlying[1:]):
            parts += [join if adj else "-", str(value)]
        return "".join(parts)


def parse_dashed_pattern(text: str) -> DashedPattern:
    """Parse dashed pattern notation.

    Single-digit values may be juxtaposed inside a dash-free block;
    multi-digit values must be comma separated.  A text with a comma or
    with at least ten blocks, as ``str`` writes a pattern with a value
    above 9, reads every comma-free block as one value.

    >>> p = parse_dashed_pattern("1-32-4")
    >>> p.underlying, p.adjacency
    ((1, 3, 2, 4), (False, True, False))
    >>> str(p)
    '1-32-4'
    >>> parse_dashed_pattern("31-4-2").adjacency
    (True, False, False)
    >>> parse_dashed_pattern("1-2-3-4-5-6-7-8-9-10").underlying[-1]
    10
    """
    blocks = text.split("-")
    if any(block == "" for block in blocks):
        raise ValueError(f"empty block in pattern: {text!r}")
    whole = "," in text or len(blocks) >= 10
    values: list[int] = []
    adjacency: list[bool] = []
    for bi, block in enumerate(blocks):
        if bi > 0:
            adjacency.append(False)
        tokens = block.split(",") if whole else list(block)
        for ti, tok in enumerate(tokens):
            if ti > 0:
                adjacency.append(True)
            if not (tok.isascii() and tok.isdigit()) or int(tok) == 0:
                raise ValueError(f"bad value {tok!r} in pattern: {text!r}")
            values.append(int(tok))
    return DashedPattern(tuple(values), tuple(adjacency))


def _search(pattern: DashedPattern, word: Sequence[int], chosen: list[int]) -> Iterator[tuple[int, ...]]:
    # Depth-first extension of a partial occurrence.  Candidates are tried
    # in increasing position order, so complete occurrences come out in
    # lexicographic order of their index tuples.
    j = len(chosen)
    pat = pattern.underlying
    if j == len(pat):
        yield tuple(chosen)
        return
    if j > 0 and pattern.adjacency[j - 1]:
        candidates = range(chosen[-1] + 1, min(chosen[-1] + 2, len(word)))
    else:
        start = chosen[-1] + 1 if j > 0 else 0
        candidates = range(start, len(word))
    for pos in candidates:
        ok = True
        for jj, q in enumerate(chosen):
            if (word[pos] > word[q]) != (pat[j] > pat[jj]):
                ok = False
                break
        if ok:
            chosen.append(pos)
            yield from _search(pattern, word, chosen)
            chosen.pop()


def occurs_ending_at(pattern: DashedPattern, word: Sequence[int], end: int) -> bool:
    """True when ``word`` has an occurrence of ``pattern`` whose last letter
    is at position ``end`` (0-based); letters after ``end`` are ignored.

    Letters are matched from the last pattern letter backwards.  A letter
    written without a dash before the one matched after it has exactly one
    candidate position; the others may sit anywhere further left.  Because
    the letters matched so far are already in the pattern's relative order,
    each candidate is compared only with the two of them whose pattern
    values are just below and just above its own.  ``word`` must have
    distinct entries, which is not checked; an ``end`` outside it raises ValueError.

    >>> p = parse_dashed_pattern("1-32-4")
    >>> occurs_ending_at(p, (1, 3, 2, 4), 3)
    True
    >>> occurs_ending_at(p, (1, 3, 2, 4, 5), 3), occurs_ending_at(p, (1, 3, 5, 2, 4), 4)
    (True, False)
    """
    if not 0 <= end < len(word):
        raise ValueError(f"end {end} is not a position of a word of length {len(word)}")
    adjacency = pattern.adjacency
    lows, highs = pattern._suffix_plan
    top = len(lows)  # index of the last pattern letter
    if end < top:
        return False
    if top == 0:
        return True
    # pos[i] is the position matched to pattern index i for i > j; the
    # candidates p for index j are tried right to left, and an exhausted
    # index backs up to the nearest later index that has a dash after it.
    pos = [0] * (top + 1)
    pos[top] = end
    j = top - 1
    p = end - 1
    while True:
        if p >= j:
            v = word[p]
            lo = lows[j]
            hi = highs[j]
            if (lo < 0 or word[pos[lo]] < v) and (hi < 0 or v < word[pos[hi]]):
                if j == 0:
                    return True
                pos[j] = p
                j -= 1
                p -= 1
                continue
            if not adjacency[j]:
                p -= 1
                continue
        j += 1
        while j < top and adjacency[j]:
            j += 1
        if j == top:
            return False
        p = pos[j] - 1


def occurrences(pattern: DashedPattern, word: Sequence[int]) -> list[tuple[int, ...]]:
    """All occurrences of ``pattern`` in ``word`` as 0-based position
    tuples, in lexicographic order.

    ``word`` must have distinct entries; this is not checked.

    >>> occurrences(parse_dashed_pattern("1-32-4"), (1, 3, 2, 4))
    [(0, 1, 2, 3)]
    >>> occurrences(parse_dashed_pattern("1-32-4"), (1, 3, 5, 2, 4))
    []
    """
    return list(_search(pattern, word, []))


def avoids(pattern: DashedPattern, word: Sequence[int]) -> bool:
    """True when ``word`` contains no occurrence of ``pattern``.

    >>> avoids(parse_dashed_pattern("1-32-4"), (2, 3, 1, 5, 4, 6))
    False
    >>> avoids(parse_dashed_pattern("1-32-4"), (8, 4, 6, 1, 7, 5, 2, 3))
    True
    """
    return next(_search(pattern, word, []), None) is None


# Unused by the package; perfbench/tracing.py wraps this binding and fails
# without it.
def standard_reduction(word: Sequence[int]) -> Perm:
    """Replace the i-th smallest entry by i, giving a permutation.

    >>> standard_reduction((5, 9, 0, 7))
    (2, 4, 1, 3)
    >>> standard_reduction((3, 3))
    Traceback (most recent call last):
        ...
    ValueError: entries are not distinct: (3, 3)
    """
    w = tuple(word)
    if len(set(w)) != len(w):
        raise ValueError(f"entries are not distinct: {w}")
    rank = {v: i + 1 for i, v in enumerate(sorted(w))}
    return tuple(rank[v] for v in w)


def rtl_maxima(word: Sequence[int]) -> list[int]:
    """1-based positions of the right-to-left maxima.

    >>> rtl_maxima((8, 4, 6, 1, 7, 5, 2, 3))
    [1, 5, 6, 8]
    >>> rtl_maxima(())
    []
    """
    positions: list[int] = []
    best = min(word, default=0) - 1  # below every entry
    for i in range(len(word) - 1, -1, -1):
        if word[i] > best:
            positions.append(i + 1)
            best = word[i]
    positions.reverse()
    return positions


def label(word: Sequence[int]) -> int:
    """Number of right-to-left maxima right of the 1, in one pass from the
    right that stops there; it assumes a permutation, so starts from 0.

    >>> label((8, 4, 6, 1, 7, 5, 2, 3))
    3
    >>> label((1,))
    0
    >>> label((1, 2))
    1
    """
    count = best = 0
    for v in reversed(word):
        if v == 1:
            return count
        if v > best:
            count += 1
            best = v
    raise ValueError(f"label needs a word that holds the letter 1: {word}")
