"""Permutations as tuples, dashed patterns, and occurrence search, with
the library's one length check and one cap check.

A permutation of length n is a tuple containing each of 1..n exactly once.
The empty tuple is the empty permutation.  Functions that only compare
entries (``occurrences``, ``avoids``, reduction, maxima scans) accept any
sequence of distinct integers and are documented as such.

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


def check_length(n: int, least: int = 0, what: str = "length") -> None:
    """Raise ValueError unless ``n`` is an int, not a bool, and at least
    ``least``: the library's one check of a length, depth, order or label."""
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        bound = {0: "nonnegative", 1: "positive"}.get(least, f"at least {least}")
        raise ValueError(f"{what} must be an integer, {bound}: {n!r}")


def check_cap(n: int, cap: int, what: str, force: bool) -> None:
    """Raise ValueError if ``n`` is past ``cap`` unless ``force``."""
    if n > cap and not force:
        raise ValueError(f"{what} past n={cap} needs --force (force=True)")


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
    def _suffix_plan(self) -> tuple[tuple[int, ...], ...]:
        # For each index j < k-1: the indices among j+1..k-2 just below and above
        # pattern[j] in value, then among j..k-2 just below and above the last
        # letter; k-1 stands for none below, k for none above.
        pat = self.underlying
        top = len(pat) - 1

        def near(value: int, indices: range) -> tuple[int, int]:
            below = max(((pat[i], i) for i in indices if pat[i] < value), default=(0, top))
            above = min(((pat[i], i) for i in indices if pat[i] > value), default=(0, top + 1))
            return below[1], above[1]

        plan = [near(pat[j], range(j + 1, top)) + near(pat[top], range(j, top)) for j in range(top)]
        return tuple(zip(*plan)) or ((),) * 4

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


def ranks_ending(pattern: DashedPattern, word: Sequence[int]) -> int:
    """A bitmask with bit v set for each rank v in 1..m + 1 whose letter,
    appended to the permutation ``word`` of 1..m (not checked) with its
    letters >= v moved up by one, ends an occurrence of ``pattern``.

    One search, from the last pattern letter backwards: a letter with no
    dash before the next has one candidate position, the others any further
    left.  Matched letters are in the pattern's order, so a candidate is
    compared only with those just below and above it in the pattern, never
    with the new letter, whose rank stays an interval (lo, hi] between the
    matched letters just below and above the last pattern letter (0 and
    m + 1 for none).  A complete match adds its interval to the mask, a
    partial one inside the mask is dropped, and a full mask ends the search.

    >>> bin(ranks_ending(parse_dashed_pattern("1-32-4"), (1, 3, 2, 4)))  # v = 4, 5
    '0b110000'
    >>> bin(ranks_ending(parse_dashed_pattern("31-4-2"), (2, 1, 4, 3, 5)))  # v = 2, 4
    '0b10100'
    """
    lows, highs, below, above = pattern._suffix_plan
    adjacency = pattern.adjacency
    top, m = len(lows), len(word)  # top: the last pattern letter's index
    every = (2 << (m + 1)) - 2
    if top == 0:
        return every
    # pos[i], val[i]: the position and letter matched to index i > j; val[top] = 0 and
    # val[top + 1] = m + 1 stand for none below and above.  Candidates p for index j run
    # right to left; an exhausted index backs up to the nearest later one with a dash after.
    pos = [0] * top
    val = [0] * top + [0, m + 1]
    mask, j, p = 0, top - 1, m - 1
    while True:
        if p >= j:
            x = word[p]
            if val[lows[j]] < x < val[highs[j]]:
                pos[j] = p
                val[j] = x
                span = (2 << val[above[j]]) - (2 << val[below[j]])  # ranks lo + 1..hi
                if mask & span != span:
                    if j > 0:
                        j -= 1
                        p -= 1
                        continue
                    mask |= span
                    if mask == every:
                        return mask
            if not adjacency[j]:
                p -= 1
                continue
        j += 1
        while j < top and adjacency[j]:
            j += 1
        if j == top:
            return mask
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
