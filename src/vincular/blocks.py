"""Block structure of permutations avoiding 1-32-4.

Such a permutation splits at its left-to-right minima m_1 > ... > m_h = 1.
The segment following each minimum decomposes into maximal increasing runs,
so the permutation reads

    m_1 r_11 ... r_1k_1  m_2 r_21 ... r_2k_2  ...  m_h r_h1 ... r_hk_h

with every run entry larger than its block minimum.  A permutation
contains 1-32-4 exactly when some run that is not last in its block is
followed, anywhere later, by a letter larger than the run's last entry.
``check_avoider`` decides this in one left-to-right scan and is the one
test of avoidance outside ``perms``; ``decompose`` runs it and returns the
blocks as a plain tuple of ``Block``s, cut into runs by ``runs``, which
``eco.reduce`` uses too.  The run count of the last block is ``label``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Sequence

# ``avoids`` is unused here; perfbench/tracing.py requires this binding.
from .perms import Perm, avoids, check_permutation, parse_dashed_pattern

PATTERN = parse_dashed_pattern("1-32-4")


class Block(NamedTuple):
    """One left-to-right minimum and the increasing runs that follow it."""

    minimum: int
    runs: tuple[tuple[int, ...], ...]


def check_avoider(word: Sequence[int]) -> Perm:
    """Return ``word`` as a tuple, raising ValueError unless it is a
    permutation that avoids 1-32-4.

    A descent ``prev > x`` with ``x`` above the least letter so far makes
    ``prev`` the threshold: from the letter after ``x`` on, a letter above
    it completes an occurrence.  Each such threshold is below the one
    before, so the scan keeps only the last.

    >>> check_avoider([2, 4, 1, 3])
    (2, 4, 1, 3)
    >>> check_avoider((3, 5, 4, 2, 1, 6))
    Traceback (most recent call last):
        ...
    ValueError: permutation contains 1-32-4: (3, 5, 4, 2, 1, 6)
    """
    w = check_permutation(word)
    low = top = prev = len(w) + 1  # least letter so far, threshold, previous letter
    for x in w:
        if x < prev:
            if x < low:
                low = x
            else:
                top = prev
        elif x > top:
            raise ValueError(f"permutation contains {PATTERN}: {w}")
        prev = x
    return w


def runs(letters: Sequence[int]) -> list[Perm]:
    """The maximal increasing runs of ``letters``, in order: a run starts
    at the first letter and at each descent, so no letters give no runs.

    >>> runs((7, 5, 2, 3))
    [(7,), (5,), (2, 3)]
    """
    w = tuple(letters)
    out: list[Perm] = []
    start = 0
    for i in range(1, len(w)):
        if w[i] < w[i - 1]:
            out.append(w[start:i])
            start = i
    if w:
        out.append(w[start:])
    return out


def decompose(word: Sequence[int]) -> tuple[Block, ...]:
    """Split an avoider into blocks headed by its left-to-right minima.

    Raises ValueError when ``word`` is not a nonempty permutation or when it
    contains 1-32-4.

    >>> blocks = decompose((8, 4, 6, 1, 7, 5, 2, 3))
    >>> [(b.minimum, b.runs) for b in blocks]
    [(8, ()), (4, ((6,),)), (1, ((7,), (5,), (2, 3)))]
    >>> decompose((3, 5, 4, 2, 1, 6))
    Traceback (most recent call last):
        ...
    ValueError: permutation contains 1-32-4: (3, 5, 4, 2, 1, 6)
    """
    w = check_avoider(word)
    if len(w) == 0:
        raise ValueError("cannot decompose the empty permutation")
    heads = [i for i, low in enumerate(accumulate(w, min)) if w[i] == low]
    ends = heads[1:] + [len(w)]
    return tuple(Block(w[h], tuple(runs(w[h + 1 : e]))) for h, e in zip(heads, ends))
