"""Local expansion and reduction on the class of 1-32-4 avoiders.

``reduce`` maps an avoider of length n to one of length n-1 and ``expand``
produces, for an avoider with tree label k, its (k+1)(k+2)/2 + 1 children
of length n+1.  Every length-(n+1) avoider arises from exactly one parent,
and reduce inverts expand, so iterating expand from the single letter 1
builds the whole class as a tree.

``reduce`` and ``expand`` validate their input once, with the scan of
``blocks.check_avoider``.  ``reduce`` then reads the parent straight off
the word, and cuts the letters after the 2 with ``blocks.runs`` only when
2 precedes 1; ``expand`` reads the label k with ``perms.label``.

A tree node is its word and nothing else.  ``_children`` is the one place
the moves are applied: it moves the word up by one, so the old minimum
becomes 2 and the new minimum 1, and slices each child out of it.  It
finds the run offsets in its own loop: reading them off ``blocks.runs``
made this hot path 8-11% slower over the 24,470 nodes ``walk(9)`` expands.
Children produced by ``MoveAll`` and ``Partial`` place the new minimum
after the old one (the entry 2 of the child precedes its 1), ``Insert``
children do the opposite.  ``gentree.walk`` applies ``_children`` down
the tree; ``expand`` is one step of it behind validation of its input.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Sequence

from .blocks import check_avoider, runs
from .perms import Perm, label


class MoveAll(NamedTuple):
    """New minimum goes right after the old one, keeping every run of the
    last block behind it."""


class Partial(NamedTuple):
    """Run j of the last i+1 runs jumps in front of the new minimum; the
    other i of them stay behind it."""

    i: int
    j: int


class Insert(NamedTuple):
    """New minimum becomes the head of the last block, placed just before
    its p-th run (after all runs when p is the old label plus one)."""

    p: int


ChildSpec = MoveAll | Partial | Insert


def reduce(word: Sequence[int]) -> Perm:
    """Parent of an avoider in the generating tree.

    When 2 precedes 1 the two last blocks merge, their runs interleaved by
    decreasing maxima, and 1 disappears.  Otherwise 2 leaves its run and
    takes the place of 1 as the head of the last block.  Either way the
    word left holds 2..n, and subtracting 1 makes it a permutation.

    >>> reduce((8, 4, 6, 1, 7, 5, 2, 3))
    (7, 3, 5, 1, 6, 4, 2)
    >>> reduce((5, 8, 3, 6, 7, 2, 9, 4, 1))
    (4, 7, 2, 5, 6, 1, 8, 3)
    """
    w = tuple(word)
    if len(w) < 2:
        raise ValueError(f"nothing to reduce: {w}")
    check_avoider(w)
    one, two = w.index(1), w.index(2)
    if two < one:
        # the 2's block and the 1's, each cut into runs by ``blocks.runs``
        merged = runs(w[two + 1 : one]) + runs(w[one + 1 :])
        merged.sort(key=itemgetter(-1), reverse=True)
        flat = w[:two] + (2,)
        for run in merged:
            flat += run
    else:
        flat = w[:one] + (2,) + w[one + 1 : two] + w[two + 1 :]
    return tuple([v - 1 for v in flat])


def _children(word: Perm) -> list[Perm]:
    """Child words of a tree node, in canonical order, built from the moves
    alone: every child of an avoider is an avoider, so nothing is checked
    or decomposed again.

    The letters after the 1 are the last block, and its increasing runs
    break exactly at the descents there.  Each child is a few slices of
    the word moved up by one, in which the old minimum becomes 2 and the
    new minimum 1.
    """
    one = word.index(1)
    up = tuple([v + 1 for v in word])
    head = up[: one + 1]  # up to the old minimum, now 2
    f = up[one + 1 :]  # the last block's runs
    off = [0]  # off[p] is where run p starts in f, off[k] its length
    prev = 0
    for pos, v in enumerate(f):
        if v < prev:
            off.append(pos)
        prev = v
    if f:
        off.append(len(f))
    k = len(off) - 1
    out: list[Perm] = []
    for i in range(k):  # Partial(i, r - cut + 1): run r jumps before the 1
        cut = k - i - 1
        a = off[cut]
        left = head + f[:a]
        for r in range(cut, k):
            s, e = off[r], off[r + 1]
            out.append(left + f[s:e] + (1,) + f[a:s] + f[e:])
    out.append(head + (1,) + f)  # MoveAll
    lead = up[:one] + (1,)
    for o in off:  # Insert: the 2 goes before each run in turn, then last
        out.append(lead + f[:o] + (2,) + f[o:])
    return out


def expand(word: Sequence[int]) -> list[tuple[ChildSpec, Perm]]:
    """All tree children of an avoider, in canonical order.

    Canonical order is Partial moves by increasing (i, j), then MoveAll,
    then Insert moves by increasing p.  Under it the child labels of a
    node labelled k read 0 1 1 2 2 2 ... (k appearing k+1 times) k+1.

    >>> for spec, child in expand((1, 2)):
    ...     print(spec, child)
    Partial(i=0, j=1) (2, 3, 1)
    MoveAll() (2, 1, 3)
    Insert(p=1) (1, 2, 3)
    Insert(p=2) (1, 3, 2)
    """
    w = check_avoider(word)
    k = label(w)
    specs: list[ChildSpec] = [Partial(i, j) for i in range(k) for j in range(1, i + 2)]
    specs.append(MoveAll())
    specs.extend(Insert(p) for p in range(1, k + 2))
    return list(zip(specs, _children(w), strict=True))
