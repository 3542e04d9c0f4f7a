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

A tree node is its word and nothing else.  ``_plan`` is the one place the
moves are written: it turns a shape, the run offsets of a last block, into
one ``itemgetter`` per child.  ``_children`` finds the offsets in its own
loop (``blocks.runs`` was 8-11% slower on ``walk(9)``'s 24,470 nodes) and
reads each child off the word moved up by one, with a new 1 appended.
Children produced by ``MoveAll`` and ``Partial`` place the new minimum
after the old one (the entry 2 of the child precedes its 1), ``Insert``
children do the opposite.  ``gentree.walk`` applies ``_children`` down
the tree; ``expand`` is one step of it behind validation of its input.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import NamedTuple, Sequence

from .blocks import check_avoider, runs
from .perms import Perm, label


class MoveAll(NamedTuple):
    """New minimum goes right after the old one, keeping every run of the
    last block behind it."""


class Partial(NamedTuple):
    """New minimum goes before the last i+1 runs, then run j of them jumps
    in front of it; the other i stay behind it, in order."""

    i: int
    j: int


class Insert(NamedTuple):
    """New minimum heads the last block and the old one goes just before
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


@functools.lru_cache(maxsize=1024)  # walk(11) at the generate cap meets 1,023
def _plan(off: tuple[int, ...]) -> tuple[itemgetter, ...]:
    """One getter per child of a shape, in canonical order.  ``off`` holds
    where each run of the last block starts, then the length m; the old
    minimum, now 2, sits at ``off[0] - 1`` and the new 1 is appended at m.
    A child has two letters or more, so each getter returns a tuple."""
    one, m = off[0] - 1, off[-1]
    moves = []
    for cut in reversed(range(len(off) - 1)):  # Partial: a run from cut on jumps before the 1
        a = off[cut]
        for s, e in zip(off[cut:], off[cut + 1 :]):
            moves.append([*range(a), *range(s, e), m, *range(a, s), *range(e, m)])
    moves.append([*range(one + 1), m, *range(one + 1, m)])  # MoveAll
    for o in off:  # Insert: the 2 goes before each run in turn, then last
        moves.append([*range(one), m, *range(one + 1, o), one, *range(o, m)])
    return tuple([itemgetter(*move) for move in moves])


def _children(word: Perm) -> list[Perm]:
    """Child words of a tree node, in canonical order, built from the moves
    alone: every child of an avoider is an avoider, so nothing is checked
    or decomposed again.

    The letters after the 1 are the last block, and its increasing runs
    break exactly at the descents there.  Their offsets pick the node's
    ``_plan``, whose getters read each child off the word moved up by one.
    """
    one = word.index(1)
    off = [one + 1]  # where each run starts, then the length
    prev = 0
    for pos, v in enumerate(word[one + 1 :], one + 1):
        if v < prev:
            off.append(pos)
        prev = v
    if len(word) > one + 1:
        off.append(len(word))
    up = [v + 1 for v in word]
    up.append(1)
    return [get(up) for get in _plan(tuple(off))]


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
