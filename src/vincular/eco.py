"""Local expansion and reduction on the class of 1-32-4 avoiders.

``reduce`` maps an avoider of length n to one of length n-1 and ``expand``
produces, for an avoider with tree label k, its (k+1)(k+2)/2 + 1 children
of length n+1.  Every length-(n+1) avoider arises from exactly one parent,
and reduce inverts expand, so iterating expand from the single letter 1
builds the whole class as a tree.

``reduce`` and ``expand`` validate their input once, with the scan of
``blocks.check_avoider``.  ``reduce`` then reads the parent straight off
the word, and cuts the letters after the 2 with ``blocks.runs`` only when
2 precedes 1.

A tree node is its word and nothing else.  ``_moves`` is the one place the
moves and their canonical order are written: it yields each child of a
shape, the run offsets of a last block, as its spec and the positions it
reads.  ``_plan`` caches a shape's specs and ``itemgetter``s; ``_shape``
finds the offsets in its own loop (``blocks.runs`` was 8-11% slower on
``walk(9)``'s 24,470 nodes).  ``MoveAll`` and ``Partial`` children have
their 2 before their 1, ``Insert`` children the opposite.  ``expand`` is
one ``_children`` step behind validation, with its one plan's specs.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .blocks import check_avoider, runs
from .perms import Perm


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


def _moves(off: tuple[int, ...]) -> Iterator[tuple[ChildSpec, list[int]]]:
    """Each child's spec and the positions it reads, in canonical order.
    ``off`` holds where each of the k runs of the last block starts, then
    the length m; the old minimum, now 2, sits at ``off[0] - 1`` and the
    new 1 is appended at m."""
    one, m, k = off[0] - 1, off[-1], len(off) - 1
    for cut in reversed(range(k)):  # Partial(i, j): run j of the last i+1 jumps before the 1
        a = off[cut]
        for j, (s, e) in enumerate(zip(off[cut:], off[cut + 1 :]), 1):
            yield Partial(k - 1 - cut, j), [*range(a), *range(s, e), m, *range(a, s), *range(e, m)]
    yield MoveAll(), [*range(one + 1), m, *range(one + 1, m)]
    for p, o in enumerate(off, 1):  # Insert(p): the 2 goes before run p, or after every run
        yield Insert(p), [*range(one), m, *range(one + 1, o), one, *range(o, m)]


@functools.lru_cache(maxsize=1024)  # `generate` at its cap meets 1,023: lengths 1 to 10
def _plan(off: tuple[int, ...]) -> tuple[tuple[ChildSpec, ...], tuple[itemgetter, ...]]:
    """A shape's specs and getters; a child has 2+ letters, so each getter gives a tuple."""
    specs, moves = zip(*_moves(off))
    return specs, tuple([itemgetter(*move) for move in moves])


def _shape(word: Perm) -> tuple[int, ...]:
    """Run starts of the last block (the letters after the 1), then the length."""
    one = word.index(1)
    off = [one + 1]  # the last block's runs break exactly at its descents
    prev = 0
    for pos, v in enumerate(word[one + 1 :], one + 1):
        if v < prev:
            off.append(pos)
        prev = v
    if len(word) > one + 1:
        off.append(len(word))
    return tuple(off)


def _children(word: Perm, getters: tuple[itemgetter, ...] = ()) -> list[Perm]:
    """Child words of a tree node, in canonical order, built from the moves
    alone (the getters of its shape's plan, found if not given): every child
    of an avoider is an avoider, so nothing is checked or decomposed again."""
    up = [v + 1 for v in word]
    up.append(1)
    return [get(up) for get in getters or _plan(_shape(word))[1]]


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
    if not w:
        raise ValueError(f"nothing to expand: {w}")
    specs, getters = _plan(_shape(w))
    return list(zip(specs, _children(w, getters)))
