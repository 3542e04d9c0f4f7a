"""Local expansion and reduction on the class of 1-32-4 avoiders.

``reduce`` maps an avoider of length n to one of length n-1 and ``expand``
produces, for an avoider with tree label k, its (k+1)(k+2)/2 + 1 children
of length n+1.  Every length-(n+1) avoider arises from exactly one parent,
and reduce inverts expand, so iterating expand from the single letter 1
builds the whole class as a tree.

``reduce`` and ``expand`` validate their input once, through
``blocks.decompose``, and read what they need straight off the word and its
blocks.

Only the walk and ``expand`` use codes: an entry v of a word of length n is
stored as n + 1 - v, so the parent's entries keep their codes in every
child, the old minimum keeps code n and the new minimum takes code n + 1.
Children produced by ``MoveAll`` and ``Partial`` place the new minimum after
the old one (the entry 2 of the child precedes its 1), ``Insert`` children
do the opposite.  ``_walk`` applies the moves down the tree with an explicit
stack and yields each leaf as it reaches it; ``expand`` is one step of it
and ``gentree.iter_level`` the whole walk to a given length.  Child states
are built only for nodes the walk descends into: ``_leaves`` turns a node
one level short of the end straight into its children's words, each a few
slices of the node's values, and most nodes of a level are such leaves.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

from .blocks import decompose
from .perms import Perm


@dataclasses.dataclass(frozen=True)
class MoveAll:
    """New minimum goes right after the old one, keeping every run of the
    last block behind it."""


@dataclasses.dataclass(frozen=True)
class Partial:
    """Run j of the last i+1 runs jumps in front of the new minimum; the
    other i of them stay behind it."""

    i: int
    j: int


@dataclasses.dataclass(frozen=True)
class Insert:
    """New minimum becomes the head of the last block, placed just before
    its p-th run (after all runs when p is the old label plus one)."""

    p: int


ChildSpec = MoveAll | Partial | Insert


def reduce(word: Sequence[int]) -> Perm:
    """Parent of an avoider in the generating tree.

    When 2 precedes 1 the two last blocks merge, their runs interleaved by
    decreasing maxima, and 1 disappears.  Otherwise 2 leaves its run and
    takes over as the head of the last block.  Either way the word left
    holds 2..n, and subtracting 1 makes it a permutation.

    >>> reduce((8, 4, 6, 1, 7, 5, 2, 3))
    (7, 3, 5, 1, 6, 4, 2)
    >>> reduce((5, 8, 3, 6, 7, 2, 9, 4, 1))
    (4, 7, 2, 5, 6, 1, 8, 3)
    """
    w = tuple(word)
    if len(w) < 2:
        raise ValueError(f"nothing to reduce: {w}")
    blocks = decompose(w)
    one, two = w.index(1), w.index(2)
    if two < one:
        head = w[:two]
        runs = sorted(blocks[-2].runs + blocks[-1].runs, key=lambda run: run[-1], reverse=True)
    else:
        head = w[:one]
        runs = [run[1:] if run[0] == 2 else run for run in blocks[-1].runs]
    flat = head + (2,)
    for run in runs:
        flat += run
    return tuple([v - 1 for v in flat])


# A walk state (length, prefix, runs) is a tree node stored as its
# decomposition: ``prefix`` is the word before the head of the last block and
# ``runs`` are the increasing runs of that block, all as codes
# length + 1 - value.  The head itself is the old minimum, code length.
_State = tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]
_ROOT: _State = (1, (), ())  # the single letter 1


def _children(
    length: int, prefix: tuple[int, ...], runs: tuple[tuple[int, ...], ...]
) -> list[_State]:
    """Child states in canonical order, built from the moves alone: every
    child of an avoider is an avoider, so nothing is checked or decomposed
    again."""
    old, new = length, length + 1
    k = len(runs)
    out: list[_State] = []
    for i in range(k):
        # Partial(i, j): run j of the last i+1 runs joins the prefix
        cut = k - i - 1
        head = prefix + (old,)
        for run in runs[:cut]:
            head += run
        tail = runs[cut:]
        for j in range(i + 1):
            out.append((new, head + tail[j], tail[:j] + tail[j + 1 :]))
    out.append((new, prefix + (old,), runs))  # MoveAll
    for p in range(k):  # Insert(p + 1): the old minimum heads run p + 1
        out.append((new, prefix, runs[:p] + ((old,) + runs[p],) + runs[p + 1 :]))
    out.append((new, prefix, runs + ((old,),)))  # Insert(k + 1)
    return out


def _leaves(
    length: int, prefix: tuple[int, ...], runs: tuple[tuple[int, ...], ...]
) -> list[Perm]:
    """Child words of a walk state, in the order of ``_children``, with no
    child state built: each is a few slices of the parent's values, in
    which the old minimum becomes 2 and the new minimum 1."""
    top = length + 2
    flat: tuple[int, ...] = ()
    off = [0]  # off[p] is where run p starts in flat, off[k] its length
    for run in runs:
        flat += run
        off.append(len(flat))
    pv = tuple([top - code for code in prefix])
    f = tuple([top - code for code in flat])
    k = len(runs)
    head = pv + (2,)
    out: list[Perm] = []
    for i in range(k):  # Partial(i, r - cut + 1): run r jumps before the 1
        cut = k - i - 1
        a = off[cut]
        left = head + f[:a]
        for r in range(cut, k):
            s, e = off[r], off[r + 1]
            out.append(left + f[s:e] + (1,) + f[a:s] + f[e:])
    out.append(head + (1,) + f)  # MoveAll
    lead = pv + (1,)
    for o in off:  # Insert: the 2 goes before each run in turn, then last
        out.append(lead + f[:o] + (2,) + f[o:])
    return out


def _walk(n: int) -> Iterator[Perm]:
    """The tree's nodes of length n >= 1, yielded in depth-first tree
    order.  Nodes one short of n yield their children's words straight
    from ``_leaves``, so no state of length n is built."""
    if n == 1:
        yield (1,)
        return
    stack = [_ROOT]
    while stack:
        length, prefix, runs = stack.pop()
        if length < n - 1:
            stack.extend(reversed(_children(length, prefix, runs)))
        else:
            yield from _leaves(length, prefix, runs)


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
    w = tuple(word)
    blocks = decompose(w)
    top = len(w) + 1
    prefix = tuple(top - v for v in w[: w.index(1)])
    runs = tuple(tuple(top - v for v in run) for run in blocks[-1].runs)
    k = len(runs)
    specs: list[ChildSpec] = [Partial(i, j) for i in range(k) for j in range(1, i + 2)]
    specs.append(MoveAll())
    specs.extend(Insert(p) for p in range(1, k + 2))
    return list(zip(specs, _leaves(len(w), prefix, runs), strict=True))
