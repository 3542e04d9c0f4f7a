"""Block structure of permutations avoiding 1-32-4.

Such a permutation splits at its left-to-right minima m_1 > ... > m_h = 1.
The segment following each minimum decomposes into maximal increasing runs,
so the permutation reads

    m_1 r_11 ... r_1k_1  m_2 r_21 ... r_2k_2  ...  m_h r_h1 ... r_hk_h

with every run entry larger than its block minimum.  ``decompose`` returns
these blocks as a plain tuple of ``Block``s.  Avoidance is a cap on how
large entries after a run may be (``check_avoidance_by_blocks``), and the
run count of the last block is the tree label of ``label``.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .perms import Perm, avoids, check_permutation, parse_dashed_pattern

PATTERN = parse_dashed_pattern("1-32-4")


@dataclasses.dataclass(frozen=True)
class Block:
    """One left-to-right minimum and the increasing runs that follow it."""

    minimum: int
    runs: tuple[tuple[int, ...], ...]


def decompose(word: Sequence[int], check: bool = True) -> tuple[Block, ...]:
    """Split an avoider into blocks headed by its left-to-right minima.

    Raises ValueError when ``word`` is not a nonempty permutation and, with
    ``check`` set, when it contains 1-32-4.

    >>> blocks = decompose((8, 4, 6, 1, 7, 5, 2, 3))
    >>> [(b.minimum, b.runs) for b in blocks]
    [(8, ()), (4, ((6,),)), (1, ((7,), (5,), (2, 3)))]
    """
    w = check_permutation(word)
    if len(w) == 0:
        raise ValueError("cannot decompose the empty permutation")
    if check and not avoids(PATTERN, w):
        raise ValueError(f"permutation contains {PATTERN}: {w}")
    blocks: list[Block] = []
    minimum = w[0]
    runs: list[tuple[int, ...]] = []
    run: list[int] = []
    for v in w[1:]:
        if v < minimum:
            if run:
                runs.append(tuple(run))
            blocks.append(Block(minimum, tuple(runs)))
            minimum, runs, run = v, [], []
        elif run and v > run[-1]:
            run.append(v)
        else:
            if run:
                runs.append(tuple(run))
            run = [v]
    if run:
        runs.append(tuple(run))
    blocks.append(Block(minimum, tuple(runs)))
    return tuple(blocks)


def recompose(blocks: tuple[Block, ...]) -> Perm:
    """Inverse of ``decompose``.  Raises ValueError when ``blocks`` is not a
    well-formed decomposition of some permutation.

    >>> recompose(decompose((2, 3, 1, 5, 4, 6)))
    Traceback (most recent call last):
        ...
    ValueError: permutation contains 1-32-4: (2, 3, 1, 5, 4, 6)
    >>> recompose(decompose((3, 5, 1, 2, 4)))
    (3, 5, 1, 2, 4)
    """
    if not blocks:
        raise ValueError("empty decomposition")
    if blocks[-1].minimum != 1:
        raise ValueError("last block minimum must be 1")
    flat: list[int] = []
    for bi, block in enumerate(blocks):
        if bi > 0 and block.minimum >= blocks[bi - 1].minimum:
            raise ValueError("block minima must strictly decrease")
        flat.append(block.minimum)
        for ri, run in enumerate(block.runs):
            if not run:
                raise ValueError("empty run")
            if list(run) != sorted(run):
                raise ValueError(f"run is not increasing: {run}")
            if run[0] <= block.minimum:
                raise ValueError(f"run entry {run[0]} below block minimum {block.minimum}")
            if ri > 0 and run[0] >= block.runs[ri - 1][-1]:
                raise ValueError(f"runs {block.runs[ri - 1]} and {run} should be one run")
            flat.extend(run)
    return check_permutation(flat)


def check_avoidance_by_blocks(blocks: tuple[Block, ...]) -> bool:
    """Decide avoidance of 1-32-4 from the block shape alone.

    An occurrence needs a descent inside some block, at the boundary of
    runs r_j, r_{j+1}, plus a later entry exceeding max(r_j); the block
    minimum always supplies the smallest letter.  So the permutation is an
    avoider exactly when, for every run that is not last in its block, all
    run entries anywhere to its right stay below its maximum.

    >>> check_avoidance_by_blocks(decompose((8, 4, 6, 1, 7, 5, 2, 3)))
    True
    >>> bad = (Block(3, ((5,), (4,))), Block(2, ()), Block(1, ((6,),)))
    >>> recompose(bad)
    (3, 5, 4, 2, 1, 6)
    >>> check_avoidance_by_blocks(bad)
    False
    """
    recompose(blocks)
    suffix_max = 0
    for block in reversed(blocks):
        for ri in range(len(block.runs) - 1, -1, -1):
            run = block.runs[ri]
            if ri < len(block.runs) - 1 and suffix_max > max(run):
                return False
            suffix_max = max(suffix_max, max(run))
    return True

