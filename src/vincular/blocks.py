"""Block structure of permutations avoiding 1-32-4.

Such a permutation splits at its left-to-right minima m_1 > ... > m_h = 1.
The segment following each minimum decomposes into maximal increasing runs,
so the permutation reads

    m_1 r_11 ... r_1k_1  m_2 r_21 ... r_2k_2  ...  m_h r_h1 ... r_hk_h

with every run entry larger than its block minimum.  ``decompose`` returns
these blocks as a plain tuple of ``Block``s and decides avoidance in the
same scan: a permutation contains 1-32-4 exactly when some run that is not
last in its block is followed, anywhere later, by a letter larger than the
run's last entry.  The run count of the last block is the tree label of
``label``.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

# ``avoids`` is unused here; perfbench/tracing.py requires this binding.
from .perms import avoids, check_permutation, parse_dashed_pattern

PATTERN = parse_dashed_pattern("1-32-4")


@dataclasses.dataclass(frozen=True)
class Block:
    """One left-to-right minimum and the increasing runs that follow it."""

    minimum: int
    runs: tuple[tuple[int, ...], ...]


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
    w = check_permutation(word)
    if len(w) == 0:
        raise ValueError("cannot decompose the empty permutation")
    later = [0] * len(w)  # later[i] is the largest letter after w[i]
    for i in range(len(w) - 1, 0, -1):
        later[i - 1] = max(later[i], w[i])
    blocks: list[Block] = []
    minimum = w[0]
    runs: list[tuple[int, ...]] = []
    run: list[int] = []
    for v, after in zip(w[1:], later[1:]):
        if v < minimum:
            if run:
                runs.append(tuple(run))
            blocks.append(Block(minimum, tuple(runs)))
            minimum, runs, run = v, [], []
        elif run and v > run[-1]:
            run.append(v)
        else:
            if run:
                # the descent run[-1] v sits above the block minimum, so a
                # larger letter after v completes an occurrence
                if after > run[-1]:
                    raise ValueError(f"permutation contains {PATTERN}: {w}")
                runs.append(tuple(run))
            run = [v]
    if run:
        runs.append(tuple(run))
    blocks.append(Block(minimum, tuple(runs)))
    return tuple(blocks)
