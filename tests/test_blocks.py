from itertools import permutations

import pytest

from vincular.blocks import (
    PATTERN,
    Block,
    check_avoidance_by_blocks,
    decompose,
    recompose,
)
from vincular.perms import avoids, label


def test_decompose_fourteen_letter_example():
    blocks = decompose((8, 9, 14, 12, 5, 2, 4, 10, 11, 1, 3, 13, 6, 7))
    assert [b.minimum for b in blocks] == [8, 5, 2, 1]
    assert blocks[0].runs == ((9, 14), (12,))
    assert blocks[1].runs == ()
    assert blocks[2].runs == ((4, 10, 11),)
    assert blocks[3].runs == ((3, 13), (6, 7))


def test_decompose_rejects_containing_permutation():
    with pytest.raises(ValueError):
        decompose((1, 3, 2, 4))
    # unchecked mode splits anything
    d = decompose((1, 3, 2, 4), check=False)
    assert recompose(d) == (1, 3, 2, 4)


def test_decompose_rejects_non_permutation():
    with pytest.raises(ValueError):
        decompose((2, 3))
    with pytest.raises(ValueError):
        decompose(())


def test_recompose_round_trip(brute_levels):
    for level in brute_levels.values():
        for w in level:
            assert recompose(decompose(w)) == w


def test_recompose_round_trip_without_avoidance():
    # the split itself is defined for every permutation
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            assert recompose(decompose(w, check=False)) == w


def test_recompose_rejects_malformed():
    with pytest.raises(ValueError):
        recompose(())
    with pytest.raises(ValueError):
        recompose((Block(2, ()),))  # last minimum not 1
    with pytest.raises(ValueError):
        recompose((Block(1, ()), Block(2, ())))  # minima increase
    with pytest.raises(ValueError):
        recompose((Block(1, ((),)),))  # empty run
    with pytest.raises(ValueError):
        recompose((Block(1, ((3, 2),)),))  # run not increasing
    with pytest.raises(ValueError):
        recompose((Block(2, ((1,),)), Block(1, ())))  # run below minimum
    with pytest.raises(ValueError):
        recompose((Block(1, ((2,), (3,))),))  # runs should merge
    with pytest.raises(ValueError):
        recompose((Block(1, ((3,),)),))  # 2 missing


def test_block_condition_agrees_with_search():
    # the avoidance criterion on the block shape must agree with plain
    # occurrence search on every permutation, not only on avoiders
    for n in range(1, 8):
        for w in permutations(range(1, n + 1)):
            d = decompose(w, check=False)
            assert check_avoidance_by_blocks(d) == avoids(PATTERN, w), w


def test_block_condition_sees_past_empty_blocks():
    # the violating entry 6 sits two blocks away from the run pair (5)(4);
    # a check confined to neighbouring blocks misses it
    w = (3, 5, 4, 2, 1, 6)
    assert not avoids(PATTERN, w)
    assert not check_avoidance_by_blocks(decompose(w, check=False))


def test_label_matches_decomposition(brute_levels):
    for level in brute_levels.values():
        for w in level:
            assert len(decompose(w)[-1].runs) == label(w)

