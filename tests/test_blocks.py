from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vincular.blocks import PATTERN, decompose, runs
from vincular.eco import reduce
from vincular.perms import avoids, label


def test_decompose_fourteen_letter_example():
    blocks = decompose((8, 9, 14, 12, 5, 2, 4, 10, 11, 1, 3, 13, 6, 7))
    assert [b.minimum for b in blocks] == [8, 5, 2, 1]
    assert blocks[0].runs == ((9, 14), (12,))
    assert blocks[1].runs == ()
    assert blocks[2].runs == ((4, 10, 11),)
    assert blocks[3].runs == ((3, 13), (6, 7))


@settings(max_examples=300, database=None, deadline=None)
@given(st.lists(st.integers(), unique=True))
@example([])
def test_runs_cut_exactly_at_descents(letters):
    cut = runs(letters)
    assert [v for run in cut for v in run] == letters
    for run in cut:
        assert run and list(run) == sorted(run)
    for before, after in zip(cut, cut[1:]):
        assert before[-1] > after[0]


def test_decompose_rejects_containing_permutation():
    with pytest.raises(ValueError):
        decompose((1, 3, 2, 4))


def test_decompose_rejects_non_permutation():
    with pytest.raises(ValueError):
        decompose((2, 3))
    with pytest.raises(ValueError):
        decompose(())


def test_blocks_written_out_give_the_word_back(brute_levels):
    # the blocks, written out in order, give the word back
    for level in brute_levels.values():
        for w in level:
            flat: list[int] = []
            for block in decompose(w):
                flat.append(block.minimum)
                for run in block.runs:
                    flat.extend(run)
            assert tuple(flat) == w


def test_decompose_blocks_are_well_formed(brute_levels):
    for level in brute_levels.values():
        for w in level:
            blocks = decompose(w)
            minima = [block.minimum for block in blocks]
            assert minima == sorted(minima, reverse=True)
            assert len(set(minima)) == len(minima)
            assert minima[-1] == 1
            for block in blocks:
                for ri, run in enumerate(block.runs):
                    assert run, w
                    assert list(run) == sorted(run), w
                    assert run[0] > block.minimum, w
                    if ri > 0:
                        # otherwise the two runs would be one
                        assert run[0] < block.runs[ri - 1][-1], w


def _error(check, word):
    try:
        check(word)
    except ValueError as error:
        return str(error)
    return None


def test_block_condition_agrees_with_search():
    # decompose, and reduce from length 2, must reject exactly the words
    # that plain occurrence search finds 1-32-4 in, over every permutation,
    # not only over avoiders, and reduce with decompose's message
    for n in range(1, 9):
        for w in permutations(range(1, n + 1)):
            error = _error(decompose, w)
            assert (error is not None) == (not avoids(PATTERN, w)), w
            if n > 1:
                assert _error(reduce, w) == error, w


def test_block_condition_sees_past_empty_blocks():
    # the violating entry 6 sits two blocks away from the run pair (5)(4);
    # a check confined to neighbouring blocks misses it
    w = (3, 5, 4, 2, 1, 6)
    assert not avoids(PATTERN, w)
    with pytest.raises(ValueError):
        decompose(w)


def test_label_matches_decomposition(brute_levels):
    for level in brute_levels.values():
        for w in level:
            assert len(decompose(w)[-1].runs) == label(w)
