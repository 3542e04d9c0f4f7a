from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vincular.perms import (
    DashedPattern,
    avoids,
    label,
    occurrences,
    occurs_ending_at,
    parse_dashed_pattern,
    rtl_maxima,
    standard_reduction,
)


def test_parse_dashed_pattern_blocks():
    p = parse_dashed_pattern("1-32-4")
    assert p.underlying == (1, 3, 2, 4)
    assert p.adjacency == (False, True, False)
    assert parse_dashed_pattern("31-4-2").adjacency == (True, False, False)
    assert parse_dashed_pattern("1-23-4").underlying == (1, 2, 3, 4)
    # fully classical and fully consecutive extremes
    assert parse_dashed_pattern("1-2-3").adjacency == (False, False)
    assert parse_dashed_pattern("123").adjacency == (True, True)


def test_parse_dashed_pattern_round_trip():
    # with a value above 9 a comma-free block is one value, also when no
    # letters are adjacent and there is no comma to write
    for text in (
        "1-32-4", "31-4-2", "123", "1-2-3", "21", "10,9,8,7,6,5,4,3,2-1",
        "1-2-3-4-5-6-7-8-9-10", "1,2-3-4-5-6-7-8-9-10",
    ):
        assert str(parse_dashed_pattern(text)) == text


def test_parse_dashed_pattern_rejects_garbage():
    with pytest.raises(ValueError):
        parse_dashed_pattern("1--2")
    with pytest.raises(ValueError):
        parse_dashed_pattern("-12")
    with pytest.raises(ValueError):
        parse_dashed_pattern("1-32-5")
    with pytest.raises(ValueError):
        parse_dashed_pattern("10-2")  # 0 is not a single-digit value
    with pytest.raises(ValueError):
        parse_dashed_pattern("")
    with pytest.raises(ValueError):
        DashedPattern((1, 2), (True, True))
    with pytest.raises(ValueError, match="empty pattern"):
        DashedPattern((), ())


def test_occurrences_against_definition():
    # every vincular occurrence is a classical one that satisfies the
    # adjacency constraints, checked exhaustively at small sizes
    vinc = parse_dashed_pattern("1-32-4")
    classical = DashedPattern((1, 3, 2, 4), (False, False, False))
    for n in range(7):
        for w in permutations(range(1, n + 1)):
            cls = occurrences(classical, w)
            vin = occurrences(vinc, w)
            assert vin == [t for t in cls if t[2] == t[1] + 1]
            assert vin == sorted(vin)


def test_avoids_matches_occurrences():
    patterns = [parse_dashed_pattern(t) for t in ("1-32-4", "31-4-2", "1-23-4", "132")]
    for n in range(6):
        for w in permutations(range(1, n + 1)):
            for p in patterns:
                assert avoids(p, w) == (not occurrences(p, w))


def test_standard_reduction():
    assert standard_reduction(()) == ()
    assert standard_reduction((8, 4, 6, 2)) == (4, 2, 3, 1)
    assert standard_reduction((5, 9, 14, 10, 12, 0, 2, 7, 13, 6, 11, 1, 3, 8, 4)) == (
        6, 10, 15, 11, 13, 1, 3, 8, 14, 7, 12, 2, 4, 9, 5,
    )
    with pytest.raises(ValueError):
        standard_reduction((1, 1))


def test_extrema_positions():
    w = (8, 4, 6, 1, 7, 5, 2, 3)
    assert rtl_maxima(w) == [1, 5, 6, 8]
    assert [w[p - 1] for p in rtl_maxima(w)] == [8, 7, 5, 3]
    assert rtl_maxima(()) == []


def test_label_examples():
    assert label((8, 4, 6, 1, 7, 5, 2, 3)) == 3
    assert label((1,)) == 0
    assert label((2, 1)) == 0
    assert label((1, 2)) == 1
    assert label((1, 3, 2)) == 2
    with pytest.raises(ValueError):
        label(())


@pytest.mark.parametrize("word", [(2, 3), [3, 2], (5, 4, 3, 2)])
def test_label_rejects_a_word_without_one(word):
    with pytest.raises(ValueError):
        label(word)


def test_label_counts_rtl_maxima_right_of_one():
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            pos1 = w.index(1) + 1
            assert label(w) == sum(1 for p in rtl_maxima(w) if p > pos1)


@settings(max_examples=200, database=None, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_label_counts_rtl_maxima_right_of_one_long_words(w):
    pos1 = w.index(1) + 1
    expected = sum(1 for p in rtl_maxima(w) if p > pos1)
    assert label(tuple(w)) == label(list(w)) == expected


@st.composite
def dashed_patterns(draw):
    k = draw(st.integers(1, 4))
    underlying = draw(st.permutations(range(1, k + 1)))
    adjacency = draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1))
    return DashedPattern(tuple(underlying), tuple(adjacency))


@settings(max_examples=300, database=None, deadline=None)
@given(dashed_patterns(), st.lists(st.integers(-20, 20), unique=True, max_size=10))
def test_occurs_ending_at_matches_search(pattern, word):
    ends = {occ[-1] for occ in occurrences(pattern, word)}
    for end in range(len(word)):
        assert occurs_ending_at(pattern, word, end) == (end in ends)
        # letters after the end do not matter
        assert occurs_ending_at(pattern, word[: end + 1], end) == (end in ends)
    prefixes_clean = not any(
        occurs_ending_at(pattern, word[:i], i - 1) for i in range(1, len(word) + 1)
    )
    assert avoids(pattern, word) == prefixes_clean


@pytest.mark.parametrize(
    "text, word, end",
    [("1", (), 0), ("1-32-4", (1, 3, 2), 3), ("1-32-4", (1, 3, 2, 4), -1), ("1", (1,), -1)],
)
def test_occurs_ending_at_rejects_an_end_outside_the_word(text, word, end):
    with pytest.raises(ValueError):
        occurs_ending_at(parse_dashed_pattern(text), word, end)
