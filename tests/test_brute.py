import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vincular import brute

from vincular.blocks import PATTERN
from vincular.brute import (
    ENUMERATION_CAP,
    _filter_avoiders,
    avoider_levels,
    brute_avoiders,
    brute_census,
    census_rows,
    histogram,
    level_sizes,
    oracle_diff,
)
from vincular.perms import DashedPattern, avoids, label, parse_dashed_pattern

# every dashed pattern of length <= 4, with every dash placement
SMALL_PATTERNS = [
    DashedPattern(underlying, adjacency)
    for k in range(1, 5)
    for underlying in permutations(range(1, k + 1))
    for adjacency in product((False, True), repeat=k - 1)
]


def test_brute_avoiders_small():
    assert brute_avoiders(PATTERN, 0) == [()]
    assert brute_avoiders(PATTERN, 1) == [(1,)]
    assert [len(brute_avoiders(PATTERN, n)) for n in range(6)] == [1, 1, 2, 6, 23, 105]
    assert brute_avoiders(PATTERN, 4) == sorted(brute_avoiders(PATTERN, 4))


def test_brute_avoiders_other_patterns():
    # a consecutive pattern is easier to avoid than its classical cousin
    consecutive = parse_dashed_pattern("132")
    classical = parse_dashed_pattern("1-3-2")
    for n in range(6):
        cons = brute_avoiders(consecutive, n)
        clas = brute_avoiders(classical, n)
        assert set(clas) <= set(cons)
    assert len(brute_avoiders(classical, 5)) == 42  # Catalan


def test_search_equals_filter_small_patterns():
    assert len(SMALL_PATTERNS) == 221
    for pattern in SMALL_PATTERNS:
        for n in range(7):
            assert brute_avoiders(pattern, n) == _filter_avoiders(pattern, n), (str(pattern), n)


def test_level_sizes_count_the_levels_small_patterns():
    for pattern in SMALL_PATTERNS:
        levels = avoider_levels(pattern, 6)
        for n in range(7):
            assert level_sizes(pattern, n) == [len(level) for level in levels[: n + 1]], (str(pattern), n)


def test_level_sizes_guards():
    assert level_sizes(PATTERN, 0) == [1]
    with pytest.raises(ValueError, match="nonnegative: -1"):
        level_sizes(PATTERN, -1)
    with pytest.raises(ValueError, match="force"):
        level_sizes(PATTERN, ENUMERATION_CAP + 1)


@pytest.mark.parametrize(
    "text, words",
    [
        # one search per word shorter than 8: the avoiders of lengths 0..7
        ("1-32-4", 3894),
        ("1-23-4", 3894),
        ("31-4-2", 3650),
    ],
)
def test_one_search_per_word(monkeypatch, text, words):
    count = 0
    search = brute.ranks_ending

    def counted(*args):
        nonlocal count
        count += 1
        return search(*args)

    monkeypatch.setattr(brute, "ranks_ending", counted)
    pattern = parse_dashed_pattern(text)
    assert sum(map(len, avoider_levels(pattern, 8)[:8])) == words
    assert count == words
    count = 0
    level_sizes(pattern, 8)
    assert count == words


@pytest.mark.parametrize("n", [2.5, True, "3", None])
@pytest.mark.parametrize(
    "reader",
    [level_sizes, avoider_levels, brute_avoiders, census_rows, brute_census],
    ids=lambda reader: reader.__name__,
)
def test_oracle_rejects_a_non_integer_length(reader, n):
    # neither a float nor a bool is a length, though both compare with ints;
    # a str or None is rejected before it is compared
    with pytest.raises(ValueError, match="integer"):
        reader(PATTERN, n)


def _grown_by_definition(word, free):
    # each child in full: the letters >= v move up by one, then v is appended
    ranks = [v for v in range(1, len(word) + 2) if free >> v & 1]
    return [tuple(x + (x >= v) for x in word) + (v,) for v in ranks]


def test_grown_equals_its_definition_small_words():
    # every permutation of length <= 5 with every mask of ranks 1..m + 1
    for m in range(6):
        for word in permutations(range(1, m + 1)):
            for free in range(0, 2 << (m + 1), 2):
                assert brute._grown(word, free) == _grown_by_definition(word, free), (word, bin(free))


@st.composite
def words_and_masks(draw):
    m = draw(st.integers(6, 14))
    word = tuple(draw(st.permutations(range(1, m + 1))))
    return word, draw(st.integers(0, (1 << (m + 1)) - 1)) << 1


@settings(max_examples=200, database=None, deadline=None)
@given(words_and_masks())
def test_grown_equals_its_definition_longer_words(word_and_mask):
    word, free = word_and_mask
    assert brute._grown(word, free) == _grown_by_definition(word, free)


@pytest.mark.parametrize(
    "fold, words",
    [
        # each avoider of length 1..8 once: 1 + 2 + 6 + 23 + 105 + 549 + 3,207 + 20,577
        (avoider_levels, 24470),
        (census_rows, 24470),
        # only the stack's children, lengths 1..7
        (level_sizes, 3893),
    ],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_each_word_is_built_once(monkeypatch, fold, words):
    built = 0
    grown = brute._grown

    def counted(*args):
        nonlocal built
        children = grown(*args)
        built += len(children)
        return children

    monkeypatch.setattr(brute, "_grown", counted)
    list(fold(PATTERN, 8))
    assert built == words


@pytest.mark.parametrize("text", ["1-32-4", "1-23-4", "31-4-2", "1-3-2", "132"])
@pytest.mark.parametrize("n", [7, 8])
def test_search_equals_filter_longer_words(text, n):
    pattern = parse_dashed_pattern(text)
    assert brute_avoiders(pattern, n) == _filter_avoiders(pattern, n)


# the three patterns the benchmark counts, and edge cases: a length-1
# pattern prunes at the root, and 12 or 21 leave one avoider per length
LEVEL_PATTERNS = ["1-32-4", "1-23-4", "31-4-2", "1", "12", "21", "1-2"]


@pytest.mark.parametrize("text", LEVEL_PATTERNS)
def test_avoider_levels_equal_filter(text):
    pattern = parse_dashed_pattern(text)
    # the search's order is its own; brute_avoiders sorts
    levels = [sorted(level) for level in avoider_levels(pattern, 7)]
    assert levels == [_filter_avoiders(pattern, n) for n in range(8)]


def test_avoider_levels_guards():
    with pytest.raises(ValueError):
        avoider_levels(PATTERN, -1)
    with pytest.raises(ValueError):
        avoider_levels(PATTERN, ENUMERATION_CAP + 1)
    assert avoider_levels(PATTERN, 0) == [[()]]


def test_brute_avoiders_cap():
    with pytest.raises(ValueError):
        brute_avoiders(PATTERN, ENUMERATION_CAP + 1)


def test_brute_census():
    assert brute_census(PATTERN, 1) == {0: 1}
    assert brute_census(PATTERN, 4) == {0: 6, 1: 10, 2: 6, 3: 1}
    with pytest.raises(ValueError):
        brute_census(PATTERN, 0)


def test_census_rows_are_the_level_histograms(monkeypatch):
    levels = avoider_levels(PATTERN, 8)

    def refuse(*args, **kwargs):
        raise AssertionError("avoider_levels called")

    # the census and the counts are folds over the walk; neither builds a level
    monkeypatch.setattr(brute, "avoider_levels", refuse)
    for n in range(1, 9):
        rows = list(census_rows(PATTERN, n))
        assert rows == [{}] + [histogram(label, level) for level in levels[1 : n + 1]], n
        assert level_sizes(PATTERN, n) == [len(level) for level in levels[: n + 1]], n
    assert list(census_rows(PATTERN, 0)) == [{}]


@pytest.mark.parametrize("fold", [level_sizes, census_rows], ids=lambda fold: fold.__name__)
def test_oracle_folds_hold_no_level(fold):
    # holding levels 0..7 (3,894 words) peaked at 145-387 KB; the walk's
    # stack and the rows take a few KB
    list(fold(PATTERN, 8))
    tracemalloc.start()
    try:
        list(fold(PATTERN, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def _breadth_first_levels(pattern, n_max):
    # level m + 1 grows the words of level m in order, each by increasing
    # rank of its new last letter, and keeps the children that avoid
    levels = [[()]]
    for m in range(n_max):
        level = []
        for word in levels[-1]:
            for v in range(1, m + 2):
                child = tuple(x + (x >= v) for x in word) + (v,)
                if avoids(pattern, child):
                    level.append(child)
        levels.append(level)
    return levels


@pytest.mark.parametrize("text", ["1-32-4", "1-23-4", "31-4-2"])
def test_avoider_levels_keep_breadth_first_order(text):
    # a depth-first walk meets each length in breadth-first order; unsorted
    pattern = parse_dashed_pattern(text)
    assert avoider_levels(pattern, 7) == _breadth_first_levels(pattern, 7)


def test_census_rows_check_n_when_called():
    with pytest.raises(ValueError, match="nonnegative"):
        census_rows(PATTERN, -1)
    with pytest.raises(ValueError, match="force"):
        census_rows(PATTERN, ENUMERATION_CAP + 1)


def test_oracle_diff():
    assert oracle_diff([1, 1, 2, 6, 23, 105, 549]) is None
    assert oracle_diff([1]) is None


def test_oracle_diff_names_the_first_wrong_length():
    # one word missing at length 4, one extra at length 5: the first is named
    assert oracle_diff([1, 1, 2, 6, 22, 106]) == "length 4: 22 words, brute force finds 23"
    assert oracle_diff([0, 1]) == "length 0: 0 words, brute force finds 1"


def test_oracle_diff_guards():
    with pytest.raises(ValueError, match="force"):
        oracle_diff([1] * (ENUMERATION_CAP + 2))
    with pytest.raises(ValueError):
        oracle_diff([])
