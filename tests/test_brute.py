from itertools import permutations, product

import pytest

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
from vincular.perms import DashedPattern, label, parse_dashed_pattern

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
    "text, calls",
    [
        # the last letter is the largest: ranks are tested from the top down
        # and stop at the first that ends no occurrence (30,277 without the cut)
        ("1-32-4", 9701),
        ("1-23-4", 9701),
        # the last letter 2 is neither largest nor smallest: every rank is tested
        ("31-4-2", 28345),
    ],
)
def test_rank_cut_only_where_it_applies(monkeypatch, text, calls):
    count = 0
    search = brute.occurs_ending_at

    def counted(*args):
        nonlocal count
        count += 1
        return search(*args)

    monkeypatch.setattr(brute, "occurs_ending_at", counted)
    avoider_levels(parse_dashed_pattern(text), 8)
    assert count == calls
    count = 0
    level_sizes(parse_dashed_pattern(text), 8)
    assert count == calls


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
    built = []

    def recorded(pattern, n_max, **kwargs):
        built.append(n_max)
        return avoider_levels(pattern, n_max, **kwargs)

    monkeypatch.setattr(brute, "avoider_levels", recorded)
    for n in range(1, 9):
        rows = list(census_rows(PATTERN, n))
        assert rows == [{}] + [histogram(label, level) for level in levels[1 : n + 1]], n
        # the last length is counted as it grows, never built
        assert built[-1] == n - 1
    assert list(census_rows(PATTERN, 0)) == [{}]


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
