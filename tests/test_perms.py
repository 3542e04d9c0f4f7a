from functools import partial
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vincular import brute, cli, counting, gentree, perms
from vincular.blocks import PATTERN
from vincular.perms import (
    DashedPattern,
    avoids,
    label,
    occurrences,
    parse_dashed_pattern,
    ranks_ending,
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
    # only ASCII digits are values, though str.isdigit and int take others
    for text in ("١-٣٢-٤", "𝟏-32-4", "1,٣,2", "1-3²-4"):
        with pytest.raises(ValueError, match="bad value"):
            parse_dashed_pattern(text)


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


@pytest.mark.parametrize(
    "word",
    [(0,), (5, 0, -3), (-1,), (-3, -1, -2), (0, -5, 2, -7), (-2, 4, 0, 3, -1), (7, -7, 0)],
)
def test_rtl_maxima_of_distinct_integers_below_one(word):
    # a right-to-left maximum is larger than every entry to its right
    expected = [i + 1 for i, v in enumerate(word) if all(v > u for u in word[i + 1 :])]
    assert rtl_maxima(word) == expected


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
    k = draw(st.integers(1, 5))
    underlying = draw(st.permutations(range(1, k + 1)))
    adjacency = draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1))
    return DashedPattern(tuple(underlying), tuple(adjacency))


@settings(max_examples=300, database=None, deadline=None)
@given(dashed_patterns(), st.integers(0, 9).flatmap(lambda m: st.permutations(range(1, m + 1))))
def test_ranks_ending_matches_search(pattern, word):
    # bit v is set exactly when the word grown by a last letter of rank v
    # has an occurrence ending at that letter; no bit outside 1..m + 1
    m = len(word)
    ended = ranks_ending(pattern, word)
    for v in range(1, m + 2):
        child = tuple(x + (x >= v) for x in word) + (v,)
        ends = {occ[-1] for occ in occurrences(pattern, child)}
        assert bool(ended >> v & 1) == (m in ends), v
    assert ended & ~((2 << (m + 1)) - 2) == 0


# Every public function that takes a length, as a call on the length alone, with
# the least length it takes.  ``walk`` is a generator: its check runs at the first next.
LENGTH_TAKERS = {
    "walk": (lambda n: next(gentree.walk(n)), 0),
    "level_label_counts": (partial(gentree.level_label_counts, gentree.OMEGA_RULE), 0),
    "OMEGA_RULE.productions": (gentree.OMEGA_RULE.productions, 0),
    "LAMBDA_RULE.productions": (gentree.LAMBDA_RULE.productions, 1),
    "SuccessionRule(2).productions": (gentree.SuccessionRule(2).productions, 2),
    "iter_level": (gentree.iter_level, 1),
    "generate_level": (gentree.generate_level, 1),
    "verify_labelling": (gentree.verify_labelling, 1),
    "export_tree": (gentree.export_tree, 1),
    "triangle_rows": (partial(counting.triangle_rows, gentree.LAMBDA_RULE), 0),
    "u_triangle": (counting.u_triangle, 0),
    "v_triangle": (counting.v_triangle, 0),
    "count_avoiders": (counting.count_avoiders, 0),
    "avoider_counts": (counting.avoider_counts, 0),
    "callan_3142_triangle": (counting.callan_3142_triangle, 0),
    "callan_3142": (counting.callan_3142, 0),
    "continued_fraction_series": (counting.continued_fraction_series, 0),
    "compare_cfrac_with_counts": (counting.compare_cfrac_with_counts, 0),
    "label_series": (counting.label_series, 0),
    "check_functional_equation": (counting.check_functional_equation, 1),
    "check_pde": (counting.check_pde, 1),
    "level_sizes": (partial(brute.level_sizes, PATTERN), 0),
    "avoider_levels": (partial(brute.avoider_levels, PATTERN), 0),
    "brute_avoiders": (partial(brute.brute_avoiders, PATTERN), 0),
    "census_rows": (partial(brute.census_rows, PATTERN), 0),
    "brute_census": (partial(brute.brute_census, PATTERN), 1),
    "cli._verify_eco": (partial(cli._verify_eco, force=False), 1),
}


@pytest.mark.parametrize(
    "name, n",
    [
        (name, n)
        for name, (_, least) in LENGTH_TAKERS.items()
        for n in (1.5, 2.5, True, "3", None, *range(-1, least))
    ],
)
def test_every_length_is_checked(name, n):
    # a float or a bool compares with ints, and a str or None does not: all are
    # rejected with the same ValueError, as is a length below the least one
    call, _ = LENGTH_TAKERS[name]
    with pytest.raises(ValueError, match="must be an integer, "):
        call(n)


@pytest.mark.parametrize(
    "call",
    [
        counting.u_triangle,
        counting.label_series,
        counting.check_pde,
        partial(brute.census_rows, PATTERN),
        lambda n: cli.main(["count", "--method", "tree", "--n", str(n)]),
    ],
)
def test_length_is_checked_once_per_call(monkeypatch, call, capsys):
    # per call, never per row, node or word: the same count at two sizes
    calls = []
    for module in (brute, cli, counting, gentree):
        monkeypatch.setattr(module, "check_length", lambda *args: calls.append(args) or perms.check_length(*args))
    counts = []
    for n in (3, 6):
        calls.clear()
        call(n)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
