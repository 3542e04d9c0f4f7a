import hashlib
import tracemalloc

import pytest

from vincular import counting
from vincular.brute import brute_avoiders
from vincular.cli import main
from vincular.counting import (
    PATTERN_3142,
    avoider_counts,
    callan_3142,
    callan_3142_triangle,
    check_functional_equation,
    check_pde,
    compare_cfrac_with_counts,
    continued_fraction_series,
    count_avoiders,
    csv_rows,
    label_series,
    triangle_rows,
    u_triangle,
    v_triangle,
)
from vincular.gentree import lambda_rule, omega_rule
from vincular.perms import label

COUNTS = [1, 1, 2, 6, 23, 105, 549, 3207, 20577, 143239]


def test_counting_sequence():
    assert avoider_counts(9) == COUNTS
    assert count_avoiders(0) == 1
    assert count_avoiders(6) == 549
    with pytest.raises(ValueError):
        count_avoiders(-1)


def test_u_triangle_first_rows():
    tri = u_triangle(5)
    assert tri.row(0) == {0: 1}
    assert tri.row(1) == {1: 1}
    assert tri.row(2) == {1: 1, 2: 1}
    assert tri.row(3) == {1: 2, 2: 3, 3: 1}
    assert tri.row(5) == {1: 23, 2: 40, 3: 31, 4: 10, 5: 1}
    assert tri.value(4, 2) == 10
    assert tri.value(4, 7) == 0


def test_v_is_u_shifted():
    u, v = u_triangle(10), v_triangle(10)
    for n in range(1, 11):
        assert v.row(n) == {k - 1: c for k, c in u.row(n).items()}
    assert v.row(0) == {-1: 1}


def test_row_sums_count_avoiders():
    u, v = u_triangle(9), v_triangle(9)
    for n in range(1, 10):
        assert u.row_sum(n) == COUNTS[n]
        assert v.row_sum(n) == COUNTS[n]


def test_triangle_csv():
    csv = "".join(csv_rows(u_triangle(2).rows))
    assert csv == "n,k,value\n0,0,1\n1,1,1\n2,1,1\n2,2,1\n"
    # one string per row, so the csv takes one write per row
    assert list(csv_rows(triangle_rows(lambda_rule(), 2)))[-1] == "2,1,1\n2,2,1\n"


def test_callan_sequence_differs_from_ours():
    got = callan_3142(8)
    assert got == [1, 1, 2, 6, 23, 104, 531, 2982, 18109]
    assert got[5] != COUNTS[5]


def test_callan_triangle_against_brute_first_letters():
    tri = callan_3142_triangle(7)
    for n in range(1, 8):
        hist: dict[int, int] = {}
        for w in brute_avoiders(PATTERN_3142, n):
            hist[w[0]] = hist.get(w[0], 0) + 1
        assert hist == tri.row(n), n


def test_callan_convolution_identity():
    # with c(n) = sum_i i * a(n-1, i) and c(1) = 1, the row sums satisfy
    # a(n) = sum_{i<n} a(i) c(n-i)
    tri = callan_3142_triangle(8)
    a = [1] + [tri.row_sum(n) for n in range(1, 9)]
    c = [None, 1] + [
        sum(i * v for i, v in tri.row(n - 1).items()) for n in range(2, 9)
    ]
    for n in range(1, 9):
        assert a[n] == sum(a[i] * c[n - i] for i in range(n))


def test_callan_diagonal_is_previous_sum():
    tri = callan_3142_triangle(7)
    a = [1] + [tri.row_sum(n) for n in range(1, 8)]
    for n in range(1, 8):
        assert tri.value(n, n) == a[n - 1]


def test_continued_fraction_series():
    series = continued_fraction_series(9)
    assert series == (1, 0, 2, 2, 5, 15, 48, 161, 555, 1952)
    assert all(isinstance(c, int) for c in series)


def test_continued_fraction_series_is_a_prefix_of_longer_ones():
    # each order has its own cut, so a cut too shallow for its order shows
    # up as a coefficient that a longer series does not share
    longest = continued_fraction_series(60)
    assert all(isinstance(c, int) for c in longest)
    for n in range(41):
        assert continued_fraction_series(n) == longest[: n + 1], n
    with pytest.raises(ValueError):
        continued_fraction_series(-1)


def test_cfrac_comparison_reports_first_mismatch():
    cmp = compare_cfrac_with_counts(9)
    assert cmp.first_mismatch == 1
    assert cmp.counts == tuple(COUNTS)
    assert cmp.series[0] == cmp.counts[0]
    assert cmp.series[1] != cmp.counts[1]
    assert "order 1" in str(cmp)
    # order 0 holds only the empty word, on which the two agree
    cmp = compare_cfrac_with_counts(0)
    assert cmp.first_mismatch is None
    assert "matches" in str(cmp)


def test_label_series_matches_v_triangle():
    assert label_series(6).rows == v_triangle(6).rows
    # rows run in increasing k, as in every Triangle
    assert all(list(row) == sorted(row) for row in label_series(6).rows)
    with pytest.raises(ValueError):
        label_series(-1)


def test_functional_equation_residual_vanishes():
    report = check_functional_equation(7)
    assert report.ok
    assert report.first_bad is None
    assert "vanishes" in str(report)


def test_pde_residual_vanishes_under_shifted_exponent():
    report = check_pde(7)
    assert report.ok
    assert report.convention == "label-plus-one"
    tried = dict(report.tried)
    # the unshifted reading does not satisfy the equation, which is what
    # makes the recorded convention meaningful
    assert tried["label"] is not None
    assert tried["label-plus-one"] is None
    assert "label-plus-one" in str(report)


@pytest.mark.parametrize(
    "word, first_bad", [((3, 1, 4, 2), ((4, 2), -1)), ((1,), ((1, 0), -1))], ids=["3142", "1"]
)
def test_functional_equation_reports_a_mislabelled_word(monkeypatch, word, first_bad):
    # the word's label read one too high moves it from u^k to u^(k+1) in
    # its row, and the residual's first term is the word missing at u^k
    monkeypatch.setattr(counting, "label", lambda w: label(w) + (1 if w == word else 0))
    report = check_functional_equation(6)
    assert not report.ok
    assert report.first_bad == first_bad


def test_pde_reports_a_wrong_census_entry(monkeypatch):
    rows = [dict(row) for row in triangle_rows(omega_rule(), 6)]
    rows[4][1] += 1
    monkeypatch.setattr(counting, "triangle_rows", lambda rule, n_max: iter(rows))
    report = check_pde(6)
    assert not report.ok
    assert "fails through z^6" in str(report)
    assert report.tried == (
        ("label-plus-one", ((4, 2), 1)),
        ("label", ((1, 0), 1)),
        ("label-plus-one-with-empty", ((0, 0), 1)),
        ("label-with-empty", ((0, 0), 1)),
    )


def test_check_pde_builds_the_census_once(monkeypatch):
    # the check reads the rule's rows once, as they come
    calls = []

    def counted(rule, n_max):
        calls.append(n_max)
        return triangle_rows(rule, n_max)

    monkeypatch.setattr(counting, "triangle_rows", counted)
    assert check_pde(7).ok
    assert calls == [7]


def test_check_pde_holds_no_triangle():
    # holding v_triangle(100) peaked at 660 KB; two rows per convention
    # take tens of KB
    check_pde(100)
    tracemalloc.start()
    try:
        check_pde(100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024, peak


@pytest.mark.parametrize("n_max", [0, -1])
def test_series_checks_need_order_one(n_max):
    with pytest.raises(ValueError):
        check_functional_equation(n_max)
    with pytest.raises(ValueError):
        check_pde(n_max)


# sha256 of the stdout of the large recurrence and continued fraction
# commands, the values that perfbench/references.json holds for them
LARGE_OUTPUTS = {
    ("count", "--n", "400"): "1b1bfa5bb46708a89313dc1f918ef3631aa73404f95413ca281373671130caaa",
    ("count", "--pattern", "31-4-2", "--n", "100"): (
        "cf079b110829465f0ac51c9497abb565905d0b027d6e28eec1db3e5d306667ea"
    ),
    ("triangle", "--which", "v", "--n", "300"): (
        "86ac79a887d6350ae033831a2c7ecc3a229ea901557cac098e1737c2d990787e"
    ),
    ("count", "--method", "cfrac", "--n", "40"): (
        "99fa2c6247a927d8f54a397d6708142286d355e27f3b4fbef2840384700aa943"
    ),
    # not in references.json; taken from the Fraction-based evaluation
    ("count", "--method", "cfrac", "--n", "60"): (
        "d709e938138204a4834fdd111d4d497cbf1daf33455c555b5aef4d8a4f82e4b2"
    ),
    # not in references.json; taken from the hand-written u recurrence
    ("triangle", "--which", "u", "--n", "300"): (
        "4b9378d66d1d78da1fb5d200e847b27200c78d5853e9227223885fe386cea448"
    ),
}


@pytest.mark.parametrize("argv", list(LARGE_OUTPUTS))
def test_large_recurrence_outputs_are_unchanged(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_OUTPUTS[argv]


def test_counts_hold_no_triangle(capsys, monkeypatch):
    # the counting sequence sums the rule's rows as they come
    def refuse(n_max):
        raise AssertionError("count built the u triangle")

    monkeypatch.setattr(counting, "u_triangle", refuse)
    argv = ("count", "--n", "400")
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_OUTPUTS[argv]
    assert count_avoiders(9) == COUNTS[9]


# sha256 of `triangle --which W --n 6` as printed when the csv was written
# from a whole Triangle
TRIANGLES_AT_6 = {
    "u": "349465bd69a00ed2659a7efe7539ac27b8e08388eb21a2c0142a8d81fdc2efad",
    "v": "a399db2fefe6c6fb566452abea7c5ba70e39b9f7757d0938a36af37c7eb3001b",
    "census": "65001304e47960b2216318622a58faf1ae257d57a2d25b4b04bffb676e8309b4",
}


@pytest.mark.parametrize("which", list(TRIANGLES_AT_6))
def test_triangles_hold_no_triangle(capsys, monkeypatch, which):
    # the csv is written from the row streams as the rows come
    def refuse(*args, **kwargs):
        raise AssertionError(f"triangle --which {which} built a Triangle")

    for name in ("Triangle", "u_triangle", "v_triangle"):
        monkeypatch.setattr(counting, name, refuse)
    assert main(["triangle", "--which", which, "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TRIANGLES_AT_6[which]


@pytest.mark.parametrize(
    "which, n, csv",
    [
        ("u", "0", "n,k,value\n0,0,1\n"),
        ("v", "0", "n,k,value\n0,-1,1\n"),
        ("u", "1", "n,k,value\n0,0,1\n1,1,1\n"),
        ("v", "1", "n,k,value\n0,-1,1\n1,0,1\n"),
    ],
    ids=["u0", "v0", "u1", "v1"],
)
def test_smallest_triangles(capsys, which, n, csv):
    assert main(["triangle", "--which", which, "--n", n]) == 0
    assert capsys.readouterr().out == csv


def _callan_by_triple_sum(n_max):
    # the recursion summed term by term, each inner sum over a whole row
    table, sums = {}, [1]
    for n in range(1, n_max + 1):
        table[(n, n)] = sums[n - 1]
        for k in range(1, n):
            table[(n, k)] = sum(
                sums[i] * sum(table.get((n - 1 - i, j), 0) for j in range(k - i, n - i))
                for i in range(k)
            )
        sums.append(sum(table[(n, k)] for k in range(1, n + 1)))
    return table


def test_callan_triangle_equals_triple_sum():
    tri = callan_3142_triangle(25)
    table = _callan_by_triple_sum(25)
    assert {(n, k): tri.value(n, k) for (n, k) in table} == table
    for n in range(1, 26):
        assert tri.row(n) == {k: table[(n, k)] for k in range(1, n + 1)}
    with pytest.raises(ValueError):
        callan_3142_triangle(-1)


def test_lookups_outside_the_triangle():
    for tri in (u_triangle(4), v_triangle(4), callan_3142_triangle(4)):
        for n in (-1, 5, 100):
            assert tri.row(n) == {}
            assert tri.row_sum(n) == 0
            assert tri.value(n, 1) == 0
        assert tri.value(4, -2) == 0
        assert tri.value(4, 5) == 0
    callan = callan_3142_triangle(4)
    assert callan.row(0) == {}
    assert callan.row_sum(0) == 0
    assert callan.value(0, 0) == 0
    # a returned row is a copy
    u = u_triangle(4)
    u.row(4)[1] = 0
    assert u.value(4, 1) == 6
