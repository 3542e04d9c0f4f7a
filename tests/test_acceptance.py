"""End-to-end acceptance checks.

One test per deliverable claim, ordered:

 1. the counting sequence through n = 9 from the cli recurrence path
 2. the printed label triangle values for n <= 8
 3. brute-force label census equals the triangle rows for n <= 8
 4. expansion partitions each level and reduction inverts it, lengths <= 9
 5. child labels realize the succession rule for all nodes up to length 8
 6. the six worked reduction and expansion examples, letter for letter
 7. the shifted rule reproduces the tree label histograms, depths <= 12
 8. functional-equation residual vanishes through z^7 on the census
 9. boundary differential equation holds through z^7 under a recorded
    t-exponent convention
10. the first-letter recursion for 31-4-2 avoiders matches brute force,
    n <= 8
11. continued-fraction coefficients compared against the counts, with the
    first mismatching order reported
12. 1-32-4 and 1-23-4 have equally many avoiders for n <= 8

One more test, after the twelve, pins the label census of 1-23-4 avoiders
to the same triangle rows, n <= 8.

Each test prints one summary line with its elapsed time (visible under
pytest -s or in captured output).
"""

import time

from vincular import cli
from vincular.blocks import PATTERN
from vincular.brute import avoider_levels, brute_avoiders, brute_census, histogram
from vincular.counting import (
    PATTERN_3142,
    callan_3142,
    check_functional_equation,
    check_pde,
    compare_cfrac_with_counts,
    count_avoiders,
    v_triangle,
)
from vincular.eco import Insert, MoveAll, Partial, expand, reduce
from vincular.gentree import LAMBDA_RULE, OMEGA_RULE, level_label_counts, verify_labelling
from vincular.perms import label, parse_dashed_pattern

COUNTS = [1, 1, 2, 6, 23, 105, 549, 3207, 20577, 143239]

# the printed triangle, rows n = 1..8, columns k = 0..n-1
TRIANGLE_ROWS = {
    1: [1],
    2: [1, 1],
    3: [2, 3, 1],
    4: [6, 10, 6, 1],
    5: [23, 40, 31, 10, 1],
    6: [105, 187, 166, 75, 15, 1],
    7: [549, 993, 958, 530, 155, 21, 1],
    8: [3207, 5865, 5988, 3786, 1415, 287, 28, 1],
}


def _done(name: str, started: float, note: str = "") -> None:
    extra = f"; {note}" if note else ""
    print(f"PASS {name} in {time.perf_counter() - started:.2f} s{extra}")


def test_01_counting_sequence_from_cli(capsys):
    started = time.perf_counter()
    assert cli.main(["count", "--pattern", "1-32-4", "--method", "recurrence", "--n", "9"]) == 0
    out = capsys.readouterr().out
    assert [int(line) for line in out.splitlines()] == COUNTS
    _done("counting sequence 0..9", started)


def test_02_label_triangle_printed_values():
    started = time.perf_counter()
    tri = v_triangle(8)
    checked = 0
    for n, values in TRIANGLE_ROWS.items():
        assert tri.row(n) == {k: v for k, v in enumerate(values)}, n
        checked += len(values)
    assert checked == 36
    _done("label triangle, 36 entries", started)


def test_03_label_census_equals_triangle():
    started = time.perf_counter()
    tri = v_triangle(8)
    for n in range(1, 9):
        assert brute_census(PATTERN, n) == tri.row(n), n
    # the same census from a from-scratch scan, to tie the statistic down
    # independently of the library's label function
    for n in range(1, 7):
        census: dict[int, int] = {}
        for w in brute_avoiders(PATTERN, n):
            lab = sum(
                1
                for i in range(w.index(1) + 1, n)
                if all(w[i] > w[j] for j in range(i + 1, n))
            )
            census[lab] = census.get(lab, 0) + 1
        assert census == tri.row(n), n
    _done("brute census equals triangle rows, n <= 8", started)


def test_04_expansion_partitions_levels():
    started = time.perf_counter()
    levels = {n: brute_avoiders(PATTERN, n) for n in range(1, 10)}
    for n in range(1, 9):
        children = []
        for parent in levels[n]:
            for _, child in expand(parent):
                assert reduce(child) == parent
                children.append(child)
        assert len(children) == len(set(children))
        assert set(children) == set(levels[n + 1])
    _done("expansion partitions levels 2..9, reduction inverts", started)


def test_05_labelling_follows_succession_rule():
    started = time.perf_counter()
    report = verify_labelling(8)
    assert report.ok, report
    _done("succession rule labelling", started, f"{report.nodes_checked} nodes")


def test_06_worked_examples():
    started = time.perf_counter()
    # reduction when 2 precedes 1: runs after 2 are re-sorted
    assert reduce((8, 9, 14, 12, 5, 2, 4, 10, 11, 1, 3, 13, 6, 7)) == (
        7, 8, 13, 11, 4, 1, 2, 12, 3, 9, 10, 5, 6,
    )
    # reduction when 1 precedes 2: the 2 moves into 1's place
    assert reduce((8, 9, 14, 12, 5, 3, 4, 10, 11, 1, 6, 13, 2, 7)) == (
        7, 8, 13, 11, 4, 2, 3, 9, 10, 1, 5, 12, 6,
    )
    # expansions of a length-14 avoider with label 4
    children = dict(expand((5, 9, 14, 10, 12, 1, 2, 7, 13, 6, 11, 3, 8, 4)))
    assert children[MoveAll()] == (6, 10, 15, 11, 13, 2, 1, 3, 8, 14, 7, 12, 4, 9, 5)
    assert children[Partial(2, 2)] == (6, 10, 15, 11, 13, 2, 3, 8, 14, 4, 9, 1, 7, 12, 5)
    assert children[Insert(3)] == (6, 10, 15, 11, 13, 1, 3, 8, 14, 7, 12, 2, 4, 9, 5)
    # the last one is printed with a typo, so compare against the stated
    # pre-normalization sequence instead
    before_renumbering = (5, 9, 14, 10, 12, 0, 2, 7, 13, 6, 11, 3, 8, 4, 1)
    assert children[Insert(5)] == tuple(v + 1 for v in before_renumbering)
    _done("six worked examples", started)


def test_07_shifted_rule_histograms():
    started = time.perf_counter()
    om, la = OMEGA_RULE, LAMBDA_RULE
    for depth in range(13):
        shifted = {k + 1: v for k, v in level_label_counts(om, depth).items()}
        assert shifted == level_label_counts(la, depth), depth
    _done("shifted rule histograms, depths <= 12", started)


def test_08_functional_equation():
    started = time.perf_counter()
    report = check_functional_equation(7)
    assert report.ok, report
    _done("functional equation through z^7", started)


def test_09_boundary_differential_equation():
    started = time.perf_counter()
    report = check_pde(7)
    assert report.ok, report
    assert report.convention is not None
    _done("differential equation through z^7", started, f"convention {report.convention}")


def test_10_first_letter_recursion():
    started = time.perf_counter()
    expected = [len(brute_avoiders(PATTERN_3142, n)) for n in range(9)]
    assert callan_3142(8) == expected
    _done("31-4-2 recursion vs brute force, n <= 8", started)


def test_11_continued_fraction_report():
    started = time.perf_counter()
    cmp = compare_cfrac_with_counts(9)
    # the comparison must end in an explicit verdict either way
    if cmp.first_mismatch is None:
        assert cmp.series == cmp.counts
    else:
        i = cmp.first_mismatch
        assert cmp.series[:i] == cmp.counts[:i]
        assert cmp.series[i] != cmp.counts[i]
    _done("continued fraction comparison through order 9", started, str(cmp))


def test_12_wilf_equivalent_sibling():
    started = time.perf_counter()
    sibling = parse_dashed_pattern("1-23-4")
    for n in range(9):
        assert len(brute_avoiders(sibling, n)) == count_avoiders(n), n
    _done("1-23-4 equinumerous with 1-32-4, n <= 8", started)


def test_sibling_shares_the_label_refinement():
    # Beyond claim 12: the label (right-to-left maxima right of the 1) has
    # the same distribution on 1-23-4 avoiders as on 1-32-4 avoiders, row n
    # of v.  Brute force alone, so the tree plays no part.
    started = time.perf_counter()
    levels = avoider_levels(parse_dashed_pattern("1-23-4"), 8)
    tri = v_triangle(8)
    for n in range(1, 9):
        assert histogram(label, levels[n]) == tri.row(n), n
    _done("1-23-4 label census equals triangle rows, n <= 8", started)
