import os
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

import vincular
from vincular.blocks import PATTERN
from vincular.brute import (
    ENUMERATION_CAP,
    _filter_avoiders,
    avoider_levels,
    brute_avoiders,
    brute_census,
    oracle_diff,
)
from vincular.cli import main
from vincular.perms import DashedPattern, parse_dashed_pattern

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


def _count(capsys, *argv):
    assert main(["count", *argv]) == 0
    return [int(line) for line in capsys.readouterr().out.splitlines()]


def test_brute_avoiders_workers_match(capsys, brute_levels):
    # --threads 3 once asked for three pool workers; the counts are still
    # those of the serial levels
    counts = _count(capsys, "--method", "brute", "--n", "7", "--threads", "3")
    assert counts == [1] + [len(brute_levels[n]) for n in range(1, 8)]


def test_search_equals_filter_small_patterns():
    assert len(SMALL_PATTERNS) == 221
    for pattern in SMALL_PATTERNS:
        for n in range(7):
            assert brute_avoiders(pattern, n) == _filter_avoiders(pattern, n), (str(pattern), n)


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
    assert avoider_levels(pattern, 7) == [_filter_avoiders(pattern, n) for n in range(8)]


@pytest.mark.parametrize("text", ["1-32-4", "1-23-4", "31-4-2", "1", "12"])
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("n_max", [7, 8])
def test_avoider_levels_pool_equals_serial(capsys, text, workers, n_max):
    # the --threads values that once started a pool count what the serial
    # search finds, for every pattern, with or without length-3 avoiders
    argv = ("--method", "brute", "--pattern", text, "--n", str(n_max), "--threads", str(workers))
    levels = avoider_levels(parse_dashed_pattern(text), n_max)
    assert _count(capsys, *argv) == [len(level) for level in levels]


def test_avoider_levels_guards():
    with pytest.raises(ValueError):
        avoider_levels(PATTERN, -1)
    with pytest.raises(ValueError):
        avoider_levels(PATTERN, ENUMERATION_CAP + 1)
    assert avoider_levels(PATTERN, 0) == [[()]]


def test_search_pool_equals_serial(capsys):
    # the brute search under --threads 2 against the 31-4-2 recurrence
    brute = _count(capsys, "--method", "brute", "--pattern", "31-4-2", "--n", "7", "--threads", "2")
    assert brute == _count(capsys, "--pattern", "31-4-2", "--n", "7")


def test_usable_cpus_follow_the_affinity_mask():
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    # one allowed CPU, as in every timed benchmark command: --threads 2
    # searches in this process and loads no pool
    code = (
        "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "from vincular.cli import main; "
        "main(['count', '--method', 'brute', '--n', '7', '--threads', '2']); "
        "print(len(os.sched_getaffinity(0)), [m for m in sys.modules if m.startswith('concurrent')])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vincular.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "1\n1\n2\n6\n23\n105\n549\n3207\n1 []\n"


def test_brute_avoiders_cap():
    with pytest.raises(ValueError):
        brute_avoiders(PATTERN, ENUMERATION_CAP + 1)


def test_brute_census():
    assert brute_census(PATTERN, 1) == {0: 1}
    assert brute_census(PATTERN, 4) == {0: 6, 1: 10, 2: 6, 3: 1}
    with pytest.raises(ValueError):
        brute_census(PATTERN, 4, statistic="inversions")
    with pytest.raises(ValueError):
        brute_census(PATTERN, 0)


def test_oracle_diff():
    report = oracle_diff(6)
    assert report.ok
    assert report.levels == ((1, 1, 1), (2, 2, 2), (3, 6, 6), (4, 23, 23), (5, 105, 105), (6, 549, 549))
    assert report.missing == ()
    assert report.extra == ()
    assert report.duplicates == ()
    assert "agrees" in str(report)


def test_oracle_diff_guards():
    with pytest.raises(ValueError):
        oracle_diff(0)
    with pytest.raises(ValueError):
        oracle_diff(10)
