"""Property tests: random walks down the generating tree, the avoidance
check of ``decompose`` against occurrence search on random permutations,
the pattern parser on its own output and on arbitrary text, and the
README's library examples."""

import doctest
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vincular.blocks import PATTERN, decompose
from vincular.eco import expand, reduce
from vincular.gentree import OMEGA_RULE, ROOT
from vincular.perms import DashedPattern, avoids, label, parse_dashed_pattern

README = Path(__file__).resolve().parent.parent / "README.md"


@settings(max_examples=25, database=None, deadline=None)
@given(st.lists(st.integers(min_value=0), min_size=39, max_size=39))
def test_random_walk_follows_rule_and_reduces_back(choices):
    # each choice picks one child of the current node, from the root down
    # to length 40; every node on the way is checked
    rule = OMEGA_RULE
    parent = ROOT
    for choice in choices:
        children = [child for _, child in expand(parent)]
        assert tuple(label(child) for child in children) == rule.productions(label(parent))
        child = children[choice % len(children)]
        assert reduce(child) == parent
        parent = child


@st.composite
def permutations(draw, max_size=12):
    n = draw(st.integers(1, max_size))
    return tuple(draw(st.permutations(range(1, n + 1))))


@settings(max_examples=300, database=None, deadline=None)
@given(permutations())
def test_blocks_decide_avoidance_and_write_out_the_word(w):
    if not avoids(PATTERN, w):
        with pytest.raises(ValueError):
            decompose(w)
        return
    flat: list[int] = []
    for block in decompose(w):
        flat.append(block.minimum)
        for run in block.runs:
            flat.extend(run)
    assert tuple(flat) == w


@st.composite
def dashed_patterns(draw, max_size=12):
    underlying = draw(permutations(max_size))
    adjacency = draw(st.lists(st.booleans(), min_size=len(underlying) - 1, max_size=len(underlying) - 1))
    return DashedPattern(underlying, tuple(adjacency))


@settings(max_examples=300, database=None, deadline=None)
@given(dashed_patterns())
def test_pattern_text_parses_back(pattern):
    assert parse_dashed_pattern(str(pattern)) == pattern


# the separators, ASCII digits, and two characters whose ``isdigit`` is
# true: a superscript that ``int`` rejects and an Arabic-Indic digit it reads
@settings(max_examples=300, database=None, deadline=None)
@given(st.text(alphabet="0123456789-, \t\u00b2\u0663x", max_size=12))
def test_parsers_raise_only_value_error(text):
    try:
        parse_dashed_pattern(text)
    except ValueError:
        pass


def test_readme_library_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert failed == 0
    assert attempted >= 6
