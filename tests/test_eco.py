import random

import pytest

from vincular import eco, perms
from vincular.blocks import check_avoider, decompose
from vincular.eco import Insert, MoveAll, Partial, _children, _plan, expand, reduce
from vincular.gentree import ROOT, verify_labelling, walk
from vincular.perms import label


def test_reduce_merges_runs_when_two_precedes_one():
    # deleting 1 forces the runs right of 2 into decreasing-maximum order
    assert reduce((8, 9, 14, 12, 5, 2, 4, 10, 11, 1, 3, 13, 6, 7)) == (
        7, 8, 13, 11, 4, 1, 2, 12, 3, 9, 10, 5, 6,
    )


def test_reduce_promotes_two_when_one_precedes_two():
    assert reduce((8, 9, 14, 12, 5, 3, 4, 10, 11, 1, 6, 13, 2, 7)) == (
        7, 8, 13, 11, 4, 2, 3, 9, 10, 1, 5, 12, 6,
    )


@pytest.mark.parametrize("word", [(1,), (1, 3, 2, 4), (1, 1), (2, 3), ()])
def test_reduce_rejects_bad_input(word):
    # a root with no parent, a non-avoider, two non-permutations and the
    # empty word
    with pytest.raises(ValueError):
        reduce(word)


WORKED = (5, 9, 14, 10, 12, 1, 2, 7, 13, 6, 11, 3, 8, 4)


def test_expand_named_children_of_worked_example():
    assert label(WORKED) == 4
    children = dict()
    for spec, child in expand(WORKED):
        children[spec] = child
    assert children[MoveAll()] == (6, 10, 15, 11, 13, 2, 1, 3, 8, 14, 7, 12, 4, 9, 5)
    assert children[Partial(2, 2)] == (6, 10, 15, 11, 13, 2, 3, 8, 14, 4, 9, 1, 7, 12, 5)
    assert children[Insert(3)] == (6, 10, 15, 11, 13, 1, 3, 8, 14, 7, 12, 2, 4, 9, 5)
    assert children[Insert(5)] == (6, 10, 15, 11, 13, 1, 3, 8, 14, 7, 12, 4, 9, 5, 2)
    # |children| = (k+1)(k+2)/2 + 1 for k = 4
    assert len(children) == 16


@pytest.mark.parametrize("word", [(1, 3, 2, 4), (1, 1), (2, 3), ()])
def test_expand_rejects_bad_input(word):
    # a non-avoider, two non-permutations and the empty word
    with pytest.raises(ValueError, match=None if word else "nothing to expand"):
        expand(word)


def test_expand_base_case():
    assert expand((1,)) == [(MoveAll(), (2, 1)), (Insert(1), (1, 2))]


def test_expand_canonical_child_order():
    specs = [spec for spec, _ in expand((1, 3, 2))]
    assert specs == [
        Partial(0, 1),
        Partial(1, 1),
        Partial(1, 2),
        MoveAll(),
        Insert(1),
        Insert(2),
        Insert(3),
    ]


def test_reduce_inverts_expand(brute_levels):
    for n in range(1, 7):
        for parent in brute_levels[n]:
            for _, child in expand(parent):
                assert reduce(child) == parent


def test_expand_partitions_next_level(brute_levels):
    for n in range(1, 7):
        children = [child for parent in brute_levels[n] for _, child in expand(parent)]
        assert len(children) == len(set(children)), "a child repeated"
        assert set(children) == set(brute_levels[n + 1])


def test_expand_child_types(brute_levels):
    # MoveAll and Partial children put 2 before 1, Insert children after
    for n in range(1, 6):
        for parent in brute_levels[n]:
            for spec, child in expand(parent):
                assert (child.index(2) < child.index(1)) != isinstance(spec, Insert)


def test_no_generic_search_behind_expand_or_reduce(brute_levels, monkeypatch):
    # expand and reduce validate with the one scan of
    # blocks.check_avoider; the backtracking occurrence search must stay
    # off that path
    def search(*args):
        raise AssertionError("generic occurrence search called")

    monkeypatch.setattr(perms, "_search", search)
    for n in range(1, 7):
        for w in brute_levels[n]:
            expand(w)
            if n > 1:
                reduce(w)
    assert verify_labelling(5).ok


def test_children_are_distinct_and_reduce_to_their_node(brute_levels):
    # reduce and decompose share no code with the plans of _children:
    # reduce splits the letters after its 2 into runs of its own,
    # decompose counts the runs of the last block
    checked = 0
    for n in range(1, 8):
        for word in brute_levels[n]:
            children = _children(word)
            assert len(set(children)) == len(children), word
            assert all(reduce(child) == word for child in children), word
            k = len(decompose(word)[-1].runs)
            assert len(children) == (k + 1) * (k + 2) // 2 + 1, word
            checked += 1
    # every avoider of length 1..7
    assert checked == 1 + 2 + 6 + 23 + 105 + 549 + 3207


def _reference_children(word):
    # the children as the docstrings of the moves state them, from the
    # blocks of the word moved up by one: the old minimum becomes 2 and
    # heads the last block, and the new minimum is 1
    def up(letters):
        return tuple(v + 1 for v in letters)

    def flat(runs):
        return tuple(v for run in runs for v in run)

    *front, last = decompose(word)
    prefix = up(flat((b.minimum, *flat(b.runs)) for b in front))
    runs = [up(run) for run in last.runs]
    k = len(runs)
    out = []
    for i in range(k):
        # Partial(i, j): run j of the last i+1 runs jumps in front of the
        # new minimum, and the other i stay behind it
        before, tail = runs[: k - i - 1], runs[k - i - 1 :]
        for j in range(1, i + 2):
            behind = tail[: j - 1] + tail[j:]
            child = prefix + (2,) + flat(before) + tail[j - 1] + (1,) + flat(behind)
            out.append((Partial(i, j), child))
    # MoveAll: the new minimum right after the old one, every run behind it
    out.append((MoveAll(), prefix + (2, 1) + flat(runs)))
    for p in range(1, k + 2):
        # Insert(p): the new minimum heads the last block, and the old one
        # goes just before its p-th run, or after every run
        out.append((Insert(p), prefix + (1,) + flat(runs[: p - 1]) + (2,) + flat(runs[p - 1 :])))
    return out


def test_children_equal_the_moves_as_documented(brute_levels):
    # every avoider of length 1..7, element by element and in order, then
    # for each label k of 7..10, past the reach of those levels, a node
    # whose last block is k one-letter runs, 1 k+1 k ... 2, and one with k
    # two-letter runs after a prefix, 2k+2 1 2k 2k+1 2k-2 2k-1 ... 2 3
    words = [word for n in range(1, 8) for word in brute_levels[n]]
    assert len(words) == 3893
    for k in range(7, 11):
        pairs = [v for a in range(2 * k, 1, -2) for v in (a, a + 1)]
        for word in (1, *range(k + 1, 1, -1)), (2 * k + 2, 1, *pairs):
            assert label(check_avoider(word)) == k, word
            words.append(word)
    for word in words:
        reference = _reference_children(word)
        assert _children(word) == [child for _, child in reference], word
        assert expand(word) == reference, word


def test_expand_finds_its_shape_once(monkeypatch):
    # the specs and the children of one expand come from one plan
    nodes = [node for node, _ in walk(6)]
    shapes = []
    shape = eco._shape
    monkeypatch.setattr(eco, "_shape", lambda word: shapes.append(word) or shape(word))
    for node in nodes:
        expand(node)
    assert shapes == nodes


def test_plan_memo_holds_one_plan_per_shape():
    # a shape is the length, the place of the 1 and the run offsets of the
    # last block: 2^(m-1) shapes of length m, 255 for the nodes of walk(9)
    _plan.cache_clear()
    nodes = [node for node, _ in walk(9)]
    assert _plan.cache_info().misses == 255
    for _ in walk(9):
        pass
    assert _plan.cache_info().misses == 255
    # expand reads its specs from the same plans as _children
    for node in nodes:
        expand(node)
    assert _plan.cache_info().misses == 255
    # 25 random walks to length 40 that expand every child on the way
    # meet more shapes than the memo holds; plans built again after an
    # eviction still give the documented children
    rng = random.Random(3)
    for _ in range(25):
        parent = ROOT
        while len(parent) < 40:
            children = [child for _, child in expand(parent)]
            for child in children:
                expand(child)
            parent = rng.choice(children)
        assert _children(parent) == [child for _, child in _reference_children(parent)]
    info = _plan.cache_info()
    assert info.misses > info.maxsize >= info.currsize
