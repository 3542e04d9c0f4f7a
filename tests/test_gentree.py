import hashlib
import importlib.util
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from pathlib import Path

import pytest

import vincular
from vincular import brute, cli, eco, gentree
from vincular.counting import avoider_counts
from vincular.eco import expand, reduce
from vincular.gentree import (
    LAMBDA_RULE,
    OMEGA_RULE,
    ROOT,
    _dot_name,
    export_tree,
    generate_level,
    iter_level,
    level_label_counts,
    verify_labelling,
    walk,
)
from vincular.perms import label

# levels 2..4 of the tree in canonical order
LEVEL_2 = [(2, 1), (1, 2)]
LEVEL_3 = [(3, 2, 1), (3, 1, 2), (2, 3, 1), (2, 1, 3), (1, 2, 3), (1, 3, 2)]
LEVEL_4 = [
    (4, 3, 2, 1), (4, 3, 1, 2),
    (4, 2, 3, 1), (4, 2, 1, 3), (4, 1, 2, 3), (4, 1, 3, 2),
    (3, 4, 2, 1), (3, 4, 1, 2),
    (3, 2, 4, 1), (3, 2, 1, 4), (3, 1, 2, 4), (3, 1, 4, 2),
    (2, 3, 4, 1), (2, 1, 3, 4), (1, 2, 3, 4), (1, 3, 4, 2),
    (2, 4, 3, 1), (2, 4, 1, 3), (2, 3, 1, 4), (2, 1, 4, 3), (1, 2, 4, 3), (1, 4, 2, 3), (1, 4, 3, 2),
]


def test_omega_productions():
    rule = OMEGA_RULE
    assert rule.axiom == 0
    assert rule.productions(0) == (0, 1)
    assert rule.productions(1) == (0, 1, 1, 2)
    assert rule.productions(3) == (0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4)
    assert len(rule.productions(5)) == 6 * 7 // 2 + 1
    with pytest.raises(ValueError):
        rule.productions(-1)


def test_lambda_productions():
    rule = LAMBDA_RULE
    assert rule.axiom == 1
    assert rule.productions(1) == (1, 2)
    assert rule.productions(2) == (1, 2, 2, 3)
    with pytest.raises(ValueError):
        rule.productions(0)


def test_lambda_is_omega_shifted():
    om, la = OMEGA_RULE, LAMBDA_RULE
    for k in range(8):
        assert tuple(e + 1 for e in om.productions(k)) == la.productions(k + 1)
    for depth in range(13):
        shifted = {k + 1: v for k, v in level_label_counts(om, depth).items()}
        assert shifted == level_label_counts(la, depth)


def _census_by_productions(rule, depth):
    # slow reference: expand every label into its productions, level by level
    counts = {rule.axiom: 1}
    for _ in range(depth):
        nxt: dict[int, int] = {}
        for lab, mult in counts.items():
            for child in rule.productions(lab):
                nxt[child] = nxt.get(child, 0) + mult
        counts = nxt
    return counts


@pytest.mark.parametrize("rule", [OMEGA_RULE, LAMBDA_RULE], ids=["omega", "lambda"])
def test_census_step_equals_expanding_the_productions(rule):
    for depth, row in enumerate(islice(rule.levels(), 13)):
        reference = sorted(_census_by_productions(rule, depth).items())
        assert list(row.items()) == reference, depth
        assert list(level_label_counts(rule, depth).items()) == reference
    with pytest.raises(ValueError):
        level_label_counts(rule, -1)


def test_level_label_counts_total_is_avoider_count():
    counts = avoider_counts(9)
    for depth in range(9):
        assert sum(level_label_counts(OMEGA_RULE, depth).values()) == counts[depth + 1]


def test_generate_level_canonical_order():
    assert generate_level(1) == [(1,)]
    assert generate_level(2) == LEVEL_2
    assert generate_level(3) == LEVEL_3
    assert generate_level(4) == LEVEL_4


def test_generate_level_counts():
    counts = avoider_counts(7)
    for n in range(1, 8):
        assert len(generate_level(n)) == counts[n]
    with pytest.raises(ValueError):
        generate_level(0)


def test_iter_level_yields_generate_level():
    for n in range(1, 9):
        words = iter_level(n)
        assert not isinstance(words, list)
        assert list(words) == generate_level(n)


@pytest.mark.parametrize("n", [0, -1])
def test_iter_level_checks_n_at_the_call(n):
    # a lazy check would let `generate --n 0` open its output before failing
    with pytest.raises(ValueError, match="positive"):
        iter_level(n)


@pytest.mark.parametrize("reader", [iter_level, generate_level, export_tree, verify_labelling])
@pytest.mark.parametrize("n", [1.5, 2.5])
def test_tree_readers_reject_a_non_integer_length(reader, n):
    # walk(2.5) would act as walk(3): an empty level, or the root and its children
    with pytest.raises(ValueError, match="integer"):
        reader(n)


def test_generate_level_is_validating_expand_level_by_level():
    for n in range(2, 9):
        reference = [child for parent in generate_level(n - 1) for _, child in expand(parent)]
        assert generate_level(n) == reference


def _expand_in_tree_order(node, n):
    # slow reference for walk(n): the validating expand, recursively
    if len(node) < n:
        children = [child for _, child in expand(node)]
        yield node, children
        for child in children:
            yield from _expand_in_tree_order(child, n)


def test_walk_is_the_validating_expand_in_tree_order():
    assert list(walk(1)) == []
    for n in range(2, 8):
        pairs = list(walk(n))
        assert pairs == list(_expand_in_tree_order((1,), n))
        # each node of length 1..n-1 once
        assert len({node for node, _ in pairs}) == len(pairs) == sum(avoider_counts(n - 1)[1:])


def _count_children(monkeypatch):
    children = eco._children
    calls = [0]

    def counted(word):
        calls[0] += 1
        return children(word)

    monkeypatch.setattr(eco, "_children", counted)
    monkeypatch.setattr(gentree, "_children", counted)
    return calls


def test_walk_expands_no_node_of_the_last_level(monkeypatch):
    # _children runs once for each of the 24,470 avoiders of length 1..8
    # and never for the 143,239 of length 9
    calls = _count_children(monkeypatch)
    assert sum(1 for _ in iter_level(9)) == 143239
    assert calls[0] == 24470


def test_verify_labelling_expands_each_node_once(monkeypatch):
    calls = _count_children(monkeypatch)
    assert verify_labelling(8).nodes_checked == 24470
    assert calls[0] == 24470


# _children calls of each reader of the tree: 24,470 nodes of length 1..8
# and 3,893 of length 1..7, each expanded once per walk; and the head of
# what the reader prints
ECO_8 = "tree agrees with brute force through length 8; reduce inverts expand through length 8"
TREE_READERS = [
    (
        ["count", "--method", "tree", "--n", "9"],
        "1\n1\n2\n6\n23\n105\n549\n3207\n20577\n143239\n",
        24470,
    ),
    (["verify", "--suite", "eco", "--n", "8"], f"eco: ok ({ECO_8})\n", 3893),
    # the eco suite, verify_labelling(8) and label_series(8): one walk each
    (
        ["verify", "--suite", "all", "--n", "8"],
        f"eco: ok ({ECO_8})\nlabelling: ok (",
        24470 + 2 * 3893,
    ),
]


@pytest.mark.parametrize("argv, head, expected", TREE_READERS, ids=["count", "oracle", "verify"])
def test_each_reader_walks_the_tree_once(monkeypatch, capsys, argv, head, expected):
    calls = _count_children(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith(head)
    assert calls[0] == expected


def _traced_runner(monkeypatch):
    # perfbench/tracing.py's Runner over this source tree
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    monkeypatch.setattr(sys, "path", list(sys.path))  # Runner prepends src
    return tracing.Runner(Path(vincular.__file__).resolve().parents[1])


def test_pool_modules_bind_process_pool_executor(monkeypatch):
    # perfbench/tracing.py patches ProcessPoolExecutor in both modules to
    # time their pools, and its traced runs fail if either binding is gone,
    # although neither module starts a pool now.
    assert gentree.ProcessPoolExecutor is ProcessPoolExecutor
    assert brute.ProcessPoolExecutor is ProcessPoolExecutor
    # one hook serves both, and it resolves no other name
    assert brute.__getattr__ is gentree.__getattr__
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        brute.nonexistent
    # A traced pass with no commands installs every wrapper and removes it
    # again; it raises if a function in FUNCTIONS, a pool binding in POOLS
    # or a binding in REQUIRED is gone.
    runner = _traced_runner(monkeypatch)
    assert runner.run_pass([], trace=True) == []


def test_traced_oracle_command_starts_no_pool(monkeypatch):
    # real commands through the tracer: the oracle searches in this
    # process, and the traced pool never starts
    runner = _traced_runner(monkeypatch)
    count = ("count", "--method", "brute", "--n", "7")
    eco_suite = ("verify", "--suite", "eco", "--n", "5")
    [(code, _, _, head), (eco_code, _, _, eco_head)] = runner.run_pass(
        [count, eco_suite], trace=True
    )
    assert (code, head) == (0, b"1\n1\n2\n6\n23\n105\n549\n3207\n")
    assert (eco_code, eco_head) == (
        0,
        b"eco: ok (tree agrees with brute force through length 5; "
        b"reduce inverts expand through length 5)\n",
    )
    metrics = runner.layer_metrics()
    assert metrics["brute.pool.calls"] == (0, "count")
    # the eco suite reduces each of the 136 words of length 2..5 once, and
    # oracle_diff's own time is the oracle's search
    assert metrics["eco.reduce.calls"] == (136, "count")
    assert metrics["brute.oracle_diff.self_s"][0] > 0
    assert brute.ProcessPoolExecutor is ProcessPoolExecutor  # the tracer undid its binding


def test_label_census_matches_rule(brute_levels):
    for n in range(1, 8):
        census: dict[int, int] = {}
        for w in brute_levels[n]:
            census[label(w)] = census.get(label(w), 0) + 1
        assert census == level_label_counts(OMEGA_RULE, n - 1)


def test_verify_labelling():
    report = verify_labelling(6)
    assert report.ok
    assert report.first_violation is None
    # one check per avoider of length 1..6
    assert report.nodes_checked == sum(avoider_counts(6)[1:])
    assert "consistent" in str(report)


def test_verify_labelling_reports_the_parent_of_a_mislabelled_word(monkeypatch):
    w = (3, 1, 4, 2)
    monkeypatch.setattr(gentree, "label", lambda word: label(word) + (word == w))
    report = verify_labelling(5)
    assert not report.ok
    assert report.first_violation[0] == reduce(w)


def test_verify_labelling_reports_a_root_off_the_axiom(monkeypatch):
    # the root is the walk's first node, checked like any other: label 1
    # asks for four children where the root has two
    monkeypatch.setattr(gentree, "label", lambda word: label(word) + (word == ROOT))
    report = verify_labelling(3)
    assert not report.ok
    assert report.nodes_checked == 1
    assert report.first_violation == (ROOT, (0, 1, 1, 2), (0, 1))
    assert str(report) == "labelling broken at (1,): expected (0, 1, 1, 2), got (0, 1)"


def test_verify_labelling_decomposes_nothing(monkeypatch):
    # the walk's words are avoiders by construction, so no node is
    # validated again
    def check_avoider(word):
        raise AssertionError("check_avoider called")

    monkeypatch.setattr(eco, "check_avoider", check_avoider)
    assert verify_labelling(6).ok


@pytest.mark.parametrize("n_max", [0, -1])
def test_verify_labelling_rejects_empty_range(n_max):
    with pytest.raises(ValueError):
        verify_labelling(n_max)


def test_export_tree_dot():
    dot = "".join(export_tree(2, "dot"))
    assert dot == (
        "digraph gentree {\n"
        "  node [shape=box];\n"
        '  "1 (0)";\n'
        '  "1 (0)" -> "21 (0)";\n'
        '  "21 (0)";\n'
        '  "1 (0)" -> "12 (1)";\n'
        '  "12 (1)";\n'
        "}\n"
    )


def test_export_tree_json():
    tree = json.loads("".join(export_tree(3, "json")))
    assert tree["perm"] == [1]
    assert tree["label"] == 0
    assert [c["perm"] for c in tree["children"]] == [[2, 1], [1, 2]]
    grand = [tuple(g["perm"]) for c in tree["children"] for g in c["children"]]
    assert grand == LEVEL_3


# sha256 of export_tree(8, fmt), taken when the dot export still labelled
# every node but the root twice
EXPORT_SHA256 = {
    "dot": "ac092809329187965439f95bacd8ce4786aaf071c239ac1464c000bbecfa4b5b",
    "json": "a2821e5633d709299eacd2f39f90258633a03f0670fbf0f8984988fdba1ceb08",
}


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_export_tree_n8_is_unchanged(fmt):
    text = "".join(export_tree(8, fmt))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[fmt]


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_export_tree_labels_each_node_once(monkeypatch, fmt):
    calls = [0]

    def counted(word):
        calls[0] += 1
        return label(word)

    monkeypatch.setattr(gentree, "label", counted)
    "".join(export_tree(8, fmt))
    # one call for each avoider of length 1..8
    assert calls[0] == 24470


def test_export_tree_caps_and_errors():
    # each error comes at the call, before the first piece of text
    with pytest.raises(ValueError):
        export_tree(2, "svg")
    with pytest.raises(ValueError):
        export_tree(0, "dot")
    # force changes nothing below the cap
    assert "".join(export_tree(4, "dot", force=True)) == "".join(export_tree(4, "dot"))


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_force_lifts_the_tree_cap(monkeypatch, fmt):
    unforced = "".join(export_tree(4, fmt))
    monkeypatch.setattr(gentree, "TREE_CAP", 3)
    with pytest.raises(ValueError, match="--force"):
        export_tree(4, fmt)
    assert "".join(export_tree(4, fmt, force=True)) == unforced


# slow references: the builders the streamed export replaced
def _dot_reference(word, n_max):
    name = _dot_name(word)
    lines = [f"  {name};"]
    for _, child in expand(word) if len(word) < n_max else []:
        lines += [f"  {name} -> {_dot_name(child)};", *_dot_reference(child, n_max)]
    return lines


def _json_node(word, n_max):
    node = {"perm": list(word), "label": label(word)}
    if len(word) < n_max:
        node["children"] = [_json_node(child, n_max) for _, child in expand(word)]
    return node


@pytest.mark.parametrize("n_max", range(1, 7))
def test_export_tree_streams_what_the_builders_built(n_max):
    lines = ["digraph gentree {", "  node [shape=box];", *_dot_reference((1,), n_max), "}"]
    assert "".join(export_tree(n_max, "dot")) == "\n".join(lines) + "\n"
    assert "".join(export_tree(n_max, "json")) == json.dumps(_json_node((1,), n_max), indent=2) + "\n"


def test_dot_name_separates_the_letters_of_long_words():
    # --force reaches words of 10 or more letters, whose letters need commas
    assert _dot_name((2, 1, 3)) == '"213 (1)"'
    assert _dot_name((10, 9, 8, 7, 6, 5, 4, 3, 2, 1)) == '"10,9,8,7,6,5,4,3,2,1 (0)"'
    assert _dot_name((1, 2, 3, 4, 5, 6, 7, 8, 9, 10)) == '"1,2,3,4,5,6,7,8,9,10 (1)"'
