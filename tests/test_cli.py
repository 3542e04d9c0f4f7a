import hashlib
import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

import vincular
from vincular import brute, cli, counting, eco, gentree
from vincular.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_recurrence(capsys):
    code, out, err = run(capsys, "count", "--n", "6")
    assert code == 0
    assert out.splitlines() == ["1", "1", "2", "6", "23", "105", "549"]
    assert err == ""


def test_count_other_pattern_recurrence(capsys):
    code, out, _ = run(capsys, "count", "--pattern", "31-4-2", "--n", "5")
    assert code == 0
    assert out.splitlines() == ["1", "1", "2", "6", "23", "104"]


def test_count_methods_agree(capsys):
    _, recurrence, _ = run(capsys, "count", "--n", "5")
    _, tree, _ = run(capsys, "count", "--n", "5", "--method", "tree")
    _, brute, _ = run(capsys, "count", "--n", "5", "--method", "brute")
    assert recurrence == tree == brute


def test_count_tree_walk_equals_recurrence(capsys):
    for n in range(10):
        _, recurrence, _ = run(capsys, "count", "--n", str(n))
        assert run(capsys, "count", "--n", str(n), "--method", "tree") == (0, recurrence, ""), n


def test_count_brute_any_pattern(capsys):
    code, out, _ = run(capsys, "count", "--pattern", "1-3-2", "--n", "5", "--method", "brute")
    assert code == 0
    assert out.splitlines()[-1] == "42"


def test_count_brute_pattern_1_leaves_only_the_empty_word(capsys):
    # every rank of the root's first letter ends an occurrence of "1"
    code, out, _ = run(capsys, "count", "--method", "brute", "--n", "3", "--pattern", "1")
    assert code == 0
    assert out.split() == ["1", "0", "0", "0"]


def test_count_recurrence_unknown_pattern(capsys):
    code, _, err = run(capsys, "count", "--pattern", "1-3-2", "--n", "5")
    assert code == 2
    assert "brute" in err


def test_count_cfrac_warns(capsys):
    code, out, err = run(capsys, "count", "--n", "6", "--method", "cfrac")
    assert code == 0
    assert out.splitlines() == ["1", "0", "2", "2", "5", "15", "48"]
    assert "disagrees" in err
    # at order 0 the two agree, so there is no warning
    assert run(capsys, "count", "--n", "0", "--method", "cfrac") == (0, "1\n", "")


@pytest.mark.parametrize("method", ["tree", "cfrac"])
def test_count_tree_and_cfrac_take_only_1_32_4(capsys, method):
    code, out, err = run(capsys, "count", "--method", method, "--pattern", "1-23-4", "--n", "3")
    assert code == 2
    assert out == ""
    assert f"--method {method} is specific to 1-32-4" in err


def test_generate_lines(capsys):
    code, out, _ = run(capsys, "generate", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["3 2 1", "3 1 2", "2 3 1", "2 1 3", "1 2 3", "1 3 2"]


def test_generate_json(capsys):
    code, out, _ = run(capsys, "generate", "--n", "5", "--format", "json")
    assert code == 0
    level = json.loads(out)
    assert len(level) == 105
    _, lines, _ = run(capsys, "generate", "--n", "5")
    assert level == [[int(v) for v in line.split()] for line in lines.splitlines()]


def test_generate_n9_output_is_unchanged(capsys):
    code, out, _ = run(capsys, "generate", "--n", "9")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4352863822b9f845d36610d3b0606f38c62e19589a7fc5391ef939970f74f85a"
    )


def test_generate_n9_json_output_is_unchanged(capsys):
    code, out, _ = run(capsys, "generate", "--n", "9", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "78bceb0adafbf8adbf51fa8b2bce9795208a79fb61522169242ab0ea0f73dd62"
    )


# sha256 of stdout, taken when `generate` still built the whole level and
# printed it with writelines or json.dumps
GENERATE_SHA256 = {
    (8, "lines"): "6e96ae4b6e7910e3b12ca978d1a334be0b8f6f097536586ed9db740ed3459390",
    (8, "json"): "37ffaf994ed5d90a320ebca333db8a901466fc51e1d92ec4a0736a533c022ea5",
    (10, "lines"): "9e5baed0fc245630bdc9a0865d754a84a71444c149f16451591349fe30238ee1",
    (10, "json"): "a2595708b28efc94b8dd5c4d5a443854dca1edb24ad9d0037580bbefc64644e4",
}


@pytest.mark.parametrize("fmt", ["lines", "json"])
def test_generate_n0_fails_before_any_output(capsys, fmt):
    for n in ("0", "-2"):  # the depth below the walk is found after the check
        code, out, err = run(capsys, "generate", "--n", n, "--format", fmt)
        assert code == 2, n
        assert out == "", n
        assert "positive" in err, n


@pytest.mark.parametrize("fmt, expected", [("lines", "1\n"), ("json", "[[1]]\n")])
def test_generate_n1(capsys, fmt, expected):
    assert run(capsys, "generate", "--n", "1", "--format", fmt) == (0, expected, "")


@pytest.mark.parametrize("fmt", ["lines", "json"])
def test_generate_n8_output_is_unchanged(capsys, fmt):
    code, out, _ = run(capsys, "generate", "--n", "8", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATE_SHA256[8, fmt]


def recorded_writes(monkeypatch, argv):
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
    assert main(argv) == 0
    return writes


# command, and the sha256 of its stdout pinned elsewhere (None: checked as json)
WRITE_CASES = {
    # test_large_recurrence_outputs_are_unchanged in test_counting.py
    "count": (
        ["count", "--n", "400"],
        "1b1bfa5bb46708a89313dc1f918ef3631aa73404f95413ca281373671130caaa",
    ),
    "generate-lines": (["generate", "--n", "8"], GENERATE_SHA256[8, "lines"]),
    "generate-json": (["generate", "--n", "8", "--format", "json"], GENERATE_SHA256[8, "json"]),
    # its rows reach 103 KB, more than a write
    "triangle": (
        ["triangle", "--which", "v", "--n", "300"],
        "86ac79a887d6350ae033831a2c7ecc3a229ea901557cac098e1737c2d990787e",
    ),
    # EXPORT_SHA256 in test_gentree.py
    "tree-dot": (
        ["tree", "--n", "8"],
        "ac092809329187965439f95bacd8ce4786aaf071c239ac1464c000bbecfa4b5b",
    ),
    "tree-json": (
        ["tree", "--n", "8", "--format", "json"],
        "a2821e5633d709299eacd2f39f90258633a03f0670fbf0f8984988fdba1ceb08",
    ),
    "verify": (["verify", "--json"], None),
}


@pytest.mark.parametrize("case", WRITE_CASES)
def test_every_command_writes_in_one_size(monkeypatch, case):
    # main cuts each command's text into writes that fill a pipe buffer
    argv, sha256 = WRITE_CASES[case]
    writes = recorded_writes(monkeypatch, argv)
    assert all(writes)
    assert {len(text) for text in writes[:-1]} <= {cli.WRITE_SIZE}
    out = "".join(writes)
    if sha256 is None:
        assert json.loads(out)["ok"] is True
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_generate_writes_are_cut_to_one_size():
    # a text may straddle writes, and an exact multiple leaves no empty one
    size = cli.WRITE_SIZE
    texts = ["a" * (size - 1), "b" * (size + 1), "c" * 3, "d" * (size - 3)]
    expected = "".join(texts)
    assert list(cli._writes(texts)) == [expected[i : i + size] for i in (0, size, 2 * size)]
    assert list(cli._writes(["e" * 5, "f"])) == ["eeeeef"]
    assert list(cli._writes([])) == []


def slow_generate(level, fmt):
    # the reference for `generate`: one string per word, or json.dumps
    if fmt == "lines":
        return "".join(" ".join(map(str, word)) + "\n" for word in level)
    return json.dumps([list(word) for word in level]) + "\n"


@pytest.mark.parametrize("fmt", ["lines", "json"])
@pytest.mark.parametrize("n", range(1, 9))
def test_generate_equals_slow_reference(capsys, n, fmt):
    expected = slow_generate(gentree.generate_level(n), fmt)
    assert run(capsys, "generate", "--n", str(n), "--format", fmt) == (0, expected, "")


# the node of length 9 with the longest text two levels down: 46,472 bytes of json
LARGEST_NODE_9 = (1, 9, 8, 7, 6, 5, 4, 3, 2)


def grandchildren(nodes):
    return [word for node in nodes for _, child in eco.expand(node) for _, word in eco.expand(child)]


def generate_from_level_9(monkeypatch, nodes, fmt):
    """The writes of `generate --n 11` when level 9 is ``nodes``."""
    levels = []
    monkeypatch.setattr(cli.gentree, "iter_level", lambda n: levels.append(n) or iter(nodes))
    writes = recorded_writes(monkeypatch, ["generate", "--n", "11", "--format", fmt])
    assert levels == [9]  # no walk of level 11, nor of 10
    return writes


@pytest.mark.parametrize("fmt", ["lines", "json"])
def test_generate_two_digit_letters_fit_a_pipe_buffer(monkeypatch, fmt):
    # 38 avoiders of length 9, the largest text among them; their 3,320
    # grandchildren have 10 and 11 at every position and take more than one write
    nodes = [*islice(gentree.iter_level(9), 0, None, 4001), LARGEST_NODE_9]
    words = grandchildren(nodes)
    assert all(any(word[i] == v for word in words) for v in (10, 11) for i in range(11))
    writes = generate_from_level_9(monkeypatch, nodes, fmt)
    assert "".join(writes) == slow_generate(words, fmt)
    assert len(writes) > 1
    assert all(0 < len(text.encode()) <= 64 * 1024 for text in writes)


def test_generate_json_opens_on_one_large_node_text(monkeypatch):
    # a level of one node: its whole text and the closer fit one write
    writes = generate_from_level_9(monkeypatch, [LARGEST_NODE_9], "json")
    text = slow_generate(grandchildren([LARGEST_NODE_9]), "json")
    assert writes == [text]
    assert len(text) == 46_472 - 1 + 2  # its ", " became "[", then "]\n"


def test_generate_builds_one_template_per_shape(capsys, monkeypatch):
    # n = 9 walks to length 7 only: its 3,207 nodes take the text of their
    # 143,239 grandchildren from 64 templates, one per shape of length 7
    shapes, inside, seen = [], [], []
    template, children = cli._template, eco._children

    def counted_template(node, *rest):
        shapes.append(eco._shape(node))
        inside.append(node)
        try:
            return template(node, *rest)
        finally:
            inside.pop()

    def counted_children(word, *rest):
        if not inside:
            seen.append(len(word))
        return children(word, *rest)

    monkeypatch.setattr(cli, "_template", counted_template)
    monkeypatch.setattr(cli, "_children", counted_children)
    monkeypatch.setattr(gentree, "_children", counted_children)
    code, out, _ = run(capsys, "generate", "--n", "9")
    assert (code, out.count("\n")) == (0, 143_239)
    assert len(shapes) == len(set(shapes)) == 64
    assert {shape[-1] for shape in shapes} == {7}
    assert max(seen) == 6


def test_generate_codes_every_letter_by_position(capsys, monkeypatch):
    # a template writes each letter of its node, in each descendant, as the
    # one code char of its position, and leaves no format slot: 64 templates
    # at n = 9, one per shape of length 7
    built = {}
    template = cli._template

    def recorded_template(node, *rest):
        text = template(node, *rest)
        built[eco._shape(node)] = node, text
        return text

    monkeypatch.setattr(cli, "_template", recorded_template)
    assert run(capsys, "generate", "--n", "9")[0] == 0
    assert len(built) == 64
    for node, text in built.values():
        descendants = text.count("\n")
        assert descendants == len(grandchildren([node]))
        codes = [c for c in text if c not in "0123456789 \n"]
        assert len(codes) == descendants * len(node)
        assert "%" not in text


@pytest.mark.parametrize("fmt", ["lines", "json"])
@pytest.mark.parametrize("n", [62, 100, 126, 127, 128, 254, 255])
def test_generate_wide_and_non_ascii_codes(monkeypatch, n, fmt):
    # one decreasing node of length n - 2, label 0, and its 6 grandchildren:
    # letters of two and of three digits, coded by two and three chars a
    # position, 120 to 765 codes, past the 113 ASCII ones; the template's
    # gap char, n + 1, leaves ASCII at n = 127 and latin-1 at n = 255
    node = tuple(range(n - 2, 0, -1))
    levels = []
    monkeypatch.setattr(cli.gentree, "iter_level", lambda length: levels.append(length) or iter([node]))
    writes = recorded_writes(monkeypatch, ["generate", "--n", str(n), "--format", fmt, "--force"])
    assert levels == [n - 2]
    words = grandchildren([node])
    assert len(words) == 6
    assert "".join(writes) == slow_generate(words, fmt)


@pytest.fixture(scope="module")
def one_node_per_shape_9():
    nodes = {}
    for node in gentree.iter_level(9):
        nodes.setdefault(eco._shape(node), node)
    return list(nodes.values())


@pytest.mark.parametrize("fmt", ["lines", "json"])
def test_generate_every_template_of_n11(monkeypatch, one_node_per_shape_9, fmt):
    # one node of each of the 256 shapes of length 9: every template that
    # `generate --n 11` fills, each against the slow reference
    nodes = one_node_per_shape_9
    assert len(nodes) == 256
    writes = generate_from_level_9(monkeypatch, nodes, fmt)
    assert "".join(writes) == slow_generate(grandchildren(nodes), fmt)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_pipe_ends_quietly(unbuffered):
    # `generate --n 9 | head -1`: the reader leaves long before the 6.7 MB
    # of lines are written, and the command exits 141 (128 + SIGPIPE)
    # with nothing on stderr, with or without PYTHONUNBUFFERED
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(vincular.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    argv = [sys.executable, "-m", "vincular.cli", "generate", "--n", "9"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"9 8 7 6 5 4 3 2 1\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 141


def test_closed_pipe_points_stdout_at_devnull(monkeypatch):
    # the same in this process, for every command: once the pipe breaks,
    # stdout's descriptor is the null device, so the flush at close (or at
    # exit) cannot fail
    for argv in (
        ["generate", "--n", "9"],
        ["count", "--n", "50"],
        ["triangle", "--which", "v", "--n", "20"],
        ["tree", "--n", "4"],
        ["verify", "--n", "4", "--json"],
    ):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        with open(write_fd, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            assert main(argv) == 141, argv
            assert os.path.samestat(os.fstat(write_fd), os.stat(os.devnull)), argv


class RefuseWrites:
    def write(self, text):
        raise AssertionError(f"a command wrote to stdout: {text[:40]!r}")

    def flush(self):
        raise AssertionError("a command flushed stdout")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "5"],
        ["generate", "--n", "4", "--format", "json"],
        ["triangle", "--which", "v", "--n", "4"],
        ["tree", "--n", "3", "--format", "json"],
        ["verify", "--suite", "labelling", "--n", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_return_their_text_and_write_nothing(capsys, monkeypatch, argv):
    # only main writes stdout: a command returns its status and its text
    expected = run(capsys, *argv)
    args = cli.build_parser().parse_args(argv)
    monkeypatch.setattr(sys, "stdout", RefuseWrites())
    code, texts = args.func(args)
    assert (code, "".join(texts), "") == expected


# A child's ru_maxrss starts from the RSS of the process that spawned it,
# about 100 MB for pytest, so a bare interpreter spawns the command and
# reports the command's own peak (kilobytes, as Linux counts it) on stderr.
LAUNCHER = (
    "import os, sys; "
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ); "
    "_, status, usage = os.wait4(pid, 0); "
    "print(usage.ru_maxrss, file=sys.stderr); "
    "sys.exit(os.waitstatus_to_exitcode(status))"
)


# command, sha256 of its stdout and a bound on its peak in MB.  Level 10
# has 1,071,704 words; holding it took 158 MB (lines) and 227 MB (json),
# streaming it about 20 MB.  The json tree to length 8 (its sha256 is
# EXPORT_SHA256 in test_gentree.py) took 68 MB built whole, 15.5 streamed.
STREAMS = {
    "lines": (["generate", "--n", "10"], GENERATE_SHA256[10, "lines"], 64),
    "json": (["generate", "--n", "10", "--format", "json"], GENERATE_SHA256[10, "json"], 64),
    "tree-json": (
        ["tree", "--n", "8", "--format", "json"],
        "a2821e5633d709299eacd2f39f90258633a03f0670fbf0f8984988fdba1ceb08",
        32,
    ),
}


@pytest.mark.parametrize("case", STREAMS)
def test_generate_n10_streams_in_small_memory(case):
    command, sha256, megabytes = STREAMS[case]
    src = Path(vincular.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.Popen(
        [sys.executable, "-I", "-S", "-c", LAUNCHER, "-m", "vincular.cli", *command],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    digest = hashlib.sha256()
    while chunk := child.stdout.read(1 << 16):
        digest.update(chunk)
    _, err = child.communicate()
    assert child.returncode == 0
    assert digest.hexdigest() == sha256
    assert int(err) < megabytes * 1024


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_rejected_at_parse_time(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "9", "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


INTEGER_OPTIONS = {
    "count": ["count", "--n"],
    "generate": ["generate", "--n"],
    "triangle": ["triangle", "--which", "v", "--n"],
    "tree": ["tree", "--n"],
    "verify": ["verify", "--n"],
    "threads": ["verify", "--n", "3", "--threads"],
}


@pytest.mark.parametrize("text", ["\u0663", "\u0662", "1_0", " 2 ", "+2", "2\n", "0x2"])
@pytest.mark.parametrize("option", INTEGER_OPTIONS)
def test_integer_options_take_ascii_digits_only(capsys, option, text):
    # int() reads "\u0663" (Arabic-Indic 3), "1_0" and " 2 "; the options do not
    argv = INTEGER_OPTIONS[option]
    with pytest.raises(SystemExit) as exc:
        main([*argv, text])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {argv[-1]}: invalid int value: {text!r}" in err


def test_threads_is_a_verify_option_only(capsys):
    assert cli.build_parser().parse_args(["verify", "--threads", "2"]).threads == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "5", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "5"],
        ["generate", "--n", "5"],
        ["triangle", "--which", "u", "--n", "5"],
        ["tree", "--n", "5"],
        ["verify"],
    ],
)
def test_every_subcommand_parses_force(argv):
    parser = cli.build_parser()
    assert parser.parse_args(argv).force is False
    assert parser.parse_args([*argv, "--force"]).force is True


THREADS_NO_EFFECT = """
import contextlib, io, sys
from vincular.cli import main

def out(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()

verify = ("verify", "--n", "6", "--json")
assert out(*verify, "--threads", "2") == out(*verify, "--threads", "1")
print(sorted(m for m in sys.modules if m.startswith("concurrent")))
"""


def test_threads_change_no_output_and_start_no_pool():
    # in a fresh process, so that no other test has loaded the pool stack
    env = {**os.environ, "PYTHONPATH": str(Path(vincular.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", THREADS_NO_EFFECT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("method", ["recurrence", "tree", "brute", "cfrac"])
def test_count_negative_n(capsys, method):
    code, out, err = run(capsys, "count", "--n", "-1", "--method", method)
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def refuse_brute_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the brute search ran although n is past the cap")

    monkeypatch.setattr(brute, "avoider_levels", refuse)
    monkeypatch.setattr(brute, "level_sizes", refuse)
    monkeypatch.setattr(brute, "brute_avoiders", refuse)


def test_count_brute_cap_before_any_level(capsys, monkeypatch):
    refuse_brute_search(monkeypatch)
    n = brute.ENUMERATION_CAP + 1
    code, out, err = run(capsys, "count", "--method", "brute", "--n", str(n))
    assert code == 2
    assert out == ""
    assert "--force" in err


@pytest.mark.parametrize(
    "worker, argv",
    [
        ("avoider_counts", ["count", "--n", str(cli.RECURRENCE_CAP + 1)]),
        ("callan_3142", ["count", "--pattern", "31-4-2", "--n", str(cli.CALLAN_CAP + 1)]),
        ("compare_cfrac_with_counts", ["count", "--method", "cfrac", "--n", str(cli.CFRAC_CAP + 1)]),
        ("triangle_rows", ["triangle", "--which", "u", "--n", str(cli.RECURRENCE_CAP + 1)]),
        ("triangle_rows", ["triangle", "--which", "v", "--n", str(cli.RECURRENCE_CAP + 1)]),
        ("check_pde", ["verify", "--suite", "pde", "--n", str(cli.PDE_CAP + 1)]),
    ],
)
def test_counting_caps_before_any_work(capsys, monkeypatch, worker, argv):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{worker} ran although n is past the cap")

    monkeypatch.setattr(counting, worker, refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--force" in err


def test_force_lifts_the_counting_caps(capsys, monkeypatch):
    _, unforced, _ = run(capsys, "count", "--n", "5")
    monkeypatch.setattr(cli, "RECURRENCE_CAP", 3)
    assert run(capsys, "count", "--n", "5")[0] == 2
    assert run(capsys, "count", "--n", "5", "--force") == (0, unforced, "")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.10.7"
)
def test_force_lifts_the_digit_limit(capsys):
    # count(400) has 683 digits: under a limit of 640 digits, --force still
    # prints every count
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "count", "--n", "400", "--force")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert out.splitlines() == [str(value) for value in counting.avoider_counts(400)]
    assert len(out.splitlines()[-1]) == 683


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.10.7"
)
@pytest.mark.parametrize("n, code", [("1", 0), ("-1", 2)], ids=["ok", "error"])
def test_force_restores_the_digit_limit(capsys, n, code):
    # the limit is lifted for the command only, whether it succeeds or fails
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run(capsys, "count", "--n", n, "--force")[0] == code
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_generate_cap(capsys):
    code, _, err = run(capsys, "generate", "--n", "12")
    assert code == 2
    assert "--force" in err


def test_triangle_u(capsys):
    code, out, _ = run(capsys, "triangle", "--which", "u", "--n", "2")
    assert code == 0
    assert out == "n,k,value\n0,0,1\n1,1,1\n2,1,1\n2,2,1\n"


def test_triangle_census_matches_v(capsys):
    code, census, _ = run(capsys, "triangle", "--which", "census", "--n", "5")
    assert code == 0
    _, v, _ = run(capsys, "triangle", "--which", "v", "--n", "5")
    v_rows = [line for line in v.splitlines() if not line.startswith(("n,", "0,"))]
    assert census.splitlines()[1:] == v_rows


def test_triangle_census_rejects_negative_n(capsys):
    code, out, err = run(capsys, "triangle", "--which", "census", "--n", "-3")
    assert code == 2
    assert out == ""
    assert "nonnegative" in err
    # n = 0 still prints the bare header
    assert run(capsys, "triangle", "--which", "census", "--n", "0") == (0, "n,k,value\n", "")


@pytest.mark.parametrize("which", ["u", "v"])
def test_triangle_rejects_negative_n(capsys, which):
    # the error comes before the header
    code, out, err = run(capsys, "triangle", "--which", which, "--n", "-1")
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def test_triangle_census_cap(capsys, monkeypatch):
    refuse_brute_search(monkeypatch)
    code, out, err = run(capsys, "triangle", "--which", "census", "--n", "10")
    assert code == 2
    assert out == ""
    assert "--force" in err


def test_tree_dot(capsys):
    code, out, _ = run(capsys, "tree", "--n", "2")
    assert code == 0
    assert out.startswith("digraph gentree {")
    assert '"1 (0)" -> "21 (0)";' in out


def test_tree_json(capsys):
    code, out, _ = run(capsys, "tree", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["perm"] == [1]


def test_tree_dot_cap(capsys):
    code, _, err = run(capsys, "tree", "--n", "9")
    assert code == 2
    assert "--force" in err


def test_tree_json_cap(capsys):
    code, out, err = run(capsys, "tree", "--format", "json", "--n", "9")
    assert code == 2
    assert out == ""
    assert "--force" in err


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(": ok (" in line for line in lines)


def _patch_children(monkeypatch, change):
    # the tree as the walk sees it: change(node, children) -> children
    children = eco._children
    monkeypatch.setattr(gentree, "_children", lambda node: change(node, children(node)))


def test_verify_fails_on_children_out_of_order(capsys, monkeypatch):
    # the first two children of every node with four or more swap places:
    # the labels break, the sets and the parents do not
    _patch_children(monkeypatch, lambda node, c: [c[1], c[0], *c[2:]] if len(c) >= 4 else c)
    code, out, _ = run(capsys, "verify", "--suite", "labelling", "--n", "6")
    # the first such node in depth-first tree order
    assert (code, out) == (
        1,
        "labelling: FAIL (labelling broken at (6, 5, 4, 3, 1, 2): "
        "expected (0, 1, 1, 2), got (1, 0, 1, 2))\n",
    )
    code, out, _ = run(capsys, "verify", "--suite", "eco", "--n", "6")
    assert code == 0
    assert out.startswith("eco: ok (")


def test_verify_fails_on_a_duplicated_child(capsys, monkeypatch):
    _patch_children(monkeypatch, lambda node, c: c + c[:1] if node == (3, 2, 1) else c)
    code, out, _ = run(capsys, "verify", "--suite", "eco", "--n", "5")
    assert code == 1
    assert out.startswith("eco: FAIL (") and "duplicated" in out
    code, out, _ = run(capsys, "verify", "--suite", "series", "--n", "5")
    assert code == 1
    assert out.startswith("series: FAIL (functional equation: residual has")


def test_verify_fails_on_a_wrong_reduce(capsys, monkeypatch):
    reduce = cli.reduce
    monkeypatch.setattr(cli, "reduce", lambda word: (9,) if word == (2, 1, 3) else reduce(word))
    code, out, _ = run(capsys, "verify", "--suite", "eco", "--n", "5")
    assert (code, out) == (1, "eco: FAIL (reduce((2, 1, 3)) is not (1, 2))\n")


def test_verify_fails_on_a_dropped_child(capsys, monkeypatch):
    # every child left reduces to its node and none repeats: only the
    # count of length 4 tells, the dropped child's subtree counting at 5
    _patch_children(monkeypatch, lambda node, c: c[:-1] if node == (3, 2, 1) else c)
    code, out, _ = run(capsys, "verify", "--suite", "eco", "--n", "5")
    assert (code, out) == (1, "eco: FAIL (length 4: 22 words, brute force finds 23)\n")


def test_verify_fails_on_a_child_that_contains_the_pattern(capsys, monkeypatch):
    # reduce rejects the child: a failed check (exit 1), not bad input (2)
    _patch_children(monkeypatch, lambda node, c: [(1, 3, 2, 4), *c[1:]] if node == (3, 2, 1) else c)
    code, out, _ = run(capsys, "verify", "--suite", "eco", "--n", "5")
    assert (code, out) == (
        1,
        "eco: FAIL (child (1, 3, 2, 4) of (3, 2, 1): permutation contains 1-32-4: (1, 3, 2, 4))\n",
    )


def test_verify_cap(capsys):
    code, out, err = run(capsys, "verify", "--suite", "labelling", "--n", "12")
    assert code == 2
    assert out == ""
    assert "--force" in err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_labelling_needs_length_one(capsys, n):
    for suite in ("labelling", "eco"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", n)
        assert code == 2
        assert out == ""
        assert f"length must be an integer, positive: {n}" in err


@pytest.mark.parametrize("suite", ["series", "pde"])
def test_verify_series_suites_need_order_one(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", "0")
    assert code == 2
    assert out == ""
    assert "order must be an integer, positive: 0" in err


def test_verify_single_suite_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "labelling", "--n", "4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["suites"]["labelling"]["ok"] is True
    assert "eco" not in report["suites"]


def test_startup_imports_no_rational_arithmetic():
    # every command imports the whole package; the continued fraction is
    # evaluated in integers, so fractions and decimal stay unloaded, no
    # command starts a process pool, the records are NamedTuples, not
    # dataclasses (which load inspect), and json waits for `verify --json`
    src = Path(vincular.__file__).resolve().parents[1]
    unwanted = (
        "fractions",
        "decimal",
        "concurrent.futures",
        "concurrent.futures.process",
        "multiprocessing",
        "dataclasses",
        "inspect",
        "json",
    )
    code = f"import vincular.cli, sys; print(sorted(m for m in {unwanted!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
