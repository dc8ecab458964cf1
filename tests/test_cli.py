import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pbw import cli
from pbw.cli import format_element, main, parse_expression
from pbw.coxeter import CellType, GeneratorWord, is_identity_loop
from pbw.presentation import LieFormatError
from pbw.tensor import TensorElement, monomial

from conftest import GOLDEN
from golden_cases import GOLDEN_CASES, fix


# ---------------------------------------------------------------- expressions

def test_parse_expression_single_word(f32):
    assert parse_expression(f32, "c b a").terms == {(2, 1, 0): 1}


def test_parse_expression_mixed(f32):
    x = parse_expression(f32, "2/3 a b - 1 c a")
    assert x.terms == {(0, 1): Fraction(2, 3), (2, 0): -1}


def test_parse_expression_leading_minus(f32):
    assert parse_expression(f32, "- 1 a w + 1 a b c").terms == \
        {(0, 5): -1, (0, 1, 2): 1}


def test_parse_expression_bare_rational_is_unit(f32):
    assert parse_expression(f32, "5/6").terms == {(): Fraction(5, 6)}


def test_parse_expression_merges_repeats(f32):
    assert not parse_expression(f32, "a + 2 a - 3 a")
    assert parse_expression(f32, "a + 2 a").terms == {(0,): 3}


def test_parse_expression_unknown_name(f32):
    with pytest.raises(LieFormatError, match="unknown"):
        parse_expression(f32, "q")


def test_parse_expression_signs_and_bare_rationals(f32):
    assert parse_expression(f32, "+ a - -3 b").terms == {(0,): 1, (1,): 3}
    assert parse_expression(f32, "+4 a").terms == {(0,): 4}
    assert parse_expression(f32, "-3").terms == {(): -3}


MALFORMED = {"": "empty expression", "a + ": "empty term", "+ + a": "empty term",
             "a - - b": "empty term", "-": "empty term", "+": "empty term",
             "1 2 a": "unexpected '2'", "a -a": "unexpected '-a'", "a 1b": "unexpected '1b'",
             "2//3 a": "malformed rational '2//3'", "2/0 a": "malformed rational '2/0'"}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_expression_malformed(text, f32):
    with pytest.raises(LieFormatError, match=MALFORMED[text]):
        parse_expression(f32, text)


def test_format_element_examples(f32):
    assert format_element(f32, TensorElement(f32)) == "0"
    x = TensorElement(f32, {(0, 1, 2): 1, (0, 5): -1})
    assert format_element(f32, x) == "- 1 a w + 1 a b c"
    assert format_element(f32, TensorElement(f32, {(): 1})) == "1"
    assert format_element(f32, monomial(f32, (0,), Fraction(-2, 3))) == "- 2/3 a"


def test_format_parse_round_trip_random(f42):
    rng = random.Random(23)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            w = tuple(rng.randrange(f42.dim) for _ in range(rng.randint(0, 3)))
            terms[w] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        x = TensorElement(f42, terms)
        # "0" parses back to the zero element, so the identity has no holes
        assert parse_expression(f42, format_element(f42, x)) == x


# ---------------------------------------------------------------- golden runs

@pytest.mark.parametrize("name, argv, expected_exit", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_golden(name, argv, expected_exit, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expected_exit
    assert captured.out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv, expected_exit", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_handlers_leave_stdout_to_main(name, argv, expected_exit, capsys):
    # each subcommand returns (exit code, payload, lines); only main prints
    args = cli._build_parser().parse_args(argv)
    code, payload, _ = args.run(args)
    assert capsys.readouterr().out == ""
    assert code == expected_exit and "command" not in payload


def test_trace_golden(capsys):
    code = main(["normalize", fix("f32"), "-e", "c b a", "--trace"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == (GOLDEN / "normalize_f32_trace.txt").read_text(encoding="utf-8")


def test_render_golden(tmp_path, capsys):
    out1 = tmp_path / "one.svg"
    out2 = tmp_path / "two.svg"
    assert main(["render", "--out", str(out1), "--size", "320"]) == 0
    assert main(["render", "--out", str(out2), "--size", "320"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == (GOLDEN / "tessellation_320.svg").read_bytes()


def test_render_labels(tmp_path, capsys):
    out = tmp_path / "labelled.svg"
    assert main(["render", "--out", str(out), "--labels"]) == 0
    capsys.readouterr()
    svg = out.read_text(encoding="utf-8")
    assert svg.count('class="region"') == 24
    assert svg.count('class="label"') == 24


# ----------------------------------------------------------------- exit codes

def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["cells"]) == 2          # missing --n
    assert main(["frobnicate"]) == 2     # unknown subcommand
    assert main(["normalize", fix("f32")]) == 2  # missing -e
    capsys.readouterr()


def test_negative_max_len_exits_2(capsys):
    # would otherwise report "confluent: 0 words checked"
    assert main(["confluence", fix("f32"), "--max-len", "-1"]) == 2
    assert "--max-len" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["0", "-5"])
def test_non_positive_render_size_exits_2(size, tmp_path, capsys):
    out = tmp_path / "map.svg"
    assert main(["render", "--out", str(out), "--size", size]) == 2
    assert "--size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_contract_non_positive_n_exits_2(n, capsys):
    assert main(["contract", "--n", n, "--loop", "1"]) == 2
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option, message", [
    (["confluence", fix("f32"), "--max-nodes", "0"], "--max-nodes", "must be at least"),
    (["confluence", fix("f32"), "--max-nodes", "-1"], "--max-nodes", "must be at least"),
    (["holonomy", fix("f32"), "-w", "a b", "--random-loops", "-2"], "--random-loops",
     "must be at least"),
    (["holonomy", fix("f32"), "-w", "a b", "--random-loops", "1", "--max-loop-len", "1"],
     "--max-loop-len", "must be at least"),
    (["holonomy", fix("f32"), "-w", "a b", "--random-loops", "1", "--max-loop-len", "10001"],
     "--max-loop-len", "must be at most"),
    (["cells", "--n", "0"], "--n", "must be at least"),
    (["cells", "--n", "2"], "--n", "must be at least"),
    (["confluence", fix("f32"), "--max-len", "x"], "--max-len", "invalid integer 'x'"),
], ids=["max-nodes-0", "max-nodes-neg", "random-loops-neg", "max-loop-len-1",
        "max-loop-len-10001", "cells-n-0", "cells-n-2", "max-len-x"])
def test_out_of_range_integer_options_exit_2(argv, option, message, capsys):
    # each used to reach the library and exit 1 through its ValueError, or
    # (--max-loop-len above the cap) to run unbounded
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert option in err and message in err


def test_stdout_write_error_exits_1(monkeypatch, capsys):
    # main prints inside the same try as the handler, so a failed write
    # (a closed pipe, a full disk) is an engine error, not a traceback
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")
    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["cells", "--n", "3"]) == 1
    assert "error: [Errno 28] No space left on device" in capsys.readouterr().err


def test_max_loop_len_at_the_cap_runs(capsys):
    # a 12-letter word at the cap finishes quickly only because each loop
    # is built; rejection sampling takes minutes on it
    for word, k in (("c b a", 1), (" ".join("a" * 12), 3)):
        argv = ["holonomy", fix("f32"), "-w", word, "--random-loops", str(k),
                "--max-loop-len", "10000", "--json"]
        assert main(argv) == 0
        loops = json.loads(capsys.readouterr().out)["loops"]
        assert len(loops) == k
        for loop in loops:
            g = GeneratorWord(len(word.split()), loop["loop"])
            assert is_identity_loop(g) and 2 <= len(g.letters) <= 10_000
            assert len(g.letters) % 2 == 0 and loop["holonomy"] == "0"


@pytest.mark.parametrize("loops", [[], ["--random-loops", "0"]], ids=["none", "zero-random"])
def test_holonomy_without_loops_exits_2(loops, capsys):
    # used to reach the handler and exit 1 with "error: provide --loop ..."
    assert main(["holonomy", fix("f32"), "-w", "c b a", *loops]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs --loop and/or --random-loops" in captured.err
    assert "usage: pbw holonomy" in captured.err and "pbw holonomy: error:" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["holonomy", fix("f32"), "-w", "a", "--random-loops", "1"],
     "--random-loops needs a word of length at least 2, got length 1"),
    (["holonomy", fix("f32"), "-w", "", "--random-loops", "1"],
     "needs a word of length at least 1, got length 0"),
    (["holonomy", fix("f32"), "-w", " ", "--loop", ""],
     "needs a word of length at least 1, got length 0"),
], ids=["one-letter-random", "empty-random", "empty-loop"])
def test_holonomy_word_too_short_exits_2(argv, message, capsys):
    # each used to reach the library and exit 1 through its ValueError
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "usage: pbw holonomy" in err and "pbw holonomy: error:" in err


def test_holonomy_one_letter_word_with_a_loop_exits_0(capsys):
    assert main(["holonomy", fix("f32"), "-w", "a", "--loop", ""]) == 0
    assert capsys.readouterr().out == "loop : 0\n"


def test_contract_long_loop_exits_0(capsys):
    assert main(["contract", "--n", "5", "--loop", " ".join(["1 2 3 4"] * 5)]) == 0
    assert capsys.readouterr().out.endswith("moves: empty word reached\n")


def test_contract_memory_does_not_grow_with_n():
    # a two-letter loop on 10^8 slots, under a 512 MB address-space limit
    # that binds the child process alone: n slots would need gigabytes
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "pbw.cli", "contract", "--n", "100000000",
                           "--loop", "1 1"], env={**os.environ, "PYTHONPATH": str(src)},
                          preexec_fn=limit, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("replayed 1 moves: empty word reached\n")


@pytest.mark.parametrize("megabytes", [200, 300])
def test_normalize_out_of_memory_exits_1(megabytes):
    # the 40 letters of d c b a x 10 fill the product table past either
    # limit, which binds the child process alone.  A MemoryError could end
    # in a raw traceback, or as a SystemError once CPython lost it while
    # unwinding frames with no memory left
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "pbw.cli", "normalize",
                           str(Path(__file__).parent / "fixtures" / "f42.lie"),
                           "-e", " ".join(["d c b a"] * 10)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          preexec_fn=limit, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: normalize ran out of memory\n"


def test_cells_enumerate_above_the_cap_exits_2(capsys, monkeypatch):
    # coset enumeration would materialise all n! permutations
    def refuse(n):
        raise AssertionError(f"enumerated all {n}! permutations")
    monkeypatch.setattr(cli, "codim2_census_by_cosets", refuse)
    assert main(["cells", "--n", "10", "--enumerate"]) == 2
    err = capsys.readouterr().err
    assert "--n <= 9" in err
    assert "usage: pbw cells" in err and "pbw cells: error:" in err
    assert main(["cells", "--n", "10"]) == 0  # the closed formula has a higher cap
    capsys.readouterr()


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_cells_above_the_printable_bound_exits_2(fmt, capsys):
    # at n = 1557 the easy count has 4,302 digits, over Python's default
    # 4,300-digit limit for int-to-str conversion
    assert main(["cells", "--n", "1556", *fmt]) == 0
    out = capsys.readouterr().out
    assert max(map(len, re.findall(r"\d+", out))) == 4299
    assert main(["cells", "--n", "1557", *fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n: must be at most 1556, got 1557" in captured.err


@pytest.mark.parametrize("argv", [
    ["contract", "--n", "3", "--loop", "1 x"],
    ["holonomy", fix("f32"), "-w", "c b a", "--loop", "1 2 1 x 1 2"],
], ids=["contract", "holonomy"])
def test_malformed_loop_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--loop" in err and "'x'" in err


def test_cells_enumerate_disagreement_names_both_counts(capsys, monkeypatch):
    wrong = {CellType.TRICKY: 9, CellType.EASY: 6}
    monkeypatch.setattr(cli, "codim2_census_by_cosets", lambda n: wrong)
    assert main(["cells", "--n", "4", "--enumerate"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tricky 9, easy 6" in captured.err  # coset enumeration
    assert "tricky 8, easy 6" in captured.err  # closed formula


def test_check_reads_a_byte_order_mark(tmp_path, capsys):
    table = tmp_path / "bom.lie"
    table.write_bytes("\ufeffbasis a b\n".encode("utf-8"))
    assert main(["check", str(table)]) == 0
    capsys.readouterr()


def test_engine_errors_exit_1(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.lie")]) == 1
    assert main(["normalize", fix("f32"), "-e", "nope"]) == 1
    assert main(["contract", "--n", "3", "--loop", "1"]) == 1  # not a loop
    assert main(["holonomy", fix("f32"), "-w", "a b", "--loop", "1 2 1 2 1 2"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_confluence_budget_names_its_witness(capsys):
    # the library's message stays; the CLI adds the word and the words before it
    assert main(["confluence", fix("sl2"), "--max-len", "4", "--max-nodes", "200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: normalize_all_ways expanded more than 200 states"
                            " on the word h f f e, after 106 words checked\n")


def test_verification_failures_exit_1(capsys):
    assert main(["check", fix("bad")]) == 1
    assert main(["hexagon", fix("bad")]) == 1
    assert main(["confluence", fix("bad"), "--max-len", "3"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
