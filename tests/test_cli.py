import io
import json
import random
import re
import sys
from fractions import Fraction

import pytest

from pbw import cli, normalizer
from pbw.cli import format_element, main, parse_expression
from pbw.coxeter import CellType, GeneratorWord, is_identity_loop, random_identity_loop
from pbw.normalizer import normalize_all_ways
from pbw.presentation import LieFormatError, _rational, serialize_presentation
from pbw.tensor import TensorElement, monomial

from conftest import ALL_FIXTURES, GOLDEN, all_words, load_fixture, random_tables, run_limited
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
    zero = parse_expression(f32, "a - a")
    assert zero == TensorElement(f32) and zero.terms == {}
    assert format_element(f32, zero) == "0"


def test_parse_expression_equals_the_checked_constructor(f42):
    # parse_expression adopts its merged terms without TensorElement's checks,
    # so they must already be what the constructor makes of the pairs summed:
    # tuple words of ints, each once, with nonzero Fraction coefficients
    rng = random.Random(29)
    for _ in range(200):
        words = [tuple(rng.randrange(f42.dim) for _ in range(rng.randint(0, 3)))
                 for _ in range(3)]
        pairs = [(rng.choice(words), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 6))]
        text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)} {' '.join(f42.names[t] for t in w)}"
                        for w, c in pairs)
        terms = {}
        for w, c in pairs:
            terms[w] = terms.get(w, 0) + c
        x = parse_expression(f42, text)
        assert x == TensorElement(f42, terms), text
        for w, c in x.terms.items():
            assert type(w) is tuple and all(type(t) is int for t in w), text
            assert type(c) is Fraction and c, text


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
             "2//3 a": "malformed rational '2//3'", "2/0 a": "malformed rational '2/0'",
             # a term's first bad token is named, whichever kind it is
             "a zz 2": "unknown basis name 'zz'", "a 2 zz": "unexpected '2'"}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_expression_malformed(text, f32):
    with pytest.raises(LieFormatError, match=MALFORMED[text]):
        parse_expression(f32, text)


# `\d` and int() take the same digits, the Arabic-Indic ones of the last case
# too, so a rational reads as Fraction reads it
@pytest.mark.parametrize("tok", ["+5/10", "-007", "-0", "3/1", "\u0663/\u0664"])
def test_rational_equals_fraction(tok):
    assert _rational(tok) == Fraction(tok)


def test_format_element_examples(f32, sl2):
    assert format_element(f32, TensorElement(f32)) == "0"
    for x in [monomial(f32, (5,)), TensorElement(f32)]:  # a letter past sl2's, and zero
        with pytest.raises(ValueError) as e:
            format_element(sl2, x)
        assert str(e.value) == "element belongs to a different presentation"
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


def _format_by_fractions(L, x):
    """The printed form of x from Fraction's own str, abs and sign."""
    if not x:
        return "0"
    parts = []
    for w, c in x.sorted_terms():
        body = " ".join([str(abs(c)), *(L.names[t] for t in w)])
        if not parts:
            parts.append(("- " if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def test_format_element_equals_a_fraction_reference(f42):
    rng = random.Random(31)
    big = 2 ** 64
    seen = dict.fromkeys(["negative first", "negative later", "non-integral",
                          "above 2**64", "empty word", "zero"], 0)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            w = tuple(rng.randrange(f42.dim) for _ in range(rng.randint(0, 3)))
            num = rng.choice((rng.randint(-6, 6), rng.randint(-8 * big, 8 * big)))
            den = rng.choice((1, rng.randint(1, 6), rng.randint(big + 1, 8 * big)))
            terms[w] = Fraction(num, den)
        x = TensorElement(f42, terms)
        assert format_element(f42, x) == _format_by_fractions(f42, x)
        cs = [c for _, c in x.sorted_terms()]
        seen["negative first"] += bool(cs) and cs[0] < 0
        seen["negative later"] += any(c < 0 for c in cs[1:])
        seen["non-integral"] += any(c.denominator != 1 for c in cs)
        seen["above 2**64"] += any(max(abs(c.numerator), c.denominator) > big for c in cs)
        seen["empty word"] += () in x.terms
        seen["zero"] += not x
    assert all(seen.values()), seen


# ---------------------------------------------------------------- golden runs
# criterion 8 compares each GOLDEN_CASES run and the 320 px render with its
# golden bytes; only the --trace stderr golden is compared here

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


def test_trace_past_its_step_bound_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(normalizer, "_MAX_TRACE_STEPS", 2)
    assert main(["normalize", fix("f32"), "-e", "c b a", "--trace"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 3 and all(line.startswith("# ") for line in lines[:2])
    assert lines[2] == "error: normalize stopped its trace after 2 rewrite steps"


def test_render_labels(tmp_path, capsys):
    out = tmp_path / "labelled.svg"
    assert main(["render", "--out", str(out), "--labels"]) == 0
    capsys.readouterr()
    svg = out.read_text(encoding="utf-8")
    assert svg.count('class="region"') == 24
    assert svg.count('class="label"') == 24


# ----------------------------------------------------------------- exit codes

def test_usage_errors_exit_2(capsys):
    # criterion 8 checks `cells` without --n and an unknown subcommand
    assert main([]) == 2
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
    (["holonomy", fix("f32"), "-w", "a b", "--random-loops", "-2"], "--random-loops",
     "must be at least"),
    (["holonomy", fix("f32"), "-w", "a b", "--random-loops", "1", "--max-loop-len", "1"],
     "--max-loop-len", "must be at least"),
    (["holonomy", fix("f32"), "-w", "a b", "--random-loops", "1", "--max-loop-len", "10001"],
     "--max-loop-len", "must be at most"),
    (["cells", "--n", "0"], "--n", "must be at least"),
    (["cells", "--n", "2"], "--n", "must be at least"),
    (["confluence", fix("f32"), "--max-len", "x"], "--max-len", "invalid integer 'x'"),
], ids=["random-loops-neg", "max-loop-len-1", "max-loop-len-10001", "cells-n-0",
        "cells-n-2", "max-len-x"])
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


def test_holonomy_two_letter_word_with_random_loops_exits_0(capsys):
    # two letters are the fewest that --random-loops accepts
    assert main(["holonomy", fix("f32"), "-w", "a b", "--random-loops", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("loop 1 ") and out.endswith(": 0\n") and out.count("\n") == 1


def test_holonomy_seed_defaults_to_0(capsys):
    argv = ["holonomy", fix("f32"), "-w", "c b a", "--random-loops", "3"]
    runs = []
    for seed in ([], ["--seed", "0"], ["--seed", "1"]):
        assert main(argv + seed) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1] != runs[2]


def test_contract_long_loop_exits_0(capsys):
    assert main(["contract", "--n", "5", "--loop", " ".join(["1 2 3 4"] * 5)]) == 0
    assert capsys.readouterr().out.endswith("moves: empty word reached\n")


def test_contract_memory_does_not_grow_with_n():
    # a two-letter loop on 10^8 slots, under a 512 MB address-space limit
    # that binds the child process alone: n slots would need gigabytes
    proc = run_limited(["-m", "pbw.cli", "contract", "--n", "100000000", "--loop", "1 1"],
                       512, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("replayed 1 moves: empty word reached\n")


@pytest.mark.parametrize("megabytes", [150, 200, 300, 390])
def test_normalize_out_of_memory_exits_1(megabytes):
    # b^6000 a moves a left over 6,000 letters that do not commute with it:
    # one product frame and one table entry of two long words per letter,
    # about 640 MB in all, fill memory past each limit (which binds the
    # child process alone) in under 2 s.  A MemoryError could end in a raw
    # traceback, or as a SystemError once CPython lost it while unwinding
    # frames with no memory left; an object finalized with no memory left
    # prints a stray "Exception ignored in: " first.  Where the error
    # strikes moves with the limit, so the limits are spread out
    proc = run_limited(["-m", "pbw.cli", "normalize", fix("f42"),
                        "-e", " ".join(["b"] * 6000 + ["a"])], megabytes, timeout=10)
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


@pytest.mark.parametrize("name, fake, argv, message", [
    ("hexagon_defect", lambda L, i, j, k: {0: 1}, ["hexagon", fix("f32")],
     "internal error: hexagon defect diverged from the Jacobi defect"),
    ("replay", lambda g, cert: g, ["contract", "--n", "3", "--loop", "1 2 1 2 1 2"],
     "internal error: certificate did not replay to the empty word"),
], ids=["hexagon", "contract"])
def test_internal_errors_exit_1(name, fake, argv, message, capsys, monkeypatch):
    monkeypatch.setattr(cli, name, fake)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_check_reads_a_byte_order_mark(tmp_path, capsys):
    table = tmp_path / "bom.lie"
    table.write_bytes("\ufeffbasis a b\n".encode("utf-8"))
    assert main(["check", str(table)]) == 0
    capsys.readouterr()


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() takes strings of any length here")
def test_over_long_rational_is_a_format_error(tmp_path, capsys):
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    message = f"rational '777777777777...' has {len(digits)} characters, too many digits"
    table = tmp_path / "long.lie"
    table.write_text(f"basis a b\nbracket a b = {digits} a\n", encoding="utf-8")
    assert main(["check", str(table)]) == 1
    assert capsys.readouterr().err == f"error: line 2: {message}\n"
    assert main(["normalize", fix("f32"), "-e", f"{digits} a"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_engine_errors_exit_1(capsys):
    # criterion 8 checks a missing file and a `contract` non-loop
    assert main(["normalize", fix("f32"), "-e", "nope"]) == 1
    assert main(["holonomy", fix("f32"), "-w", "a b", "--loop", "1 2 1 2 1 2"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def _confluence_json(L, max_len, tmp_path, capsys):
    """The `confluence --json` payload of L, written out as a .lie file."""
    path = tmp_path / "table.lie"
    path.write_text(serialize_presentation(L), encoding="utf-8")
    code = main(["confluence", str(path), "--max-len", str(max_len), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == (0 if payload["confluent"] else 1)
    return payload


def _confluence_by_the_oracle(L, max_len):
    """The same payload from `normalize_all_ways` on each word in the CLI's
    order, up to the first word with more than one normal form."""
    payload = {"command": "confluence", "confluent": True, "counterexample": None,
               "max_len": max_len, "words_checked": 0}
    memo: dict = {}
    for w in all_words(L.dim, max_len):
        forms = normalize_all_ways(L, w, memo=memo)
        payload["words_checked"] += 1
        if len(forms) != 1:
            payload["confluent"] = False
            payload["counterexample"] = {
                "word": " ".join(L.names[t] for t in w),
                "normal_forms": sorted(format_element(L, f) for f in forms)}
            return payload
    return payload


def test_confluence_agrees_with_the_oracle(tmp_path, capsys):
    # the CLI decides each word from its reducts' normal forms; the oracle
    # searches every reduction order of every word and shares no step code
    # with it: same verdict, words checked, counterexample and forms
    tables = [load_fixture(name) for name in ALL_FIXTURES]
    tables += random_tables(random.Random("bergman"), 120)
    verdicts = []
    for L in tables:
        got = _confluence_json(L, 3, tmp_path, capsys)
        assert got == _confluence_by_the_oracle(L, 3), serialize_presentation(L)
        verdicts.append(got["confluent"])
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_confluence_verdict_at_length_3_holds_at_length_5(tmp_path, capsys):
    # Bergman's Theorem 1.2: the only ambiguities are the overlaps z y x with
    # z > y > x, so words of length 3 decide every length
    verdicts = []
    for L in random_tables(random.Random("bergman"), 120):
        if L.dim <= 4:
            short, long = (_confluence_json(L, k, tmp_path, capsys) for k in (3, 5))
            assert short["counterexample"] == long["counterexample"], serialize_presentation(L)
            assert short["confluent"] == long["confluent"]
            verdicts.append(short["confluent"])
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_confluence_sl2_at_length_5_exits_0(capsys):
    # the oracle's state search used to end this at its default budget, on
    # f f e e e (296,597 states for that word alone)
    assert main(["confluence", fix("sl2"), "--max-len", "5"]) == 0
    assert capsys.readouterr().out == "confluent: 364 words checked up to length 5\n"


def _one_letter_table(tmp_path):
    path = tmp_path / "one.lie"
    path.write_text("basis a\n", encoding="utf-8")
    return str(path)


def test_confluence_past_the_cap_exits_2_before_any_work(tmp_path, capsys):
    # f42 up to length 8 is about 1.2e8 words; a one-letter table at 10**9
    # would build ever-longer words.  The letters are summed length by
    # length and the sum stops at the cap, so neither costs time
    cap = cli._CONFLUENCE_MAX_LETTERS
    for argv in ([fix("f42"), "--max-len", "8"],
                 [_one_letter_table(tmp_path), "--max-len", "1000000000"]):
        assert main(["confluence", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--max-len {argv[-1]} at dimension" in captured.err
        assert f"passes the cap of {cap} letters" in captured.err


def test_confluence_cap_counts_the_letters_of_every_word(tmp_path, capsys):
    # on a one-letter table the words up to length k hold k (k + 1) / 2 letters
    cap, k = cli._CONFLUENCE_MAX_LETTERS, 0
    while (k + 1) * (k + 2) // 2 <= cap:
        k += 1
    path = _one_letter_table(tmp_path)
    assert main(["confluence", path, "--max-len", str(k)]) == 0
    assert capsys.readouterr().out == f"confluent: {k + 1} words checked up to length {k}\n"
    assert main(["confluence", path, "--max-len", str(k + 1)]) == 2
    assert "passes the cap" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# ------------------------------------------------------------------------ fuzz

JUNK = ["", "-", "--", "0", "-1", "1/0", "x", "zz", "a-b", "+", "--json", "--nope", "é", "9" * 30]


def fuzz_argv(rng, tmp_path):
    """One seeded command line: mostly well formed over every subcommand,
    with bad files, names, numbers, loops and junk tokens mixed in, and
    every value capped so that no call is heavy."""
    def pick(good, bad, p=0.08):
        return rng.choice(bad) if rng.random() < p else good

    name = rng.choice(ALL_FIXTURES)
    names = list(load_fixture(name).names)
    file = pick(fix(name), [str(tmp_path / "missing.lie"), str(tmp_path),
                            str(GOLDEN / "tessellation_320.svg"),
                            str(tmp_path / "empty.lie"), str(tmp_path / "binary.lie")])

    def word(lo, hi):
        return " ".join(pick(rng.choice(names), JUNK, 0.05) for _ in range(rng.randint(lo, hi)))

    def number(lo, hi):
        return pick(str(rng.randint(lo, hi)), JUNK)

    def loop(n, hi):
        if n >= 2 and rng.random() < 0.5:
            letters = list(random_identity_loop(n, hi, rng).letters)
        else:
            letters = [rng.randint(1, max(1, n - 1)) for _ in range(rng.randint(0, hi // 2))]
            letters += letters[::-1] if rng.random() < 0.5 else []
        return " ".join(pick(str(t), JUNK + [str(n), "0"], 0.01) for t in letters)

    command = rng.choice(["check", "normalize", "confluence", "holonomy", "hexagon", "contract",
                          "cells", "render", None])
    if command == "check":
        argv = [command, file]
    elif command == "normalize":
        expr = word(0, 8)
        for _ in range(rng.randint(0, 3)):
            expr += f" {rng.choice('+-')} {number(-3, 3)} {word(0, 8)}"
        strategy = pick(rng.choice(["leftmost", "rightmost"]), JUNK)
        argv = [command, file, "-e", expr, "--strategy", strategy]
        argv += ["--trace"] if rng.random() < 0.3 else []
    elif command == "confluence":
        argv = [command, file, "--max-len", number(-1, 3)]
    elif command == "holonomy":
        n = pick(rng.randint(1, 6), [0])
        argv = [command, file, "-w", word(n, n)]
        if rng.random() < 0.6:
            argv += ["--loop", loop(n, 200)]
        if rng.random() < 0.6:
            argv += ["--random-loops", number(-1, 3), "--max-loop-len", number(1, 200),
                     "--seed", number(-5, 5)]
    elif command == "hexagon":
        argv = [command, file] + (["--triple", *word(3, 3).split()] if rng.random() < 0.5 else [])
    elif command == "contract":
        n = pick(rng.randint(1, 7), [0, -1])
        argv = [command, "--n", pick(str(n), JUNK), "--loop", loop(n, 200)]
    elif command == "cells":
        argv = [command, "--n", number(2, 1600)]
        if rng.random() < 0.5:
            argv = [command, "--n", number(2, 7), "--enumerate"]
    elif command == "render":
        out = pick(str(tmp_path / "out.svg"), [str(tmp_path), str(tmp_path / "no" / "out.svg")])
        argv = [command, "--out", out, "--size", number(0, 400)]
        argv += ["--labels"] if rng.random() < 0.3 else []
    else:
        argv = rng.sample(JUNK + ["--help", "frobnicate"], rng.randint(0, 3))
    if command not in (None, "render") and rng.random() < 0.3:
        argv.append("--json")
    if rng.random() < 0.1:
        argv.insert(rng.randint(0, len(argv)), rng.choice(JUNK))
    return argv


def test_cli_fuzz_exits_cleanly(tmp_path, capsys):
    # 400 seeded in-process calls: each returns 0, 1 or 2 and prints no
    # traceback, whatever the subcommand, file, name, number or junk token
    (tmp_path / "empty.lie").write_text("")
    (tmp_path / "binary.lie").write_bytes(bytes(range(256)))
    rng = random.Random("cli-fuzz")
    codes, commands = [], set()
    for _ in range(400):
        argv = fuzz_argv(rng, tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in captured.out + captured.err, argv
        codes.append(code)
        commands.update(argv)
    assert {0, 1, 2} <= set(codes) and min(map(codes.count, (0, 1, 2))) >= 30
    assert {"check", "normalize", "confluence", "holonomy", "hexagon", "contract",
            "cells", "render"} <= commands
