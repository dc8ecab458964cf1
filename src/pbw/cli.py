"""Command-line front end: parse tables and expressions, run the engine,
print deterministic exact output, and set exit codes for scripting.
Each `_cmd_*` handler returns (exit code, JSON fields, text lines), and
`main` alone prints them; a handler may end with a usage error through
`args.error`.

Exit codes: 0 success / property verified, 1 verification failure,
engine error or exhausted memory, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

from .coxeter import (CellType, GeneratorWord, codim2_census,
                      codim2_census_by_cosets, contract_loop,
                      random_identity_loop, replay)
from .geometry import render_svg
from .holonomy import hexagon_defect, transport_loop
from .normalizer import Strategy, descents, normalize, swap_reduce_at
from .presentation import (LiePresentation, _accumulate, check_jacobi,
                           jacobi_defect, parse_presentation, parse_terms)
from .tensor import TensorElement

__all__ = ["format_element", "main", "parse_expression"]

#: `cells --enumerate` holds n - 1 maps of n! arrangement numbers; 9! is 362,880.
_ENUMERATE_MAX_N = 9

#: `confluence` keeps each word checked with its normal form: cap their letters.
_CONFLUENCE_MAX_LETTERS = 600_000

#: Above this n the easy-cell count has more than 4,300 digits, the default
#: limit of Python's int-to-str conversion.
_CELLS_MAX_N = 1556


def parse_expression(L: LiePresentation, text: str) -> TensorElement:
    """Parse an element expression (grammar of `parse_terms`, which checks
    each name); repeated words are merged, so every formatted element parses back."""
    return TensorElement._own(L, _accumulate({}, parse_terms(L, text)))


def format_element(L: LiePresentation, x: TensorElement) -> str:
    """Render in printing order (length, then lex), explicit magnitudes `n`
    or `n/d` from each coefficient's integer pair; round-trips through `parse_expression`."""
    if not (x.alg is L or x.alg == L):
        raise ValueError("element belongs to a different presentation")
    if not x:
        return "0"
    names, parts = L.names, []
    for w, c in x.sorted_terms():
        n, d = c.numerator, c.denominator
        parts.append(" - " if n < 0 else " + ")
        parts.append(str(abs(n)) if d == 1 else f"{abs(n)}/{d}")
        if w:
            parts.append(" " + " ".join([names[t] for t in w]))
    parts[0] = "- " if parts[0] == " - " else ""
    return "".join(parts)


def _load(path: str) -> LiePresentation:
    return parse_presentation(Path(path).read_text(encoding="utf-8-sig"))


def _report_defects(L: LiePresentation, found, label: str, key: str,
                    summary: dict, clean: str):
    """(exit code, payload, lines) for the (triple, defect) pairs of
    `check_jacobi` or `hexagon_defect`, adopted unchecked; exit 1 iff there
    is one.  The payload is `summary` plus the pairs under `key`; the lines
    are `clean`, or one `label (x, y, z): defect` line per pair."""
    rows = [([L.names[t] for t in tri],
             format_element(L, TensorElement._own(L, {(k,): c for k, c in d.items()})))
            for tri, d in found]
    payload = {**summary, key: [{"triple": names, "defect": text} for names, text in rows]}
    lines = [f"{label} ({', '.join(names)}): {text}" for names, text in rows]
    return (1 if rows else 0), payload, lines or [clean]


def _cmd_check(args):
    L = _load(args.file)
    bad = check_jacobi(L)
    ntriples = L.dim * (L.dim - 1) * (L.dim - 2) // 6
    return _report_defects(
        L, bad, "jacobi defect", "defects",
        {"lie_algebra": not bad, "triples_checked": ntriples},
        f"lie algebra: yes ({L.dim} basis elements, {ntriples} triples checked)")


def _cmd_normalize(args):
    L = _load(args.file)
    x = parse_expression(L, args.expr)
    trace = None
    if args.trace:
        def trace(w, p, repl):
            word = " ".join(L.names[t] for t in w)
            print(f"# {word} @{p} -> {format_element(L, repl)}", file=sys.stderr)
    nf = format_element(L, normalize(L, x, Strategy(args.strategy), trace=trace))
    return 0, {"expr": args.expr, "normal_form": nf, "strategy": args.strategy}, [nf]


def _cmd_confluence(args):
    L = _load(args.file)
    sizes = itertools.accumulate(k * L.dim ** k for k in range(args.max_len + 1))
    if any(size > _CONFLUENCE_MAX_LETTERS for size in sizes):  # stops at the first
        args.error(f"--max-len {args.max_len} at dimension {L.dim} passes the cap of "
                   f"{_CONFLUENCE_MAX_LETTERS} letters in all the words checked")
    # Bergman's Lemma 1.1: w has one normal form iff its reducts' forms agree.
    # A reduct's form is Σ c·NF(v), summed in one dict: its words v come earlier
    # (a swap is lex-smaller, a bracket term shorter), and a failing word's
    # reduct forms are all the forms it reaches
    nf: dict = {}
    payload = {"confluent": True, "counterexample": None, "max_len": args.max_len}
    for length in range(args.max_len + 1):
        for w in itertools.product(range(L.dim), repeat=length):
            forms = {TensorElement._own(L, _accumulate({}, (
                         (u, c * e) for v, c in swap_reduce_at(L, w, p).terms.items()
                         for u, e in nf[v].terms.items())))
                     for p in descents(w)} or {TensorElement(L, {w: 1})}
            if len(forms) != 1:
                word = " ".join(L.names[t] for t in w)
                texts = sorted(format_element(L, f) for f in forms)
                payload.update(confluent=False, words_checked=len(nf) + 1,
                               counterexample={"word": word, "normal_forms": texts})
                return 1, payload, [f"not confluent: {word} has {len(texts)} normal forms",
                                    *(f"  {f}" for f in texts)]
            nf[w] = forms.pop()
    payload["words_checked"] = len(nf)
    return 0, payload, [f"confluent: {len(nf)} words checked up to length {args.max_len}"]


def _cmd_holonomy(args):
    n = len(args.word.split())
    if args.loop is None and not args.random_loops:
        args.error("holonomy needs --loop and/or --random-loops K with K >= 1")
    if n == 0:
        args.error("holonomy needs a word of length at least 1, got length 0")
    if args.random_loops and n < 2:
        args.error(f"holonomy --random-loops needs a word of length at least 2, got length {n}")
    L = _load(args.file)
    word = tuple(L.index(nm) for nm in args.word.split())
    loops = [] if args.loop is None else [GeneratorWord(n, args.loop)]
    rng = random.Random(args.seed)
    loops.extend(random_identity_loop(n, args.max_loop_len, rng)
                 for _ in range(args.random_loops))
    rows = [(g.letters, format_element(L, normalize(L, transport_loop(L, word, g))))
            for g in loops]
    all_zero = all(text == "0" for _, text in rows)
    payload = {"word": args.word, "all_zero": all_zero,
               "loops": [{"loop": list(letters), "holonomy": text} for letters, text in rows]}
    lines = [f"loop {' '.join(map(str, letters))}: {text}" for letters, text in rows]
    return (0 if all_zero else 1), payload, lines


def _cmd_hexagon(args):
    L = _load(args.file)
    triples = ([tuple(L.index(nm) for nm in args.triple)] if args.triple
               else list(itertools.product(range(L.dim), repeat=3)))
    nonzero = []
    for i, j, k in triples:
        d = hexagon_defect(L, i, j, k)
        if d != jacobi_defect(L, i, j, k):
            raise RuntimeError("internal error: hexagon defect diverged from the Jacobi defect")
        if d:
            nonzero.append(((i, j, k), d))
    return _report_defects(
        L, nonzero, "hexagon defect", "nonzero",
        {"all_zero": not nonzero, "triples_checked": len(triples)},
        f"hexagon defects: all zero ({len(triples)} triples)")


def _cmd_contract(args):
    g = GeneratorWord(args.n, args.loop)
    cert = contract_loop(g)
    if replay(g, cert).letters:
        raise RuntimeError("internal error: certificate did not replay to the empty word")
    moves = [str(mv) for mv in cert]
    payload = {"n": args.n, "loop": list(g.letters), "certificate": moves, "replay_ok": True}
    return 0, payload, moves + [f"replayed {len(moves)} moves: empty word reached"]


def _cmd_cells(args):
    if args.enumerate and args.n > _ENUMERATE_MAX_N:
        args.error(f"cells --enumerate needs --n <= {_ENUMERATE_MAX_N}, got {args.n}")
    census = codim2_census(args.n)
    if args.enumerate:
        by_cosets = codim2_census_by_cosets(args.n)
        if by_cosets != census:
            def counts(c):
                return f"tricky {c[CellType.TRICKY]}, easy {c[CellType.EASY]}"
            raise RuntimeError(f"coset enumeration ({counts(by_cosets)}) disagrees with "
                               f"the closed formula ({counts(census)}) for n={args.n}")
    tricky, easy = census[CellType.TRICKY], census[CellType.EASY]
    lines = [f"tricky {tricky}", f"easy {easy}"]
    return 0, {"n": args.n, "tricky": tricky, "easy": easy}, lines


def _cmd_render(args):
    Path(args.out).write_text(render_svg(size=args.size, labels=args.labels), encoding="utf-8")
    return 0, {}, []


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer no smaller than `low`, nor larger than `high`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _loop(text: str) -> tuple[int, ...]:
    """argparse type: whitespace-separated generator indices."""
    letters = []
    for tok in text.split():
        try:
            letters.append(int(tok))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid generator index {tok!r}") from None
    return tuple(letters)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pbw",
        description="Exact straightening to canonical form, loop holonomy "
                    "checks, and chamber tessellation tools.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, help, file=True, json=True):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run, error=sp.error, json=False)
        if file:
            sp.add_argument("file")
        if json:
            sp.add_argument("--json", action="store_true")
        return sp

    command("check", _cmd_check, "verify the Jacobi identity of a .lie table")

    sp = command("normalize", _cmd_normalize, "straighten an expression to canonical form")
    sp.add_argument("-e", "--expr", required=True, help="element expression, e.g. 'c b a'")
    sp.add_argument("--strategy", choices=["leftmost", "rightmost"], default="leftmost")
    sp.add_argument("--trace", action="store_true",
                    help="print one rewrite step per line on stderr")

    sp = command("confluence", _cmd_confluence,
                 "check that every reduction order agrees on short words")
    sp.add_argument("--max-len", type=_int_in(0), default=3,
                    help=f"capped: at most {_CONFLUENCE_MAX_LETTERS} letters in all the words")

    sp = command("holonomy", _cmd_holonomy, "transport a word around identity loops")
    sp.add_argument("-w", "--word", required=True,
                    help="whitespace-separated basis names")
    sp.add_argument("--loop", type=_loop, help="whitespace-separated generator indices")
    sp.add_argument("--random-loops", type=_int_in(0), default=0, metavar="K",
                    help="also check K seeded random identity loops")
    sp.add_argument("--max-loop-len", type=_int_in(2, 10_000), default=12,
                    help="at most 10000: bounds each random loop, so the run time too")
    sp.add_argument("--seed", type=int, default=0)

    sp = command("hexagon", _cmd_hexagon, "hexagon transport defects (equal the Jacobi defects)")
    sp.add_argument("--triple", nargs=3, metavar=("X", "Y", "Z"),
                    help="one basis triple; default checks all ordered triples")

    sp = command("contract", _cmd_contract, "contract an identity loop to the empty word",
                 file=False)
    sp.add_argument("--n", type=_int_in(1), required=True)
    sp.add_argument("--loop", type=_loop, required=True)

    sp = command("cells", _cmd_cells, "codimension-2 cell census of S_n", file=False)
    sp.add_argument("--n", type=_int_in(3, _CELLS_MAX_N), required=True,
                    help=f"at most {_CELLS_MAX_N}: larger counts are too long to print")
    sp.add_argument("--enumerate", action="store_true",
                    help="cross-check the formula against explicit coset partitioning "
                         f"(needs --n <= {_ENUMERATE_MAX_N})")

    # render writes a file and prints nothing
    sp = command("render", _cmd_render, "write an SVG of the chamber tessellation",
                 file=False, json=False)
    sp.add_argument("--out", required=True)
    sp.add_argument("--size", type=_int_in(1), default=800)
    sp.add_argument("--labels", action="store_true")

    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, payload, lines = args.run(args)
        if args.json:
            lines = [json.dumps({"command": args.command, **payload}, sort_keys=True)]
        for line in lines:
            print(line)
    except SystemExit as e:
        return int(e.code or 0)
    except (ValueError, IndexError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
