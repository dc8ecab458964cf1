"""Command-line front end: parse tables and expressions, run the engine,
print deterministic exact output, and set exit codes for scripting.

Exit codes: 0 success / property verified, 1 verification failure or
engine error, 2 usage error.
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
from .normalizer import Strategy, normalize, normalize_all_ways
from .presentation import (LieFormatError, LiePresentation, check_jacobi,
                           jacobi_defect, parse_presentation, parse_terms)
from .tensor import TensorElement

__all__ = ["ExpressionError", "format_element", "main", "parse_expression"]

#: Malformed element expressions raise the `.lie` parser's error type.
ExpressionError = LieFormatError

#: `cells --enumerate` holds all n! permutations in memory; n = 9 is 362,880.
_ENUMERATE_MAX_N = 9

#: Above this n the easy-cell count has more than 4,300 digits, the default
#: limit of Python's int-to-str conversion.
_CELLS_MAX_N = 1556


def parse_expression(L: LiePresentation, text: str) -> TensorElement:
    """Parse an element expression (grammar of `parse_terms`); repeated
    words are merged, so every formatted element parses back."""
    return TensorElement(L, parse_terms(L, text))


def format_element(L: LiePresentation, x: TensorElement) -> str:
    """Render in printing order (length, then lex), explicit magnitudes;
    round-trips through `parse_expression`."""
    if not x:
        return "0"
    parts = []
    for w, c in x.sorted_terms():
        body = str(abs(c))
        if w:
            body += " " + " ".join(L.names[t] for t in w)
        if not parts:
            parts.append(("- " if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def _load(path: str) -> LiePresentation:
    return parse_presentation(Path(path).read_text(encoding="utf-8-sig"))


def _report_defects(L: LiePresentation, found, as_json: bool, label: str, key: str,
                    summary: dict, clean: str) -> int:
    """Print (triple, degree-1 defect) pairs and return the exit code, 1 iff
    there is one.  With `as_json`: one object, the `summary` fields plus the
    pairs under `key`.  Otherwise `clean` when there are none, else one
    `label (x, y, z): defect` line per pair."""
    rows = [([L.names[t] for t in tri],
             format_element(L, TensorElement(L, {(k,): c for k, c in d.items()})))
            for tri, d in found]
    if as_json:
        print(json.dumps({**summary, key: [{"triple": names, "defect": text}
                                           for names, text in rows]}, sort_keys=True))
    elif not rows:
        print(clean)
    else:
        for names, text in rows:
            print(f"{label} ({', '.join(names)}): {text}")
    return 1 if rows else 0


def _cmd_check(args) -> int:
    L = _load(args.file)
    bad = check_jacobi(L)
    ntriples = L.dim * (L.dim - 1) * (L.dim - 2) // 6
    return _report_defects(
        L, bad, args.json, "jacobi defect", "defects",
        {"command": "check", "lie_algebra": not bad, "triples_checked": ntriples},
        f"lie algebra: yes ({L.dim} basis elements, {ntriples} triples checked)")


def _cmd_normalize(args) -> int:
    L = _load(args.file)
    x = parse_expression(L, args.expr)
    trace = None
    if args.trace:
        def trace(w, p, repl):
            word = " ".join(L.names[t] for t in w)
            print(f"# {word} @{p} -> {format_element(L, repl)}", file=sys.stderr)
    nf = normalize(L, x, Strategy(args.strategy), trace=trace)
    if args.json:
        print(json.dumps({
            "command": "normalize",
            "expr": args.expr,
            "normal_form": format_element(L, nf),
            "strategy": args.strategy,
        }, sort_keys=True))
    else:
        print(format_element(L, nf))
    return 0


def _cmd_confluence(args) -> int:
    L = _load(args.file)
    memo: dict = {}
    checked = 0
    counterexample = None
    for length in range(args.max_len + 1):
        for w in itertools.product(range(L.dim), repeat=length):
            forms = normalize_all_ways(L, w, max_results=args.max_nodes, memo=memo)
            checked += 1
            if len(forms) != 1:
                counterexample = (w, sorted(format_element(L, f) for f in forms))
                break
        if counterexample:
            break
    if args.json:
        print(json.dumps({
            "command": "confluence",
            "confluent": counterexample is None,
            "max_len": args.max_len,
            "words_checked": checked,
            "counterexample": None if counterexample is None else {
                "word": " ".join(L.names[t] for t in counterexample[0]),
                "normal_forms": counterexample[1],
            },
        }, sort_keys=True))
    elif counterexample is None:
        print(f"confluent: {checked} words checked up to length {args.max_len}")
    else:
        w, forms = counterexample
        print(f"not confluent: {' '.join(L.names[t] for t in w)} has {len(forms)} normal forms")
        for f in forms:
            print(f"  {f}")
    return 0 if counterexample is None else 1


def _cmd_holonomy(args) -> int:
    L = _load(args.file)
    word = tuple(L.index(nm) for nm in args.word.split())
    n = len(word)
    loops: list[GeneratorWord] = []
    if args.loop is not None:
        loops.append(GeneratorWord(n, args.loop))
    if args.random_loops:
        rng = random.Random(args.seed)
        loops.extend(random_identity_loop(n, args.max_loop_len, rng)
                     for _ in range(args.random_loops))
    if not loops:
        raise ValueError("provide --loop and/or --random-loops")
    results = [(g, normalize(L, transport_loop(L, word, g))) for g in loops]
    all_zero = all(not nf for _, nf in results)
    if args.json:
        print(json.dumps({
            "command": "holonomy",
            "word": args.word,
            "all_zero": all_zero,
            "loops": [
                {"loop": list(g.letters), "holonomy": format_element(L, nf)}
                for g, nf in results
            ],
        }, sort_keys=True))
    else:
        for g, nf in results:
            print(f"loop {' '.join(map(str, g.letters))}: {format_element(L, nf)}")
    return 0 if all_zero else 1


def _cmd_hexagon(args) -> int:
    L = _load(args.file)
    if args.triple:
        triples = [tuple(L.index(nm) for nm in args.triple)]
    else:
        triples = list(itertools.product(range(L.dim), repeat=3))
    nonzero = []
    for i, j, k in triples:
        d = hexagon_defect(L, i, j, k)
        if d != jacobi_defect(L, i, j, k):
            raise RuntimeError(
                "internal error: hexagon defect diverged from the Jacobi defect")
        if d:
            nonzero.append(((i, j, k), d))
    return _report_defects(
        L, nonzero, args.json, "hexagon defect", "nonzero",
        {"command": "hexagon", "all_zero": not nonzero, "triples_checked": len(triples)},
        f"hexagon defects: all zero ({len(triples)} triples)")


def _cmd_contract(args) -> int:
    g = GeneratorWord(args.n, args.loop)
    cert = contract_loop(g)
    final = replay(g, cert)
    if final.letters:
        raise RuntimeError("internal error: certificate did not replay to the empty word")
    if args.json:
        print(json.dumps({
            "command": "contract",
            "n": args.n,
            "loop": list(g.letters),
            "certificate": [str(mv) for mv in cert],
            "replay_ok": True,
        }, sort_keys=True))
    else:
        for mv in cert:
            print(mv)
        print(f"replayed {len(cert)} moves: empty word reached")
    return 0


def _cmd_cells(args) -> int:
    census = codim2_census(args.n)
    if args.enumerate:
        by_cosets = codim2_census_by_cosets(args.n)
        if by_cosets != census:
            def counts(c):
                return f"tricky {c[CellType.TRICKY]}, easy {c[CellType.EASY]}"
            raise RuntimeError(f"coset enumeration ({counts(by_cosets)}) disagrees with "
                               f"the closed formula ({counts(census)}) for n={args.n}")
    if args.json:
        print(json.dumps({
            "command": "cells",
            "n": args.n,
            "tricky": census[CellType.TRICKY],
            "easy": census[CellType.EASY],
        }, sort_keys=True))
    else:
        print(f"tricky {census[CellType.TRICKY]}")
        print(f"easy {census[CellType.EASY]}")
    return 0


def _cmd_render(args) -> int:
    svg = render_svg(size=args.size, labels=args.labels)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


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

    sp = sub.add_parser("check", help="verify the Jacobi identity of a .lie table")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("normalize", help="straighten an expression to canonical form")
    sp.add_argument("file")
    sp.add_argument("-e", "--expr", required=True, help="element expression, e.g. 'c b a'")
    sp.add_argument("--strategy", choices=["leftmost", "rightmost"], default="leftmost")
    sp.add_argument("--trace", action="store_true",
                    help="print one rewrite step per line on stderr")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("confluence",
                        help="brute-force every reduction order on short words")
    sp.add_argument("file")
    sp.add_argument("--max-len", type=_int_in(0), default=3)
    sp.add_argument("--max-nodes", type=_int_in(1), default=100_000)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("holonomy", help="transport a word around identity loops")
    sp.add_argument("file")
    sp.add_argument("-w", "--word", required=True,
                    help="whitespace-separated basis names")
    sp.add_argument("--loop", type=_loop, help="whitespace-separated generator indices")
    sp.add_argument("--random-loops", type=_int_in(0), default=0, metavar="K",
                    help="also check K seeded random identity loops")
    sp.add_argument("--max-loop-len", type=_int_in(2), default=12)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("hexagon",
                        help="hexagon transport defects (equal the Jacobi defects)")
    sp.add_argument("file")
    sp.add_argument("--triple", nargs=3, metavar=("X", "Y", "Z"),
                    help="one basis triple; default checks all ordered triples")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("contract", help="contract an identity loop to the empty word")
    sp.add_argument("--n", type=_int_in(1), required=True)
    sp.add_argument("--loop", type=_loop, required=True)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("cells", help="codimension-2 cell census of S_n")
    sp.add_argument("--n", type=_int_in(3, _CELLS_MAX_N), required=True,
                    help=f"at most {_CELLS_MAX_N}: larger counts are too long to print")
    sp.add_argument("--enumerate", action="store_true",
                    help="cross-check the formula against explicit coset partitioning "
                         f"(needs --n <= {_ENUMERATE_MAX_N})")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("render", help="write an SVG of the chamber tessellation")
    sp.add_argument("--out", required=True)
    sp.add_argument("--size", type=_int_in(1), default=800)
    sp.add_argument("--labels", action="store_true")

    return p


_HANDLERS = {
    "check": _cmd_check,
    "normalize": _cmd_normalize,
    "confluence": _cmd_confluence,
    "holonomy": _cmd_holonomy,
    "hexagon": _cmd_hexagon,
    "contract": _cmd_contract,
    "cells": _cmd_cells,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "cells" and args.enumerate and args.n > _ENUMERATE_MAX_N:
            parser.error(f"cells --enumerate needs --n <= {_ENUMERATE_MAX_N}, got {args.n}")
        if args.command == "holonomy":
            n = len(args.word.split())
            if n == 0:
                parser.error("holonomy needs a word of length at least 1, got length 0")
            if args.random_loops and n < 2:
                parser.error("holonomy --random-loops needs a word of length at least 2, "
                             f"got length {n}")
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, IndexError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
