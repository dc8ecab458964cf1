"""Mutation catalog: one-line faults in the engine that the tests must catch.

    python tests/mutants.py

Each entry is (file, exact old text, new text, why).  For each mutant,
`src/`, `tests/` and `pyproject.toml` are copied into a temporary
directory, the old text is replaced there, and
`python -m pytest -x -q -p no:cacheprovider tests` runs on the copy.  A
failing run kills the mutant; so does a run that passes TIMEOUT seconds,
and the script says so.  The mutants run on `os.cpu_count()` workers,
each on its own copy, and are reported in catalog order.  Entries marked
equivalent behave exactly like the original: their old text must still
occur, but they are not run.

Exits 1 if a mutant survives, or if an old text does not occur exactly
once in its file, so the catalog has to follow the code.  A change that
rewrites a mutated line updates its entry.  pytest does not collect this
file; it uses the standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds per mutant

# (file under src/pbw, old text, new text, why)
MUTANTS = [
    # presentation
    ("presentation.py", "{k: -c for k, c in v.items()}", "{k: c for k, c in v.items()}",
     "the signed table loses antisymmetry"),
    ("presentation.py", "c.numerator if c.denominator == 1 else c for k",
     "c.numerator if c.denominator == 1 else int(c) for k",
     "the integral view truncates a non-integral constant"),
    ("presentation.py", 'raise IndexError(f"basis index {t!r} out of range in word {w}")',
     "pass", "check_word checks nothing"),
    ("presentation.py", "(j, i, k, -1)", "(j, i, k, 1)",
     "one Jacobi term has the wrong sign"),
    ("presentation.py", "    return _defect(L._signed, i, j, k)", "    return {}",
     "the Jacobi defect is always empty"),
    ("presentation.py", 'pairs.append((tuple(word), -coeff if tokens[k] == "-" else coeff))',
     "pairs.append((tuple(word), coeff))", "a minus sign in an expression is dropped"),
    # tensor
    ("tensor.py", "if self.terms != other.terms:", "if self.terms.keys() != other.terms.keys():",
     "equality ignores coefficients"),
    ("tensor.py", "return self * -1", "return self * 1", "negation is the identity"),
    ("tensor.py", "key=lambda t: (len(t[0]), t[0])", "key=lambda t: t[0]",
     "printing order is lex, not length then lex"),
    ("tensor.py",
     "        if not isinstance(other, TensorElement):\n"
     "            return NotImplemented\n        if not (self.alg",
     "        if not (self.alg", "x + 1 fails on the int's missing alg"),
    # normalizer
    ("normalizer.py", "vec = signed.get((x, y))", "vec = signed.get((y, x))",
     "transport brackets in the wrong order"),
    ("normalizer.py", "vec = brackets.get((y, x))", "vec = brackets.get((x, y))",
     "a product frame brackets in the wrong order"),
    ("normalizer.py", "                    if vec:\n", "                    if False:\n",
     "a product frame skips the bracket terms m[:j]·[m[j], x]"),
    ("normalizer.py", "pending.append((head, k, d))", "pass",
     "a product frame drops the bracket terms that need a product"),
    ("normalizer.py", "while i >= 0 and m[i] > x and (m[i], x) not in brackets:",
     "while i >= 0 and m[i] > x:", "a nonzero bracket is taken as commuting"),
    ("normalizer.py", "while i >= 0 and t[i] > y and (t[i], y) not in brackets:",
     "while i >= 0 and t[i] > y:", "a stage takes a nonzero bracket as commuting"),
    ("normalizer.py", "got = {m[:i + 1] + (x,) + m[i + 1:]: 1}", "got = {m[:i] + (x,) + m[i:]: 1}",
     "x is inserted one slot off after the commuting pass"),
    ("normalizer.py", "terms[t[:i + 1] + (y,) + t[i + 1:]] = d", "terms[t[:i + 2] + (y,) + t[i + 2:]] = d",
     "a stage inserts its letter one slot off after the commuting pass"),
    ("normalizer.py", "j = i if i == len(m) - 1 else i + 1", "j = i",
     "a frame recomputes m0·x instead of waiting for its stored product"),
    ("normalizer.py", "m, x, _ = pending[i]", "m, x, _ = pending[i - 1]",
     "a product frame asks for the wrong pending product"),
    ("normalizer.py", "_add_scaled(terms, got, pending[i - 1][2])",
     "_add_scaled(terms, got, pending[0][2])",
     "a product frame scales every product by its first pending coefficient"),
    ("normalizer.py", "terms[t + (y,)] = d", "terms[(y,) + t] = d",
     "a product frame's in-place append puts the letter first"),
    ("normalizer.py", "got[(k,)] = d", "pass", "_times skips the bracket of two letters"),
    ("normalizer.py", "got = {w[:1]: 1}", "got = {w[-1:]: 1}",
     "a word's frame starts from its last letter, not its first"),
    ("normalizer.py", "if x is not None:  # a word's own normal form is not kept",
     "if True:", "a word's own normal form is stored in the product table"),
    ("normalizer.py", "_add_scaled(out, got, c)", "_add_scaled(out, got, 1)",
     "a word's normal form is added into the output without its coefficient"),
    ("normalizer.py", "        table.clear()\n", "",
     "the product table is kept alive while a MemoryError unwinds"),
    ("normalizer.py", "c.numerator if c.denominator == 1 else c)", "c.numerator)",
     "the product table drops a non-integral coefficient's denominator"),
    ("normalizer.py", "            out[v] = Fraction(s)\n", "            pass\n",
     "the product table leaves an integral output coefficient as an int"),
    ("normalizer.py", "                    got = terms\n                    pending = None\n",
     "                    pending = None\n",
     "a finished stage passes on the last product it was sent, not its own terms"),
    ("normalizer.py", "(pre + (k,) + suf, -c.numerator if c.denominator == 1 else -c)",
     "(pre + (k,) + suf, c.numerator if c.denominator == 1 else c)",
     "the confluence oracle's step has the wrong sign"),
    ("normalizer.py", "if expanded > max_results:", "if expanded > max_results + 1:",
     "the search budget is off by one"),
    ("normalizer.py", "L._lie = not check_jacobi(L)", "L._lie = True",
     "every table is taken for Lie"),
    ("normalizer.py", "L._lie = not check_jacobi(L)", "L._lie = False",
     "no table is taken for Lie"),
    ("normalizer.py", "if v not in cur and descents(v):",
     "if v not in cur and descents(v) and len(v) == len(w):",
     "the rewriter does not queue shorter words"),
    ("normalizer.py", "p = ps[0] if strategy is Strategy.LEFTMOST else ps[-1]", "p = ps[0]",
     "the strategy is ignored"),
    # holonomy
    ("holonomy.py", "transport(L, w, (1, 2) * 3)", "transport(L, w, (2, 1) * 3)",
     "the hexagon loop runs backwards"),
    ("holonomy.py", "    if not is_identity_loop(g):\n", "    if False:\n",
     "transport_loop accepts a path that is not a loop"),
    # coxeter
    ("coxeter.py", "1 <= p < n)", "1 <= p <= n)", "GeneratorWord accepts a letter equal to n"),
    ("coxeter.py", "isinstance(n, int) and n >= 1", "n >= 1", "GeneratorWord accepts a float n"),
    ("coxeter.py", "letters = tuple(letters)", "letters = list(letters)",
     "GeneratorWord keeps a list, so a word cannot be hashed"),
    ("coxeter.py", "abs(w[p - 1] - w[p]) >= 2", "abs(w[p - 1] - w[p]) >= 1",
     "commutes are allowed at distance 1"),
    ("coxeter.py", "w[p - 1] == w[p + 1] and abs(w[p - 1] - w[p]) == 1:", "w[p - 1] == w[p + 1]:",
     "braids are allowed at any distance"),
    ("coxeter.py", "del w[p - 1:p + 1]", "del w[p:p + 2]", "replay's cancel deletes the wrong slice"),
    ("coxeter.py", "GeneratorWord._make((g.n, tuple(w)))", "GeneratorWord._make((g.n, w))",
     "replay's word holds a list, so it cannot be hashed"),
    ("coxeter.py", "w[p - 1], w[p] = w[p], w[p - 1]", "w[p - 1], w[p] = w[p - 1], w[p]",
     "replay's commute swaps nothing"),
    ("coxeter.py", "                w[p] = x\n", "                w[p] = w[p + 1]\n",
     "replay's braid writes the outer letter in the middle"),
    ("coxeter.py", "if abs(a - d) >= 2:", "if abs(a - d) >= 1:",
     "the contraction stack commutes adjacent generators instead of braiding them"),
    ("coxeter.py", "            r[end] = a\n", "            r[end] = r[end - 1]\n",
     "the contraction stack's braid writes the outer letter in the middle"),
    ("coxeter.py", "((0, end - 1), (d, end - 1))", "((-1, end - 1), (d, end - 1))",
     "the contraction stack records a commute as a braid"),
    ("coxeter.py", "rng.randint(1, max_len // 2)", "rng.randint(1, max_len)",
     "random loops run over their cap"),
    ("coxeter.py", "for p in sorted(perm) if p", "for p in perm if p",
     "random loops list the descents in the order the slots first moved"),
    ("coxeter.py", "{CellType.TRICKY: laps[3], CellType.EASY: laps[2]}",
     "{CellType.TRICKY: laps[2], CellType.EASY: laps[3]}",
     "the coset census swaps the cell types"),
    ("coxeter.py", "    if prefix:\n", "    if False:\n",
     "contract_loop accepts a word that does not close"),
    ("coxeter.py", "perm[p - 1], perm[p] = b, a", "perm[p - 1], perm[p] = a, b",
     "contract_loop does not track the arrangement"),
    ("coxeter.py", "perm.get(p, p), perm.get(p - 1, p - 1)", "perm.get(p - 1, p - 1), perm.get(p, p)",
     "the moved slots do not track the arrangement"),
    # geometry
    ("geometry.py", "ch.triangle[::2]", "ch.triangle[:2]",
     "a square vertex is taken for a hexagonal one"),
    # cli
    ("cli.py", "if args.random_loops and n < 2:", "if args.random_loops and n < 1:",
     "holonomy --random-loops takes a one-letter word"),
    ("cli.py", "for p in descents(w)}", "for p in descents(w)[:1]}",
     "confluence compares the reduct at the first descent only"),
    ("cli.py", "swap_reduce_at(L, w, p).terms.items()\n",
     "swap_reduce_at(L, w, p).terms.items() if len(v) == len(w)\n",
     "confluence drops each reduct's bracket terms"),
    ("cli.py", "(u, c * e) for v, c", "(u, e) for v, c",
     "confluence sums each reduct's normal forms without their coefficients"),
    ("cli.py", 'parts.append(" - " if n < 0 else " + ")',
     'parts.append(" + " if parts else " - " if n < 0 else " + ")',
     "format_element prints every term after the first with a plus sign"),
    ("cli.py", 'f"{abs(n)}/{d}"', 'f"{n}/{d}"',
     "format_element prints a negative fraction's sign twice"),
    ("cli.py", "_own(L, _accumulate({}, parse_terms(L, text)))", "_own(L, dict(parse_terms(L, text)))",
     "parse_expression keeps the last of repeated words, not their sum"),
    ("cli.py", "} or {TensorElement(L, {w: 1})}", "} or {TensorElement(L)}",
     "confluence takes a word with no descent for zero"),
    ("cli.py", "k * L.dim ** k for k", "L.dim ** k for k",
     "the confluence cap counts words, not letters"),
]

# (file, old text, new text, why the result cannot differ)
EQUIVALENT = [
    ("normalizer.py", "if acc <= forms:\n        return forms",
     "if acc <= forms:\n        return acc | forms",
     "acc | forms equals forms when acc <= forms"),
]


def _mutated(file: str, old: str, new: str) -> str:
    """The text of src/pbw/<file> with the mutant applied."""
    text = (ROOT / "src" / "pbw" / file).read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise LookupError(f"{file}: old text occurs {text.count(old)} times: {old!r}")
    return text.replace(old, new)


def _killed(file: str, mutated: str) -> tuple[bool, str]:
    """(killed, how) after running the tests on a copy with `file` mutated."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        (root / "src" / "pbw" / file).write_text(mutated, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
                cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT} s"
    if proc.returncode == 0:
        return False, "survived"
    failed = [ln for ln in proc.stdout.splitlines() if ln.startswith(("FAILED", "ERROR"))]
    return True, failed[0] if failed else f"pytest exit {proc.returncode}"


def _run(file: str, old: str, new: str) -> tuple[bool | None, str, float]:
    """(killed, how, seconds) for one mutant; killed is None for a stale text."""
    t = time.perf_counter()
    try:
        mutated = _mutated(file, old, new)
    except LookupError as e:
        return None, str(e), 0.0
    killed, how = _killed(file, mutated)
    return killed, how, time.perf_counter() - t


def main() -> int:
    bad = 0
    start = time.perf_counter()
    for file, old, new, why in EQUIVALENT:
        try:
            _mutated(file, old, new)
        except LookupError as e:
            print(f"STALE     {e}")
            bad += 1
            continue
        print(f"EQUIV     {file}: {why} (not run)")
    # each worker thread waits on its own pytest subprocess
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        runs = pool.map(lambda m: _run(*m[:3]), MUTANTS)
        for (file, _, _, why), (killed, how, secs) in zip(MUTANTS, runs):
            if killed is None:
                print(f"STALE     {how}", flush=True)
                bad += 1
                continue
            bad += not killed
            print(f"{'killed' if killed else 'SURVIVED':9} {file}: {why} ({secs:.1f} s; {how})",
                  flush=True)
    print(f"{len(MUTANTS)} mutants, {len(EQUIVALENT)} equivalent, {bad} failing, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
