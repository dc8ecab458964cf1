"""Mutation catalog: one-line faults in the engine that the tests must catch.

    python tests/mutants.py

Each entry is (file, exact old text, new text, why, killer).  For each
mutant, `src/`, `tests/` and `pyproject.toml` are copied into a temporary
directory and the old text is replaced there.  The killer is the test that
failed first on this mutant when the catalog was last run, a pytest node
id under `tests/`; it runs alone on the copy first, and if it fails (or
its module fails to collect) the mutant is killed.  pytest exits 4 both
when a test id's module fails to import and when the id names no test,
so exit 4 kills only if the id collects on the unmutated tree.
Otherwise the killer is reported as stale, and
`python -m pytest -x -q -p no:cacheprovider tests` runs on the copy as
the final word: a failing run kills the mutant, and the test that failed
first is printed as the new killer to record.  A run that passes
TIMEOUT seconds also kills the mutant, and the script says so.  A killer
must not depend on the machine: a test that runs a child under an
address-space limit (`conftest.run_limited`) is not recorded as one.
The mutants run on `os.cpu_count()` workers, each
on its own copy, and are reported in catalog order.  Entries marked
equivalent behave exactly like the original: their old text must still
occur, but they are not run.

Exits 1 if a mutant survives, if an old text does not occur exactly
once in its file, or if a killer is stale, so the catalog has to follow
the code and the tests.  A change that rewrites a mutated line, or that
deletes or renames a killer, updates its entry; `tests/test_mutants.py`
makes the text check in the suite, and checks that each killer names a
test defined in its file.  pytest does not collect this file; it uses
the standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds per mutant

# (file under src/pbw, old text, new text, why, killer under tests/)
MUTANTS = [
    # package
    ("__init__.py", '"holonomy": "hexagon_defect transport_loop"',
     '"holonomy": "hexagon_defect transport_loop GeneratorWord"',
     "pbw.GeneratorWord resolves through holonomy's import of it, loading four layers",
     "test_exports.py::test_a_layer_loads_on_first_use_with_its_own_imports_only[GeneratorWord]"),
    ("__init__.py", 'layer = importlib.import_module(f"{__name__}.{_HOME.get(name, name)}")',
     'layer = [importlib.import_module(f"{__name__}.{m}") for m in _LAYERS]'
     "[list(_LAYERS).index(_HOME.get(name, name))]",
     "every access loads every layer",
     "test_exports.py::test_a_layer_loads_on_first_use_with_its_own_imports_only[parse]"),
    ("__init__.py", "__all__ = [*_HOME, *_LAYERS]", "__all__ = [*_HOME, *list(_LAYERS)[:-1]]",
     "`from pbw import *` leaves a layer unbound",
     "test_exports.py::test_the_package_namespace_is_the_layers_names"),
    # presentation
    ("presentation.py", "{k: -c for k, c in v.items()}", "{k: c for k, c in v.items()}",
     "the signed table loses antisymmetry",
     "test_acceptance.py::test_criterion_1_straightening_regression"),
    ("presentation.py", "c.numerator if c.denominator == 1 else c for k",
     "c.numerator if c.denominator == 1 else int(c) for k",
     "the signed view truncates a non-integral constant",
     "test_normalizer.py::test_product_table_equals_the_rewriter_on_any_antisymmetric_table"),
    ("presentation.py", "            acc[k] = Fraction(c)\n", "            pass\n",
     "a result leaves the engine with an integral coefficient as an int",
     "test_normalizer.py::test_product_table_on_mixed_words_and_coefficient_types[abelian3]"),
    ("presentation.py", 'raise IndexError(f"basis index {t!r} out of range in word {w}")',
     "pass", "check_word checks nothing",
     "test_holonomy.py::test_transport_checks_every_letter[word0]"),
    ("presentation.py", "(j, i, k, -1)", "(j, i, k, 1)",
     "one Jacobi term has the wrong sign",
     "test_acceptance.py::test_criterion_2_hexagon_equals_jacobi"),
    ("presentation.py", "    return _defect(L._signed, i, j, k)", "    return {}",
     "the Jacobi defect is always empty",
     "test_acceptance.py::test_criterion_2_hexagon_equals_jacobi"),
    ("presentation.py", "self.names == other.names and self.constants",
     "self.names == other.names or self.constants",
     "two tables with the same names and other brackets compare equal",
     "test_presentation.py::test_tables_with_the_same_names_and_other_brackets_differ"),
    ("presentation.py", 'if fields[0] != "basis" or len(fields) < 2:',
     'if fields[0] != "basis" and len(fields) < 2:',
     "a first line with another keyword is read as the basis",
     "test_presentation.py::test_parse_errors[foo x y\\n-line 1: expected 'basis name...' first]"),
    ("presentation.py", 'pairs.append((word, -coeff if tokens[k] == "-" else coeff))',
     "pairs.append((word, coeff))", "a minus sign in an expression is dropped",
     "test_acceptance.py::test_criterion_1_straightening_regression"),
    ("presentation.py", '"unexpected {nm!r} inside a term" if _numeric(nm)',
     '"unexpected {nm!r} inside a term" if False',
     "a number inside a term is reported as an unknown basis name",
     "test_cli.py::test_parse_expression_malformed[a 1b]"),
    ("presentation.py", "Fraction(int(n), int(d))", "Fraction(int(n), int(n))",
     "a rational's denominator is read from its numerator",
     "test_cli.py::test_parse_expression_mixed"),
    ("presentation.py", "        except ValueError:  # int() refuses",
     "        except OverflowError:  # int() refuses",
     "a rational past int()'s digit limit escapes as a bare ValueError",
     "test_cli.py::test_over_long_rational_is_a_format_error"),
    # tensor
    ("tensor.py", "if self.terms != other.terms:", "if self.terms.keys() != other.terms.keys():",
     "equality ignores coefficients",
     "test_tensor.py::test_same_words_different_coefficients_stay_distinct_keys"),
    ("tensor.py", "return self * -1", "return self * 1", "negation is the identity",
     "test_holonomy.py::test_hexagon_defect_equals_jacobi_defect[heisenberg]"),
    ("tensor.py", "key=lambda t: (len(t[0]), t[0])", "key=lambda t: t[0]",
     "printing order is lex, not length then lex",
     "test_acceptance.py::test_criterion_8_cli_end_to_end"),
    ("tensor.py",
     "        if not isinstance(other, TensorElement):\n"
     "            return NotImplemented\n        if not (self.alg",
     "        if not (self.alg", "x + 1 fails on the int's missing alg",
     "test_tensor.py::test_adding_a_non_element_is_a_type_error"),
    ("tensor.py", "            except ArithmeticError:", "            except ():",
     'a coefficient "1/0" or inf escapes as ZeroDivisionError or OverflowError',
     "test_tensor.py::test_element_rejects_a_coefficient_that_is_no_finite_rational[1/0]"),
    # normalizer
    ("normalizer.py", "1 <= p < len(w)):", "1 <= p <= len(w)):",
     "transport takes a position equal to the word's length",
     "test_holonomy.py::test_transport_step_out_of_range"),
    ("normalizer.py", "    _check(L, w, (p,))\n", "    L.check_word(w)\n",
     "swap_reduce_at does not check its position",
     "test_normalizer.py::test_swap_reduce_errors"),
    ("normalizer.py", "vec = signed.get((x, y))", "vec = signed.get((y, x))",
     "transport brackets in the wrong order",
     "test_acceptance.py::test_criterion_8_cli_end_to_end"),
    ("normalizer.py", "TensorElement._own(L, _fractions(acc))", "TensorElement._own(L, acc)",
     "transport leaves an int coefficient",
     "test_holonomy.py::test_transport_telescopes[sl2]"),
    ("normalizer.py", "                    del acc[v]\n", "                    acc[v] = s\n",
     "transport keeps a word whose coefficient cancels, as a zero term",
     "test_holonomy.py::test_transport_telescopes[heisenberg]"),
    ("normalizer.py", "vec = brackets.get((y, x))", "vec = brackets.get((x, y))",
     "a product frame brackets in the wrong order",
     "test_acceptance.py::test_criterion_1_straightening_regression"),
    ("normalizer.py", "                    if vec:\n", "                    if False:\n",
     "a product frame skips the bracket terms m[:j]·[m[j], x]",
     "test_acceptance.py::test_criterion_1_straightening_regression"),
    ("normalizer.py", "pending.append((head, k, d))", "pass",
     "a product frame drops the bracket terms that need a product",
     "test_holonomy.py::test_transport_conserves_class"),
    ("normalizer.py", "while i >= 0 and m[i] > x and (m[i], x) not in brackets:",
     "while i >= 0 and m[i] > x:", "a nonzero bracket is taken as commuting",
     "test_acceptance.py::test_criterion_1_straightening_regression"),
    ("normalizer.py", "while i >= 0 and t[i] > y and (t[i], y) not in brackets:",
     "while i >= 0 and t[i] > y:", "a stage takes a nonzero bracket as commuting",
     "test_acceptance.py::test_criterion_1_straightening_regression"),
    ("normalizer.py", "got = {m[:i + 1] + (x,) + m[i + 1:]: 1}", "got = {m[:i] + (x,) + m[i:]: 1}",
     "x is inserted one slot off after the commuting pass",
     "test_normalizer.py::test_normalize_idempotent"),
    ("normalizer.py", "terms[t[:i + 1] + (y,) + t[i + 1:]] = d", "terms[t[:i + 2] + (y,) + t[i + 2:]] = d",
     "a stage inserts its letter one slot off after the commuting pass",
     "test_acceptance.py::test_criterion_1_straightening_regression"),
    ("normalizer.py", "j = i if i == len(m) - 1 else i + 1", "j = i",
     "a frame recomputes m0·x instead of waiting for its stored product",
     "test_acceptance.py::test_criterion_4_loop_holonomy"),
    ("normalizer.py", "m, x, _ = pending[i]", "m, x, _ = pending[i - 1]",
     "a product frame asks for the wrong pending product",
     "test_holonomy.py::test_transport_conserves_class"),
    ("normalizer.py", "_add_scaled(terms, got, pending[i - 1][2])",
     "_add_scaled(terms, got, pending[0][2])",
     "a product frame scales every product by its first pending coefficient",
     "test_holonomy.py::test_transport_conserves_class"),
    ("normalizer.py", "terms[t + (y,)] = d", "terms[(y,) + t] = d",
     "a product frame's in-place append puts the letter first",
     "test_acceptance.py::test_criterion_1_straightening_regression"),
    ("normalizer.py", "got[(k,)] = d", "pass", "_times skips the bracket of two letters",
     "test_acceptance.py::test_criterion_1_straightening_regression"),
    ("normalizer.py", "got = {w[:1]: 1}", "got = {w[-1:]: 1}",
     "a word's frame starts from its last letter, not its first",
     "test_acceptance.py::test_criterion_1_straightening_regression"),
    ("normalizer.py", "if x is not None:  # a word's own normal form is not kept",
     "if True:", "a word's own normal form is stored in the product table",
     "test_normalizer.py::test_product_table_equals_the_rewriter_on_mostly_commuting_tables"),
    ("normalizer.py", "_add_scaled(out, got, c)", "_add_scaled(out, got, 1)",
     "a word's normal form is added into the output without its coefficient",
     "test_acceptance.py::test_criterion_2_hexagon_equals_jacobi"),
    ("normalizer.py", "range(min(vec) + 1, min(pair) + 1)", "range(min(vec), min(pair) + 1)",
     "a bracket's lowest letter is taken to open itself, so fewer letters are closed",
     "test_normalizer.py::test_closed_letters[sl2]"),
    ("normalizer.py", "if m[0] <= x and x in closed:", "if m[0] <= x:",
     "a request is split at a letter that is not closed",
     "test_normalizer.py::test_product_table_equals_the_rewriter_on_any_antisymmetric_table"),
    ("normalizer.py", "                if p:\n                    got = {p + u: d for u, d in got.items()}\n",
     "",
     "a split request served from the table, or by one bracket, drops p",
     "test_holonomy.py::test_transport_conserves_class"),
    ("normalizer.py",
     "                    if p:\n                        got = {p + u: d for u, d in got.items()}\n",
     "",
     "a split request's frame finishes without putting p back",
     "test_holonomy.py::test_transport_conserves_class"),
    ("normalizer.py", "        table.clear()\n", "",
     "the product table is kept alive while a MemoryError unwinds",
     "test_normalizer.py::test_product_table_is_freed_on_memory_error"),
    ("normalizer.py", "c.numerator if c.denominator == 1 else c, closed)", "c.numerator, closed)",
     "the product table drops a non-integral coefficient's denominator",
     "test_normalizer.py::test_normalize_linear"),
    ("normalizer.py", "                    got = terms\n                    pending = None\n",
     "                    pending = None\n",
     "a finished stage passes on the last product it was sent, not its own terms",
     "test_acceptance.py::test_criterion_1_straightening_regression"),
    ("normalizer.py", "(pre + bytes((k,)) + suf, -c.numerator if c.denominator == 1 else -c)",
     "(pre + bytes((k,)) + suf, c.numerator if c.denominator == 1 else c)",
     "the confluence oracle's step has the wrong sign",
     "test_cli.py::test_confluence_agrees_with_the_oracle"),
    ("normalizer.py", "{tuple(v): Fraction(c) for v, c", "{tuple(v): c for v, c",
     "a canonical form of the oracle keeps its int coefficients",
     "test_normalizer.py::test_all_ways_fractional_lie_table_is_confluent"),
    ("normalizer.py", "from bisect import bisect_left, bisect_right\n",
     "from bisect import bisect_right as bisect_left, bisect_right\n",
     "the oracle's merge inserts a word already in the key a second time instead of adding to it",
     "test_normalizer.py::test_all_ways_memo_size[sl2-1907]"),
    ("normalizer.py", "                        del terms[m + j], terms[j]\n                        m -= 1\n",
     "                        terms[m + j] = s\n",
     "the oracle's merge keeps a cancelled word in the key with coefficient 0",
     "test_normalizer.py::test_all_ways_memo_keys_are_well_formed"),
    ("normalizer.py", "if not (alg is L or alg == L):", "if False:",
     "the oracle takes a memo of another presentation",
     "test_normalizer.py::test_all_ways_memo_rejects_another_presentation"),
    ("normalizer.py", "except (TypeError, ValueError):", "except ValueError:",
     "the oracle lets a float letter's TypeError out of `bytes`",
     "test_normalizer.py::test_all_ways_rejects_out_of_range_word"),
    ("normalizer.py", "if L.dim > _MAX_DIM:", "if L.dim > _MAX_DIM + 1:",
     "the oracle takes a presentation one basis element over its byte limit",
     "test_normalizer.py::test_all_ways_letter_limit"),
    ("normalizer.py", "if L.dim > _MAX_DIM:", "if L.dim >= _MAX_DIM:",
     "the oracle refuses a presentation at its byte limit",
     "test_normalizer.py::test_all_ways_letter_limit"),
    ("normalizer.py", "if expanded > max_states:", "if expanded > max_states + 1:",
     "the search budget is off by one", "test_normalizer.py::test_all_ways_budget_boundary"),
    ("normalizer.py", "if steps > _MAX_TRACE_STEPS:", "if steps >= _MAX_TRACE_STEPS:",
     "the trace's step bound is off by one", "test_normalizer.py::test_trace_step_bound_boundary"),
    ("normalizer.py", "L._lie = not check_jacobi(L)", "L._lie = True",
     "every table is taken for Lie",
     "test_normalizer.py::test_only_the_rewriter_route_makes_rewrite_steps[bad]"),
    ("normalizer.py", "L._lie = not check_jacobi(L)", "L._lie = False",
     "no table is taken for Lie", "test_normalizer.py::test_lie_view_is_built_once"),
    ("normalizer.py", "if v not in cur and descents(v):",
     "if v not in cur and descents(v) and len(v) == len(w):",
     "the rewriter does not queue shorter words", "test_cli.py::test_trace_golden"),
    ("normalizer.py", "if not isinstance(strategy, Strategy):", "if False:",
     "`normalize` takes any strategy, and reads all but LEFTMOST as RIGHTMOST",
     "test_normalizer.py::test_normalize_rejects_foreign_element"),
    ("normalizer.py", "p = ps[0] if strategy is Strategy.LEFTMOST else ps[-1]", "p = ps[0]",
     "the strategy is ignored",
     "test_normalizer.py::test_product_table_equals_the_rewriter_on_any_antisymmetric_table"),
    # holonomy
    ("holonomy.py", "_transport(signed, w, (1, 2) * 3)", "_transport(signed, w, (2, 1) * 3)",
     "the hexagon loop runs backwards",
     "test_acceptance.py::test_criterion_2_hexagon_equals_jacobi"),
    ("holonomy.py", "_times(signed, table, v, out, c, ())", "_times(signed, table, v, out, 1, ())",
     "the hexagon straightens each remainder word without its coefficient",
     "test_holonomy.py::test_hexagon_defect_equals_jacobi_defect[bad]"),
    ("holonomy.py", "    L.check_word((i, j, k))\n", "",
     "hexagon_defect does not check its indices",
     "test_holonomy.py::test_hexagon_defect_index_error"),
    ("holonomy.py", "    if not is_identity_loop(g):\n", "    if False:\n",
     "transport_loop accepts a path that is not a loop",
     "test_holonomy.py::test_transport_loop_errors"),
    ("holonomy.py", "    L.check_word(w)\n", "",
     "transport_loop does not check the word's letters",
     "test_holonomy.py::test_transport_loop_errors"),
    # coxeter
    ("coxeter.py", "1 <= p < n)", "1 <= p <= n)", "GeneratorWord accepts a letter equal to n",
     "test_coxeter.py::test_generator_word_validation"),
    ("coxeter.py", "isinstance(n, int) and n >= 1", "n >= 1", "GeneratorWord accepts a float n",
     "test_coxeter.py::test_generator_word_validation"),
    ("coxeter.py", "    _make = classmethod(lambda cls, it: cls(*it))", "    pass",
     "`_make` skips the check, and so does `_replace`",
     "test_coxeter.py::test_generator_word_validation"),
    ("coxeter.py", "letters = tuple(letters)", "letters = list(letters)",
     "GeneratorWord keeps a list, so a word cannot be hashed",
     "test_acceptance.py::test_criterion_4_loop_holonomy"),
    ("coxeter.py", "abs(w[p - 1] - w[p]) >= 2", "abs(w[p - 1] - w[p]) >= 1",
     "commutes are allowed at distance 1",
     "test_coxeter.py::test_apply_move_inapplicable[word1-move1]"),
    ("coxeter.py", "w[p - 1] == w[p + 1] and abs(w[p - 1] - w[p]) == 1:", "w[p - 1] == w[p + 1]:",
     "braids are allowed at any distance", "test_coxeter.py::test_moves_preserve_evaluation"),
    ("coxeter.py", "del w[p - 1:p + 1]", "del w[p:p + 2]", "replay's cancel deletes the wrong slice",
     "test_acceptance.py::test_criterion_5_contraction_certificates"),
    ("coxeter.py", "tuple.__new__(GeneratorWord, (g.n, tuple(w)))",
     "tuple.__new__(GeneratorWord, (g.n, w))",
     "replay's word holds a list, so it cannot be hashed",
     "test_acceptance.py::test_criterion_5_contraction_certificates"),
    ("coxeter.py", "w[p - 1], w[p] = w[p], w[p - 1]", "w[p - 1], w[p] = w[p - 1], w[p]",
     "replay's commute swaps nothing",
     "test_acceptance.py::test_criterion_5_contraction_certificates"),
    ("coxeter.py", "                w[p] = x\n", "                w[p] = w[p + 1]\n",
     "replay's braid writes the outer letter in the middle",
     "test_acceptance.py::test_criterion_5_contraction_certificates"),
    ("coxeter.py", "if abs(a - d) >= 2:", "if abs(a - d) >= 1:",
     "the contraction stack commutes adjacent generators instead of braiding them",
     "test_acceptance.py::test_criterion_5_contraction_certificates"),
    ("coxeter.py", "            r[end] = a\n", "            r[end] = r[end - 1]\n",
     "the contraction stack's braid writes the outer letter in the middle",
     "test_acceptance.py::test_criterion_5_contraction_certificates"),
    ("coxeter.py", "((0, end - 1), (d, end - 1))", "((-1, end - 1), (d, end - 1))",
     "the contraction stack records a commute as a braid",
     "test_acceptance.py::test_criterion_5_contraction_certificates"),
    ("coxeter.py", "if not (isinstance(n, int) and isinstance(max_len, int)):", "if False:",
     "random loops take a float max_len",
     "test_coxeter.py::test_guards_reject_degenerate_sizes[loop-max-len-float]"),
    ("coxeter.py", "rng.randint(1, max_len // 2)", "rng.randint(1, max_len)",
     "random loops run over their cap",
     "test_acceptance.py::test_criterion_5_contraction_certificates"),
    ("coxeter.py", "for p in sorted(perm) if p", "for p in perm if p",
     "random loops list the descents in the order the slots first moved",
     "test_coxeter.py::test_random_identity_loop_draws_the_full_arrangement_loops"),
    ("coxeter.py", "{CellType.TRICKY: laps[3], CellType.EASY: laps[2]}",
     "{CellType.TRICKY: laps[2], CellType.EASY: laps[3]}",
     "the coset census swaps the cell types", "test_acceptance.py::test_criterion_6_cell_census"),
    ("coxeter.py", "sub = swap(m - 1, r if q > r else r - 1)",
     "sub = swap(m - 1, r if q > r else 0)",
     "a block below the exchanged ranks swaps the lowest two ranks of the values left",
     "test_acceptance.py::test_criterion_6_cell_census"),
    ("coxeter.py", "start = (2 * r + 1 - q) * size", "start = q * size",
     "the two exchanged blocks are copied in place instead of traded",
     "test_acceptance.py::test_criterion_6_cell_census"),
    ("coxeter.py", "out += itemgetter(*sub)(ints[q * size:(q + 1) * size]) if q else sub",
     "out += ints[q * size:(q + 1) * size]",
     "a block off the exchanged ranks is copied without the swap one level down",
     "test_acceptance.py::test_criterion_6_cell_census"),
    ("coxeter.py", "(ints[q * size:(q + 1) * size]) if q else sub",
     "(ints[q * size:(q + 1) * size]) if q else ints[:size]",
     "block 0, off the exchanged ranks, is copied without the swap one level down",
     "test_acceptance.py::test_criterion_6_cell_census"),
    ("coxeter.py", "                m = 2\n", "                m = 1\n",
     "the boundary walk counts its two laps before the first test as one",
     "test_acceptance.py::test_criterion_6_cell_census"),
    ("coxeter.py", "compress(range(len(a)), unseen)", "compress(range(len(a)), bytes(unseen))",
     "compress reads a snapshot, so every arrangement opens a cell",
     "test_acceptance.py::test_criterion_6_cell_census"),
    ("coxeter.py", "                h = a[h]\n                unseen[h] = 0\n"
     "                h = b[h]\n                unseen[h] = 0\n                m = 2\n",
     "                m = 2\n",
     "the boundary walk counts two laps after walking one",
     "test_acceptance.py::test_criterion_6_cell_census"),
    ("coxeter.py", "    if prefix:\n", "    if False:\n",
     "contract_loop accepts a word that does not close",
     "test_coxeter.py::test_contract_rejects_non_loop"),
    ("coxeter.py", "perm[p - 1], perm[p] = b, a", "perm[p - 1], perm[p] = a, b",
     "contract_loop does not track the arrangement",
     "test_acceptance.py::test_criterion_5_contraction_certificates"),
    ("coxeter.py", "perm.get(p, p), perm.get(p - 1, p - 1)", "perm.get(p - 1, p - 1), perm.get(p, p)",
     "the moved slots do not track the arrangement",
     "test_acceptance.py::test_criterion_5_contraction_certificates"),
    ("coxeter.py", "map(perm.get, range(g.n), range(g.n))", "map(perm.get, range(g.n))",
     "evaluate leaves the slots no letter moves empty",
     "test_coxeter.py::test_evaluate_equals_the_list_walk"),
    # geometry
    ("geometry.py", "ch.triangle[::2]", "ch.triangle[:2]",
     "a square vertex is taken for a hexagonal one",
     "test_acceptance.py::test_criterion_7_geometry"),
    ("geometry.py", "if d <= 0.0:", "if d < 0.0:",
     "a point where 1 - p·pole rounds to 0.0 is divided by it",
     "test_geometry.py::test_stereographic_maps_the_pole_to_none"),
    ("geometry.py", "            out.append(None)\n", "",
     "the projection drops the pole instead of keeping None in its place",
     "test_geometry.py::test_stereographic_maps_the_pole_to_none"),
    ("geometry.py", "        if r > RADIUS_CLAMP:\n", "        if False:\n",
     "an image far off towards the pole is drawn unclamped",
     "test_geometry.py::test_stereographic_maps_the_pole_to_none"),
    ("geometry.py", "(half + px * scale, half - py * scale)", "(half + px * scale, half + py * scale)",
     "the view's y axis points down",
     "test_acceptance.py::test_criterion_8_cli_end_to_end"),
    ("geometry.py", "weights = shared.get(c)", "weights = next(iter(shared.values()), None)",
     "every arc reuses the first weights stored",
     "test_geometry.py::test_arcs_sharing_weights_sample_the_same_points"),
    ("geometry.py", "if not (isinstance(size, int) and size >= 1):", "if False:",
     "render_svg draws at a size of 0 or less",
     "test_coxeter.py::test_guards_reject_degenerate_sizes[render-size-0]"),
    ("geometry.py", 'pts.append("%.4f %.4f" % xy)', 'pts.append("%.3f %.3f" % xy)',
     "path points are written with three decimals",
     "test_acceptance.py::test_criterion_8_cli_end_to_end"),
    # cli
    ("cli.py", "if args.random_loops and n < 2:", "if args.random_loops and n < 1:",
     "holonomy --random-loops takes a one-letter word",
     "test_cli.py::test_holonomy_word_too_short_exits_2[one-letter-random]"),
    ("cli.py", "if args.random_loops and n < 2:", "if args.random_loops and n <= 2:",
     "holonomy --random-loops rejects a two-letter word",
     "test_cli.py::test_holonomy_two_letter_word_with_random_loops_exits_0"),
    ("cli.py", '"--seed", type=int, default=0)', '"--seed", type=int, default=1)',
     "holonomy's default seed is not 0",
     "test_cli.py::test_holonomy_seed_defaults_to_0"),
    ("cli.py", "for p in descents(w)}", "for p in descents(w)[:1]}",
     "confluence compares the reduct at the first descent only",
     "test_acceptance.py::test_criterion_8_cli_end_to_end"),
    ("cli.py", "swap_reduce_at(L, w, p).terms.items()\n",
     "swap_reduce_at(L, w, p).terms.items() if len(v) == len(w)\n",
     "confluence drops each reduct's bracket terms",
     "test_acceptance.py::test_criterion_8_cli_end_to_end"),
    ("cli.py", "(u, c * e) for v, c", "(u, e) for v, c",
     "confluence sums each reduct's normal forms without their coefficients",
     "test_acceptance.py::test_criterion_8_cli_end_to_end"),
    ("cli.py", 'parts.append(" - " if n < 0 else " + ")',
     'parts.append(" + " if parts else " - " if n < 0 else " + ")',
     "format_element prints every term after the first with a plus sign",
     "test_acceptance.py::test_criterion_8_cli_end_to_end"),
    ("cli.py", "if not (x.alg is L or x.alg == L):", "if False:",
     "`format_element` takes a foreign element",
     "test_cli.py::test_format_element_examples"),
    ("cli.py", 'f"{abs(n)}/{d}"', 'f"{n}/{d}"',
     "format_element prints a negative fraction's sign twice",
     "test_cli.py::test_format_element_examples"),
    ("cli.py", "_own(L, _accumulate({}, parse_terms(L, text)))", "_own(L, dict(parse_terms(L, text)))",
     "parse_expression keeps the last of repeated words, not their sum",
     "test_cli.py::test_parse_expression_merges_repeats"),
    ("cli.py", "} or {TensorElement(L, {w: 1})}", "} or {TensorElement(L)}",
     "confluence takes a word with no descent for zero",
     "test_acceptance.py::test_criterion_8_cli_end_to_end"),
    ("cli.py", "k * L.dim ** k for k", "L.dim ** k for k",
     "the confluence cap counts words, not letters",
     "test_cli.py::test_confluence_cap_counts_the_letters_of_every_word"),
]

# (file, old text, new text, why the result cannot differ)
EQUIVALENT = [
    ("normalizer.py", "return acc if forms <= acc else acc | forms", "return acc | forms",
     "acc | forms equals acc when forms <= acc"),
]


def _mutated(file: str, old: str, new: str) -> str:
    """The text of src/pbw/<file> with the mutant applied."""
    text = (ROOT / "src" / "pbw" / file).read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise LookupError(f"{file}: old text occurs {text.count(old)} times: {old!r}")
    return text.replace(old, new)


def _pytest(root: Path, *args: str) -> tuple[int | None, str]:
    """(exit code, first failing node id) of pytest on `args` in root;
    the code is None after TIMEOUT seconds."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
            cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, ""
    # "FAILED tests/test_x.py::test_y[id] - message"; ERROR lines likewise
    failed = [ln.split(" ", 1)[1].split(" - ", 1)[0] for ln in proc.stdout.splitlines()
              if ln.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, failed[0] if failed else ""


@cache
def _collects(killer: str) -> bool:
    """Whether the killer's node id names a test of the unmutated tree."""
    return _pytest(ROOT, "--collect-only", "tests/" + killer)[0] == 0


def _killed(file: str, mutated: str, killer: str) -> tuple[bool, str]:
    """(killed, how) after running the recorded killer, then if need be
    the whole suite, on a copy with `file` mutated."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # test_mutants.py checks the catalog against src/pbw, which in the
        # copy is mutated, so it would fail there and pose as a killer
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", "test_mutants.py")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        (root / "src" / "pbw" / file).write_text(mutated, encoding="utf-8")
        code, _ = _pytest(root, "tests/" + killer)
        # the killer failed, or its module did not collect (exit 2 for a
        # module, exit 4 for a test in it; 4 also means the id names no test)
        if code in (1, 2) or code == 4 and _collects(killer):
            return True, killer
        if code is None:
            return True, f"{killer} timed out after {TIMEOUT} s"
        code, first = _pytest(root, "tests")
    stale = f"STALE KILLER {killer}"
    if code is None:
        return True, f"{stale}; the suite timed out after {TIMEOUT} s"
    if code == 0:
        return False, f"survived; {stale}"
    return True, f"{stale}; new killer {first.removeprefix('tests/') or f'pytest exit {code}'}"


def _run(file: str, old: str, new: str, killer: str) -> tuple[bool | None, str, float]:
    """(killed, how, seconds) for one mutant; killed is None for a stale text."""
    t = time.perf_counter()
    try:
        mutated = _mutated(file, old, new)
    except LookupError as e:
        return None, str(e), 0.0
    killed, how = _killed(file, mutated, killer)
    return killed, how, time.perf_counter() - t


def main() -> int:
    bad = stale = 0
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
        runs = pool.map(lambda m: _run(*m[:3], m[4]), MUTANTS)
        for (file, _, _, why, _), (killed, how, secs) in zip(MUTANTS, runs):
            if killed is None:
                print(f"STALE     {how}", flush=True)
                bad += 1
                continue
            bad += not killed
            stale += "STALE KILLER" in how
            print(f"{'killed' if killed else 'SURVIVED':9} {file}: {why} ({secs:.1f} s; {how})",
                  flush=True)
    print(f"{len(MUTANTS)} mutants, {len(EQUIVALENT)} equivalent, {bad} failing, "
          f"{stale} stale killers, {time.perf_counter() - start:.0f} s")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
