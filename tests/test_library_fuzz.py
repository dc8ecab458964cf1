"""Seeded fuzz of the library's public boundary: each public value has one
checked way in, and every exported callable keeps to it.

`ROWS` has one row per callable in a `pbw` module's `__all__`, keyed
`module.name`: a function that makes one valid call with arguments drawn
from a seeded `random.Random`, and one that makes an invalid call, of
these kinds:

- an int argument out of range, negative, a float or a str;
- a word of the wrong length;
- a `GeneratorWord` built by `_make` or `_replace`;
- an element or memo of another presentation;
- a strategy that is not a `Strategy`;
- a coefficient that is no finite rational.

A valid call must return.  An invalid one must raise ValueError,
IndexError or TypeError, or a subclass, with a message.  A forged
`GeneratorWord` must fail where `_make` builds it, before `evaluate` or
`transport_loop` sees it.  A row whose callable takes nothing of those
kinds has a reason in place of its invalid call.  A whole object of the
wrong type, such as a plain tuple for a `GeneratorWord`, is duck-typed
and is not drawn.  `EXEMPT` names the exported callables with no row,
each with its reason.
"""

import importlib
import pkgutil
import random

import pytest

import pbw
from pbw.cli import format_element, parse_expression
from pbw.coxeter import (CANCEL, CellType, GeneratorWord, Move, codim2_census,
                         codim2_census_by_cosets, contract_loop, evaluate, is_identity_loop,
                         random_identity_loop, replay)
from pbw.geometry import Chamber, chambers, render_svg
from pbw.holonomy import hexagon_defect, transport_loop
from pbw.normalizer import (Strategy, descents, normalize, normalize_all_ways, swap_reduce_at,
                            transport)
from pbw.presentation import (LiePresentation, check_jacobi, jacobi_defect, parse_presentation,
                              parse_terms, serialize_presentation)
from pbw.tensor import TensorElement, monomial

from conftest import load_fixture

DRAWS = 20  # valid and invalid calls per row
TABLES = [load_fixture(name) for name in ("f32", "sl2", "bad")]  # pairwise unequal
CHAMBERS = chambers()
BAD_LIE_TEXTS = ["", "# only a comment\n", "basis", "bracket a b = c\n", "basis a a\n",
                 "basis 1a\n", "basis a b\nbracket a c = a\n", "basis a b\nbracket a a = b\n",
                 "basis a b\nbracket a b = 1.5 a\n", "basis a b\nbracket a b = 1/0 a\n",
                 "basis a b\nbracket a b = a b\n", "basis a b\nbracket a b = 2\n",
                 "basis a b\nbracket a b = a\nbracket b a = b\n"]
# in Fraction, "1/0" raises ZeroDivisionError, ±inf OverflowError and nan ValueError
BAD_COEFFS = ["x", "1.5.", None, "1/0", float("inf"), float("-inf"), float("nan")]
BAD_EXPRESSIONS = ["", " ", "+", "a -", "a + + b", "a 1", "1.5 a", "1/0 a", "x", "a b3", "-1/-2 a"]


def bad_int(r, low, high=None):
    """An int argument below low or above high, a negative one, a float or a str."""
    out = [low - r.randint(1, 5), -r.randint(1, 5), low + 0.5, float(low), str(low)]
    return r.choice(out + ([high + r.randint(1, 5)] if high is not None else []))


def table(r):
    return r.choice(TABLES)


def word(r, L, low=0, high=4):
    return tuple(r.randrange(L.dim) for _ in range(r.randint(low, high)))


def bad_word(r, L, low=1, high=4):
    """A word of L with one letter replaced by a bad int."""
    w = list(word(r, L, low, high))
    w[r.randrange(len(w))] = bad_int(r, 0, L.dim - 1)
    return tuple(w)


def element(r, L):
    return TensorElement(L, {word(r, L): r.choice([-2, -1, 1, 3]) for _ in range(r.randint(0, 3))})


def loop(r, n=None):
    return random_identity_loop(n or r.randint(2, 5), 8, random.Random(r.random()))


def generator_word(r):
    n = r.randint(1, 6)
    return GeneratorWord(n, [r.randint(1, n - 1) for _ in range(n - 1)])


def forged(r):
    """A `GeneratorWord` with a bad letter or n, built by `_make` or
    `_replace`; a bad letter comes twice, so unchecked it closes a loop."""
    n = r.randint(2, 5)
    letter, smaller = bad_int(r, 1, n - 1), r.choice([n - 1, 0, -2, n + 0.5, str(n)])
    return r.choice([lambda: GeneratorWord._make((n, (letter, letter))),
                     lambda: GeneratorWord(n)._replace(letters=(letter, letter)),
                     lambda: GeneratorWord(n, (n - 1,))._replace(n=smaller)])()


def bad_generator_word(r):
    return r.choice([lambda: GeneratorWord(bad_int(r, 1)),
                     lambda: GeneratorWord(4, (1, bad_int(r, 1, 3), 3)),
                     lambda: forged(r)])()


def replay_call(r, valid):
    g = loop(r)
    if valid:
        return replay(g, contract_loop(g))
    if r.random() < 0.5:
        return replay(forged(r), [])
    return replay(g, [Move(CANCEL, bad_int(r, 1, len(g.letters) - 1))])


def transport_loop_call(r, valid):
    L, n = table(r), r.randint(2, 5)
    w, g = tuple(r.randrange(L.dim) for _ in range(n)), loop(r, n)
    if not valid:
        kind = r.randrange(4)
        if kind == 0:  # a word of the wrong length
            w = w[:-1] if r.random() < 0.5 else w + (0,)
        elif kind == 1:
            w = bad_word(r, L, n, n)
        elif kind == 2:  # a path that does not close
            g = GeneratorWord(n, g.letters[:-1])
        else:
            g = forged(r)
    return transport_loop(L, w, g)


def transport_call(r, valid):
    L = table(r)
    w = word(r, L, 2, 5)
    ps = [r.randint(1, len(w) - 1) for _ in range(r.randint(0, 6))]
    if not valid:
        if r.random() < 0.5:
            w = bad_word(r, L, len(w), len(w))
        else:
            ps.insert(r.randint(0, len(ps)), bad_int(r, 1, len(w) - 1))
    return transport(L, w, ps)


def swap_call(r, valid):
    L = table(r)
    while not descents(w := word(r, L, 2, 5)):
        pass
    p = r.choice(descents(w))
    if not valid:
        kind = r.randrange(3)
        if kind == 0:
            p = bad_int(r, 1, len(w) - 1)
        elif kind == 1:
            w = bad_word(r, L, len(w), len(w))
        else:  # p is not a descent of the sorted word
            w = tuple(sorted(w))
    return swap_reduce_at(L, w, p)


def all_ways_call(r, valid):
    L, M = r.sample(TABLES, 2)
    if valid:
        return normalize_all_ways(L, word(r, L, 0, 3), r.choice([None, {}]))
    if r.random() < 0.5:
        return normalize_all_ways(L, bad_word(r, L))
    memo = {}
    normalize_all_ways(M, word(r, M, 0, 2), memo)
    return normalize_all_ways(L, word(r, L, 0, 2), memo)


def normalize_call(r, valid):
    L, M = r.sample(TABLES, 2)
    if valid:
        return normalize(L, element(r, L), r.choice(list(Strategy)))
    if r.random() < 0.5:
        return normalize(L, element(r, M))
    return normalize(L, element(r, L), r.choice(["leftmost", "rightmost", 0, 1, None, True]))


def format_call(r, valid):
    L, M = r.sample(TABLES, 2)
    return format_element(L, element(r, L if valid else M))


def presentation_call(r, valid):
    dim = r.randint(3, 5)
    i, j, k = r.sample(range(dim), 3)
    pair, index = [min(i, j), max(i, j)], k
    if not valid:
        if r.random() < 0.5:
            pair[r.randrange(2)] = bad_int(r, 0, dim - 1)
        else:
            index = bad_int(r, 0, dim - 1)
    return LiePresentation("abcde"[:dim], {tuple(pair): {index: r.choice([1, -2, "1/2"])}})


def element_call(r, valid):
    L = table(r)
    if valid:
        return element(r, L)
    if r.random() < 0.5:
        return TensorElement(L, {bad_word(r, L): 1})
    return TensorElement(L, {word(r, L): r.choice(BAD_COEFFS)})


def monomial_call(r, valid):
    L = table(r)
    if valid:
        return monomial(L, word(r, L), r.choice([1, -3, "2/3"]))
    if r.random() < 0.5:
        return monomial(L, bad_word(r, L))
    return monomial(L, word(r, L), r.choice(BAD_COEFFS))


# module.name -> (valid call, invalid call or the reason there is none);
# each call takes the seeded Random
ROWS = {
    "coxeter.CellType": (
        lambda r: CellType(r.choice(["tricky", "easy"])),
        lambda r: CellType(r.choice(["hex", "square", 0, None]))),
    "coxeter.GeneratorWord": (generator_word, bad_generator_word),
    "coxeter.Move": (
        lambda r: Move(r.choice(["cancel", "commute", "braid"]), r.randint(1, 9)),
        # a plain record: `replay` checks each move where it applies it
        lambda r: replay_call(r, valid=False)),
    "coxeter.codim2_census": (
        lambda r: codim2_census(r.randint(3, 30)),
        lambda r: codim2_census(bad_int(r, 3))),
    "coxeter.codim2_census_by_cosets": (
        lambda r: codim2_census_by_cosets(r.randint(3, 5)),
        lambda r: codim2_census_by_cosets(bad_int(r, 3))),
    "coxeter.contract_loop": (
        lambda r: contract_loop(loop(r)),
        lambda r: contract_loop(forged(r) if r.random() < 0.5 else GeneratorWord(3, (1,)))),
    "coxeter.evaluate": (
        lambda r: evaluate(generator_word(r)),
        lambda r: evaluate(forged(r))),
    "coxeter.is_identity_loop": (
        lambda r: is_identity_loop(generator_word(r)),
        lambda r: is_identity_loop(forged(r))),
    "coxeter.random_identity_loop": (
        lambda r: random_identity_loop(r.randint(2, 6), r.randint(2, 12),
                                       random.Random(r.random())),
        lambda r: random_identity_loop(*r.choice([(bad_int(r, 2), 12), (4, bad_int(r, 2))]))),
    "coxeter.replay": (
        lambda r: replay_call(r, valid=True),
        lambda r: replay_call(r, valid=False)),
    "holonomy.hexagon_defect": (
        lambda r: hexagon_defect(L := table(r), *word(r, L, 3, 3)),
        lambda r: hexagon_defect(L := table(r), *bad_word(r, L, 3, 3))),
    "holonomy.transport_loop": (
        lambda r: transport_loop_call(r, valid=True),
        lambda r: transport_loop_call(r, valid=False)),
    "normalizer.Strategy": (
        lambda r: Strategy(r.choice(["leftmost", "rightmost"])),
        lambda r: Strategy(r.choice(["left", "LEFTMOST", 0, None]))),
    "normalizer.descents": (
        lambda r: descents(word(r, table(r))),
        lambda r: descents((r.randint(0, 5), str(r.randint(0, 5))))),  # a str letter
    "normalizer.normalize": (
        lambda r: normalize_call(r, valid=True),
        lambda r: normalize_call(r, valid=False)),
    "normalizer.normalize_all_ways": (
        lambda r: all_ways_call(r, valid=True),
        lambda r: all_ways_call(r, valid=False)),
    "normalizer.swap_reduce_at": (
        lambda r: swap_call(r, valid=True),
        lambda r: swap_call(r, valid=False)),
    "normalizer.transport": (
        lambda r: transport_call(r, valid=True),
        lambda r: transport_call(r, valid=False)),
    "presentation.LiePresentation": (
        lambda r: presentation_call(r, valid=True),
        lambda r: presentation_call(r, valid=False)),
    "presentation.check_jacobi": (
        lambda r: check_jacobi(table(r)),
        "takes only a presentation, which its constructor checked"),
    "presentation.jacobi_defect": (
        lambda r: jacobi_defect(L := table(r), *word(r, L, 3, 3)),
        lambda r: jacobi_defect(L := table(r), *bad_word(r, L, 3, 3))),
    "presentation.parse_presentation": (
        lambda r: parse_presentation(serialize_presentation(table(r))),
        lambda r: parse_presentation(r.choice(BAD_LIE_TEXTS))),
    "presentation.parse_terms": (
        lambda r: parse_terms(L := table(r), format_element(L, element(r, L))),
        lambda r: parse_terms(table(r), r.choice(BAD_EXPRESSIONS))),
    "presentation.serialize_presentation": (
        lambda r: serialize_presentation(table(r)),
        "takes only a presentation, which its constructor checked"),
    "tensor.TensorElement": (
        lambda r: element_call(r, valid=True),
        lambda r: element_call(r, valid=False)),
    "tensor.monomial": (
        lambda r: monomial_call(r, valid=True),
        lambda r: monomial_call(r, valid=False)),
    "cli.format_element": (
        lambda r: format_call(r, valid=True),
        lambda r: format_call(r, valid=False)),
    "cli.parse_expression": (
        lambda r: parse_expression(L := table(r), format_element(L, element(r, L))),
        lambda r: parse_expression(table(r), r.choice(BAD_EXPRESSIONS))),
    "geometry.Chamber": (
        lambda r: Chamber(*r.choice(CHAMBERS)),
        "a plain record that no pbw function takes as input"),
    "geometry.chambers": (lambda r: chambers(), "takes no arguments"),
    "geometry.render_svg": (
        lambda r: render_svg(r.randint(1, 60), r.random() < 0.5),
        lambda r: render_svg(bad_int(r, 1))),
}

EXEMPT = {
    "coxeter.MoveError": "an exception class",
    "normalizer.SearchBudgetExceeded": "an exception class",
    "presentation.LieFormatError": "an exception class",
    "cli.main": "covered by test_cli.py::test_cli_fuzz_exits_cleanly",
}

INVALID = sorted(name for name, (_, invalid) in ROWS.items() if callable(invalid))


def test_every_exported_callable_has_a_row_or_an_exemption():
    exported = set()
    for info in pkgutil.iter_modules(pbw.__path__):
        module = importlib.import_module(f"pbw.{info.name}")
        exported |= {f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                     if callable(getattr(module, name))}
    assert sorted(exported) == sorted(ROWS.keys() | EXEMPT.keys())
    assert not ROWS.keys() & EXEMPT.keys()
    assert all(isinstance(invalid, str) and invalid for name, (_, invalid) in ROWS.items()
               if name not in INVALID)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_valid_calls_return(name):
    call, _ = ROWS[name]
    rng = random.Random(f"valid {name}")
    for _ in range(DRAWS):
        call(rng)


@pytest.mark.parametrize("name", INVALID)
def test_invalid_calls_raise_a_clean_error(name):
    _, call = ROWS[name]
    rng = random.Random(f"invalid {name}")
    for k in range(DRAWS):
        try:
            call(rng)
        except (ValueError, IndexError, TypeError) as e:
            assert str(e), (name, k, type(e))
        else:
            pytest.fail(f"{name}: invalid call {k} returned")
