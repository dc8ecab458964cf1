"""Normal forms checked against exact matrix representations.

A representation ρ of a Lie algebra extends to an algebra map on its
enveloping algebra, so a word and its normal form have the same image.
The matrices below are written down from formulas, not from the `.lie`
tables, and the products are plain sparse matrix arithmetic: this oracle
shares no code with the product table or the rewriter.

The defining 2×2 matrices of sl2 square f to zero and the 3×3 matrices of
the Heisenberg algebra kill every word of length 3, so long words are also
checked in larger representations: the irreducible sl2 module of
dimension 17, and the Heisenberg algebra acting on polynomials in s, t of
degree at most 6 by x = ∂/∂s, y = s ∂/∂t, z = ∂/∂t.

Two tables are not fixtures.  `sl2_half` has [e, f] = h/2, so its
integral view mixes an `int` with a `Fraction`; it acts on the sl2
modules with f halved.  gl2 is generated here: its bracket table is read
off the commutators of the 2×2 matrix units, emitted as `.lie` text and
parsed back, and it also acts on polynomials in s, t of degree at most 6
by E_ij = x_i ∂/∂x_j with (x_1, x_2) = (s, t).
"""

import itertools
import random
from fractions import Fraction

import pytest

from pbw.normalizer import descents, normalize
from pbw.presentation import bracket, parse_presentation
from pbw.tensor import monomial

from conftest import load_fixture


def matmul(a, b):
    """Product of sparse matrices {(row, column): nonzero entry}."""
    rows = {}
    for (k, j), v in b.items():
        rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), u in a.items():
        for j, v in rows.get(k, ()):
            s = out.get((i, j), 0) + u * v
            if s:
                out[(i, j)] = s
            else:
                del out[(i, j)]
    return out


def image(rep, dim, x):
    """ρ of a tensor element: the sum of c·ρ(w1)···ρ(wk) over its terms."""
    total = {}
    for w, c in x.terms.items():
        m = {(i, i): Fraction(1) for i in range(dim)}
        for letter in w:
            m = matmul(m, rep[letter])
        for key, v in m.items():
            s = total.get(key, 0) + c * v
            if s:
                total[key] = s
            else:
                del total[key]
    return total


def sl2_module(n):
    """(e, f, h) on v_0..v_n: h v_i = (n-2i) v_i, f v_i = (i+1) v_{i+1},
    e v_i = (n-i+1) v_{i-1}.  n = 1 gives the defining 2×2 matrices."""
    e = {(i - 1, i): Fraction(n - i + 1) for i in range(1, n + 1)}
    f = {(i + 1, i): Fraction(i + 1) for i in range(n)}
    h = {(i, i): Fraction(n - 2 * i) for i in range(n + 1) if n != 2 * i}
    return (e, f, h), n + 1


def heisenberg_3x3():
    """x = E01, y = E12, z = E02, so [x, y] = z and z is central."""
    one = Fraction(1)
    return ({(0, 1): one}, {(1, 2): one}, {(0, 2): one}), 3


def heisenberg_on_polynomials(degree):
    """x = ∂/∂s, y = s ∂/∂t, z = ∂/∂t on the monomials s^a t^b, a + b <= degree."""
    basis = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    index = {m: i for i, m in enumerate(basis)}
    x, y, z = {}, {}, {}
    for (a, b), col in index.items():
        if a:
            x[(index[(a - 1, b)], col)] = Fraction(a)
        if b:
            y[(index[(a + 1, b - 1)], col)] = Fraction(b)
            z[(index[(a, b - 1)], col)] = Fraction(b)
    return (x, y, z), len(basis)


def sl2_half_module(n):
    """`sl2_module(n)` with f halved: e, f/2, h satisfy [e, f/2] = h/2."""
    (e, f, h), dim = sl2_module(n)
    return (e, {key: v / 2 for key, v in f.items()}, h), dim


GL2_UNITS = [(0, 0), (0, 1), (1, 0), (1, 1)]
GL2_NAMES = [f"E{i + 1}{j + 1}" for i, j in GL2_UNITS]


def gl2_defining():
    """The matrix units E_ij of 2×2 matrices, in the order of GL2_UNITS."""
    return tuple({unit: Fraction(1)} for unit in GL2_UNITS), 2


def gl2_text():
    """`.lie` text for gl2, each bracket read off a commutator of matrix units."""
    units, _ = gl2_defining()
    lines = ["basis " + " ".join(GL2_NAMES)]
    for i, j in itertools.combinations(range(len(units)), 2):
        comm = dict(matmul(units[i], units[j]))
        for key, v in matmul(units[j], units[i]).items():
            comm[key] = comm.get(key, 0) - v
        terms = [f"{v} {GL2_NAMES[GL2_UNITS.index(key)]}" for key, v in sorted(comm.items()) if v]
        if terms:
            lines.append(f"bracket {GL2_NAMES[i]} {GL2_NAMES[j]} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def gl2_on_polynomials(degree):
    """E_ij = x_i ∂/∂x_j on the monomials s^a t^b, a + b <= degree."""
    basis = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    index = {m: col for col, m in enumerate(basis)}
    ops = []
    for i, j in GL2_UNITS:
        op = {}
        for m, col in index.items():
            if m[j]:
                target = list(m)
                target[j] -= 1
                target[i] += 1
                op[(index[tuple(target)], col)] = Fraction(m[j])
        ops.append(op)
    return tuple(ops), len(basis)


SL2_HALF = """basis e f h
bracket e f = 1/2 h
bracket e h = -2 e
bracket f h = 2 f
"""

TABLES = {
    "sl2": lambda: load_fixture("sl2"),
    "heisenberg": lambda: load_fixture("heisenberg"),
    "sl2_half": lambda: parse_presentation(SL2_HALF),
    "gl2": lambda: parse_presentation(gl2_text()),
}

REPRESENTATIONS = {
    "sl2": [sl2_module(1), sl2_module(16)],
    "heisenberg": [heisenberg_3x3(), heisenberg_on_polynomials(6)],
    "sl2_half": [sl2_half_module(1), sl2_half_module(16)],
    "gl2": [gl2_defining(), gl2_on_polynomials(6)],
}


def test_the_matrices_satisfy_the_bracket_tables():
    for name, reps in REPRESENTATIONS.items():
        L = TABLES[name]()
        for rep, dim in reps:
            for i, j in itertools.combinations(range(L.dim), 2):
                lhs = image(rep, dim, monomial(L, (i, j)) - monomial(L, (j, i)))
                rhs = {}
                for k, c in L.constants.get((i, j), {}).items():
                    for key, v in rep[k].items():
                        rhs[key] = rhs.get(key, 0) + c * v
                assert lhs == {key: v for key, v in rhs.items() if v}, (name, i, j)


def assert_same_image(L, reps, word):
    x = monomial(L, word)
    nf = normalize(L, x)
    assert not any(descents(w) for w in nf.terms)
    for rep, dim in reps:
        assert image(rep, dim, nf) == image(rep, dim, x), (word, dim)


@pytest.mark.parametrize("k", range(1, 17))
def test_sl2_f_power_e_power(sl2, k):
    assert_same_image(sl2, REPRESENTATIONS["sl2"], (1,) * k + (0,) * k)


def test_the_generated_tables():
    half = TABLES["sl2_half"]()
    assert half.constants[(0, 1)] == {2: Fraction(1, 2)}
    gl2 = TABLES["gl2"]()
    assert gl2.names == tuple(GL2_NAMES)
    # [E12, E21] = E11 - E22, and E11 + E22 is central
    assert gl2.constants[(1, 2)] == {0: 1, 3: -1}
    for j in range(gl2.dim):
        a, b = bracket(gl2, 0, j), bracket(gl2, 3, j)
        assert all(a.get(k, 0) + b.get(k, 0) == 0 for k in a.keys() | b.keys()), j


@pytest.mark.parametrize("name", ["sl2_half", "gl2"])
def test_generated_tables_seeded_words_up_to_length_12(name):
    L = TABLES[name]()
    rng = random.Random(name)
    for length in range(13):
        for _ in range(4):
            word = tuple(rng.randrange(L.dim) for _ in range(length))
            assert_same_image(L, REPRESENTATIONS[name], word)


@pytest.mark.parametrize("name", ["heisenberg", "sl2"])
def test_seeded_words_up_to_length_24(name):
    L = load_fixture(name)
    rng = random.Random(name)
    for length in range(25):
        for _ in range(2):
            word = tuple(rng.randrange(L.dim) for _ in range(length))
            assert_same_image(L, REPRESENTATIONS[name], word)
