"""The three workloads: seeded inputs, one item runner each, and the gates.

An item is one call into pbw's public API that produces one verdict.  Items
reach pbw only through module attributes (`normalizer.normalize`, ...), so
the tracer's wrappers see every call.  `build` makes the inputs from the
seed alone; `run` is the only code inside the timed span of an item;
`check` and `digest` run after the pass, outside every timed span.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from pathlib import Path

import oracle
from oracle import GateError

TABLES = ("abelian3", "heisenberg", "sl2", "f32", "f42", "bad")
TABLE_DIR = Path(__file__).resolve().parent / "tables"


class Context:
    """pbw's modules plus both parses of every table and their checkers."""

    def __init__(self, pbw, root: Path):
        self.pbw = pbw
        self.root = root
        self.texts = {t: (TABLE_DIR / f"{t}.lie").read_text(encoding="utf-8") for t in TABLES}
        self.algebras = {t: pbw.presentation.parse_presentation(s)
                         for t, s in self.texts.items()}
        self.tables = {t: oracle.read_table(s) for t, s in self.texts.items()}
        self.reps = {t: oracle.representation(t, tab) for t, tab in self.tables.items()}

    def names(self, table: str, word) -> str:
        return " ".join(self.tables[table].names[t] for t in word)

    def terms(self, table: str, text: str):
        return oracle.parse_terms(self.tables[table].index, text)

    def same_image(self, table: str, a, b) -> bool:
        rep = self.reps[table]
        return rep is None or rep.element(a) == rep.element(b)


class Workload:
    """Base: subclasses fill in the item kinds and their checks."""

    name = ""

    def __init__(self, ctx: Context, size: float = 1.0):
        self.ctx = ctx
        self.size = size

    def count(self, n: int) -> int:
        return max(1, round(n * self.size))

    def new_state(self):
        return None

    def counts(self, items, outputs, state, failures) -> dict:
        """Workload-specific per-layer counts of one pass."""
        return {}

    def witness(self, item) -> str:
        raise NotImplementedError

    def check(self, items, outputs, failed: set[int]) -> None:
        for idx, (item, out) in enumerate(zip(items, outputs)):
            if idx not in failed:
                self.check_item(item, out, idx)

    def gate(self, ok: bool, idx: int, item, what: str) -> None:
        if not ok:
            raise GateError(f"{self.name} item {idx} ({self.witness(item)}): {what}")

    def digest(self, items, outputs, failed: set[int]) -> str:
        h = hashlib.sha256()
        for idx, (item, out) in enumerate(zip(items, outputs)):
            line = "FAILED" if idx in failed else self.digest_line(item, out)
            h.update(f"{self.witness(item)}\t{line}\n".encode())
        return h.hexdigest()


class Confluence(Workload):
    """normalize_all_ways on every word of length <= 4 over the five Lie
    tables, one shared memo per table, in seeded order; plus bad `c b a`."""

    name = "confluence"
    LIE = ("abelian3", "heisenberg", "sl2", "f32", "f42")

    def build(self, rng: random.Random):
        max_len = 4 if self.size >= 1 else 2
        items = [(t, w) for t in self.LIE
                 for n in range(max_len + 1)
                 for w in itertools.product(range(len(self.ctx.tables[t].names)), repeat=n)]
        items.append(("bad", (2, 1, 0)))
        rng.shuffle(items)
        return items

    def new_state(self):
        return {t: {} for t in TABLES}

    def counts(self, items, outputs, memos, failures) -> dict:
        states = sum(len(memo) for memo in memos.values())
        return {"normalizer.oracle.states": states,
                "normalizer.oracle.states_per_word": states / len(items)}

    def run(self, memos, item):
        table, word = item
        return self.ctx.pbw.normalizer.normalize_all_ways(
            self.ctx.algebras[table], word, memo=memos[table])

    def witness(self, item) -> str:
        return f"{item[0]} word='{self.ctx.names(*item)}'"

    def check_item(self, item, forms, idx):
        table, word = item
        pbw = self.ctx.pbw
        L = self.ctx.algebras[table]
        terms = [f.terms for f in forms]
        self.gate(all(oracle.is_canonical(t) for t in terms), idx, item, "non-canonical form")
        if table == "bad":
            self.gate(len(terms) == 2, idx, item, f"{len(terms)} forms, expected 2")
            a, b = terms
            diff = {w: a.get(w, 0) - b.get(w, 0) for w in set(a) | set(b)}
            diff = {w: c for w, c in diff.items() if c}
            defect = oracle.jacobi(self.ctx.tables[table], *sorted(word))
            self.gate(diff in ({(k,): c for k, c in defect.items()},
                               {(k,): -c for k, c in defect.items()}), idx, item,
                      "the two forms do not differ by the Jacobi defect")
            return
        self.gate(len(terms) == 1, idx, item, f"{len(terms)} forms, expected 1")
        nf = pbw.normalizer.normalize(L, pbw.tensor.monomial(L, word))
        self.gate(nf.terms == terms[0], idx, item, "oracle form differs from normalize")
        self.gate(self.ctx.same_image(table, {word: 1}, terms[0]), idx, item,
                  "matrix image of the form differs from that of the word")

    def digest_line(self, item, forms):
        names = self.ctx.tables[item[0]].names
        return " | ".join(sorted(oracle.format_terms(names, f.terms) for f in forms))


class Straighten(Workload):
    """Text in, text out: parse_expression -> normalize -> format_element,
    holonomy remainders around seeded identity loops, and hexagon defects."""

    name = "straighten"
    COEFFS = ("1", "2", "3", "1/2", "2/3", "5/4", "7")

    def _text(self, rng, table, words) -> str:
        names = self.ctx.tables[table].names
        parts = []
        for t, word in enumerate(words):
            sign = rng.choice(("", "- ")) if t == 0 else rng.choice(("+ ", "- "))
            parts.append(f"{sign}{rng.choice(self.COEFFS)} {' '.join(names[i] for i in word)}")
        return " ".join(parts)

    def build(self, rng: random.Random):
        Strategy = self.ctx.pbw.normalizer.Strategy
        items = [("normalize", "sl2", " ".join(["f"] * k + ["e"] * k), Strategy.LEFTMOST)
                 for k in range(1, 7 if self.size >= 1 else 4)]
        # Each word comes with its reverse, and sl2 words have exactly half
        # of their multiset's possible inversions: the cost of straightening
        # grows steeply with inversions, and pairing keeps the total cost of
        # a seed's inputs close to that of any other seed.
        sl2 = []
        for length in range(4, 10 if self.size >= 1 else 6):
            for e, f in itertools.product(range(length + 1), repeat=2):
                if e + f <= length:
                    sl2.append(half_inverted(rng, [0] * e + [1] * f + [2] * (length - e - f)))
        f42_dim = len(self.ctx.tables["f42"].names)
        f42 = [[tuple(rng.randrange(f42_dim) for _ in range(rng.randint(4, 10)))
                for _ in range(rng.choice((1, 2)))] for _ in range(self.count(200))]
        for words, table, strategy in (([[w] for w in sl2], "sl2", Strategy.LEFTMOST),
                                       (f42, "f42", Strategy.RIGHTMOST)):
            for ws in words:
                for twin in (ws, [w[::-1] for w in ws]):
                    items.append(("normalize", table, self._text(rng, table, twin), strategy))
        for t in range(self.count(600)):
            table = ("f42", "sl2", "bad")[t % 3]
            n = rng.randint(3, 5)
            word = tuple(rng.randrange(len(self.ctx.tables[table].names)) for _ in range(n))
            loop = identity_loop(rng, n, rng.randrange(4, 17, 2))
            items.append(("holonomy", table, word, n, loop))
        for table in TABLES:
            dim = len(self.ctx.tables[table].names)
            triples = list(itertools.product(range(dim), repeat=3))
            if self.size < 1:
                triples = rng.sample(triples, self.count(len(triples)))
            items += [("hexagon", table, tri) for tri in triples]
        rng.shuffle(items)
        return items

    def run(self, state, item):
        kind, table = item[0], item[1]
        pbw = self.ctx.pbw
        L = self.ctx.algebras[table]
        if kind == "normalize":
            x = pbw.cli.parse_expression(L, item[2])
            return pbw.cli.format_element(L, pbw.normalizer.normalize(L, x, item[3]))
        if kind == "holonomy":
            g = pbw.coxeter.GeneratorWord(item[3], item[4])
            rem = pbw.holonomy.transport_loop(L, item[2], g)
            return pbw.cli.format_element(L, pbw.normalizer.normalize(L, rem))
        d = pbw.holonomy.hexagon_defect(L, *item[2])
        return d, d == pbw.presentation.jacobi_defect(L, *item[2])

    def witness(self, item) -> str:
        kind, table = item[0], item[1]
        if kind == "normalize":
            return f"{table} normalize '{item[2]}' {item[3].value}"
        if kind == "holonomy":
            loop = " ".join(map(str, item[4]))
            return f"{table} holonomy word='{self.ctx.names(table, item[2])}' loop='{loop}'"
        return f"{table} hexagon ({self.ctx.names(table, item[2])})"

    def check_item(self, item, out, idx):
        kind, table = item[0], item[1]
        if kind == "hexagon":
            d, agrees = out
            self.gate(agrees, idx, item, "hexagon defect differs from jacobi_defect")
            self.gate(d == oracle.jacobi(self.ctx.tables[table], *item[2]), idx, item,
                      "hexagon defect differs from the independent Jacobi defect")
            return
        pbw = self.ctx.pbw
        L = self.ctx.algebras[table]
        terms = self.ctx.terms(table, out)
        self.gate(oracle.is_canonical(terms), idx, item, f"non-canonical output '{out}'")
        back = pbw.cli.format_element(L, pbw.cli.parse_expression(L, out))
        self.gate(back == out, idx, item, f"output '{out}' does not parse back")
        if kind == "normalize":
            given = self.ctx.terms(table, item[2])
            self.gate(self.ctx.same_image(table, given, terms), idx, item,
                      f"matrix image of '{out}' differs from that of the input")
        elif self.ctx.reps[table] is not None:
            self.gate(out == "0", idx, item, f"holonomy '{out}' on a Lie table")

    def digest_line(self, item, out):
        if item[0] == "hexagon":
            names = self.ctx.tables[item[1]].names
            return oracle.format_terms(names, {(k,): c for k, c in out[0].items()})
        return out


class Coxeter(Workload):
    """contract_loop + replay on seeded identity loops and the w0 family,
    the coset census against the closed formula, and SVG rendering."""

    name = "coxeter"
    RENDER_SIZES = (160, 320, 640, 800)

    def build(self, rng: random.Random):
        items = []
        # The loops' permutations have every length up to 10 (n=5) or 11 (n=6)
        # equally often.  Contraction cost grows steeply with length, and at
        # n=6 from length 12 on a rare loop takes seconds or runs out of
        # budget; the longest permutation is covered by the w0 family below.
        # With 3,000 loops, the top 1% of item latencies is mostly loops of
        # the longest lengths, so p99 does not hang on a few outliers.
        for t in range(self.count(3000)):
            n = 5 + t % 2
            perm = permutation_of_length(rng, n, (t // 2) % (6 + n))
            first, second = reduced_word(rng, perm), reduced_word(rng, perm)
            items.append(("contract", n, first + second[::-1]))
        for n in range(3, 7 if self.size >= 1 else 5):
            a = tuple(p for top in range(n - 1, 0, -1) for p in range(1, top + 1))
            b = tuple(p for low in range(1, n) for p in range(n - 1, low - 1, -1))
            items.append(("contract", n, a + b[::-1]))
        items += [("census", n) for n in range(3, 9 if self.size >= 1 else 6)]
        items += [("render", size) for size in self.RENDER_SIZES]
        for item in items:
            if item[0] == "contract" and not is_identity(item[1], item[2]):
                raise ValueError(f"generated loop {item} is not an identity loop")
        rng.shuffle(items)
        return items

    def run(self, state, item):
        cox = self.ctx.pbw.coxeter
        if item[0] == "contract":
            g = cox.GeneratorWord(item[1], item[2])
            cert = cox.contract_loop(g)
            return cert, cox.replay(g, cert).letters
        if item[0] == "census":
            return cox.codim2_census_by_cosets(item[1]), cox.codim2_census(item[1])
        return self.ctx.pbw.geometry.render_svg(item[1])

    def counts(self, items, outputs, state, failures) -> dict:
        moves = letters = 0
        for idx, item in enumerate(items):
            if item[0] == "contract" and idx not in failures:
                moves += len(outputs[idx][0])
                letters += len(item[2])
        budget = self.ctx.pbw.SearchBudgetExceeded
        return {"coxeter.certificate_moves": moves,
                "coxeter.moves_per_letter": moves / letters,
                "coxeter.budget_failures":
                    sum(isinstance(e, budget) for e in failures.values())}

    def witness(self, item) -> str:
        if item[0] == "contract":
            return f"contract n={item[1]} loop='{' '.join(map(str, item[2]))}'"
        return f"{item[0]} {'n' if item[0] == 'census' else 'size'}={item[1]}"

    def check_item(self, item, out, idx):
        kind = item[0]
        if kind == "contract":
            cert, final = out
            self.gate(final == (), idx, item, f"replay ends at {final}, not ()")
            moves = [(m.kind, m.pos) for m in cert]
            self.gate(oracle.replay(item[2], moves) == (), idx, item,
                      "certificate does not reduce the loop to ()")
        elif kind == "census":
            by_cosets, closed = out
            CellType = self.ctx.pbw.coxeter.CellType
            got = (by_cosets[CellType.TRICKY], by_cosets[CellType.EASY])
            self.gate(by_cosets == closed, idx, item, "coset census differs from codim2_census")
            self.gate(got == oracle.census_formula(item[1]), idx, item,
                      f"census {got} differs from the closed formula")
        else:
            self.gate(out.startswith("<svg") and out.endswith("</svg>\n")
                      and out.count('<path class="region"') == 24, idx, item, "malformed SVG")
            if item[1] == 320:
                golden = self.ctx.root / "tests" / "golden" / "tessellation_320.svg"
                golden = golden.read_text(encoding="utf-8")
                self.gate(out == golden, idx, item, "SVG differs from tests/golden")

    def digest_line(self, item, out):
        if item[0] == "contract":
            return " ".join(str(m) for m in out[0])
        if item[0] == "census":
            counts = sorted((k.value, v) for k, v in out[0].items())
            return " ".join(f"{k}={v}" for k, v in counts)
        return hashlib.sha256(out.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (Confluence, Straighten, Coxeter)}


# -- input generation: the benchmark's own permutation code --------------------

def apply_word(n: int, word) -> list[int]:
    """Arrangement reached from the identity by swapping slots p, p+1."""
    perm = list(range(n))
    for p in word:
        perm[p - 1], perm[p] = perm[p], perm[p - 1]
    return perm


def is_identity(n: int, word) -> bool:
    return apply_word(n, word) == list(range(n))


def reduced_word(rng: random.Random, perm: list[int]) -> tuple[int, ...]:
    """A random reduced word for perm: undo a random descent until sorted;
    the undone positions, reversed, rebuild perm from the identity."""
    cur = list(perm)
    undone = []
    while True:
        descents = [p for p in range(1, len(cur)) if cur[p - 1] > cur[p]]
        if not descents:
            return tuple(reversed(undone))
        p = rng.choice(descents)
        cur[p - 1], cur[p] = cur[p], cur[p - 1]
        undone.append(p)


def half_inverted(rng: random.Random, letters: list[int]) -> tuple[int, ...]:
    """A random arrangement of the sorted letters with half of the possible
    inversions: swap a random ascent, one inversion at a time."""
    w = list(letters)
    most = sum(a < b for a, b in itertools.combinations(w, 2))
    for _ in range(most // 2):
        p = rng.choice([p for p in range(1, len(w)) if w[p - 1] < w[p]])
        w[p - 1], w[p] = w[p], w[p - 1]
    return tuple(w)


def permutation_of_length(rng: random.Random, n: int, length: int) -> list[int]:
    """A random arrangement of n slots with exactly `length` inversions."""
    perm = list(range(n))
    for _ in range(length):
        p = rng.choice([p for p in range(1, n) if perm[p - 1] < perm[p]])
        perm[p - 1], perm[p] = perm[p], perm[p - 1]
    return perm


def identity_loop(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """Rejection-sample a word of the given even length that is an identity loop."""
    while True:
        word = tuple(rng.randint(1, n - 1) for _ in range(length))
        if is_identity(n, word):
            return word
