"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every check here is an exact equality except where a
floating-point tolerance is stated inline.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

from pbw.cli import main, parse_expression
from pbw.coxeter import (CellType, GeneratorWord, codim2_census,
                         codim2_census_by_cosets, contract_loop, is_identity_loop,
                         random_identity_loop, replay)
from pbw.geometry import chambers, render_svg
from pbw.holonomy import hexagon_defect, transport_loop
from pbw.normalizer import Strategy, normalize, normalize_all_ways
from pbw.presentation import check_jacobi, jacobi_defect
from pbw.tensor import monomial

from conftest import ALL_FIXTURES, GOLDEN, JACOBI_FIXTURES, all_words, load_fixture
from excursions import sample_excursion_s4
from golden_cases import GOLDEN_CASES
from sphere import spherical_excess, triangle_angles

@contextmanager
def criterion(num, title, budget=None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {num} took {elapsed:.2f}s, over its {budget:.0f}s budget")
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        extra = f", budget {budget:.0f}s" if budget is not None else ""
        print(f"[{status}] criterion {num}: {title} ({elapsed:.2f}s{extra})")


def test_criterion_1_straightening_regression(f32):
    with criterion(1, "three-letter reversal straightens to its known form", 1.0):
        expected = parse_expression(f32, "- 1 a w - 1 b v - 1 c u + 1 a b c")
        for strategy in Strategy:
            assert normalize(f32, monomial(f32, (2, 1, 0)), strategy) == expected


def test_criterion_2_hexagon_equals_jacobi():
    with criterion(2, "hexagon defect = Jacobi defect on all tables", 10.0):
        for name in ALL_FIXTURES:
            L = load_fixture(name)
            clean = check_jacobi(L) == []
            for i, j, k in itertools.product(range(L.dim), repeat=3):
                d = hexagon_defect(L, i, j, k)
                assert d == jacobi_defect(L, i, j, k)
                if clean:
                    assert d == {}
        bad = load_fixture("bad")
        assert hexagon_defect(bad, 0, 1, 2) == {0: 1}


def test_criterion_3_confluence_brute_force():
    with criterion(3, "all reduction orders agree on words of length <= 4", 60.0):
        for name in JACOBI_FIXTURES:
            L = load_fixture(name)
            memo = {}
            for w in all_words(L.dim, 4):
                assert len(normalize_all_ways(L, w, memo=memo)) == 1, w
        bad = load_fixture("bad")
        assert len(normalize_all_ways(bad, (2, 1, 0))) == 2


def test_criterion_4_loop_holonomy(f42):
    with criterion(4, "zero holonomy around hexagon, square, and long loops", 60.0):
        hexl = GeneratorWord(3, (1, 2) * 3)
        assert hexl.letters == (1, 2, 1, 2, 1, 2)
        for w in [(2, 1, 0), (3, 2, 1), (9, 4, 0)]:
            assert not normalize(f42, transport_loop(f42, w, hexl))
        sq = GeneratorWord(4, (1, 3) * 2)
        assert sq.letters == (1, 3, 1, 3)
        for w in [(0, 1, 2, 3), (3, 2, 1, 0), (2, 1, 3, 0)]:
            assert not normalize(f42, transport_loop(f42, w, sq))
        excursion = sample_excursion_s4()
        assert is_identity_loop(excursion)
        assert not normalize(f42, transport_loop(f42, (0, 1, 2, 3), excursion))


def test_criterion_5_contraction_certificates():
    with criterion(5, "contraction certificates replay on random loops", 10.0):
        rng = random.Random(0)
        for n in (4, 5):
            for _ in range(100):
                g = random_identity_loop(n, 12, rng)
                assert len(g.letters) <= 12
                cert = contract_loop(g)
                assert replay(g, cert).letters == ()


def test_criterion_6_cell_census():
    with criterion(6, "codim-2 cell census and chamber counts", 1.0):
        assert codim2_census(4) == {CellType.TRICKY: 8, CellType.EASY: 6}
        assert codim2_census(3) == {CellType.TRICKY: 1, CellType.EASY: 0}
        assert codim2_census(5) == {CellType.TRICKY: 60, CellType.EASY: 90}
        for n in (3, 4, 5):
            assert codim2_census(n) == codim2_census_by_cosets(n)
        assert len(chambers()) == 24


def test_criterion_7_geometry():
    with criterion(7, "spherical tessellation metrics and rendering", 5.0):
        chs = chambers()
        assert len(chs) == 24
        for ch in chs:
            angles = sorted(triangle_angles(ch.triangle))
            assert abs(angles[0] - math.pi / 3) < 1e-9
            assert abs(angles[1] - math.pi / 3) < 1e-9
            assert abs(angles[2] - math.pi / 2) < 1e-9
        total = sum(spherical_excess(ch.triangle) for ch in chs)
        assert abs(total - 4 * math.pi) < 1e-6
        from sphere import mesh_counts
        v, e, f = mesh_counts()
        assert (v, e, f) == (14, 36, 24) and v - e + f == 2
        svg = render_svg(size=480)
        assert svg == render_svg(size=480)
        assert svg.count('class="region"') == 24
        assert svg.count('class="vertex tricky"') == 8
        assert svg.count('class="vertex easy"') == 5


def test_criterion_8_cli_end_to_end(capsys, tmp_path):
    with criterion(8, "CLI golden files and the exit-code contract"):
        for name, argv, expected_exit in GOLDEN_CASES:
            code = main(argv)
            out = capsys.readouterr().out
            assert code == expected_exit, name
            assert out == (GOLDEN / name).read_text(encoding="utf-8"), name
        # usage errors exit 2
        assert main(["cells"]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()
        # engine errors exit 1
        assert main(["check", str(tmp_path / "missing.lie")]) == 1
        assert main(["contract", "--n", "3", "--loop", "1"]) == 1
        capsys.readouterr()
        # render is deterministic and matches its golden bytes
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", "--out", str(out1), "--size", "320"]) == 0
        assert main(["render", "--out", str(out2), "--size", "320"]) == 0
        capsys.readouterr()
        data = out1.read_bytes()
        assert data == out2.read_bytes()
        assert data == (GOLDEN / "tessellation_320.svg").read_bytes()
