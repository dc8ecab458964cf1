import ast
from pathlib import Path

from mutants import EQUIVALENT, MUTANTS, _mutated


def test_every_mutated_text_occurs_once():
    # the catalog's own text check, so an edit to src/pbw that strands an
    # entry fails here, not only in the full mutation run
    stale = []
    for file, old, new, *_ in MUTANTS + EQUIVALENT:
        try:
            _mutated(file, old, new)
        except LookupError as e:
            stale.append(str(e))
    assert stale == []


def test_every_killer_is_a_test_of_its_file():
    # a recorded killer names `file::test_name[param id]`; a deleted or
    # renamed test strands it, so the test it names must still be defined
    defined = {}
    stale = []
    for *_, killer in MUTANTS:
        file, test = killer.split("::")
        if file not in defined:
            tree = ast.parse((Path(__file__).parent / file).read_text(encoding="utf-8"))
            defined[file] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        if test.split("[")[0] not in defined[file]:
            stale.append(killer)
    assert stale == []
