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
