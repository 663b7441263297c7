import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_at_one_place(mutant):
    # an edit of src/ that moves a mutant's old text must move the mutant too
    assert (ROOT / "src" / "fdpareto" / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests and all((ROOT / test).is_file() for test in mutant.tests)


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
