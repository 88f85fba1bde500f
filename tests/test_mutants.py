"""The mutation table stays applicable: each row's old text occurs exactly
once in its file, so no row can silently stop mutating anything."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("path, old, new, breaks", MUTANTS)
def test_mutant_old_text_occurs_once(path, old, new, breaks):
    assert old != new
    assert (ROOT / path).read_text().count(old) == 1
