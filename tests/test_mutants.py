"""Every mutant of ``tests/mutants.py`` still applies.

Each entry's old text must occur exactly once in its file, or the script
reports it stale.  Checking that here makes a refactor that moves a
listed line fail the tier-1 suite, not the next run of the script.
"""

from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
