import sys
from pathlib import Path

import pytest

from numsgps import core

# Make the sibling oracles module importable from every test file.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def round_robin_calls(monkeypatch):
    """The modulus of every ``core._round_robin`` call made during the test."""
    calls = []
    round_robin = core._round_robin

    def counting(generators, n):
        calls.append(n)
        return round_robin(generators, n)

    monkeypatch.setattr(core, "_round_robin", counting)
    return calls
