import sys
from pathlib import Path

import pytest

from numsgps import core

# Make the sibling oracles module importable from every test file.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def table_builds(monkeypatch):
    """Every Apery table construction during the test, in order:
    ("round robin", m) for a ``core._round_robin`` call whose values are
    headed by the multiplicity m, and
    ("sieve", m) for a ``core._sieve`` pass that built the table of
    multiplicity m, or ("sieve", None) when it found its mask too short."""
    builds = []
    round_robin, sieve = core._round_robin, core._sieve

    def counting_round_robin(values):
        builds.append(("round robin", values[0]))
        return round_robin(values)

    def counting_sieve(values, nbits):
        built = sieve(values, nbits)
        builds.append(("sieve", None if built is None else values[0]))
        return built

    monkeypatch.setattr(core, "_round_robin", counting_round_robin)
    monkeypatch.setattr(core, "_sieve", counting_sieve)
    return builds
