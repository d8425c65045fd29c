"""Shared fixtures and the acceptance summary hook."""

import pytest

from setprob import HF_MODE, ORDINAL_MODE, filters, make_universe
from setprob.universe import clear_caches

# Populated by tests/test_acceptance.py: criterion number -> (label, passed).
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


@pytest.fixture(scope="session")
def ord_universe():
    return make_universe(ORDINAL_MODE, 3)


@pytest.fixture(scope="session")
def hf_universe():
    return make_universe(HF_MODE, 5)


@pytest.fixture
def fresh_caches():
    """Empty the process-wide caches (`universe.clear_caches`) on entry and
    on exit: the test meets new handles, interning tables and kept
    searches, and leaves none of its own behind."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def counted_searches(monkeypatch, fresh_caches):
    """Give the inputs of the searches prepared and of the runs made
    while the test runs, from emptied caches (`fresh_caches`)."""
    prepared, runs = [], []

    class Counted(filters._Search):
        def __init__(self, *key):
            prepared.append(key)
            super().__init__(*key)

        def run(self, rng, decorate):
            runs.append(self.cs)
            return super().run(rng, decorate)

    monkeypatch.setattr(filters, "_Search", Counted)
    return prepared, runs


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        label, ok = ACCEPTANCE_RESULTS[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{status}] {label}")
