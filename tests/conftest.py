"""Shared fixtures and the acceptance summary hook."""

import pytest
from hypothesis import settings

from setprob import HF_MODE, ORDINAL_MODE, filters, make_universe
from setprob.universe import clear_caches

# Every property test draws the same examples on every run.  The profile is
# loaded before the test modules are imported, so each `@settings(...)`
# there starts from it.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# Populated by tests/test_acceptance.py: criterion number -> (label, passed).
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


# Asked per test, so a test gets the shared handle of its universe even
# after an earlier test's `clear_caches`.
@pytest.fixture
def ord_universe():
    return make_universe(ORDINAL_MODE, 3)


@pytest.fixture
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
