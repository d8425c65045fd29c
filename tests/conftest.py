"""Shared fixtures and the acceptance summary hook."""

import pytest

from setprob import HF_MODE, ORDINAL_MODE, filters, make_universe

# Populated by tests/test_acceptance.py: criterion number -> (label, passed).
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


@pytest.fixture(scope="session")
def ord_universe():
    return make_universe(ORDINAL_MODE, 3)


@pytest.fixture(scope="session")
def hf_universe():
    return make_universe(HF_MODE, 5)


@pytest.fixture
def counted_searches(monkeypatch):
    """Empty the table of kept searches, on entry and on exit; give the
    inputs of the searches prepared and of the runs made in between."""
    prepared, runs = [], []

    class Counted(filters._Search):
        def __init__(self, *key):
            prepared.append(key)
            super().__init__(*key)

        def run(self, rng, decorate):
            runs.append(self.cs)
            return super().run(rng, decorate)

    monkeypatch.setattr(filters, "_Search", Counted)
    filters._prepared.cache_clear()
    yield prepared, runs
    filters._prepared.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        label, ok = ACCEPTANCE_RESULTS[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{status}] {label}")
