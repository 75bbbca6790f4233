import pytest
from scan_paths import PATHS, pinned


@pytest.fixture
def announce(capsys):
    """Print a line that bypasses pytest's output capture."""

    def _announce(line: str):
        with capsys.disabled():
            print(line, flush=True)

    return _announce


@pytest.fixture(scope="module", params=PATHS)
def scan_path(request):
    """Every trace scan of a module's tests on one block path, then on the other.

    Module-scoped, so Hypothesis tests may use it: it is set once for all
    the examples of a test.
    """
    with pinned(request.param):
        yield request.param
