import pytest

from circperm.corpus import _derive_cached


@pytest.fixture(scope="session")
def derived():
    """Session-wide cache of full derivations, keyed by (jumps, size, weights)."""
    return _derive_cached()
