"""Fixtures shared by every test module."""

import pytest

from dsplim import evalharness


@pytest.fixture(autouse=True)
def _no_inherited_pool():
    """Join the worker pool a test forked, so the next test forks its own
    (with its own patches) instead of reusing this one's workers."""
    yield
    evalharness._shutdown_pool()
