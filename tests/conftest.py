"""Fixtures every test uses."""

import pytest

from spdcqkd import protocol


@pytest.fixture(autouse=True)
def cold_template_cache():
    """Empty the session-template cache before each test, so that no test is
    handed a template built before it patched the engine, whatever the order
    the tests run in."""
    protocol._physics_template.cache_clear()
