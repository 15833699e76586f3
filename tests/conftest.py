"""Fixtures every test uses."""

import pytest

from spdcqkd import protocol


@pytest.fixture(autouse=True)
def cold_template_cache():
    """Empty the session-template cache and the memo of scenario rows before
    each test, so that no test is handed a template or rows built before it
    patched the engine, whatever the order the tests run in."""
    protocol._templates.clear()
    protocol._scenario_rows.cache_clear()
