"""Settings shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def private_parse_cache(monkeypatch, tmp_path):
    """Each test, and every CLI process it starts, gets an empty parse cache of
    its own, so no test reads or fills the user's ``~/.cache/coherence-kit``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
