"""Markers shared across test modules."""

import pytest

from repro.scenario.spec import tomllib

#: TOML specs load through ``tomllib`` (Python 3.11+); on 3.10 only JSON
#: specs parse, so every case that reads TOML carries this marker.
requires_toml = pytest.mark.skipif(
    tomllib is None, reason="TOML specs need tomllib (Python 3.11+)"
)
