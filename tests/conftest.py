"""Shared test configuration: a pristine cache directory for the whole run."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session", autouse=True)
def fresh_cache(tmp_path_factory):
    """Point HITQ_CACHE at an empty session directory so timings are honest."""
    path = str(tmp_path_factory.mktemp("hitq-cache"))
    os.environ["HITQ_CACHE"] = path
    return path
