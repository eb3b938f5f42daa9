"""Tests that start ``python -m gpnam.cli`` in a subprocess import this
checkout's package too, as ``pythonpath`` in pyproject.toml does for the
test process itself.

Every property test runs under one Hypothesis profile: no deadline (the
examples fit models, whose time varies with the machine) and derandomized,
so each test draws the same examples on every run, seeded from the test
itself. A test's ``@settings`` sets only its ``max_examples``.
"""

import os
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("gpnam", deadline=None, derandomize=True)
settings.load_profile("gpnam")

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="session", autouse=True)
def checkout_on_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
