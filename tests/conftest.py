"""Tests that start ``python -m gpnam.cli`` in a subprocess import this
checkout's package too, as ``pythonpath`` in pyproject.toml does for the
test process itself."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="session", autouse=True)
def checkout_on_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
