import os
from pathlib import Path

import pytest


@pytest.fixture
def child_env():
    """Environment for a child process that imports netsync from this tree."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
