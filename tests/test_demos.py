"""Every script in ``demos/`` runs to completion against the tree under test."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import runner_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = runner_env()
    env["TMPDIR"] = str(tmp_path)  # keep the demos' scratch files here
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # the demo leaves nothing behind in its working or temporary directory
    assert not any(tmp_path.iterdir()), sorted(tmp_path.iterdir())
