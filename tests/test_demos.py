"""Each demo runs to the end in a fresh interpreter, silently on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pinchlab

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ)
    src = str(Path(pinchlab.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    assert list(tmp_path.iterdir()) == []  # demos write no files
