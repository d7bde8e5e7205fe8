"""Every script under demos/ runs to completion against the package source.

Each demo runs as a copy in its own temporary directory, so a file it saves
next to itself (03_mopso_front.py writes a plot when matplotlib is installed)
never lands in the repository.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(tmp_path, demo):
    before = sorted((ROOT / "demos").iterdir())
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert sorted((ROOT / "demos").iterdir()) == before
