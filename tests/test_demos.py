"""Each demo prints exactly its recorded output.

``tests/golden/demo_<name>.txt`` holds the stdout of ``demos/<name>.py``;
re-record one only with a change that means to alter what the demo shows.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_its_golden_output(demo):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (ROOT / "tests" / "golden" / f"demo_{demo.stem}.txt").read_text()
