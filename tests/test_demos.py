"""Every demo script runs to completion against the checkout's sources and
prints exactly its pinned output in tests/fixtures/expected/demos."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "tests" / "fixtures" / "expected" / "demos"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(script)], capture_output=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (EXPECTED / f"{script.stem}.txt").read_bytes()
