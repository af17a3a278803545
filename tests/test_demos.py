import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
