import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# demo -> SHA-256 of its stdout, which depends on no hash seed
STDOUT_SHA256 = {
    "01_extending_one_action.py":
        "105c20596a0885cf287bf9a54546e56725c022890c1234ccb006eaaadd9fcf08",
    "02_grigorchuk_tower.py":
        "68573d0619475a9ee5280dc8ff00314ba6a3049d1cac8c5c4ab4872f14a25780",
    "03_trace_walks.py":
        "d538adc02eee90001161bd5692b14f76ac9cf63216acc49051527ff438662796",
    "04_certifying_a_tower.py":
        "8686d7adfb77850afdaa751941ef503cd276c4891bf1f98aeaf8db56204cd45b",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=src_env(),
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
