"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` patches the module and class attributes named in
its ``SPANS`` table and reads ``alt_cutoff``'s report.  A rename or a
changed return shape would break only the benchmark, so one traced
``verify`` runs here, the way ``perfbench/run.py`` drives it.
"""

import importlib
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DEMO_CONFIG = REPO / "configs" / "demo_c2.json"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_traced_verify_records_the_alt_cutoff_counter(tmp_path, capsys):
    modules = {name: importlib.import_module(f"telescope.{name}") for name in
               ("cli", "perm", "selfsim", "tower", "certify", "words")}
    tracer = load_tracing().Tracer(modules, "test")
    out_path = tmp_path / "cert.json"
    with tracer:
        code = modules["cli"].main(["verify", "--config", str(DEMO_CONFIG),
                                    "--out", str(out_path)])
    assert code == 1  # the demo's pigeonhole counterexamples; see README
    assert out_path.is_file()
    assert tracer.ops == 1
    assert "certify.alt_cutoff.kept_ratio" in tracer.metrics()
    assert tracer.totals["certify.alt_cutoff"][0] == 1
