"""Benchmark of the telescope command line: one workload, one process, one client.

    python3 perfbench/run.py --workload verify-grig5 --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  The package is imported from ``src/``;
the workload's seeded inputs and all outputs go under ``perfbench/out/``.
Calls go through ``telescope.cli.main(argv)`` with stdout captured, in a
closed loop (the next call starts when the previous one returns) until
``--seconds`` have passed, and every output is checked.

With ``--trace 0`` the end-to-end metrics are reported, each time scaled to
a nominal host speed measured between calls (see ``hostspeed.py``; the
measured values are in the ``meta`` line).  With ``--trace 1``
each input runs once untraced and once traced, and per-layer metrics come
from the traced calls; the spans are written to ``spans.jsonl``.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, metrics and the layer each metric should move are described in
``perfbench/predictions.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7

sys.path.insert(0, str(BENCH_DIR))
from checks import check_certificate, check_word_output, self_test  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from inputs import VERIFY_WORKLOADS, WORKLOADS, make_inputs  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_telescope():
    """Import the package under test from ``src/``; exit 2 if it is missing."""
    src = ROOT / "src"
    if not (src / "telescope" / "__init__.py").is_file():
        print(f"error: no telescope package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import telescope.cli
    return telescope


def setup_probe(workload, seed):
    """Child process: import the package, make the inputs, print the clock.

    ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
    so the parent can subtract its own reading taken before the spawn.
    """
    import_telescope()
    make_inputs(workload, seed, OUT_DIR / workload / "probe")
    print(repr(time.perf_counter()))


def measure_setup(workload, seed):
    """Median seconds from spawning a process to its first possible call."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def invoke(cli, argv):
    """One command-line call: exit code (None if it raised), stdout, seconds, stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        code = None
        err.write(repr(exc))
    return code, out.getvalue(), time.perf_counter() - start, err.getvalue()


class Checker:
    """Checks each call's output; repeated verify calls must agree byte for byte."""

    def __init__(self, workload):
        self.expected_cutoff = VERIFY_WORKLOADS.get(workload, (None, None, None))[2]
        self.first_certificate = None
        self.sample = None
        self.problems = []

    def __call__(self, op, code, stdout, stderr):
        if op.argv[0] == "verify":
            output = Path(op.argv[-1]).read_bytes() if code in (0, 1) else b""
            problems = check_certificate(code, output, op, self.expected_cutoff)
            if self.first_certificate is None:
                self.first_certificate = output
            elif output != self.first_certificate:
                problems.append("certificate bytes differ from the first call")
        else:
            output = stdout
            problems = check_word_output(code, stdout, op)
        if problems:
            if len(self.problems) < 5:
                self.problems.append({"argv": list(op.argv), "problems": problems,
                                      "stderr": stderr[-500:]})
        elif self.sample is None:
            self.sample = (op, code, output)
        return not problems

    def self_test(self):
        """Names of tampered outputs the checks failed to reject."""
        if self.sample is None:
            return ["no passing output to tamper with"]
        op, code, output = self.sample
        return self_test(code, output, op, self.expected_cutoff)


def run_loop(cli, ops, seconds, checker, host, tracer=None):
    """Closed loop over the ops until the time is up; ``host`` is probed
    between calls.

    Returns untraced durations, traced durations, attempted and failed.
    """
    plain, traced = [], []
    sides = [(plain, contextlib.nullcontext())]
    if tracer is not None:
        sides.append((traced, tracer))
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        op = ops[index % len(ops)]
        index += 1
        for durations, context in sides:
            with context:
                code, stdout, took, stderr = invoke(cli, op.argv)
            durations.append(took)
            attempted += 1
            failed += not checker(op, code, stdout, stderr)
            host.after_call(took)
        if time.perf_counter() >= deadline:
            return plain, traced, attempted, failed


def end_to_end(durations, setup_s, scale=1.0):
    """Metrics of the workload's call stream (a verify call or a word query),
    with every time multiplied by ``scale``."""
    p90 = (statistics.quantiles(durations, n=10, method="inclusive")[8]
           if len(durations) > 1 else durations[0])
    median = statistics.median(durations)
    return {
        "verify_s": (scale * median, "s"),
        "query_ms.p50": (scale * 1000 * median, "ms"),
        "query_ms.p90": (scale * 1000 * p90, "ms"),
        "queries_per_s": (len(durations) / sum(durations) / scale, "1/s"),
        "setup_s": (scale * setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def git_commit():
    """The checked-out commit, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "telescope").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args, run_id):
    return {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "load": "one process, one thread, one client (closed loop)",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    telescope = import_telescope()
    run_id = uuid.uuid4().hex
    run_dir = OUT_DIR / args.workload / f"seed{args.seed}-trace{args.trace}"
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    ops = make_inputs(args.workload, args.seed, run_dir)
    checker = Checker(args.workload)
    host = HostSpeed()
    tracer = None
    if args.trace:
        tracer = Tracer({name: getattr(telescope, name) for name in
                         ("cli", "perm", "selfsim", "tower", "certify", "words")},
                        run_id)
    plain, traced, attempted, failed = run_loop(
        telescope.cli, ops, args.seconds, checker, host, tracer)
    missed = checker.self_test()

    meta = metadata(args, run_id)
    meta.update(error_rate=failed / attempted, checker_self_test_missed=missed,
                host_scale=host.scale(), host_probes=len(host.samples))
    if tracer is None:
        metrics = end_to_end(plain, setup_s, host.scale())
        meta["unscaled"] = {name: value for name, (value, _) in
                            end_to_end(plain, setup_s).items()}
    else:
        metrics = tracer.metrics()
        untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
        metrics["trace.untraced_op_s"] = (untraced_s, "s")
        metrics["trace.traced_op_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        tracer.write(run_dir / "spans.jsonl")
        (run_dir / "layers.json").write_text(
            json.dumps(tracer.summary(), indent=1) + "\n", encoding="utf-8")

    result = {
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (run_dir / "result.json").write_text(
        json.dumps({"meta": meta, "result": result, "problems": checker.problems,
                    "durations_s": plain, "traced_durations_s": traced,
                    "host_probes_s": host.samples},
                   indent=1) + "\n", encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:<40} {value:.6g} {unit}")
    print(f"{args.workload}  {'error_rate':<40} {failed}/{attempted} = "
          f"{failed / attempted:.6g}")
    print(f"{args.workload}  {'host_scale':<40} {host.scale():.6g} "
          "(end-to-end times are measured times times this)")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
