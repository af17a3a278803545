"""The deep rungs: one table of ``telescope`` runs on telescopes deeper than
the golden ones, each in a fresh child under the time limit it must meet.

A cold process is what the limits measure; in this process the preset
recursions would keep the caches of earlier tests.  Each check is a
function of one ``Run``, so the self-tests at the end can feed it golden
certificates and tampered copies of them.  ``pytest tests/test_rungs.py -k
gs6`` runs one rung.
"""

import json
import re
import subprocess
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import pytest

from conftest import src_env, walk_fundamental_general, walk_trace_lemmas
from telescope import cli, tower

GOLDEN = Path(__file__).resolve().parent / "golden"
NOTE = "note: every failure is a counterexample to the stated pigeonhole trace fact"
UNSETTLED = """import sys
from telescope import cli, tower
tower.bounds_settled = lambda longest, limit: False
sys.exit(cli.main(sys.argv[1:]))
"""


@dataclass(frozen=True)
class Run:
    """What one command printed and wrote, and the limit it ran under."""
    config_path: Path
    code: int
    out: str
    err: str = ""
    raw: bytes = b""
    limit: int = 0

    @property
    def config(self):
        return json.loads(self.config_path.read_text())

    @property
    def doc(self):
        return json.loads(self.raw)


def run_telescope(command, config_path, limit, out="certificate.json", script=None,
                  hash_seed=None):
    """``python -m telescope command``, or ``python -c script command``, on the
    config in a fresh child; a verify writes ``out`` beside the config."""
    env = src_env()
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    out_path = config_path.with_name(out)
    head = ["-m", "telescope"] if script is None else ["-c", script]
    argv = [command, "--config", str(config_path)]
    if command == "verify":
        argv += ["--out", str(out_path)]
    done = subprocess.run([sys.executable, *head, *argv], capture_output=True, text=True,
                          env=env, timeout=limit)
    return Run(config_path, done.returncode, done.stdout, done.stderr,
               out_path.read_bytes() if out_path.exists() else b"", limit)


def encode(doc):
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode("ascii")


def entry(doc, name):
    return next(check for check in doc["checks"] if check["name"] == name)


# --- the checks, each written once -----------------------------------------

def pigeonhole_note(run):
    """Exit 1 only for the pigeonhole counterexamples, as the note says."""
    assert run.code == 1
    assert any(line.startswith(NOTE) for line in run.out.splitlines()), run.out


def own_encoding(run):
    assert run.raw == encode(run.doc)


# |G/St(n)|: Grigorchuk 2^(5*2^(n-3)+2) from level 3 on, and Gupta-Sidki
# 3 at level 1 and 3^(2*3^(n-2)+1) from level 2 on
QUOTIENT_ORDERS = {
    "grigorchuk": {n: 2 ** (5 * 2 ** (n - 3) + 2) for n in range(3, 9)},
    "gupta-sidki-3": {1: 3, 2: 3 ** 3, 3: 3 ** 7, 4: 3 ** 19, 5: 3 ** 55, 6: 3 ** 163},
}


def quotient_orders(run):
    scan = entry(run.doc, "perfectness_scan")
    orders = {row["level"]: w["quotient_order"]
              for row, w in zip(run.doc["components"], scan["witnesses"])}
    known = QUOTIENT_ORDERS[run.config["group"]]
    expected = {n: known[n] for n in run.config["levels"] if n in known}
    assert {n: orders.get(n) for n in expected} == expected


def sweeps_match_the_walkers(run):
    """Both sweep checks' summaries, per-component rows and first failing
    cases are those of the point walkers in ``conftest``, which compose each
    image one factor at a time on one block and walk each point letter by
    letter (so the rows also sum to the summary)."""
    config = cli.load_config(run.config_path)
    tg = tower.build_telescope(config.recursion, config.levels, config.basepoints)
    walkers = {"trace_lemmas": partial(walk_trace_lemmas, horizon_factor=config.horizon_factor),
               "fundamental_general": walk_fundamental_general}
    for name, walk in walkers.items():
        reports, rows = [], []
        for ci in range(len(tg.components)):
            mine = [walk(tg, ci, gseq) for gseq in cli._gseq_sweep(tg.generator_count)]
            reports += mine
            rows.append({"component": ci + 1, "cases": len(mine),
                         "failed_cases": sum(not r.passed for r in mine)})
        failing = [report for report in reports if not report.passed]
        summary, *listed = entry(run.doc, name)["witnesses"]
        assert summary == {"cases": len(reports), "failed_cases": len(failing)}, name
        assert [w for w in listed if "component" in w] == rows, name
        assert [w for w in listed if "failures" in w] == [
            {"parameters": report.parameters,
             "failures": report.witnesses[:cli.MAX_FAILURES]}
            for report in failing[:cli.MAX_FAILURES]], name


def no_failed_sample(cases=None):
    """Both sample checks count ``cases`` draws (any, if None), none failed."""
    def no_failed_sample(run):
        for name in ("orbit_bound_sample", "torsion_bound_sample"):
            summary = entry(run.doc, name)["witnesses"][0]
            assert summary["failed_cases"] == 0 and cases in (None, summary["cases"]), name
    return no_failed_sample


def growth_column(*values):
    """The torsion_bound_table lists T(n) = ``values[n - 1]`` for n = 1, 2, ..."""
    def growth_column(run):
        table = run.doc["torsion_bound_table"]
        assert [row["torsion_growth"] for row in table] == list(values)
    return growth_column


def pigeonhole_only(run):
    """Only trace_lemmas fails, and only with pigeonhole_pair rows."""
    doc = run.doc
    assert [c["name"] for c in doc["checks"] if c["status"] == "fail"] == ["trace_lemmas"]
    assert {row["check"] for case in entry(doc, "trace_lemmas")["witnesses"][1:]
            for row in case.get("failures", ())} == {"pigeonhole_pair"}


def unsettled_same_bytes(run):
    """With ``tower.bounds_settled`` patched to settle nothing, every draw is
    composed and every distinct word goes through both verifiers."""
    again = run_telescope("verify", run.config_path, run.limit, "unsettled.json", UNSETTLED)
    assert (again.code, again.raw) == (1, run.raw)


def same_under_hash_seeds(run):
    for seed in (0, 12345):
        again = run_telescope("verify", run.config_path, run.limit, f"seed-{seed}.json",
                              hash_seed=seed)
        pigeonhole_note(again)
        assert again.raw == run.raw, seed


def one_row_per_component(run):
    rows = [line for line in run.out.splitlines() if re.match(r" +[0-9]+ +[0-9]+ ", line)]
    assert len(rows) == len(run.config["levels"]), run.out


# --- the rungs ---------------------------------------------------------------

def levels(group, depth, **more):
    return {"group": group, "levels": list(range(1, depth + 1)), **more}


GGS5 = {"arity": 5, "generators": ["a", "b"], "root_perms": {"a": "(0 1 2 3 4)", "b": ""},
        "sections": {"a": ["", "", "", "", ""], "b": ["a", "a a", "a a a", "a a a a", "b"]},
        "contracting": True}


@pytest.mark.parametrize("command, config, limit, code, checks", [
    # every component checks its base action by one orbit of 0 when it is
    # made: 16,384 points at Grigorchuk level 14, 6,561 at Gupta-Sidki level 8
    pytest.param("build", levels("grigorchuk", 14), 30, 0, [one_row_per_component],
                 id="build-grig14"),
    pytest.param("build", levels("gupta-sidki-3", 8), 30, 0, [one_row_per_component],
                 id="build-gs8"),
    # the deepest rung the certifier must reach in seconds
    pytest.param("verify", levels("grigorchuk", 8), 120, 1,
                 [pigeonhole_note, own_encoding, quotient_orders], id="grig8"),
    # one sweep case per generator sequence on the union of the blocks, up
    # to 513 points each
    pytest.param("verify", levels("grigorchuk", 9), 120, 1, [sweeps_match_the_walkers],
                 id="grig9-walkers"),
    # basepoint 2^L - 1 on level L, so the one trace pass over the union
    # decides blocks whose rows all start away from point 0; every shipped
    # config and golden uses basepoint 0
    pytest.param("verify", levels("grigorchuk", 7, basepoints=[1, 3, 7, 15, 31, 63, 127]),
                 120, 1, [sweeps_match_the_walkers], id="grig7-basepoints"),
    pytest.param("verify", levels("gupta-sidki-3", 6), 60, 1,
                 [pigeonhole_note, own_encoding, quotient_orders], id="gs6"),
    # each distinct element of the sample is walked once, each distinct word
    # decided once by its longest cycle; lengths 2..6 have limits that reach
    # the largest block (33 points), so their draws are only counted
    pytest.param("verify", levels("grigorchuk", 5,
                                  word_sample={"count": 5000, "max_length": 6}), 60, 1,
                 [pigeonhole_note, no_failed_sample(5000), unsettled_same_bytes],
                 id="grig5-sample"),
    # the limits of lengths 1..4 are 6, 27, 36 and 135 against a largest
    # block of 82 points, so lengths 1..3 are decided by each element's
    # longest cycle
    pytest.param("verify", levels("gupta-sidki-3", 4,
                                  word_sample={"count": 2000, "max_length": 4}), 60, 1,
                 [no_failed_sample(2000), unsettled_same_bytes], id="gs4-sample"),
    # T(1..12), each from its own ball search, the cold path of a verify
    # with long sample words
    pytest.param("verify", levels("gupta-sidki-3", 4,
                                  word_sample={"count": 200, "max_length": 12}), 60, 1,
                 [pigeonhole_note,
                  growth_column(3, 9, 9, 27, 27, 27, 27, 27, 27, 81, 81, 81)],
                 id="gs4-growth12"),
    # the GGS group with p = 5 and e = (1, 2, 3, 4) as an inline table
    pytest.param("verify", levels(GGS5, 4), 60, 1,
                 [pigeonhole_note, own_encoding, same_under_hash_seeds, pigeonhole_only,
                  no_failed_sample()], id="ggs5"),
])
def test_rung(tmp_path, command, config, limit, code, checks):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    run = run_telescope(command, config_path, limit)
    assert run.code == code, run.out + run.err
    for check in checks:
        check(run)


# --- each check rejects a tampered golden certificate -----------------------

def golden(stem):
    code, out = (GOLDEN / f"{stem}.stdout").read_text().split("\n", 1)
    return Run(GOLDEN / f"{stem}.json", int(code.removeprefix("exit ")), out,
               raw=(GOLDEN / f"{stem}.certificate.json").read_bytes())


def note_dropped(run):
    return replace(run, out=run.out.replace(NOTE, ""))


def space_added(run):
    return replace(run, raw=run.raw.replace(b"{", b"{ ", 1))


def order_times_p(run):
    doc = run.doc
    # component 1 is level 1, whose degree is the arity p
    entry(doc, "perfectness_scan")["witnesses"][-1]["quotient_order"] *= (
        doc["components"][0]["base_degree"])
    return replace(run, raw=encode(doc))


def sample_failed(run):
    doc = run.doc
    entry(doc, "torsion_bound_sample")["witnesses"][0]["failed_cases"] = 1
    return replace(run, raw=encode(doc))


def growth_doubled(run):
    doc = run.doc
    doc["torsion_bound_table"][-1]["torsion_growth"] *= 2
    return replace(run, raw=encode(doc))


def row_stays_clear(run):
    doc = run.doc
    case = next(w for w in entry(doc, "trace_lemmas")["witnesses"] if "failures" in w)
    case["failures"][0]["check"] = "trace_stays_clear"
    return replace(run, raw=encode(doc))


def failing_case_dropped(run):
    doc = run.doc
    witnesses = entry(doc, "trace_lemmas")["witnesses"]
    witnesses.remove(next(w for w in witnesses if "failures" in w))
    return replace(run, raw=encode(doc))


@pytest.mark.parametrize("check, stem, tamper", [
    (pigeonhole_note, "ggs5_1-4", note_dropped),
    (own_encoding, "grigorchuk_1-4", space_added),
    (own_encoding, "gupta_sidki_1-3", space_added),
    (own_encoding, "ggs5_1-4", space_added),
    (quotient_orders, "grigorchuk_1-4", order_times_p),
    (quotient_orders, "gupta_sidki_1-3", order_times_p),
    (no_failed_sample(100), "grigorchuk_1-4", sample_failed),
    (no_failed_sample(), "ggs5_1-4", sample_failed),
    (growth_column(2, 16, 16, 16), "grigorchuk_1-4", growth_doubled),
    (growth_column(5, 25, 25, 125), "ggs5_1-4", growth_doubled),
    (pigeonhole_only, "ggs5_1-4", row_stays_clear),
    (sweeps_match_the_walkers, "grigorchuk_1-4", failing_case_dropped),
])
def test_check_rejects_a_tampered_golden(check, stem, tamper):
    run = golden(stem)
    check(run)
    with pytest.raises(AssertionError):
        check(tamper(run))
