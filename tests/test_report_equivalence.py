"""``verify`` builds a report only for a failing case; these tests rebuild
the sweep and sample check entries the long way, from one full verifier
report per case (per draw, for the sample), and require the same entries.

The oracle is the assembly that folded every report: each passing case of
a check listed per case contributes its parameters and witness count, and
each failing case its parameters and first failures.  It runs on the
golden configs, on an arity-5 GGS table, and on drawn hand-built
telescopes whose stated orders and torsion growth are small enough that
return-bound and sample cases fail.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FixedOrder, scan_cases
from telescope import cli, tower
from telescope.cli import MAX_FAILURES, load_config, main, sample_words
from telescope.perm import Permutation

GOLDEN = Path(__file__).resolve().parent / "golden"

# the GGS group with p = 5 and defining vector e = (1, 2, 3, 4): a is the
# root 5-cycle and b's sections are a, a^2, a^3, a^4, b
GGS5 = {
    "group": {
        "arity": 5,
        "generators": ["a", "b"],
        "root_perms": {"a": "(0 1 2 3 4)", "b": ""},
        "sections": {"a": ["", "", "", "", ""],
                     "b": ["a", "a a", "a a a", "a a a a", "b"]},
        "contracting": True,
    },
    "levels": [1, 2, 3, 4],
}


def assemble(name, parameters, reports, per_case):
    """One check entry folded from every case's full report."""
    rows = []
    failing = []
    for report in reports:
        if not report.passed:
            if len(failing) < MAX_FAILURES:
                failing.append({"parameters": report.parameters,
                                "failures": report.witnesses[:MAX_FAILURES]})
        elif per_case:
            rows.append({"parameters": report.parameters, "status": "pass",
                         "witnesses": len(report.witnesses)})
    summary = {"cases": len(reports),
               "failed_cases": sum(1 for report in reports if not report.passed)}
    return {"name": name, "parameters": dict(parameters),
            "status": "pass" if all(report.passed for report in reports) else "fail",
            "witnesses": [summary] + rows + failing}


def oracle_sweep_entries(tg, horizon_factor):
    """``trace_lemmas`` and ``fundamental_general`` from one full report per case."""
    trace, general = [], []
    for ci in range(len(tg.components)):
        for gseq in cli._gseq_sweep(tg.generator_count):
            trace.append(tower.verify_trace_lemmas(tg, ci, gseq,
                                                   horizon_factor=horizon_factor))
            general.append(tower.verify_fundamental_general(tg, ci, gseq))
    return [assemble("trace_lemmas", {"horizon_factor": horizon_factor}, trace, True),
            assemble("fundamental_general", {}, general, True)]


def oracle_sample_entries(config, tg, growth):
    """``orbit_bound_sample`` and ``torsion_bound_sample`` from both full
    reports of every draw, each word evaluated on its own."""
    sampler = {"sampler": cli.SAMPLER_NAME, "seed": config.seed,
               "count": config.sample_count, "max_length": config.sample_max_length}
    orbit, torsion = [], []
    for word in sample_words(config.sample_count, config.sample_max_length,
                             tg.generator_count, config.seed):
        images = tg.evaluate(word)
        orbit.append(tower.verify_orbit_bound(word, images, growth[len(word)]))
        torsion.append(tower.verify_torsion_bound(word, images, growth[len(word)]))
    return [assemble("orbit_bound_sample", sampler, orbit, False),
            assemble("torsion_bound_sample", sampler, torsion, False)]


def assert_verify_matches_oracle(config_path, out_path):
    assert main(["verify", "--config", str(config_path), "--out", str(out_path)]) in (0, 1)
    checks = {check["name"]: check for check in json.loads(out_path.read_text())["checks"]}
    config = load_config(config_path)
    tg = tower.build_telescope(config.recursion, config.levels, config.basepoints)
    growth = {n: config.recursion.torsion_growth(n)
              for n in range(1, config.sample_max_length + 1)}
    expected = (oracle_sweep_entries(tg, config.horizon_factor)
                + oracle_sample_entries(config, tg, growth))
    for entry in expected:
        assert checks[entry["name"]] == entry, entry["name"]


@pytest.mark.parametrize("stem", ("demo_c2", "grigorchuk_1-4", "gupta_sidki_1-3",
                                  "gupta_sidki_1-4"))
def test_goldens(stem, tmp_path, capsys):
    assert_verify_matches_oracle(GOLDEN / f"{stem}.json", tmp_path / "certificate.json")
    capsys.readouterr()


def test_ggs_p5(tmp_path, capsys):
    config = tmp_path / "ggs5.json"
    config.write_text(json.dumps(GGS5))
    assert_verify_matches_oracle(config, tmp_path / "certificate.json")
    capsys.readouterr()


def assert_checks_match_oracle(tg, horizon_factor, sample, growth):
    assert cli._sweep_checks(tg, horizon_factor) == oracle_sweep_entries(tg, horizon_factor)
    assert (cli._sample_checks(sample, tg, growth)
            == oracle_sample_entries(sample, tg, growth))


@settings(max_examples=150, deadline=None)
@given(scan_cases(), st.integers(0, 40), st.integers(1, 4), st.integers(0, 2 ** 16),
       st.lists(st.integers(1, 3), min_size=4, max_size=4))
def test_hand_built_telescopes(case, count, max_length, seed, growth):
    # the stated order N and the torsion growth are drawn small, so some
    # return-bound and sample cases fail and get their reports built
    tg, _, _, horizon_factor, _ = case
    sample = SimpleNamespace(sample_count=count, sample_max_length=max_length, seed=seed)
    assert_checks_match_oracle(tg, horizon_factor, sample,
                               dict(enumerate(growth, start=1)))


def test_failing_cases_are_assembled_like_the_oracle():
    # g = (0 1 2) plus the fresh point 3 with a stated order of 1: every
    # bound N(k+1) is at most 3, and the block t g is the 4-cycle
    # (0 1 2 3), so return-bound cases fail; a torsion growth of 1 makes
    # sample draws fail as well
    g = Permutation.from_cycles(3, [(0, 1, 2)])
    tg = tower.TelescopeGroup((tower.extend_action([g], 0),), ("g1",), FixedOrder(1))
    sample = SimpleNamespace(sample_count=60, sample_max_length=3, seed=5)
    growth = {1: 1, 2: 1, 3: 1}
    sweeps = cli._sweep_checks(tg, 1)
    samples = cli._sample_checks(sample, tg, growth)
    for entry in sweeps[1:] + samples:
        assert entry["status"] == "fail", entry["name"]
        assert entry["witnesses"][0]["failed_cases"] > 0, entry["name"]
    assert_checks_match_oracle(tg, 1, sample, growth)
