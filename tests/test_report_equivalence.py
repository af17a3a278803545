"""``verify`` builds a report only for a failing case; these tests rebuild
the sweep and sample check entries the long way, from one full verifier
report per case (per draw, for the sample), and require the same entries.

The oracle is the assembly that folded every report.  A sweep check counts
each component's cases and failed cases, from that component's full
verifier reports, and ``fundamental_general`` lists each generator sequence's
order, from ``rec.element_order``, and bound once.  Each failing case
then contributes its parameters and first failures.  It runs on every
golden config and on drawn hand-built telescopes whose stated orders and
torsion growth are small enough that return-bound and sample cases fail.
The trace facts of every block are decided by one pass over the union of
the blocks; it is checked against each block's own one-block pass on
preset telescopes whose basepoints are all nonzero, so the blocks' rows
start at different points, on sequences of three entries, and on a
hand-built pair of blocks that both fail.
"""

import itertools
import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FixedOrder, assemble_check, scan_cases, spying_sample
from telescope import cli, tower
from telescope.cli import load_config, main, sample_words
from telescope.perm import Permutation
from telescope.selfsim import grigorchuk, gupta_sidki_3
from telescope.words import format_word, reduce_signed

GOLDEN = Path(__file__).resolve().parent / "golden"
VERIFY_CASES = ("demo_c2", "grigorchuk_1-4", "gupta_sidki_1-3", "gupta_sidki_1-4",
                "ggs5_1-4", "a5_root_1-2")

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


def assemble_sweep(name, parameters, per_component):
    """A sweep check entry from each component's full reports, in sweep order."""
    rows = [{"component": ci, "cases": len(reports),
             "failed_cases": sum(1 for report in reports if not report.passed)}
            for ci, reports in enumerate(per_component, start=1)]
    return assemble_check(name, parameters,
                          [report for reports in per_component for report in reports], rows)


def oracle_sweep_entries(tg, horizon_factor):
    """``trace_lemmas`` and ``fundamental_general`` from one full verifier
    report per case, and each sequence's order and bound."""
    sweep = cli._gseq_sweep(tg.generator_count)
    cases = [tower.sweep_case(tg, gseq) for gseq in sweep]
    trace, general = [], []
    for ci in range(len(tg.components)):
        trace.append([tower.verify_trace_lemmas(tg, ci, case, horizon_factor)
                      for case in cases])
        general.append([tower.verify_fundamental_general(tg, ci, case) for case in cases])
    orders = []
    for gseq in sweep:
        n = tg.rec.element_order(reduce_signed([code for word in gseq for code in word]))
        orders.append({"gseq": [format_word(word) for word in gseq], "order": n,
                       "bound": n * (len(gseq) + 1)})
    # every report states the sequence's order and bound
    for reports in trace + general:
        assert [{key: report.parameters[key] for key in ("gseq", "order", "bound")}
                for report in reports] == orders
    return [assemble_sweep("trace_lemmas", {"horizon_factor": horizon_factor}, trace),
            assemble_sweep("fundamental_general", {"sweep": orders}, general)]


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
    return [assemble_check("orbit_bound_sample", sampler, orbit),
            assemble_check("torsion_bound_sample", sampler, torsion)]


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


@pytest.mark.parametrize("stem", VERIFY_CASES)
def test_goldens(stem, tmp_path, capsys):
    assert_verify_matches_oracle(GOLDEN / f"{stem}.json", tmp_path / "certificate.json")
    capsys.readouterr()


def test_ggs_p5(tmp_path, capsys):
    config = tmp_path / "ggs5.json"
    config.write_text(json.dumps(GGS5))
    assert_verify_matches_oracle(config, tmp_path / "certificate.json")
    capsys.readouterr()


@pytest.mark.parametrize("stem", VERIFY_CASES)
def test_golden_sweeps_list_no_passing_case(stem):
    # a passing sweep case is only counted: after the summary come the
    # per-component counts, then failing cases alone
    doc = json.loads((GOLDEN / f"{stem}.certificate.json").read_text())
    checks = {check["name"]: check for check in doc["checks"]}
    components = len(doc["components"])
    for name in ("trace_lemmas", "fundamental_general"):
        witnesses = checks[name]["witnesses"]
        text = json.dumps(witnesses)
        assert '"status": "pass"' not in text, name
        rows = witnesses[1:components + 1]
        assert [row["component"] for row in rows] == list(range(1, components + 1))
        assert witnesses[0] == {"cases": sum(row["cases"] for row in rows),
                                "failed_cases": sum(row["failed_cases"] for row in rows)}
        assert all(set(case) == {"parameters", "failures"}
                   for case in witnesses[components + 1:]), name


def assert_checks_match_oracle(tg, horizon_factor, sample, growth):
    assert ([check.as_dict() for check in cli._sweep_checks(tg, horizon_factor)]
            == oracle_sweep_entries(tg, horizon_factor))
    assert ([check.as_dict() for check in cli._sample_checks(sample, tg, growth)]
            == oracle_sample_entries(sample, tg, growth))


# blocks of 4 and 3 points: g1 is the 3-cycle (0 1 2) on the first base and
# the transposition (0 1) on the second, each with its fresh point, and its
# stated order is 1.  A torsion growth of 2, 1, 1 puts the limits of
# lengths 1 and 3 at 4, the largest block's degree, so they are settled;
# length 2's limit, 3, reaches only the smaller block, and t g1, the
# 4-cycle (0 1 2 3) on the first block, fails both bounds there
EDGE_TG = tower.TelescopeGroup(
    (tower.ExtendedAction([Permutation.from_cycles(3, [(0, 1, 2)])], 0),
     tower.ExtendedAction([Permutation.from_cycles(2, [(0, 1)])], 0)),
    ("g1",), FixedOrder(1))
EDGE_SAMPLE = SimpleNamespace(sample_count=40, sample_max_length=3, seed=5)
EDGE_GROWTH = [2, 1, 1, 1]


def test_the_edge_sample_draws_settled_and_unsettled_lengths(monkeypatch):
    # the settled lengths 1 and 3 compose nothing, and the unsettled
    # length 2 composes each distinct word once, in first-draw order; its
    # failures are assembled like the oracle's
    growth = dict(enumerate(EDGE_GROWTH, start=1))
    words = sample_words(EDGE_SAMPLE.sample_count, EDGE_SAMPLE.sample_max_length, 1,
                         EDGE_SAMPLE.seed)
    assert {len(word) for word in words} == {1, 2, 3}
    _, composed = spying_sample(monkeypatch)
    entries = [entry.as_dict() for entry in cli._sample_checks(EDGE_SAMPLE, EDGE_TG, growth)]
    assert composed == list(dict.fromkeys(word for word in words if len(word) == 2))
    assert [entry["status"] for entry in entries] == ["fail", "fail"]
    assert entries == oracle_sample_entries(EDGE_SAMPLE, EDGE_TG, growth)


@settings(max_examples=150, deadline=None)
@given(scan_cases(), st.integers(0, 40), st.integers(1, 4), st.integers(0, 2 ** 16),
       st.lists(st.integers(1, 3), min_size=4, max_size=4))
@example((EDGE_TG, 0, [(1,)], 1), EDGE_SAMPLE.sample_count, EDGE_SAMPLE.sample_max_length,
         EDGE_SAMPLE.seed, EDGE_GROWTH)
@example((EDGE_TG, 1, [(1,), (-1,)], 2), EDGE_SAMPLE.sample_count,
         EDGE_SAMPLE.sample_max_length, EDGE_SAMPLE.seed, [1, 1, 1, 1])
def test_hand_built_telescopes(case, count, max_length, seed, growth):
    # the stated order N and the torsion growth are drawn small, so some
    # return-bound and sample cases fail and get their reports built; the
    # examples draw the edge sample, whose lengths 1 and 3 are settled and
    # length 2 is not, and the same draws with only length 3 settled
    tg, _, _, horizon_factor = case
    sample = SimpleNamespace(sample_count=count, sample_max_length=max_length, seed=seed)
    assert_checks_match_oracle(tg, horizon_factor, sample,
                               dict(enumerate(growth, start=1)))


def test_failing_cases_are_assembled_like_the_oracle():
    # g = (0 1 2) plus the fresh point 3 with a stated order of 1: every
    # bound N(k+1) is at most 3, and the block t g is the 4-cycle
    # (0 1 2 3), so return-bound cases fail; a torsion growth of 1 makes
    # sample draws fail as well
    g = Permutation.from_cycles(3, [(0, 1, 2)])
    tg = tower.TelescopeGroup((tower.ExtendedAction([g], 0),), ("g1",), FixedOrder(1))
    sample = SimpleNamespace(sample_count=60, sample_max_length=3, seed=5)
    growth = {1: 1, 2: 1, 3: 1}
    sweeps = [check.as_dict() for check in cli._sweep_checks(tg, 1)]
    samples = [check.as_dict() for check in cli._sample_checks(sample, tg, growth)]
    for entry in sweeps[1:] + samples:
        assert entry["status"] == "fail", entry["name"]
        assert entry["witnesses"][0]["failed_cases"] > 0, entry["name"]
    assert_checks_match_oracle(tg, 1, sample, growth)


def assert_union_pass_matches_blocks(tg, case, horizon_factor):
    # the one pass over every block against each block's own report
    own = [tower.verify_trace_lemmas(tg, ci, case, horizon_factor)
           for ci in range(len(tg.components))]
    assert tower.failing_trace_reports(tg, case, horizon_factor) == {
        ci: report for ci, report in enumerate(own) if not report.passed}


PRESET_TOWERS = [(grigorchuk(), [1, 2, 3, 4]), (gupta_sidki_3(), [1, 2, 3])]


def nonzero_basepoints(rec, levels, rng):
    return [rng.randrange(1, rec.arity ** level) for level in levels]


@pytest.mark.parametrize("rec, levels", PRESET_TOWERS)
def test_sweeps_with_nonzero_basepoints(rec, levels):
    # every block's basepoint is drawn nonzero, so no two blocks start
    # their rows at the same block point
    rng = random.Random(35)
    for _ in range(3):
        tg = tower.build_telescope(rec, levels, nonzero_basepoints(rec, levels, rng))
        for horizon_factor in (1, 2, 3):
            assert ([check.as_dict() for check in cli._sweep_checks(tg, horizon_factor)]
                    == oracle_sweep_entries(tg, horizon_factor))


@pytest.mark.parametrize("rec, levels", PRESET_TOWERS)
def test_three_entry_sequences_with_nonzero_basepoints(rec, levels):
    # k = 3 gives each block two tailed rows, each patched at its own
    # basepoint's tail prefixes
    tg = tower.build_telescope(rec, levels, nonzero_basepoints(rec, levels, random.Random(3)))
    singles = [(g,) for g in range(1, rec.generator_count + 1)]
    for gseq in itertools.product(singles, repeat=3):
        case = tower.sweep_case(tg, list(gseq))
        for horizon_factor in (1, 2, 3):
            assert_union_pass_matches_blocks(tg, case, horizon_factor)


@settings(max_examples=200, deadline=None)
@given(scan_cases())
def test_hand_built_union_pass(case):
    tg, _, gseq, horizon_factor = case
    assert_union_pass_matches_blocks(tg, tower.sweep_case(tg, gseq), horizon_factor)


# blocks of 4 and 5 points with basepoints 1 and 2: g1 is the 3-cycle
# (0 1 2) on the first base and the 4-cycle (0 1 2 3) on the second, and
# its stated order is 1, so every case of both blocks breaks all three
# trace facts
TWO_FAILING_TG = tower.TelescopeGroup(
    (tower.ExtendedAction([Permutation.from_cycles(3, [(0, 1, 2)])], 1),
     tower.ExtendedAction([Permutation.from_cycles(4, [(0, 1, 2, 3)])], 2)),
    ("g1",), FixedOrder(1))


@pytest.mark.parametrize("horizon_factor", [1, 2, 3])
def test_two_failing_blocks(horizon_factor):
    entry = cli._sweep_checks(TWO_FAILING_TG, horizon_factor)[0].as_dict()
    assert entry["witnesses"][:3] == [{"cases": 4, "failed_cases": 4},
                                      {"component": 1, "cases": 2, "failed_cases": 2},
                                      {"component": 2, "cases": 2, "failed_cases": 2}]
    for case in entry["witnesses"][3:]:
        assert {row["check"] for row in case["failures"]} == {
            "basepoint_returns", "trace_stays_clear", "pigeonhole_pair"}
    assert entry == oracle_sweep_entries(TWO_FAILING_TG, horizon_factor)[0]
    for gseq in ([(1,)], [(1,), (1,)], [(1,), (-1,), (1,)]):
        assert_union_pass_matches_blocks(
            TWO_FAILING_TG, tower.sweep_case(TWO_FAILING_TG, gseq), horizon_factor)
