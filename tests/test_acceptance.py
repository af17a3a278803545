"""Acceptance suite: one test (or pair of tests) per numbered criterion.

Each criterion runs at its stated tolerance and budget; the conftest hook
prints one PASS/FAIL line per criterion at the end of the session.

Two stated reference constants are asserted exactly as documented even
though this library's computations (and the independent oracles here)
disagree with them; those tests fail deliberately rather than silently
substituting the computed values.  See README, section "Known red checks".
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import brute_closure, level_image, src_env
from telescope.certify import alt_cutoff, check_subdirect
from telescope.cli import sample_words
from telescope.perm import PermGroup, Permutation
from telescope.selfsim import grigorchuk
from telescope.tower import (build_telescope, divides_factorial, extend_action,
                             TelescopeGroup, verify_fundamental_general,
                             verify_trace_lemmas)
from telescope.words import Letter, Word

REPO = Path(__file__).resolve().parents[1]
DEMO_CONFIG = REPO / "configs" / "demo_c2.json"


@pytest.fixture(scope="module")
def grig():
    return grigorchuk()


@pytest.fixture(scope="module")
def grig1234(grig):
    return build_telescope(grig, [1, 2, 3, 4])


def gseq_sweep():
    singles = [Word([Letter(i)]) for i in range(4)]
    return [[w] for w in singles] + [[u, v] for u in singles for v in singles]


def ball_scan_max_order(rec, radius, level=8):
    """Independent torsion-growth oracle: enumerate reduced words and take
    the maximum order of their deep level images."""
    letters = [s for i in range(rec.generator_count) for s in (i + 1, -(i + 1))]
    words = [()]
    frontier = [()]
    for _ in range(radius):
        new = []
        for word in frontier:
            for letter in letters:
                if word and word[-1] == -letter:
                    continue
                new.append(word + (letter,))
        words.extend(new)
        frontier = new
    return max(level_image(rec, w, level).order() for w in words)


def test_criterion_1_engine_matches_brute_force_closure():
    started = time.perf_counter()
    rng = random.Random(20240809)
    for _ in range(50):
        degree = rng.randrange(1, 8)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(images))
        group = PermGroup(gens)
        closure = brute_closure(gens)
        assert group.order() == len(closure)
        for _ in range(40):
            images = list(range(degree))
            rng.shuffle(images)
            candidate = Permutation(images)
            assert group.contains(candidate) == (candidate.images in closure)
    assert time.perf_counter() - started < 10


def test_criterion_2_return_bound_exhaustive(grig1234):
    started = time.perf_counter()
    for ci in range(4):
        for gseq in gseq_sweep():
            report = verify_fundamental_general(grig1234, ci, gseq)
            assert report.passed, (ci, [str(w) for w in gseq], report.witnesses)
    assert time.perf_counter() - started < 120


def test_criterion_3_trace_suite_clear_and_return_parts(grig1234):
    started = time.perf_counter()
    for ci in range(4):
        for gseq in gseq_sweep():
            report = verify_trace_lemmas(grig1234, ci, gseq, horizon_factor=2)
            offending = [w for w in report.witnesses
                         if w.get("check") in ("trace_stays_clear",
                                               "basepoint_returns")]
            assert not offending, (ci, [str(w) for w in gseq], offending)
    assert time.perf_counter() - started < 300


def test_criterion_3_trace_suite_pigeonhole_part_as_stated(grig1234):
    """The stated pigeonhole trace fact, verified literally.

    This fails: the fact as documented admits counterexamples (smallest:
    the one-involution extension on three points, where for xi = p the
    value w(N(k+1),0).xi is reached by w(m,0).p for exactly one m below
    N(k+1)).  The sweep below surfaces the same violations on the
    Grigorchuk tower.  Kept failing on purpose; see README.
    """
    violations = []
    for ci in range(4):
        for gseq in gseq_sweep():
            report = verify_trace_lemmas(grig1234, ci, gseq, horizon_factor=2)
            violations.extend(
                (ci + 1, [str(w) for w in gseq], w["point"], w["partial"])
                for w in report.witnesses if w.get("check") == "pigeonhole_pair")
    assert not violations, (
        f"{len(violations)} counterexamples to the stated pigeonhole fact, "
        f"first: component {violations[0][0]}, gseq {violations[0][1]}, "
        f"point {violations[0][2]}, partial index {violations[0][3]}")


def test_criterion_4_torsion_bound_on_sampled_words(grig, grig1234):
    started = time.perf_counter()
    growth = {n: grig.torsion_growth(n) for n in range(1, 6)}
    assert growth[1] == 2
    assert growth[1] == ball_scan_max_order(grig, 1)
    words = sample_words(500, 5, 4, seed=20240809)
    assert len(words) == 500
    for word in words:
        n = len(word)
        order = grig1234.order_in_truncation(word)
        assert divides_factorial(order, growth[n] * (n + 1)), (str(word), order)
    assert time.perf_counter() - started < 120


def test_criterion_4_stated_torsion_growth_at_radius_two(grig):
    """Documented reference value T(2) = 8, asserted as stated.

    This fails: the recursion and the independent ball-scan oracle both
    give T(2) = 16 (the ball of radius 2 contains an element of order 16).
    Kept failing on purpose; see README.
    """
    computed = grig.torsion_growth(2)
    oracle = ball_scan_max_order(grig, 2)
    assert computed == oracle == 8, (
        f"stated T(2) = 8, but torsion_growth(2) = {computed} and the "
        f"ball-scan oracle gives {oracle}")


def test_criterion_5_subdirect_orders_exact(grig1234):
    started = time.perf_counter()
    report = check_subdirect(grig1234)
    assert report.passed
    orders = [w["order"] for w in report.witnesses]
    assert orders == [math.factorial(3), math.factorial(5),
                      math.factorial(9), math.factorial(17)]
    # the three-cycle extension witness: <(0 1 2), (2 3)> is all of Sym(4)
    c3 = TelescopeGroup((extend_action([Permutation.from_cycles(3, [(0, 1, 2)])], 2),),
                        ("r",))
    witness = check_subdirect(c3)
    assert witness.passed and witness.witnesses[0]["order"] == 24
    closure = brute_closure([Permutation.from_cycles(4, [(0, 1, 2)]),
                             Permutation.from_cycles(4, [(2, 3)])])
    assert len(closure) == 24
    assert time.perf_counter() - started < 30


def test_criterion_6_alternating_cutoff(grig1234):
    started = time.perf_counter()
    report, cutoff, kernel_gens = alt_cutoff(grig1234)
    assert report.passed and cutoff is not None
    for witness in report.witnesses[1:]:
        if witness["component"] >= cutoff:
            assert witness["full_alternating"]
            expected = math.factorial(witness["extended_degree"]) // 2
            assert witness["kernel_projection_order"] == expected
    assert kernel_gens
    for element in kernel_gens:
        assert all(p.sign() == 1 for p in element)
    assert time.perf_counter() - started < 120


def test_criterion_7_order_oracle_on_radius_three_ball(grig):
    started = time.perf_counter()
    ball = grig.ball(3)
    for word in ball:
        assert grig.element_order(word) == level_image(grig, word, 8).order()
    for name in "abcd":
        assert grig.element_order(grig.parse(name)) == 2
    assert time.perf_counter() - started < 60


def test_criterion_7_stated_order_of_ab(grig):
    """Documented reference value ord(ab) = 8, asserted as stated.

    This fails: the recursive order computation and the stabilized order
    of the level-8 image both give 16.  (The level-image order is 8 at
    levels 3 and 4 and climbs to 16 at level 5, which is presumably where
    the documented value came from.)  Kept failing on purpose; see README.
    """
    ab = grig.parse("a b")
    recursive = grig.element_order(ab)
    stabilized = level_image(grig, ab, 8).order()
    assert recursive == stabilized == 8, (
        f"stated ord(ab) = 8, but the recursion gives {recursive} and the "
        f"level-8 image has order {stabilized}")


def test_criterion_8_demo_certificates_are_byte_identical(tmp_path):
    out_path = tmp_path / "cert.json"

    def run():
        result = subprocess.run(
            [sys.executable, "-m", "telescope", "verify",
             "--config", str(DEMO_CONFIG), "--out", str(out_path)],
            capture_output=True, text=True, cwd=REPO, env=src_env())
        return result.stdout, out_path.read_bytes()

    first_out, first_bytes = run()
    second_out, second_bytes = run()
    assert first_out == second_out
    assert first_bytes == second_bytes
