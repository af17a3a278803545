"""Acceptance suite: one test (or pair of tests) per numbered criterion.

Each criterion runs at its stated tolerance and budget; the conftest hook
prints one PASS/FAIL line per criterion at the end of the session.

Three criteria once carried stated values that exact computation refutes:
ord(ab) = 8 and T(2) = 8 for the Grigorchuk preset, and a pigeonhole trace
fact without counterexamples.  The tests for them now assert the values
derived by hand (ord(ab) = 16, T(2) = 16, and the pigeonhole fact's exact
counterexample set from an independent oracle), and each also records
where the stated value went wrong.  See README, section "Corrected
reference values".

The last test is not a numbered criterion: it pins the Grigorchuk [1..6]
rung, which the Sym/Alt recognition theorems brought within seconds.
"""

import contextlib
import io
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

from conftest import brute_closure, level_image, schreier_sign_kernel, src_env
from telescope.certify import alt_cutoff, check_subdirect, sign_vectors
from telescope.cli import main, sample_words
from telescope.perm import PermGroup, Permutation
from telescope.selfsim import grigorchuk
from telescope.tower import (ExtendedAction, divides_factorial, sweep_case,
                             TelescopeGroup, verify_fundamental_general,
                             verify_trace_lemmas)
from telescope.words import format_word

REPO = Path(__file__).resolve().parents[1]
DEMO_CONFIG = REPO / "configs" / "demo_c2.json"


def gseq_sweep():
    singles = [(i,) for i in range(1, 5)]
    return [[w] for w in singles] + [[u, v] for u in singles for v in singles]


def reduced_words(rec, radius):
    """All freely reduced signed words of length at most ``radius``."""
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
    return words


def ball_scan_max_order(rec, radius, level=8):
    """Independent torsion-growth oracle: enumerate reduced words and take
    the maximum order of their deep level images."""
    return max(level_image(rec, w, level).order() for w in reduced_words(rec, radius))


def pigeonhole_counterexamples(rec, levels, gseqs, horizon_factor, depth=8):
    """Independent oracle for the stated pigeonhole trace fact.

    Blocks are built by hand from the conftest level images: each component
    is the level action plus one fresh point q, with tau = (0 q) (basepoint
    0, as ``build_telescope`` defaults).  For every point whose trace along
    w(H, j) = (t g1 ... t gk)^H t g1 ... t gj hits the basepoint (H the
    horizon, traces read along nonempty terminal subwords), the literal
    statement asks for m1 < m2 < N(k+1) and some j' with
    w(N(k+1), 0).point = w(m1, j').p = w(m2, j').p, N the order of
    g1...gk (from the level-``depth`` image).  Returns the set of
    (component, gseq names, point, j) for which no such pair exists.
    """
    found = set()
    p = 0
    for component, level in enumerate(levels, start=1):
        for gseq in gseqs:
            images = [level_image(rec, w, level).images for w in gseq]
            q = len(images[0])
            tau = tuple(q if x == p else p if x == q else x for x in range(q + 1))
            atoms = []
            for image in images:
                atoms += [tau, image + (q,)]
            k = len(gseq)
            order = level_image(rec, [c for w in gseq for c in w], depth).order()
            bound = order * (k + 1)
            block = []
            for x in range(q + 1):
                for atom in reversed(atoms):
                    x = atom[x]
                block.append(x)

            def walk(point, count):
                for _ in range(count):
                    point = block[point]
                return point

            rows = []
            for j in range(k):
                start = p
                for atom in reversed(atoms[:2 * j]):
                    start = atom[start]
                rows.append([walk(start, m) for m in range(bound)])
            horizon = horizon_factor * bound
            for j in range(k):
                word = atoms * horizon + atoms[:2 * j]
                for point in range(q + 1):
                    current = point
                    hits = False
                    for atom in reversed(word):
                        current = atom[current]
                        if current == p:
                            hits = True
                            break
                    target = walk(point, bound)
                    if hits and not any(row.count(target) >= 2 for row in rows):
                        found.add((component, tuple(format_word(w) for w in gseq), point, j))
    return found


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
    for gseq in gseq_sweep():
        case = sweep_case(grig1234, gseq)
        for ci in range(4):
            report = verify_fundamental_general(grig1234, ci, case)
            assert report.passed, (ci, [format_word(w) for w in gseq], report.witnesses)
    assert time.perf_counter() - started < 120


def test_criterion_3_trace_suite_clear_and_return_parts(grig1234):
    started = time.perf_counter()
    for gseq in gseq_sweep():
        case = sweep_case(grig1234, gseq)
        for ci in range(4):
            report = verify_trace_lemmas(grig1234, ci, case, horizon_factor=2)
            offending = [w for w in report.witnesses
                         if w.get("check") in ("trace_stays_clear",
                                               "basepoint_returns")]
            assert not offending, (ci, [format_word(w) for w in gseq], offending)
    assert time.perf_counter() - started < 300


def test_criterion_3_trace_suite_pigeonhole_part_as_stated(grig, grig1234):
    """The stated pigeonhole trace fact, verified literally against an oracle.

    The fact as stated is false, so the check is that the verifier reports
    exactly its counterexamples: the ``pigeonhole_pair`` witnesses over the
    sweep must equal the set found by ``pigeonhole_counterexamples``, which
    calls neither the verifier nor the telescope's evaluator.  Two
    counterexamples are checked by hand on component 1 (level 1 plus the
    fresh point 2, p = 0):

    - gseq [g1]: N(k+1) = 4 and the block is the 3-cycle (0 1 2), so
      w(4, 0).0 = 1 appears once in the row 0, 1, 2, 0; point 0 (whose
      trace meets p after three letters) has no pair.
    - gseq [g1, g1]: N(k+1) = 3 and the block is a 3-cycle, so no value
      repeats below index 3 in either row; no point has a pair.

    The return bound this fact was meant to support is checked directly by
    criterion 2 and holds.
    """
    reported = set()
    for gseq in gseq_sweep():
        case = sweep_case(grig1234, gseq)
        for ci in range(4):
            report = verify_trace_lemmas(grig1234, ci, case, horizon_factor=2)
            reported.update(
                (ci + 1, tuple(format_word(w) for w in gseq), w["point"], w["partial"])
                for w in report.witnesses if w.get("check") == "pigeonhole_pair")
    expected = pigeonhole_counterexamples(grig, [1, 2, 3, 4], gseq_sweep(),
                                          horizon_factor=2)
    assert (1, ("g1",), 0, 0) in expected
    assert {(1, ("g1", "g1"), point, j)
            for point in range(3) for j in range(2)} <= expected
    assert reported == expected, (
        f"missing {sorted(expected - reported)}, extra {sorted(reported - expected)}")


def test_criterion_4_torsion_bound_on_sampled_words(grig, grig1234):
    started = time.perf_counter()
    growth = {n: grig.torsion_growth(n) for n in range(1, 6)}
    assert growth[1] == 2
    assert growth[1] == ball_scan_max_order(grig, 1)
    words = sample_words(500, 5, 4, seed=20240809)
    assert len(words) == 500
    for word in words:
        n = len(word)
        order = math.lcm(*(image.order() for image in grig1234.evaluate(word)))
        assert divides_factorial(order, growth[n] * (n + 1)), (str(word), order)
    assert time.perf_counter() - started < 120


def test_criterion_4_memoized_torsion_growth_matches_the_ball_scan():
    # a second call reads the memo; both agree with the level-8 scan
    rec = grigorchuk()
    for radius in range(1, 5):
        first = rec.torsion_growth(radius)
        assert rec.torsion_growth(radius) == first == ball_scan_max_order(rec, radius)


def test_criterion_4_stated_torsion_growth_at_radius_two(grig):
    """T(2) = 16; the stated value 8 is wrong.

    The radius-2 ball contains ab, ac and ad, of orders 16, 8 and 4 (see
    criterion 7); ba, ca and da are their inverses and every other element
    of the ball has order at most 2.  Whatever labels b, c and d carry, the
    ball holds a times each of them, so no labelling gives 8.
    """
    assert grig.torsion_growth(2) == ball_scan_max_order(grig, 2) == 16
    ab = grig.parse("a b")
    assert grig.element_order(ab) == level_image(grig, ab, 8).order() == 16
    products = {name: level_image(grig, grig.parse(name), 8)
                for name in ("a b", "a c", "a d", "b a", "c a", "d a")}
    assert [products[name].order() for name in ("a b", "a c", "a d")] == [16, 8, 4]
    # the elements of order above 2 are exactly these six
    large = {image for image in (level_image(grig, w, 8) for w in reduced_words(grig, 2))
             if image.order() > 2}
    assert large == set(products.values())


def test_criterion_5_subdirect_orders_exact(grig1234):
    started = time.perf_counter()
    report = check_subdirect(grig1234)
    assert report.passed
    orders = [w["order"] for w in report.witnesses]
    assert orders == [math.factorial(3), math.factorial(5),
                      math.factorial(9), math.factorial(17)]
    # the three-cycle extension witness: <(0 1 2), (2 3)> is all of Sym(4)
    c3 = TelescopeGroup((ExtendedAction([Permutation.from_cycles(3, [(0, 1, 2)])], 2),),
                        ("r",))
    witness = check_subdirect(c3)
    assert witness.passed and witness.witnesses[0]["order"] == 24
    closure = brute_closure([Permutation.from_cycles(4, [(0, 1, 2)]),
                             Permutation.from_cycles(4, [(2, 3)])])
    assert len(closure) == 24
    assert time.perf_counter() - started < 30


def test_criterion_6_alternating_cutoff(grig1234):
    started = time.perf_counter()
    report, cutoff = alt_cutoff(grig1234, sign_vectors(grig1234)[1])
    assert report.passed and cutoff is not None
    for witness in report.witnesses[1:]:
        if witness["component"] >= cutoff:
            assert witness["full_alternating"]
            expected = math.factorial(witness["extended_degree"]) // 2
            assert witness["kernel_projection_order"] == expected
    # the sign kernel itself, built explicitly by the test oracle
    _, kernel_gens = schreier_sign_kernel(grig1234)
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
    """ord(ab) = 16; the stated value 8 is the order of the level-4 image.

    Under b = (a, c), c = (a, d), d = (1, b): (ad)^2 = (b, b), so
    ord(ad) = 4; (ac)^2 = (da, ad), so ord(ac) = 8; and (ab)^2 = (ca, ac),
    so ord(ab) = 16 (de la Harpe, Topics in Geometric Group Theory, VIII.B).
    The level-image order of ab runs 2, 4, 8, 8 over levels 1..4 and
    reaches 16 at level 5, so stopping at level 4 gives the stated 8.
    """
    ab = grig.parse("a b")
    assert grig.element_order(ab) == level_image(grig, ab, 8).order() == 16
    chain = [grig.parse(w) for w in ("a d", "a c", "a b")]
    assert [grig.element_order(w) for w in chain] == [4, 8, 16]
    assert [level_image(grig, w, 8).order() for w in chain] == [4, 8, 16]
    assert level_image(grig, ab, 4).order() == 8
    assert [level_image(grig, ab, level).order() for level in range(5, 9)] == [16] * 4


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


def test_grigorchuk_levels_1_to_6_verify(tmp_path):
    """``verify`` on Grigorchuk [1..6]: every block is Sym(m) of order m!,
    every kernel projection is Alt(m) of order m!/2, the cutoff is 1, and
    the base quotients at levels 3..6 have the order 2^(5*2^(n-3)+2) of
    |G/St(n)| (an oracle independent of the program)."""
    config = tmp_path / "grigorchuk_1-6.json"
    config.write_text(json.dumps({
        "group": "grigorchuk", "levels": [1, 2, 3, 4, 5, 6],
        "basepoints": "identity", "ball_radius": 2,
        "word_sample": {"count": 100, "max_length": 4},
        "seed": 7, "horizon_factor": 2}))
    out_path = tmp_path / "cert.json"
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--config", str(config), "--out", str(out_path)])
    elapsed = time.perf_counter() - started
    doc = json.loads(out_path.read_bytes())
    checks = {c["name"]: c for c in doc["checks"]}
    degrees = [c["extended_degree"] for c in doc["components"]]
    assert degrees == [2 ** level + 1 for level in range(1, 7)]
    # trace_lemmas records the pigeonhole counterexamples (README,
    # "Corrected reference values"); every other check passes
    assert code == 1
    assert [c["name"] for c in doc["checks"] if c["status"] != "pass"] == ["trace_lemmas"]

    subdirect = checks["subdirect"]["witnesses"]
    assert [w["order"] for w in subdirect] == [math.factorial(m) for m in degrees]
    assert all(w["full_symmetric"] for w in subdirect)
    assert doc["alt_cutoff"] == 1
    kernel = checks["alt_cutoff"]["witnesses"][1:]
    assert [w["kernel_projection_order"] for w in kernel] == \
        [math.factorial(m) // 2 for m in degrees]
    scan = checks["perfectness_scan"]["witnesses"]
    assert [w["quotient_order"] for w in scan[2:]] == \
        [2 ** (5 * 2 ** (level - 3) + 2) for level in range(3, 7)]
    assert not any(w["perfect"] for w in scan)
    assert elapsed < 60
