import itertools
import math
import random

import pytest
from hypothesis import event, example, given, settings, strategies as st
from sympy.combinatorics import Permutation as SympyPermutation

from conftest import (FixedOrder, hand_case, return_time, scan_cases, transitivity_oracle,
                      walk_first_hits, walk_fundamental_general, walk_trace_lemmas)
from telescope import selfsim, tower
from telescope.perm import Permutation
from telescope.selfsim import WreathRecursion, grigorchuk, gupta_sidki_3
from telescope.tower import (ExtendedAction, TelescopeGroup, build_telescope,
                             divides_factorial, sweep_case,
                             transitivity_report, verify_fundamental_general,
                             verify_orbit_bound, verify_torsion_bound, verify_trace_lemmas)
from telescope.words import compose_signed, parse_word, reduce_signed


def c2_recursion():
    """One involution acting regularly on two points at level 1."""
    return WreathRecursion(
        arity=2, names=("g1",), root_perms=(Permutation((1, 0)),),
        sections=(((), ()),), contracting=True)


def truncation_order(tg, word):
    """The order ``verify_torsion_bound`` reports: the lcm of the orders of
    the word's block images."""
    return verify_torsion_bound(word, tg.evaluate(word), 1).witnesses[0]["order"]


def cycle_type_blocks(cycle_types):
    """One permutation per block with the given cycle lengths, each cycle on
    consecutive points; a block with no cycles is the identity on a point."""
    blocks = []
    for lengths in cycle_types:
        images = []
        for length in lengths:
            start = len(images)
            images.extend(start + (i + 1) % length for i in range(length))
        blocks.append(Permutation(images or [0]))
    return blocks


@st.composite
def recursion_tables(draw):
    """A random recursion (arity 2 or 3, 1 to 3 generators, sections of up
    to 2 letters) and increasing levels among 1..3; its levels are often
    not transitive."""
    arity = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3))
    letters = st.sampled_from([code for i in range(1, k + 1) for code in (i, -i)])
    roots = [Permutation(draw(st.permutations(range(arity)))) for _ in range(k)]
    sections = [[draw(st.lists(letters, max_size=2)) for _ in range(arity)]
                for _ in range(k)]
    rec = WreathRecursion(arity, [f"g{i}" for i in range(1, k + 1)], roots, sections,
                          contracting=False)
    levels = sorted(draw(st.sets(st.integers(1, 3), min_size=1)))
    return rec, levels


@st.composite
def declared_contracting_recursions(draw):
    """A random recursion (arity 2 or 3, 1 to 3 generators, sections of up
    to 2 letters, single letters drawn as often as empty and two-letter
    sections) declared contracting.  The first root permutation is often a
    full cycle, so the first level is transitive, and single-letter
    sections often keep deeper levels transitive too.  Some of these are
    not contracting in truth; construction decides no equality, so that
    changes nothing."""
    arity = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3))
    letters = st.sampled_from([code for i in range(1, k + 1) for code in (i, -i)])
    roots = [Permutation(draw(st.permutations(range(arity)))) for _ in range(k)]
    if draw(st.booleans()):
        roots[0] = Permutation([(x + 1) % arity for x in range(arity)])
    section = st.one_of(st.just(()), st.tuples(letters), st.tuples(letters, letters))
    sections = [[draw(section) for _ in range(arity)] for _ in range(k)]
    return WreathRecursion(arity, [f"g{i}" for i in range(1, k + 1)], roots, sections,
                           contracting=True)


def grigorchuk_inverse_section():
    """Grigorchuk's group, with d = (1, b^-1) in place of (1, b): b is an
    involution, so the group and every level action are the same."""
    rec = grigorchuk()
    sections = rec.sections[:3] + (((), (-2,)),)
    return WreathRecursion(2, rec.names, rec.root_perms, sections, contracting=True)


def grigorchuk_non_contracting():
    """Grigorchuk's recursion, declared not contracting."""
    rec = grigorchuk()
    return WreathRecursion(2, rec.names, rec.root_perms, rec.sections, contracting=False)


def grigorchuk_product_section():
    """Grigorchuk's group, with d = (1, c d) in place of (1, b): b = c d in
    the group, so every level acts as before, though no section is the
    letter b.  The recursion is not contracting (d's section is longer
    than d)."""
    rec = grigorchuk()
    sections = rec.sections[:3] + (((), (3, 4)),)
    return WreathRecursion(2, rec.names, rec.root_perms, sections, contracting=False)


@pytest.fixture(scope="module")
def demo():
    return build_telescope(c2_recursion(), [1])


class TestExtendAction:
    def test_c2_extension(self):
        ext = ExtendedAction([Permutation((1, 0))], 0)
        assert ext.extended_degree == 3
        assert ext.tau == Permutation.from_cycles(3, [(0, 2)])
        assert ext.gen_images[0] == Permutation.from_cycles(3, [(0, 1)])

    def test_trivial_point(self):
        ext = ExtendedAction([Permutation.identity(1)], 0)
        assert ext.tau == Permutation.from_cycles(2, [(0, 1)])
        assert ext.gen_images[0].is_identity()

    def test_grigorchuk_level_1(self, grig):
        ext = ExtendedAction(grig.level_action(1), 0, level=1)
        assert ext.extended_degree == 3
        assert ext.tau == Permutation.from_cycles(3, [(0, 2)])
        assert ext.gen_images[0] == Permutation.from_cycles(3, [(0, 1)])
        for i in (1, 2, 3):
            assert ext.gen_images[i].is_identity()
        assert ext.level == 1

    def test_every_image_fixes_fresh_point(self, grig):
        ext = ExtendedAction(grig.level_action(3), 5)
        q = ext.base_degree
        assert all(p(q) == q for p in ext.gen_images)
        assert ext.tau(q) == ext.basepoint

    def test_basepoint_out_of_range(self):
        with pytest.raises(ValueError):
            ExtendedAction([Permutation((1, 0))], 2)

    def test_no_generators_refused(self):
        with pytest.raises(ValueError, match="an action needs at least one generator image"):
            ExtendedAction((), 0)


class TestBuildTelescope:
    def test_single_level(self, grig):
        tg = build_telescope(grig, [1])
        assert len(tg.components) == 1
        assert tg.components[0].extended_degree == 3
        # the base is the recursion's level action itself, not a copy
        assert tg.components[0].base is grig.level_action(1)

    def test_two_levels(self, grig):
        tg = build_telescope(grig, [1, 2])
        assert [c.extended_degree for c in tg.components] == [3, 5]
        assert tuple(c.tau for c in tg.components) == (Permutation.from_cycles(3, [(0, 2)]),
                                                       Permutation.from_cycles(5, [(0, 4)]))

    def test_empty_levels_rejected(self, grig):
        with pytest.raises(ValueError):
            build_telescope(grig, [])

    def test_non_increasing_levels_rejected(self, grig):
        with pytest.raises(ValueError):
            build_telescope(grig, [2, 2])
        with pytest.raises(ValueError):
            build_telescope(grig, [3, 1])

    def test_basepoint_count_mismatch(self, grig):
        with pytest.raises(ValueError):
            build_telescope(grig, [1, 2], [0])

    def test_intransitive_level_rejected(self):
        rec = WreathRecursion(
            arity=2, names=("e",), root_perms=(Permutation.identity(2),),
            sections=(((), ()),), contracting=True)
        with pytest.raises(ValueError, match="level 1 action is not transitive"):
            build_telescope(rec, [1])

    @settings(max_examples=200, deadline=None)
    @given(recursion_tables())
    def test_transitivity_decision_matches_oracle(self, drawn):
        # construction is the one transitivity check: it must reject exactly
        # the telescopes with an intransitive level, naming the first one
        rec, levels = drawn
        rows = [{"component": ci, "level": level,
                 **transitivity_oracle(rec.level_action(level))}
                for ci, level in enumerate(levels, start=1)]
        first = next((row["level"] for row in rows if not row["transitive"]), None)
        if first is not None:
            with pytest.raises(ValueError, match=f"^level {first} action is not transitive"):
                build_telescope(rec, levels)
            return
        report = transitivity_report(build_telescope(rec, levels))
        assert report.passed
        assert report.parameters == {"levels": levels}
        assert report.witnesses == rows


class TestLevelTransitivityTheorem:
    """Construction is the one transitivity check: each component computes
    the orbit of 0 of its base action when it is made, on any recursion,
    contracting or not, and decides no equality.  The presets' components
    are checked at depth, and their reuse pinned, in ``test_recognition.py``."""

    @settings(max_examples=300, deadline=None)
    @given(declared_contracting_recursions())
    def test_construction_agrees_with_oracle(self, rec):
        # construction rejects the first intransitive level by its orbit and
        # otherwise makes a component on every level, under a small step
        # budget (patched here, as a function-scoped fixture would fail
        # Hypothesis's health check)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(selfsim, "STEP_BUDGET", 400)
            rows = [transitivity_oracle(rec.level_action(level)) for level in range(1, 5)]
            first = next((level for level, row in enumerate(rows, start=1)
                          if not row["transitive"]), None)
            event(f"first intransitive level: {first}")
            if first is not None:
                with pytest.raises(ValueError,
                                   match=f"^level {first} action is not transitive"):
                    build_telescope(rec, [1, 2, 3, 4])
            else:
                tg = build_telescope(rec, [1, 2, 3, 4])
                assert ([comp.base_degree for comp in tg.components]
                        == [row["degree"] for row in rows])

    def test_non_contracting_recursion_builds_by_orbits(self, count_orbits):
        # construction decides no equality, so the contracting flag does
        # not enter it
        rec = grigorchuk_non_contracting()
        tg = build_telescope(rec, [1, 2, 3])
        assert count_orbits[0] == 3
        assert tg.components == build_telescope(grigorchuk(), [1, 2, 3]).components

    @pytest.mark.parametrize("make", [grigorchuk, gupta_sidki_3, grigorchuk_inverse_section,
                                      grigorchuk_non_contracting])
    def test_decided_without_equality(self, monkeypatch, count_orbits, make):
        def no_equality(self, word):
            raise AssertionError("construction decided an equality")
        monkeypatch.setattr(WreathRecursion, "is_trivial", no_equality)
        build_telescope(make(), [1, 2, 3, 4, 5])
        assert count_orbits[0] == 5

    def test_generator_equal_only_in_the_group_builds_by_orbits(self, count_orbits):
        # b = c d in the group, but no section is the letter b; the
        # recursion is not contracting, so no equality may be asked of it
        rec = grigorchuk_product_section()
        tg = build_telescope(rec, [1, 2, 3, 4, 5])
        assert count_orbits[0] == 5
        assert tg.components == build_telescope(grigorchuk(), [1, 2, 3, 4, 5]).components

    def test_generator_that_is_no_section_falls_back(self, count_orbits):
        # g1 swaps the two subtrees and has trivial sections: level 1 is
        # transitive, but level 2 is not, as its orbit finds
        rec = c2_recursion()
        with pytest.raises(ValueError, match="^level 2 action is not transitive: "
                                             "the orbit of 0 has 2 of 4 points$"):
            build_telescope(rec, [1, 2])
        assert count_orbits[0] == 2

    def test_intransitive_root_falls_back(self, count_orbits):
        rec = WreathRecursion(3, ("g1",), (Permutation((1, 0, 2)),), (((), (), ()),),
                              contracting=True)
        with pytest.raises(ValueError, match="^level 1 action is not transitive"):
            build_telescope(rec, [1])
        assert count_orbits[0] == 1


class TestEvaluate:
    def test_empty_word(self, demo):
        assert all(p.is_identity() for p in demo.evaluate(()))

    def test_tau_g_is_three_cycle(self, demo):
        image = demo.evaluate(parse_word("t g1"))[0]
        assert image == Permutation.from_cycles(3, [(0, 1, 2)])

    def test_involution_squares_away(self, demo):
        assert demo.evaluate(parse_word("g1 g1"))[0].is_identity()

    def test_unknown_generator_rejected(self, demo):
        with pytest.raises(ValueError):
            demo.evaluate((6,))
        with pytest.raises(ValueError, match="g6\\^-1 has no assigned permutation"):
            demo.evaluate((-6,))

    def test_letter_table_builds_an_inverse_on_first_use(self):
        g = Permutation.from_cycles(3, [(0, 1, 2)])
        tg = TelescopeGroup((ExtendedAction([g], 0),), ("g1",))
        letters = tg.components[0].letters
        assert sorted(letters) == [0, 1]
        assert tg.evaluate_component((1, 0), 0) == g.extended(4) * tg.components[0].tau
        assert sorted(letters) == [0, 1]
        assert tg.evaluate_component((-1,), 0) == g.extended(4).inverse()
        assert sorted(letters) == [-1, 0, 1]

    def test_homomorphism_on_random_pairs(self, grig):
        tg = build_telescope(grig, [1, 2])
        rng = random.Random(21)
        alphabet = [0] + [s * g for g in range(1, 5) for s in (1, -1)]
        for _ in range(1000):
            u = reduce_signed([rng.choice(alphabet) for _ in range(rng.randrange(0, 5))])
            v = reduce_signed([rng.choice(alphabet) for _ in range(rng.randrange(0, 5))])
            uv = tg.evaluate(reduce_signed(u + v))
            parts = tuple(pu * pv for pu, pv in zip(tg.evaluate(u), tg.evaluate(v)))
            assert uv == parts

    def test_blocks_are_preserved(self, grig):
        # every evaluated tuple is a tuple of per-component permutations by
        # construction; check the degrees stay put
        tg = build_telescope(grig, [1, 2, 3])
        image = tg.evaluate(parse_word("t g1 g2 t"))
        assert [p.degree for p in image] == [3, 5, 9]
        assert tg.union_letters.degree == 17


class TestOrderInTruncation:
    def test_empty_word(self, demo):
        assert truncation_order(demo, ()) == 1

    def test_three_cycle(self, demo):
        assert truncation_order(demo, parse_word("t g1")) == 3

    def test_tau_alone(self, grig):
        tg = build_telescope(grig, [1, 2, 3])
        assert truncation_order(tg, parse_word("t")) == 2

    def test_divides_any_annihilating_power(self, demo):
        word = parse_word("t g1")
        order = truncation_order(demo, word)
        image = demo.evaluate(word)
        for m in range(1, 13):
            if all((p ** m).is_identity() for p in image):
                assert m % order == 0

    def test_monotone_under_appending_components(self, grig):
        small = build_telescope(grig, [1, 2])
        large = build_telescope(grig, [1, 2, 3])
        rng = random.Random(3)
        alphabet = [0] + [s * g for g in range(1, 5) for s in (1, -1)]
        for _ in range(100):
            word = reduce_signed([rng.choice(alphabet) for _ in range(rng.randrange(0, 6))])
            assert truncation_order(large, word) % truncation_order(small, word) == 0


class TestFundamentalGeneral:
    def test_c2_single_generator(self, demo):
        report = verify_fundamental_general(demo, 0, sweep_case(demo, [parse_word("g1")]))
        assert report.passed
        assert report.parameters["order"] == 2
        assert report.parameters["bound"] == 4
        # the block t g1 is the 3-cycle (0 1 2)
        assert report.witnesses == [{"points": 3, "largest_return": 3}]

    def test_identity_sequence(self, demo):
        report = verify_fundamental_general(demo, 0, sweep_case(demo, [parse_word("g1 g1")]))
        assert report.passed
        assert report.parameters["order"] == 1
        assert report.parameters["bound"] == 2
        # the block t is (0 2), and 1 is fixed
        assert report.witnesses == [{"points": 3, "largest_return": 2}]

    def test_grigorchuk_pair_with_global_order(self, grig):
        tg = build_telescope(grig, [1, 2, 3])
        gseq = [parse_word("g1"), parse_word("g2")]
        report = verify_fundamental_general(tg, 2, sweep_case(tg, gseq))
        assert report.passed
        assert report.parameters["order"] == 16
        assert report.parameters["bound"] == 48
        assert report.witnesses[0]["largest_return"] <= 48

    def test_exhaustive_small_sweep(self, grig):
        tg = build_telescope(grig, [1, 3])
        singles = [(g,) for g in range(1, 5)]
        pairs = [parse_word("g1 g2"), parse_word("g1 g4"), parse_word("g2 g3")]
        sweep = [[w] for w in singles + pairs]
        sweep += [[u, v] for u in singles for v in pairs[:2]]
        for gseq in sweep:
            case = sweep_case(tg, gseq)
            for ci in range(2):
                assert verify_fundamental_general(tg, ci, case).passed

    def test_a_failing_case_reports_exactly_its_violating_points(self):
        # g1 = (0 1 2 3) and g2 = (0 2) on four points, the fresh point 4 and
        # p = 0, with a stated order of 1: the block t g1 g2 is the
        # 3-cycle (0 3 4) and the 2-cycle (1 2), so with the bound 1*2 = 2
        # exactly the points of the 3-cycle break it
        gens = [Permutation.from_cycles(4, [(0, 1, 2, 3)]),
                Permutation.from_cycles(4, [(0, 2)])]
        tg = TelescopeGroup((ExtendedAction(gens, 0),), ("g1", "g2"), FixedOrder(1))
        gseq = [parse_word("g1 g2")]
        block = tg.evaluate_component((0, 1, 2), 0)
        assert sorted(block.cycle_lengths()) == [2, 3]
        report = verify_fundamental_general(tg, 0, sweep_case(tg, gseq))
        assert not report.passed
        assert report.parameters["bound"] == 2
        assert report.witnesses == [{"point": point, "m": 3} for point in (0, 3, 4)]
        assert report == walk_fundamental_general(tg, 0, gseq)

    def test_gseq_with_tau_rejected(self, demo):
        with pytest.raises(ValueError, match="must not contain the transposition"):
            sweep_case(demo, [parse_word("t g1")])

    def test_empty_gseq_rejected(self, demo):
        with pytest.raises(ValueError, match="nonempty"):
            sweep_case(demo, [])

    def test_telescope_without_recursion_rejected(self, demo):
        # N is an element order of the group, which only a recursion knows
        tg = TelescopeGroup(demo.components, demo.gen_names, None)
        with pytest.raises(ValueError, match="needs the telescope's recursion"):
            sweep_case(tg, [parse_word("g1")])

    @pytest.mark.parametrize("component", [-1, 1, True, 0.0])
    def test_component_outside_the_telescope_rejected(self, demo, component):
        with pytest.raises(ValueError, match="outside 0..0"):
            verify_fundamental_general(demo, component, sweep_case(demo, [parse_word("g1")]))


class TestTraceLemmas:
    def test_c2_clear_and_return_checks_hold(self, demo):
        report = verify_trace_lemmas(demo, 0, sweep_case(demo, [parse_word("g1")]))
        kinds = {w.get("check") for w in report.witnesses}
        assert "trace_stays_clear" not in kinds
        assert "basepoint_returns" not in kinds

    def test_c2_pigeonhole_counterexample(self, demo):
        # the stated pigeonhole fact fails at points 0 and 1; the fresh point
        # q = 2 satisfies it
        report = verify_trace_lemmas(demo, 0, sweep_case(demo, [parse_word("g1")]))
        assert not report.passed
        offending = {w["point"] for w in report.witnesses
                     if w.get("check") == "pigeonhole_pair"}
        assert offending == {0, 1}

    def test_identity_sequence_passes_everything(self, demo):
        report = verify_trace_lemmas(demo, 0, sweep_case(demo, [parse_word("g1 g1")]))
        kinds = {w.get("check") for w in report.witnesses}
        assert "trace_stays_clear" not in kinds
        assert "basepoint_returns" not in kinds

    def test_grigorchuk_sweep_clear_and_return(self, grig):
        tg = build_telescope(grig, [1, 2])
        singles = [(g,) for g in range(1, 5)]
        sweep = [[w] for w in singles] + [[u, v] for u in singles for v in singles]
        for gseq in sweep:
            case = sweep_case(tg, gseq)
            for ci in range(2):
                report = verify_trace_lemmas(tg, ci, case)
                for witness in report.witnesses:
                    assert witness.get("check") in (None, "pigeonhole_pair")

    def test_fresh_point_always_hits_basepoint(self, grig):
        # the first transposition pulls q to p, so q's trace always meets p
        tg = build_telescope(grig, [2])
        comp = tg.components[0]
        q = comp.base_degree
        report = verify_trace_lemmas(tg, 0, sweep_case(tg, [parse_word("g1")]))
        assert report.parameters["bound"] == 4
        for witness in report.witnesses:
            if witness.get("check") == "trace_stays_clear":
                assert witness["point"] != q

    def test_horizon_parameter(self, demo):
        report = verify_trace_lemmas(demo, 0, sweep_case(demo, [parse_word("g1")]),
                                     horizon_factor=3)
        assert report.parameters["horizon"] == 3 * report.parameters["bound"]

    @pytest.mark.parametrize("component", [-1, 1, True, 0.0])
    def test_component_outside_the_telescope_rejected(self, demo, component):
        with pytest.raises(ValueError, match="outside 0..0"):
            verify_trace_lemmas(demo, component, sweep_case(demo, [parse_word("g1")]))

    def test_checks_run_component_then_horizon(self, demo):
        case = sweep_case(demo, [parse_word("g1")])
        with pytest.raises(ValueError, match="outside 0..0"):
            verify_trace_lemmas(demo, 1, case, horizon_factor=0)
        with pytest.raises(ValueError, match="horizon_factor"):
            verify_trace_lemmas(demo, 0, case, horizon_factor=0)

    @pytest.mark.parametrize("factor", [0, -1, 1.5, "2", True, None])
    def test_horizon_factor_must_be_a_positive_integer(self, demo, factor):
        with pytest.raises(ValueError, match="horizon_factor must be an integer >= 1"):
            verify_trace_lemmas(demo, 0, sweep_case(demo, [parse_word("g1")]),
                                horizon_factor=factor)


def scan_first_hits(tg, ci, gseq, horizon):
    """``tower._first_hits`` on the hand-composed block, entry inverses and
    row tails, each row of hitting points expanded to every point, None
    where no terminal subword hits."""
    _, tau, images, block = hand_case(tg, ci, gseq)
    untails = []
    tail = Permutation.identity(tau.degree)
    for image in images[:-1]:
        tail = tail * tau * image
        untails.append(tail.inverse().images)
    rows = tower._first_hits(tau.images, [image.inverse().images for image in images],
                             untails, [tg.components[ci].basepoint], horizon, block.images)
    return [[row.get(point) for point in range(tau.degree)] for row in rows]


def assert_scan_matches_walker(tg, ci, gseq, factor):
    # the verifiers, handed the union case that ``verify`` builds once for
    # every block, against the walkers
    case = sweep_case(tg, gseq)
    trace = verify_trace_lemmas(tg, ci, case, factor)
    assert trace == walk_trace_lemmas(tg, ci, gseq, factor)
    general = verify_fundamental_general(tg, ci, case)
    assert general == walk_fundamental_general(tg, ci, gseq)
    assert tower.return_bound_holds(case, ci) == general.passed
    _, tau, images, _ = hand_case(tg, ci, gseq)
    hits = scan_first_hits(tg, ci, gseq, trace.parameters["horizon"])
    assert hits == walk_first_hits(tau, images, tg.components[ci].basepoint,
                                   trace.parameters["horizon"])
    return hits


class TestScanMatchesWalker:
    """The cycle-arithmetic sweeps against the conftest point walkers: the
    whole reports, and the first hits, which no report shows unless a
    trace fact fails."""

    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    def test_hand_built_telescopes(self, case):
        assert_scan_matches_walker(*case)

    def test_traces_that_never_reach_the_basepoint(self, demo):
        # [g1 g1] acts as the identity, so the block is t = (0 2) and the
        # point 1 never meets p = 0
        hits = assert_scan_matches_walker(demo, 0, [parse_word("g1 g1")], 1)
        assert hits == [[1, None, 2]]

    def test_a_hit_beyond_the_horizon_is_none(self):
        # g = (0 1 2) plus the fresh point 3, p = 0, and a stated order of 1:
        # the horizon is 2 blocks, and the block t g = (0 1 2 3) brings 0
        # back to p only at letter 5, in the third block
        g = Permutation.from_cycles(3, [(0, 1, 2)])
        tg = TelescopeGroup((ExtendedAction([g], 0),), ("g1",), FixedOrder(1))
        hits = assert_scan_matches_walker(tg, 0, [parse_word("g1")], 1)
        assert hits == [[None, 3, 1, 2]]
        assert scan_first_hits(tg, 0, [parse_word("g1")], 3) == [[5, 3, 1, 2]]
        report = verify_trace_lemmas(tg, 0, sweep_case(tg, [parse_word("g1")]), horizon_factor=1)
        assert {"check": "basepoint_returns", "partial": 0, "first_hit": None} in report.witnesses

    @pytest.mark.parametrize("rec, levels", [(grigorchuk(), [1, 2, 3, 4]),
                                             (gupta_sidki_3(), [1, 2, 3])])
    def test_presets(self, rec, levels):
        singles = [(g,) for g in range(1, rec.generator_count + 1)]
        sweep = [[w] for w in singles] + [[u, v] for u in singles for v in singles]
        rng = random.Random(8)
        for basepoints in ([0] * len(levels),
                           [rng.randrange(rec.arity ** level) for level in levels]):
            tg = build_telescope(rec, levels, basepoints)
            for ci in range(len(levels)):
                for gseq in sweep:
                    for factor in (1, 2, 3):
                        assert_scan_matches_walker(tg, ci, gseq, factor)

    @pytest.mark.parametrize("rec, levels", [(grigorchuk(), [1, 2, 3, 4]),
                                             (gupta_sidki_3(), [1, 2, 3])])
    def test_three_entry_rows(self, rec, levels):
        # with k = 3 the row starts t g1 t g2 . p differ from t g2 t g1 . p,
        # so the order in which p is walked through the atoms shows
        singles = [(g,) for g in range(1, rec.generator_count + 1)]
        tg = build_telescope(rec, levels)
        for ci in range(len(levels)):
            for gseq in itertools.product(singles, repeat=3):
                assert_scan_matches_walker(tg, ci, list(gseq), 1)

    @pytest.mark.parametrize("gseq", [["g1"], ["g2", "g3"]])
    def test_degree_1025(self, gseq):
        # Grigorchuk level 10 plus the fresh point: the one-map tails and the
        # walk over the hit cycles against the point walker at depth
        tg = build_telescope(grigorchuk(), range(1, 11))
        assert tg.components[9].extended_degree == 1025
        assert_scan_matches_walker(tg, 9, [parse_word(w) for w in gseq], 2)


class TestPowerImages:
    """The trace sweep's N(k+1)-fold return map and the return times, read
    off the one walk of the block's cycles."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda degree: st.tuples(
        st.permutations(range(degree)), st.integers(0, 3 * degree + 3))))
    def test_matches_repeated_squaring(self, drawn):
        images, m = drawn
        perm = Permutation(images)
        times, powers = tower._cycle_walk(perm.images, m)
        assert tuple(powers) == (perm ** m).images
        assert times == [return_time(perm, x) for x in range(perm.degree)]
        assert tower._cycle_walk(perm.images) == (times, None)

    @given(st.integers(1, 12).flatmap(lambda degree: st.permutations(range(degree))))
    def test_exponents_that_close_cycles(self, images):
        # 0, 1, each cycle length and its multiples, and past the degree
        perm = Permutation(images)
        lengths = {len(cycle) for cycle in SympyPermutation(images).cyclic_form}
        degree = perm.degree
        for m in {0, 1, degree + 1, 2 * degree + 5, perm.order(),
                  *lengths, *(3 * length for length in lengths)}:
            assert tuple(tower._cycle_walk(perm.images, m)[1]) == (perm ** m).images, m

    def test_degree_one(self):
        for m in (0, 1, 2, 7):
            assert tower._cycle_walk((0,), m) == ([1], [0])

    def test_whole_turns_on_some_cycles_only(self):
        # cycles of lengths 2, 3 and 4 and a fixed point: each power turns
        # some cycles a whole number of times, which leaves them fixed, and
        # not the others
        perm = Permutation.from_cycles(10, [(0, 1), (2, 3, 4), (5, 6, 7, 8)])
        for m in (2, 3, 4, 6, 8, 12, 13):
            times, powers = tower._cycle_walk(perm.images, m)
            assert tuple(powers) == (perm ** m).images, m
            assert times == [2, 2, 3, 3, 3, 4, 4, 4, 4, 1]


class TestUnion:
    """The letter table on the disjoint union of the blocks, and the sweep
    case on it, against the per-block permutations."""

    @settings(max_examples=200, deadline=None)
    @given(scan_cases(), st.data())
    def test_union_against_block_oracles(self, case, data):
        tg, _, gseq, _ = case
        spans = tg.block_spans
        assert [stop - start for start, stop in spans] == [
            comp.extended_degree for comp in tg.components]
        assert spans[0][0] == 0
        assert tg.union_letters.degree == sum(comp.extended_degree for comp in tg.components)
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        letters = tg.union_letters
        codes = [0] + [c for g in range(1, tg.generator_count + 1) for c in (g, -g)]
        # every block is invariant under every union letter
        for code in codes:
            image = letters[code]
            for start, stop in spans:
                assert all(start <= image[x] < stop for x in range(start, stop))

        # a word's union image, sliced at each offset, is its block images;
        # its one walk gives each block's longest cycle and order, and the
        # element's longest cycle
        word = data.draw(st.lists(st.sampled_from(codes), max_size=8))
        image = compose_signed(word, letters)
        times = tower._cycle_walk(image)[0]
        blocks = [tg.evaluate_component(word, ci) for ci in range(len(tg.components))]
        for (start, stop), block in zip(spans, blocks):
            assert tuple(x - start for x in image[start:stop]) == block.images
            assert max(times[start:stop]) == max(block.cycle_lengths(), default=1)
            assert math.lcm(*times[start:stop]) == block.order()
        assert max(times) == max(max(block.cycle_lengths(), default=1) for block in blocks)

        # the union sweep case's one walk against each hand-composed block
        union = sweep_case(tg, gseq)
        assert len(union.longest) == len(spans)
        for ci, (start, stop) in enumerate(spans):
            _, _, _, block = hand_case(tg, ci, gseq)
            assert union.block[start:stop] == tuple(x + start for x in block.images)
            assert union.lengths[start:stop] == [return_time(block, x)
                                                 for x in range(block.degree)]
            assert union.longest[ci] == max(block.cycle_lengths(), default=1)
            assert [x - start for x in union.full_return[start:stop]] == list(
                (block ** union.bound).images)

    @settings(max_examples=200, deadline=None)
    @given(scan_cases(), st.data())
    def test_block_is_the_whole_word(self, case, data):
        # each entry's block t g is composed once into the telescope's
        # table, and every sequence's block is that of its whole word
        tg, _, gseq, _ = case
        letters = tg.union_letters
        more = data.draw(st.lists(st.sampled_from(gseq), min_size=1, max_size=3))
        for seq in (gseq, more, gseq[::-1], gseq):
            block = sweep_case(tg, seq).block
            assert block == compose_signed([c for word in seq for c in (0, *word)], letters)
        assert tg._entry_blocks == {word: compose_signed((0, *word), letters)
                                    for word in gseq}

    def test_block_of(self, grig):
        tg = build_telescope(grig, [1, 2, 3])
        assert tg.block_of == (0,) * 3 + (1,) * 5 + (2,) * 9

    def test_union_table_is_built_on_first_use(self, grig):
        tg = build_telescope(grig, [1, 2, 3])
        assert "union_letters" not in vars(tg)
        letters = tg.union_letters
        assert tg.union_letters is letters
        assert tg.block_spans == ((0, 3), (3, 8), (8, 17))
        # a new telescope of the same components builds its own
        assert build_telescope(grig, [1, 2, 3]).union_letters is not letters


class TestOrbitBound:
    def test_tau_alone(self, grig):
        tg = build_telescope(grig, [1, 2, 3])
        word = parse_word("t")
        report = verify_orbit_bound(word, tg.evaluate(word), 2)
        assert report.passed
        assert all(w["largest_orbit"] <= 2 for w in report.witnesses)

    def test_c2_three_cycle(self, demo):
        word = parse_word("t g1")
        report = verify_orbit_bound(word, demo.evaluate(word), 2)
        assert report.passed
        assert report.witnesses[0]["largest_orbit"] == 3
        assert report.witnesses[0]["limit"] == 6

    def test_seeded_words_on_grigorchuk(self, grig):
        tg = build_telescope(grig, [1, 2, 3])
        rng = random.Random(17)
        alphabet = [0] + [s * g for g in range(1, 5) for s in (1, -1)]
        growth = {n: grig.torsion_growth(n) for n in range(1, 6)}
        for _ in range(500):
            length = rng.randrange(1, 6)
            word = reduce_signed([rng.choice(alphabet) for _ in range(length)])
            if len(word) == 0:
                continue
            assert verify_orbit_bound(word, tg.evaluate(word), growth[len(word)]).passed


class TestTorsionBound:
    def test_divides_factorial(self):
        assert divides_factorial(6, 3)
        assert not divides_factorial(7, 6)
        assert divides_factorial(2 ** 10, 16)
        assert not divides_factorial(2 ** 16, 16)
        assert divides_factorial(1, 0)
        big = 2 ** 90 * 3 ** 40
        assert divides_factorial(big, 100) == (math.factorial(100) % big == 0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 40), max_size=6), max_size=4),
           st.integers(0, 30))
    @example([[]], 0)
    @example([[]], 5)
    @example([[6]], 5)
    @example([[7]], 5)
    @example([[2, 3], [], [5]], 5)
    def test_verdict_is_divisibility_of_the_factorial(self, cycle_types, limit):
        # the shortcut, every cycle at most the limit, changes no verdict;
        # the empty word with torsion growth ``limit`` has limit ``limit``
        blocks = cycle_type_blocks(cycle_types)
        report = verify_torsion_bound((), blocks, limit)
        order = report.witnesses[0]["order"]
        assert order == math.lcm(*(n for lengths in cycle_types for n in lengths))
        assert report.witnesses[0]["factorial_of"] == limit
        assert report.passed == divides_factorial(order, limit)
        assert report.passed == (math.factorial(limit) % order == 0)

    def test_short_cycles_are_not_factored(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tower, "divides_factorial",
                            lambda value, limit: calls.append((value, limit)) or True)

        def verdict(cycle_types, limit):
            report = verify_torsion_bound((), cycle_type_blocks(cycle_types), limit)
            return report.witnesses[0]["order"], report.passed

        assert verdict([(2, 3), (), (5,)], 5) == (30, True)
        assert verdict([()], 1) == (1, True)
        assert calls == []
        assert verdict([(6,)], 5) == (6, True)
        assert calls == [(6, 5)]

    def test_tau(self, grig):
        tg = build_telescope(grig, [1, 2])
        word = parse_word("t")
        report = verify_torsion_bound(word, tg.evaluate(word), 2)
        assert report.passed
        assert report.witnesses[0] == {"order": 2, "factorial_of": 4}

    def test_c2_three_cycle(self, demo):
        word = parse_word("t g1")
        report = verify_torsion_bound(word, demo.evaluate(word), 2)
        assert report.passed
        assert report.witnesses[0] == {"order": 3, "factorial_of": 6}

    def test_empty_word(self, demo):
        report = verify_torsion_bound((), demo.evaluate(()), 1)
        assert report.passed
        assert report.witnesses[0]["order"] == 1


class TestBoundsSettled:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3), st.integers(0, 12), st.data())
    def test_a_settled_limit_passes_every_element(self, degrees, limit, data):
        # when the largest block's degree settles a limit, every
        # permutation of the blocks passes both verifiers
        settled = tower.bounds_settled(max(degrees), limit)
        event(f"settled: {settled}")
        blocks = [Permutation(data.draw(st.permutations(range(d)))) for d in degrees]
        if settled:
            assert verify_orbit_bound((), blocks, limit).passed
            assert verify_torsion_bound((), blocks, limit).passed

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3), st.integers(0, 12), st.data())
    def test_the_longest_cycle_decides_the_orbit_bound(self, degrees, limit, data):
        # an element's longest cycle decides its orbit bound exactly, and
        # one that it settles passes the torsion bound too
        blocks = [Permutation(data.draw(st.permutations(range(d)))) for d in degrees]
        longest = max(max(block.cycle_lengths(), default=1) for block in blocks)
        settled = tower.bounds_settled(longest, limit)
        event(f"settled: {settled}")
        assert verify_orbit_bound((), blocks, limit).passed == settled
        if settled:
            assert verify_torsion_bound((), blocks, limit).passed

    @pytest.mark.parametrize("degrees, limit, settled", [
        ([4, 3], 4, True), ([4, 3], 3, False), ([3, 4], 3, False), ([1], 0, False),
        ([1], 1, True), ([33, 17, 9, 5, 3], 48, True), ([28, 10, 4], 27, False),
    ])
    def test_an_unsettled_limit_has_a_failing_cycle(self, degrees, limit, settled):
        # a limit is settled exactly when it reaches the largest block: below
        # it, a cycle through all of that block breaks the orbit bound
        assert tower.bounds_settled(max(degrees), limit) == settled
        cycles = [Permutation.from_cycles(d, [tuple(range(d))]) for d in degrees]
        assert verify_orbit_bound((), cycles, limit).passed == settled
