import itertools

import pytest
from hypothesis import given, settings
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from conftest import custom_arity_3, cyclic_root_recursions, level_image
from telescope.perm import PermGroup, Permutation
from telescope.selfsim import (BudgetExceeded, NotContracting, WreathRecursion,
                               grigorchuk, gupta_sidki_3, invert_signed,
                               reduce_signed)


@pytest.fixture(scope="module")
def gs3():
    return gupta_sidki_3()


def walk(rec, word, vertex):
    """Oracle: a signed word moves a vertex tuple through root perms and sections.

    Uses only the recursion's data, never its level code; the rightmost
    letter acts first and the first tree letter is the most significant digit.
    """
    for letter in reversed(word):
        if not vertex:
            break
        gen, x = abs(letter) - 1, vertex[0]
        root = rec.root_perms[gen].images
        if letter > 0:
            y, section = root[x], rec.sections[gen][x]
        else:
            y = root.index(x)
            section = tuple(-s for s in reversed(rec.sections[gen][y]))
        vertex = (y,) + walk(rec, section, vertex[1:])
    return vertex


class TestLevelActions:
    @pytest.mark.parametrize("make", [grigorchuk, gupta_sidki_3, custom_arity_3])
    def test_matches_vertex_walk_oracle(self, make):
        rec = make()
        d = rec.arity
        for level in range(1, 7):
            vertices = list(itertools.product(range(d), repeat=level))
            for gen, perm in enumerate(rec.level_action(level), start=1):
                expected = []
                for vertex in vertices:
                    index = 0
                    for digit in walk(rec, (gen,), vertex):
                        index = index * d + digit
                    expected.append(index)
                assert perm.images == tuple(expected), (level, gen)

    def test_grigorchuk_level_1(self, grig):
        perms = grig.level_action(1)
        assert perms[0] == Permutation((1, 0))
        for i in (1, 2, 3):
            assert perms[i].is_identity()

    def test_grigorchuk_level_2(self, grig):
        a, b, c, d = grig.level_action(2)
        assert a == Permutation.from_cycles(4, [(0, 2), (1, 3)])
        assert b == Permutation.from_cycles(4, [(0, 1)])
        assert c == Permutation.from_cycles(4, [(0, 1)])
        assert d.is_identity()

    def test_inert_generator_stays_trivial(self):
        rec = WreathRecursion(
            arity=2, names=("e",), root_perms=(Permutation.identity(2),),
            sections=(((), ()),), contracting=True)
        for level in (1, 2, 3):
            assert rec.level_action(level)[0].is_identity()

    def test_level_coherence(self, grig, gs3):
        for rec in (grig, gs3):
            d = rec.arity
            for level in (2, 3, 4):
                fine = rec.level_action(level)
                coarse = rec.level_action(level - 1)
                for gi in range(rec.generator_count):
                    for v in range(d ** level):
                        assert fine[gi](v) // d == coarse[gi](v // d)

    def test_level_starts_at_one(self, grig):
        with pytest.raises(ValueError):
            grig.level_action(0)

    def test_level_past_the_step_budget_raises(self):
        rec = WreathRecursion(
            arity=2, names=("g",), root_perms=(Permutation((1, 0)),),
            sections=(((), ()),), contracting=True, step_budget=100)
        assert rec.level_action(6)[0].degree == 64
        with pytest.raises(BudgetExceeded, match="level 7"):
            rec.level_action(7)
        with pytest.raises(BudgetExceeded, match="level 1000000000000"):
            rec.level_action(10**12)


def grigorchuk_quotient_order(level):
    """|G/St(n)| of the Grigorchuk group for n >= 3 (Grigorchuk, 1984)."""
    return 2 ** (5 * 2 ** (level - 3) + 2)


class TestQuotientOrders:
    """The induced polycyclic sequence against the stabilizer chain, sympy
    and the Grigorchuk formula.  The theorem behind it needs no transitive
    level, so every level is compared."""

    @settings(max_examples=60, deadline=None)
    @given(cyclic_root_recursions())
    def test_matches_chain_and_sympy(self, rec):
        orders = rec.quotient_orders(4)
        for level, order in enumerate(orders, start=1):
            perms = rec.level_action(level)
            assert order == PermGroup(perms).order(), level
            if level <= 3:
                assert order == SympyGroup(
                    [SympyPermutation(list(g.images)) for g in perms]).order(), level

    def test_grigorchuk_formula_at_levels_3_to_8(self):
        rec = grigorchuk()
        orders = rec.quotient_orders(8)
        assert orders[:2] == (2, 8)
        assert orders[2:] == tuple(grigorchuk_quotient_order(n) for n in range(3, 9))

    def test_gupta_sidki_matches_chain(self, gs3):
        assert gs3.quotient_orders(4) == tuple(
            PermGroup(gs3.level_action(n)).order() for n in range(1, 5))

    @pytest.mark.parametrize("p", [2, 3])
    def test_odometer_is_cyclic_of_order_p_to_the_level(self, p):
        # a = (1, ..., 1, a) c: its level-n quotient is cyclic of order p^n,
        # and every row below the root comes from a p-th power
        odometer = WreathRecursion(
            p, ("a",), (Permutation([(x + 1) % p for x in range(p)]),),
            (((),) * (p - 1) + ((1,),),), contracting=True)
        assert odometer.quotient_orders(5) == tuple(p ** n for n in range(1, 6))

    def test_shallower_levels_reuse_the_deepest_pass(self):
        rec = grigorchuk()
        deep = rec.quotient_orders(6)
        assert rec.quotient_orders(4) == deep[:4] == grigorchuk().quotient_orders(4)
        assert rec.quotient_orders(6) is deep

    @pytest.mark.parametrize("rec", [
        custom_arity_3(),  # root group Sym(3)
        WreathRecursion(4, ("a",), (Permutation((1, 2, 3, 0)),), (((),) * 4,), False),
        WreathRecursion(2, ("a",), (Permutation((0, 1)),), (((1,), ()),), False),
        WreathRecursion(3, ("a",), (Permutation((1, 0, 2)),), (((), (), ()),), False),
    ], ids=["sym3-root", "arity-4", "trivial-root", "transposition-root"])
    def test_refused_outside_the_theorem(self, rec):
        assert rec.root_cycle is None
        with pytest.raises(ValueError, match="prime arity"):
            rec.quotient_orders(2)

    def test_root_cycle_of_presets(self, grig, gs3):
        assert grig.root_cycle == Permutation((1, 0))
        assert gs3.root_cycle == Permutation((1, 2, 0))

    def test_level_starts_at_one(self, grig):
        with pytest.raises(ValueError, match="levels start at 1"):
            grig.quotient_orders(0)


class TestEquality:
    def test_syntactic_equality(self, grig):
        w = grig.parse("a b a")
        assert grig.equal(w, w)

    def test_bc_equals_d(self, grig):
        assert grig.equal(grig.parse("b c"), grig.parse("d"))
        assert grig.equal(grig.parse("b d"), grig.parse("c"))
        assert grig.equal(grig.parse("c d"), grig.parse("b"))

    def test_a_differs_from_b(self, grig):
        assert not grig.equal(grig.parse("a"), grig.parse("b"))

    def test_b_differs_from_c_only_deep(self, grig):
        b, c = grig.parse("b"), grig.parse("c")
        assert level_image(grig, b, 2) == level_image(grig, c, 2)
        assert level_image(grig, b, 3) != level_image(grig, c, 3)
        assert not grig.equal(b, c)

    def test_generators_are_involutions(self, grig):
        for name in "abcd":
            assert grig.is_trivial(grig.parse(f"{name} {name}"))

    def test_equality_matches_deep_level_images(self, grig):
        words = grig.ball(3)
        for u, v in itertools.combinations(words, 2):
            same = level_image(grig, u, 8) == level_image(grig, v, 8)
            assert grig.equal(u, v) == same

    def test_requires_contracting_flag(self):
        rec = WreathRecursion(
            arity=2, names=("s",), root_perms=(Permutation((1, 0)),),
            sections=(((), (1,)),), contracting=False)
        with pytest.raises(NotContracting):
            rec.equal((1,), (1,))


class TestElementOrder:
    def test_identity(self, grig):
        assert grig.element_order(()) == 1
        assert grig.element_order(grig.parse("a a")) == 1

    def test_generator_orders(self, grig):
        for name in "abcd":
            assert grig.element_order(grig.parse(name)) == 2

    def test_standard_pair_orders(self, grig):
        # ad, ac, ab generate dihedral subgroups of orders 8, 16, 32
        assert grig.element_order(grig.parse("a d")) == 4
        assert grig.element_order(grig.parse("a c")) == 8
        assert grig.element_order(grig.parse("a b")) == 16

    def test_ab_order_matches_deep_level_image(self, grig):
        # the level image order climbs 2,4,8,8,16 and then stays
        ab = grig.parse("a b")
        climbs = [level_image(grig, ab, lvl).order() for lvl in range(1, 9)]
        assert climbs == [2, 4, 8, 8, 16, 16, 16, 16]
        assert grig.element_order(ab) == 16

    def test_power_check_at_level_6(self, grig):
        for word in grig.ball(3):
            order = grig.element_order(word)
            image = level_image(grig, word, 6)
            assert (image ** order).is_identity()
            for prime in {p for p in (2, 3, 5, 7, 11, 13) if order % p == 0}:
                assert not (image ** (order // prime)).is_identity()

    def test_level_order_divides_element_order(self, grig):
        for word in grig.ball(3):
            order = grig.element_order(word)
            for level in range(1, 9):
                assert order % level_image(grig, word, level).order() == 0

    def test_non_torsion_detected(self):
        # the odometer: s = (1, s) with a root swap generates Z
        rec = WreathRecursion(
            arity=2, names=("s",), root_perms=(Permutation((1, 0)),),
            sections=(((), (1,)),), contracting=True)
        with pytest.raises(BudgetExceeded):
            rec.element_order((1,))

    def test_gupta_sidki_orders(self, gs3):
        assert gs3.element_order(gs3.parse("a")) == 3
        assert gs3.element_order(gs3.parse("t")) == 3
        assert gs3.element_order(gs3.parse("a t")) == 9


class TestBall:
    def test_radius_zero(self, grig):
        assert grig.ball(0) == [()]

    def test_radius_one(self, grig):
        assert len(grig.ball(1)) == 5

    def test_radius_two_against_pairwise_oracle(self, grig):
        # dedupe all reduced words of length <= 2 by their level-8 images
        letters = [s for i in range(4) for s in (i + 1, -(i + 1))]
        words = [()]
        words += [(l,) for l in letters]
        words += [(l1, l2) for l1 in letters for l2 in letters if l2 != -l1]
        images = {level_image(grig, w, 8).images for w in words}
        assert len(grig.ball(2)) == len(images) == 11

    def test_known_sizes(self, grig):
        assert [len(grig.ball(r)) for r in range(6)] == [1, 5, 11, 23, 40, 68]

    def test_gupta_sidki_sizes(self, gs3):
        assert [len(gs3.ball(r)) for r in range(4)] == [1, 5, 13, 29]

    def test_past_the_step_budget_raises(self, gs3):
        # every letter tried after a kept word is a step: ball(5) tries 244
        # candidates, ball(10) (4,061 representatives) 8,164
        rec = gupta_sidki_3()
        rec.step_budget = 1000
        assert rec.ball(5) == gs3.ball(5)
        with pytest.raises(BudgetExceeded, match="ball exceeded 1000 candidate words"):
            rec.ball(10)

    def test_identity_comes_first(self, grig):
        assert grig.ball(2)[0] == ()

    def test_representatives_are_pairwise_distinct(self, grig):
        words = grig.ball(3)
        for u, v in itertools.combinations(words, 2):
            assert not grig.equal(u, v)


class TestTorsionGrowth:
    def test_radius_one(self, grig):
        assert grig.torsion_growth(1) == 2

    def test_radius_two(self, grig):
        # ball(2) holds ab of order 16
        assert grig.torsion_growth(2) == 16

    def test_monotone(self, grig):
        values = [grig.torsion_growth(r) for r in range(1, 5)]
        assert values == sorted(values)

    def test_radius_zero_rejected(self, grig):
        with pytest.raises(ValueError):
            grig.torsion_growth(0)

    def test_memoized_per_radius(self):
        rec = grigorchuk()
        assert [rec.torsion_growth(r) for r in (3, 1, 3, 2, 1)] == [16, 2, 16, 16, 2]
        assert rec._growth == {1: 2, 2: 16, 3: 16}

    def test_exhausted_budget_raises_again(self):
        # the radius-10 ball needs more than 1,000 candidate words
        rec = gupta_sidki_3()
        rec.step_budget = 1000
        for _ in range(2):
            with pytest.raises(BudgetExceeded, match="ball exceeded 1000"):
                rec.torsion_growth(10)
        assert rec._growth == {}
        assert rec.torsion_growth(2) == gupta_sidki_3().torsion_growth(2)

    def test_presets_are_built_anew_on_each_call(self):
        assert grigorchuk() is not grigorchuk()
        assert gupta_sidki_3() is not gupta_sidki_3()


class TestSignedWords:
    def test_reduce(self):
        assert reduce_signed((1, -1, 2)) == (2,)
        assert reduce_signed((1, 2, -2, -1)) == ()

    def test_invert(self):
        assert invert_signed((1, -2, 3)) == (-3, 2, -1)

    def test_parse(self, grig):
        assert grig.parse("a b^-1") == (1, -2)
        with pytest.raises(ValueError):
            grig.parse("z")


class TestValidation:
    def test_bad_section_index(self):
        with pytest.raises(ValueError):
            WreathRecursion(
                arity=2, names=("a",), root_perms=(Permutation((1, 0)),),
                sections=(((2,), ()),), contracting=True)

    def test_bad_root_degree(self):
        with pytest.raises(ValueError):
            WreathRecursion(
                arity=3, names=("a",), root_perms=(Permutation((1, 0)),),
                sections=(((), (), ()),), contracting=True)

    def test_arity_bound(self):
        with pytest.raises(ValueError):
            WreathRecursion(
                arity=1, names=("a",), root_perms=(Permutation.identity(1),),
                sections=((((),)),), contracting=True)
