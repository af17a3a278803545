import itertools

import pytest

from conftest import level_image
from telescope.perm import Permutation
from telescope.selfsim import (BudgetExceeded, NotContracting, WreathRecursion,
                               grigorchuk, gupta_sidki_3, invert_signed,
                               reduce_signed)


@pytest.fixture(scope="module")
def grig():
    return grigorchuk()


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


def custom_arity_3():
    """A recursion whose sections carry inverse letters and words of length 2."""
    return WreathRecursion(
        arity=3, names=("x", "y"),
        root_perms=(Permutation((1, 2, 0)), Permutation((1, 0, 2))),
        sections=(((-2,), (1, -2), ()), ((2, -1), (), (-1,))),
        contracting=False)


class TestLevelActions:
    @pytest.mark.parametrize("make", [grigorchuk, gupta_sidki_3, custom_arity_3])
    def test_matches_vertex_walk_oracle(self, make):
        rec = make()
        d = rec.arity
        for level in range(1, 7):
            action = rec.level_action(level)
            vertices = list(itertools.product(range(d), repeat=level))
            for gen, perm in enumerate(action.perms, start=1):
                expected = []
                for vertex in vertices:
                    index = 0
                    for digit in walk(rec, (gen,), vertex):
                        index = index * d + digit
                    expected.append(index)
                assert perm.images == tuple(expected), (level, gen)

    def test_grigorchuk_level_1(self, grig):
        action = grig.level_action(1)
        assert action.perms[0] == Permutation((1, 0))
        for i in (1, 2, 3):
            assert action.perms[i].is_identity()

    def test_grigorchuk_level_2(self, grig):
        action = grig.level_action(2)
        a, b, c, d = action.perms
        assert a == Permutation.from_cycles(4, [(0, 2), (1, 3)])
        assert b == Permutation.from_cycles(4, [(0, 1)])
        assert c == Permutation.from_cycles(4, [(0, 1)])
        assert d.is_identity()

    def test_inert_generator_stays_trivial(self):
        rec = WreathRecursion(
            arity=2, names=("e",), root_perms=(Permutation.identity(2),),
            sections=(((), ()),), contracting=True)
        for level in (1, 2, 3):
            assert rec.level_action(level).perms[0].is_identity()

    def test_level_coherence(self, grig, gs3):
        for rec in (grig, gs3):
            d = rec.arity
            for level in (2, 3, 4):
                fine = rec.level_action(level)
                coarse = rec.level_action(level - 1)
                for gi in range(rec.generator_count):
                    for v in range(fine.degree):
                        assert fine.perms[gi](v) // d == coarse.perms[gi](v // d)

    def test_level_starts_at_one(self, grig):
        with pytest.raises(ValueError):
            grig.level_action(0)


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
