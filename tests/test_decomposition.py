"""The memoized wreath split, the ball's letter skips and the conjugacy-keyed
orders, each pinned against a test-local oracle that takes none of those
shortcuts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import custom_arity_3, level_image
from telescope import selfsim
from telescope.perm import Permutation
from telescope.selfsim import (NotContracting, WreathRecursion, grigorchuk,
                               gupta_sidki_3, invert_signed, reduce_signed)
from telescope.words import LetterTable


def oracle_ball(rec, radius):
    """The ball as a breadth-first search that tries every letter after every
    word (formal cancellation aside) and settles every bucket collision by
    ``equal``."""
    letters = [s for g in range(1, rec.generator_count + 1) for s in (g, -g)]
    hash_level = 1
    while rec.arity ** hash_level < 64:
        hash_level += 1
    images_of = LetterTable(rec.level_action(hash_level))
    identity = tuple(range(images_of.degree))
    reps, images, buckets, frontier = [()], {(): identity}, {identity: [()]}, [()]
    for _ in range(radius):
        new_frontier = []
        for word in frontier:
            base = images[word]
            for letter in letters:
                if word and word[-1] == -letter:
                    continue
                grown = word + (letter,)
                image = tuple(base[x] for x in images_of[letter])
                bucket = buckets.get(image)
                if bucket is not None:
                    if any(rec.equal(grown, rep) for rep in bucket):
                        continue
                    bucket.append(grown)
                else:
                    buckets[image] = [grown]
                reps.append(grown)
                images[grown] = image
                new_frontier.append(grown)
        frontier = new_frontier
    return reps


def walk_split(rec, word):
    """Root action and sections of a word, letter by letter from the recursion's data."""
    d = rec.arity
    top, sections = [], []
    for child in range(d):
        point, pieces = child, []
        for letter in reversed(word):
            root = rec.root_perms[abs(letter) - 1].images
            if letter > 0:
                pieces.append(rec.sections[letter - 1][point])
                point = root[point]
            else:
                point = root.index(point)
                pieces.append(invert_signed(rec.sections[-letter - 1][point]))
        top.append(point)
        sections.append(reduce_signed([s for piece in reversed(pieces) for s in piece]))
    return tuple(top), tuple(sections)


def grigorchuk_with_copy_of_a():
    """Grigorchuk's generators plus e, a second name for a."""
    swap, hold = Permutation((1, 0)), Permutation.identity(2)
    return WreathRecursion(
        arity=2, names=("a", "b", "c", "d", "e"),
        root_perms=(swap, hold, hold, hold, swap),
        sections=(((), ()), ((1,), (3,)), ((1,), (4,)), ((), (2,)), ((), ())),
        contracting=True)


def gupta_sidki_with_inverse_of_a():
    """Gupta-Sidki's generators plus u, a second name for a^-1."""
    hold = Permutation.identity(3)
    return WreathRecursion(
        arity=3, names=("a", "t", "u"),
        root_perms=(Permutation((1, 2, 0)), hold, Permutation((2, 0, 1))),
        sections=(((), (), ()), ((1,), (-1,), (2,)), ((), (), ())),
        contracting=True)


def hidden_below_hash_level():
    """z0 = (1, 1, z1), ..., z3 = (1, 1, z4) with z4 the root 3-cycle, and
    y0 = (1, z1, 1).

    z0, z0^-1, y0 and every product of two of them fix level 4, where
    arity-3 balls are hashed, yet they are pairwise distinct, and z0 y0 is
    none of them.
    """
    hold, turn = Permutation.identity(3), Permutation((1, 2, 0))
    return WreathRecursion(
        arity=3, names=("z0", "z1", "z2", "z3", "z4", "y0"),
        root_perms=(hold,) * 4 + (turn, hold),
        sections=tuple(((), (), (i + 2,)) for i in range(4))
        + (((), (), ()), ((), (2,), ())),
        contracting=True)


def adding_machine():
    """a = (1, a) sigma, an infinite-order element, declared non-contracting."""
    return WreathRecursion(
        arity=2, names=("a",), root_perms=(Permutation((1, 0)),),
        sections=(((), (1,)),), contracting=False)


class TestBallAgainstOracle:
    @pytest.mark.parametrize("make, radius", [
        (grigorchuk, 6), (gupta_sidki_3, 5),
        (grigorchuk_with_copy_of_a, 5), (gupta_sidki_with_inverse_of_a, 4),
        (hidden_below_hash_level, 3)])
    def test_same_representatives_in_the_same_order(self, make, radius):
        for r in range(radius + 1):
            assert make().ball(r) == oracle_ball(make(), r), r

    def test_non_contracting_recursion_needs_no_equality(self):
        rec = adding_machine()
        reps = rec.ball(3)
        assert reps == oracle_ball(adding_machine(), 3)
        assert reps == [(), (1,), (-1,), (1, 1), (-1, -1), (1, 1, 1), (-1, -1, -1)]
        with pytest.raises(NotContracting):
            rec.equal((1,), (1,))


class TestSplit:
    @pytest.mark.parametrize("make", [grigorchuk, gupta_sidki_3, custom_arity_3])
    def test_matches_letter_by_letter_walk(self, make):
        rec = make()
        k = rec.generator_count
        rng = random.Random(f"split:{make.__name__}")
        for _ in range(300):
            word = reduce_signed([rng.choice((1, -1)) * rng.randint(1, k)
                                  for _ in range(rng.randint(0, 10))])
            assert rec.split(word) == walk_split(rec, word), word
            assert rec.split(word) is rec.split(word)

    @pytest.mark.parametrize("make", [grigorchuk, gupta_sidki_3, custom_arity_3])
    def test_rebuilds_the_level_image(self, make):
        # w sends vertex x*n + v to top[x]*n + (w|x)(v)
        rec = make()
        n = rec.arity ** 3
        rng = random.Random(f"image:{make.__name__}")
        for _ in range(40):
            word = reduce_signed([rng.choice((1, -1)) * rng.randint(1, rec.generator_count)
                                  for _ in range(rng.randint(0, 8))])
            top, sections = rec.split(word)
            below = [level_image(rec, s, 3).images for s in sections]
            expected = tuple(top[x] * n + below[x][v] for x in range(rec.arity) for v in range(n))
            assert level_image(rec, word, 4).images == expected


LEVEL_GRIG, LEVEL_GS = grigorchuk(), gupta_sidki_3()


def words_over(gen_count, max_length):
    letters = [s for g in range(1, gen_count + 1) for s in (g, -g)]
    return st.lists(st.sampled_from(letters), max_size=max_length).map(reduce_signed)


class TestOrders:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(grigorchuk, LEVEL_GRIG, 10, 4, 8),
                            (gupta_sidki_3, LEVEL_GS, 6, 2, 6)]).flatmap(
        lambda case: st.tuples(st.just(case), words_over(case[3], case[4]),
                               st.integers(0, 20))))
    def test_invariant_under_rotation_and_inversion(self, drawn):
        (make, levels, level, _, _), word, shift = drawn
        order = make().element_order(word)
        if word:
            shift %= len(word)
            assert make().element_order(word[shift:] + word[:shift]) == order
        assert make().element_order(invert_signed(word)) == order
        assert level_image(levels, word, level).order() == order

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(grigorchuk, 4, 8), (gupta_sidki_3, 2, 6)]).flatmap(
        lambda case: st.tuples(st.just(case), words_over(case[1], case[2]))))
    def test_warm_orders_match_cold(self, drawn):
        # a word, each rotation and the inverse, asked twice of one recursion
        # (the second pass answered from the word-keyed entries) and once
        # each of a fresh recursion
        (make, _, _), word = drawn
        family = [word[shift:] + word[:shift] for shift in range(max(len(word), 1))]
        family.append(invert_signed(word))
        warm = make()
        first = [warm.element_order(w) for w in family]
        assert [warm.element_order(w) for w in family] == first
        assert [make().element_order(w) for w in family] == first

    def test_repeated_word_builds_no_conjugacy_key(self, monkeypatch):
        # the sweep asks for the same product once per component: from the
        # second call on, the order is read under the reduced word itself
        keys = []

        def counting(word):
            keys.append(word)
            return conjugacy_key(word)

        conjugacy_key = selfsim._conjugacy_key
        monkeypatch.setattr(selfsim, "_conjugacy_key", counting)
        for make, word in ((grigorchuk, (1, 2)), (gupta_sidki_3, (1, 2, -1, 2))):
            rec = make()
            order = rec.element_order(word)
            built = len(keys)
            assert built > 0
            assert [rec.element_order(word) for _ in range(5)] == [order] * 5
            assert rec.element_order(word + (2, -2)) == order
            assert len(keys) == built

    @pytest.mark.parametrize("make, levels, radius, level, size", [
        (grigorchuk, LEVEL_GRIG, 8, 10, 271), (gupta_sidki_3, LEVEL_GS, 6, 6, 253)])
    def test_ball_orders_match_deep_level_images(self, make, levels, radius, level, size):
        rec = make()
        words = rec.ball(radius)
        assert len(words) == size
        for word in words:
            assert rec.element_order(word) == level_image(levels, word, level).order(), word
