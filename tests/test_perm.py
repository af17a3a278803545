import itertools
import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from conftest import brute_closure, cyc
from telescope import perm as perm_module
from telescope.perm import PermGroup, Permutation, _compose, orbit


def reference_cycle_string(images):
    """Cycles walked from each smallest unvisited moved point, points printed by ``str``."""
    seen = set()
    parts = []
    for start, point in enumerate(images):
        if start in seen or point == start:
            continue
        cycle = [start]
        while point != start:
            cycle.append(point)
            point = images[point]
        seen.update(cycle)
        parts.append("(" + " ".join(str(x) for x in cycle) + ")")
    return "".join(parts) or "()"


def short_cycle_images(degree, rng):
    """Disjoint 2-, 3- and 4-cycles over about nine tenths of the points, as
    in the images a word query prints."""
    points = list(range(degree))
    rng.shuffle(points)
    images = list(range(degree))
    start, stop = 0, degree - degree // 10
    while True:
        size = rng.choice((2, 3, 4))
        if start + size > stop:
            return images
        cycle = points[start:start + size]
        start += size
        for point, image in zip(cycle, cycle[1:] + cycle[:1]):
            images[point] = image


# points of 5 digits; hypothesis draws one degree as rarely as it likes, so
# the tests that take this list name it as an explicit example
SHORT_20000 = short_cycle_images(20_000, random.Random(20_000))


@st.composite
def permutation_images(draw, kinds=("identity", "shuffle", "sparse", "short")):
    """Degrees 0, 1, 2, small ones and ones past 1000 (points of 4 digits);
    the identity, a shuffle of every point, a few points moved among
    themselves, or short cycles over most points, also at degree 20,000."""
    kind = draw(st.sampled_from(kinds))
    degrees = [st.sampled_from([0, 1, 2]), st.integers(3, 40), st.integers(1000, 1100)]
    if kind == "short":
        degrees.append(st.just(20_000))
    degree = draw(st.one_of(degrees))
    if kind == "shuffle":
        return draw(st.permutations(range(degree)))
    if kind == "short":
        return short_cycle_images(degree, draw(st.randoms(use_true_random=False)))
    images = list(range(degree))
    if kind == "sparse" and degree:
        moved = draw(st.lists(st.integers(0, degree - 1), unique=True, max_size=12))
        for point, image in zip(moved, draw(st.permutations(moved))):
            images[point] = image
    return images


class TestPermutation:
    def test_compose_involution(self):
        swap = cyc(2, (0, 1))
        assert (swap * swap).is_identity()

    def test_compose_identity_law(self):
        p = cyc(5, (0, 3, 1))
        assert Permutation.identity(5) * p == p
        assert p * Permutation.identity(5) == p

    def test_compose_rightmost_first(self):
        # (0 2) after (0 1) walks 0 -> 1 -> 2 -> 0
        assert cyc(3, (0, 2)) * cyc(3, (0, 1)) == cyc(3, (0, 1, 2))

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError):
            cyc(3, (0, 1)) * cyc(4, (0, 1))

    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))
        with pytest.raises(ValueError):
            Permutation((0, 0))

    def test_raw_compose_at_degrees_zero_and_one(self):
        # itemgetter with a single index returns a bare item, not a tuple
        assert _compose((), ()) == ()
        assert _compose((0,), (0,)) == (0,)
        assert _compose((1, 0), (1, 0)) == (0, 1)

    def test_degree_one(self):
        one = Permutation((0,))
        assert (one * one).images == (0,)
        assert one.inverse() == one and hash(one.inverse()) == hash(one)
        assert one.extended(3) == Permutation.identity(3)

    def test_unchecked_results_match_checked_ones(self):
        p, q = cyc(6, (0, 3, 1), (2, 5)), cyc(6, (1, 4))
        for result in (p * q, p.inverse(), p.extended(8)):
            assert result == Permutation(result.images)
            assert hash(result) == hash(Permutation(result.images))

    def test_transposition_matches_its_cycle(self):
        swap = Permutation.transposition(6, 4, 1)
        assert swap == cyc(6, (1, 4)) == Permutation(swap.images)
        assert hash(swap) == hash(cyc(6, (1, 4)))

    @pytest.mark.parametrize("a, b", [(2, 2), (-1, 0), (0, 3), (True, 2), (0, False),
                                      (1.0, 2), (0, "1"), (None, 1)])
    def test_bad_transposition_rejected(self, a, b):
        with pytest.raises(ValueError, match=re.escape(f"bad transposition ({a!r} {b!r}) "
                                                       f"on 3 points")):
            Permutation.transposition(3, a, b)

    @pytest.mark.parametrize("images, problem", [
        ([True, False, 2], "True is not a point of 0..2"),
        ([0, 2, False], "False is not a point of 0..2"),
        ([0, 1.0, 2], "1.0 is not a point of 0..2"),
        ([0, "1", 2], "'1' is not a point of 0..2"),
        ([None, 0, 1], "None is not a point of 0..2"),
        ([0, 3, 1], "3 is not a point of 0..2"),
        ([-1, 0, 1], "-1 is not a point of 0..2"),
        ([1, 0, 1], "1 repeats"),
    ])
    def test_constructor_rejects_bad_points(self, images, problem):
        with pytest.raises(ValueError, match=rf"^not a permutation: image {re.escape(problem)}$"):
            Permutation(images)

    def test_cycles_walked_once(self, monkeypatch):
        # every walk formats its points, so counting the name lookups counts
        # the walks: the cycle type, order and sign share the first one
        walks = [0]
        names = perm_module._point_names

        def counting(degree):
            walks[0] += 1
            return names(degree)
        monkeypatch.setattr(perm_module, "_point_names", counting)
        p = cyc(7, (0, 3, 1), (2, 5))
        assert p.cycle_lengths() is p.cycle_lengths()
        assert p.order() == 6 and p.sign() == -1
        assert walks == [1]
        assert p.cycle_lengths() == tuple(
            map(len, SympyPermutation(p.images).cyclic_form)) == (3, 2)
        assert p.cycle_string() == "(0 3 1)(2 5)"
        assert walks == [2]

    @settings(max_examples=150, deadline=None)
    @given(permutation_images())
    @example(SHORT_20000)
    def test_formatting_order_and_sign_match_references(self, images):
        # the formatter's decimal names serve every degree, whichever was
        # formatted first, so the drawn degrees interleave large and small
        p = Permutation(images)
        text = reference_cycle_string(images)
        oracle = SympyPermutation(images)
        assert p.cycle_string() == text
        assert p.order() == oracle.order()
        assert p.sign() == oracle.signature()
        assert repr(p) == f"Permutation[{len(images)}] {text}"
        inverse = reference_cycle_string(p.inverse().images)
        assert repr(PermGroup([p, p.inverse()])) == (
            f"PermGroup[{len(images)}] <{text}, {inverse}>")

    @settings(max_examples=150, deadline=None)
    @given(permutation_images(), st.booleans())
    @example(SHORT_20000, True)
    @example(SHORT_20000, False)
    def test_either_walk_fills_one_cycle_type(self, images, string_first):
        # a fresh permutation reads the same cycle type whether the string or
        # the cycle type is asked for first, and the string prints sympy's
        # cycles in sympy's order
        p = Permutation(images)
        if string_first:
            text = p.cycle_string()
            lengths = p.cycle_lengths()
        else:
            lengths = p.cycle_lengths()
            text = p.cycle_string()
        oracle = SympyPermutation(images)
        assert text == reference_cycle_string(images)
        assert text == ("".join("(" + " ".join(map(str, cycle)) + ")"
                                for cycle in oracle.cyclic_form) or "()")
        assert lengths == tuple(map(len, oracle.cyclic_form))
        assert p.order() == oracle.order()
        assert p.sign() == oracle.signature()
        fresh = Permutation(images)
        assert (fresh.cycle_lengths(), fresh.order(), fresh.sign()) == (
            lengths, p.order(), p.sign())
        assert fresh.cycle_string() == text

    @settings(max_examples=50, deadline=None)
    @given(permutation_images())
    @example(SHORT_20000)
    def test_cycle_string_leaves_the_images_alone(self, images):
        # the walk consumes a copy of the images, never the tuple itself
        p = Permutation(images)
        before = p.images
        text = p.cycle_string()
        assert p.images is before and p.images == tuple(images)
        assert p.cycle_string() == text == reference_cycle_string(images)

    def test_name_tables_grow_once_and_serve_smaller_degrees(self, monkeypatch):
        # the two tables grow to the largest degree formatted so far and
        # are reused, unchanged, by every smaller degree after it
        monkeypatch.setattr(perm_module, "_names", ((), ()))
        small = cyc(3, (0, 2))
        assert small.cycle_string() == "(0 2)"
        assert perm_module._names == (("(0", "(1", "(2"), (" 0", " 1", " 2"))
        images = list(range(20_000))
        images[0], images[9_999], images[19_999] = 9_999, 19_999, 0
        images[1], images[2] = 2, 1
        large = Permutation(images)
        assert large.cycle_string() == "(0 9999 19999)(1 2)" == reference_cycle_string(images)
        opening, inner = tables = perm_module._names
        assert len(opening) == len(inner) == 20_000
        assert (opening[19_999], inner[19_999]) == ("(19999", " 19999")
        assert small.cycle_string() == "(0 2)"
        assert perm_module._names is tables
        assert perm_module._point_names(3) is tables

    @settings(max_examples=50, deadline=None)
    @given(permutation_images(kinds=("identity", "short")))
    @example([])
    @example([0])
    @example(SHORT_20000)
    def test_order_is_the_lcm_of_the_cycle_lengths(self, images):
        p = Permutation(images)
        assert p.order() == math.lcm(*p.cycle_lengths()) == SympyPermutation(images).order()

    def test_cycle_string_is_not_cached(self):
        p = cyc(5, (0, 3), (1, 4, 2))
        assert p.cycle_string() == p.cycle_string() == "(0 3)(1 4 2)"
        assert p.cycle_string() is not p.cycle_string()
        assert p.cycle_lengths() == (2, 3)

    @pytest.mark.parametrize("cycles, point", [
        ([(2, -1)], "-1"),
        ([(0, 5)], "5"),
        ([(0, 3)], "3"),
        ([(0, 1.0)], "1.0"),
        ([(True, 2)], "True"),
        ([(0, False)], "False"),
        ([(0, "1")], "'1'"),
        ([(0, 1), (2, None)], "None"),
    ])
    def test_from_cycles_rejects_bad_points(self, cycles, point):
        with pytest.raises(ValueError, match=rf"cycle point {re.escape(point)} is not "
                                             r"a point of 0\.\.2"):
            Permutation.from_cycles(3, cycles)

    def test_from_cycles_accepts_every_point_of_the_degree(self):
        assert Permutation.from_cycles(3, [(2, 0, 1)]).images == (1, 2, 0)
        assert Permutation.from_cycles(3, [(2,)]).is_identity()
        with pytest.raises(ValueError, match="cycle point 0 is not a point of 0..-1"):
            Permutation.from_cycles(0, [(0,)])

    def test_degree_zero(self):
        empty = Permutation(())
        assert empty.is_identity()
        assert (empty * empty).degree == 0
        assert empty.order() == 1
        assert empty.sign() == 1

    def test_order(self):
        assert Permutation.identity(4).order() == 1
        assert cyc(5, (0, 1), (2, 3, 4)).order() == 6
        assert cyc(3, (0, 1, 2)).order() == 3

    def test_order_by_iterated_composition(self):
        p = cyc(5, (0, 1), (2, 3, 4))
        power = p
        count = 1
        while not power.is_identity():
            power = power * p
            count += 1
        assert count == p.order()

    def test_order_minimality(self):
        rng = random.Random(5)
        for _ in range(50):
            images = list(range(7))
            rng.shuffle(images)
            p = Permutation(images)
            n = p.order()
            assert (p ** n).is_identity()
            for d in range(1, n):
                if n % d == 0:
                    assert not (p ** d).is_identity()

    def test_sign(self):
        assert Permutation.identity(6).sign() == 1
        assert cyc(6, (2, 5)).sign() == -1
        assert cyc(3, (0, 1, 2)).sign() == 1

    def test_sign_homomorphism(self):
        rng = random.Random(11)
        for _ in range(1000):
            a = list(range(8))
            b = list(range(8))
            rng.shuffle(a)
            rng.shuffle(b)
            p, q = Permutation(a), Permutation(b)
            assert (p * q).sign() == p.sign() * q.sign()

    def test_inverse_and_associativity(self):
        rng = random.Random(12)
        for _ in range(300):
            perms = []
            for _ in range(3):
                images = list(range(6))
                rng.shuffle(images)
                perms.append(Permutation(images))
            p, q, r = perms
            assert (p * q) * r == p * (q * r)
            assert (p * q).inverse() == q.inverse() * p.inverse()
            assert (p * p.inverse()).is_identity()


class TestOrbit:
    def test_identity_generator(self):
        assert orbit([Permutation.identity(4)], 0) == [0]

    def test_transitive_cycle(self):
        assert set(orbit([cyc(3, (0, 1, 2))], 1)) == {0, 1, 2}

    def test_product_of_transpositions(self):
        assert set(orbit([cyc(4, (0, 1), (2, 3))], 2)) == {2, 3}

    def test_point_out_of_domain(self):
        with pytest.raises(ValueError):
            orbit([cyc(3, (0, 1))], 3)

    def test_orbit_sizes_partition_the_domain(self):
        gens = [cyc(7, (0, 1, 2)), cyc(7, (4, 5))]
        seen = set()
        total = 0
        for point in range(7):
            if point not in seen:
                part = orbit(gens, point)
                seen.update(part)
                total += len(part)
        assert total == 7


class TestPermGroup:
    def test_single_transposition(self):
        assert PermGroup([cyc(2, (0, 1))]).order() == 2

    def test_sym4_from_cycle_and_transposition(self):
        group = PermGroup([cyc(4, (0, 1, 2)), cyc(4, (2, 3))])
        assert group.order() == 24
        assert len(brute_closure(group.generators)) == 24

    def test_sym5(self):
        group = PermGroup([cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1))])
        assert group.order() == 120

    def test_dihedral(self):
        group = PermGroup([cyc(4, (0, 2), (1, 3)), cyc(4, (0, 1))])
        assert group.order() == len(brute_closure(group.generators))

    def test_trivial_group(self):
        assert PermGroup([Permutation.identity(5)]).order() == 1

    def test_order_idempotent(self):
        # the first query makes the chain; the second reads the same one
        group = PermGroup([cyc(4, (0, 1, 2)), cyc(4, (2, 3))])
        assert group.order() == 24
        base = group.base
        assert group.order() == 24
        assert group.base is base

    def test_generators_are_members(self):
        group = PermGroup([cyc(6, (0, 1, 2)), cyc(6, (3, 4)), cyc(6, (1, 5))])
        for g in group.generators:
            assert group.contains(g)

    def test_contains_examples(self):
        three_cycle = PermGroup([cyc(3, (0, 1, 2))])
        assert three_cycle.contains(Permutation.identity(3))
        assert not three_cycle.contains(cyc(3, (0, 1)))
        sym4 = PermGroup([cyc(4, (0, 1, 2)), cyc(4, (2, 3))])
        assert sym4.contains(cyc(4, (0, 2)))

    def test_contains_degree_mismatch(self):
        with pytest.raises(ValueError):
            PermGroup([cyc(3, (0, 1))]).contains(cyc(4, (0, 1)))

    def test_order_of_element_divides_group_order(self):
        rng = random.Random(13)
        for _ in range(30):
            images = list(range(7))
            rng.shuffle(images)
            p = Permutation(images)
            assert PermGroup([p]).order() % p.order() == 0

    def test_agreement_with_closure(self):
        rng = random.Random(99)
        for _ in range(25):
            degree = rng.randrange(2, 8)
            gens = []
            for _ in range(rng.randrange(1, 4)):
                images = list(range(degree))
                rng.shuffle(images)
                gens.append(Permutation(images))
            group = PermGroup(gens)
            closure = brute_closure(gens)
            assert group.order() == len(closure)
            for _ in range(100):
                images = list(range(degree))
                rng.shuffle(images)
                candidate = Permutation(images)
                assert group.contains(candidate) == (candidate.images in closure)


@st.composite
def growth_sequences(draw):
    """1-4 permutations on 1..6 points.  After the first, each is a fresh
    draw, the identity, or a product of two earlier ones, so members come
    up about as often as new elements."""
    degree = draw(st.integers(1, 6))
    perms = [Permutation(draw(st.permutations(range(degree))))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["fresh", "identity", "product"]))
        if kind == "fresh":
            perms.append(Permutation(draw(st.permutations(range(degree)))))
        elif kind == "identity":
            perms.append(Permutation.identity(degree))
        else:
            perms.append(draw(st.sampled_from(perms)) * draw(st.sampled_from(perms)))
    return perms


class TestExtend:
    @settings(max_examples=150, deadline=None)
    @given(growth_sequences())
    # the residue (2 3) opens the base point 2
    @example([cyc(4, (0, 1)), cyc(4, (2, 3))])
    # a member: the square of the first generator
    @example([cyc(3, (0, 1, 2)), cyc(3, (0, 2, 1))])
    @example([cyc(3, (0, 1)), Permutation.identity(3)])
    def test_matches_closure_and_sympy(self, perms):
        # each call is True exactly for an element outside the group so far,
        # and only those join the generators; the grown group then has the
        # order and the members of the group made from all of them at once,
        # by brute closure and by sympy
        group = PermGroup(perms[:1])
        added = list(perms[:1])
        for k, p in enumerate(perms[1:], start=1):
            new = p.images not in brute_closure(perms[:k])
            assert group.extend(p) == new
            if new:
                added.append(p)
            assert group.generators == tuple(added)
        closure = brute_closure(perms)
        whole = PermGroup(perms)
        oracle = SympyGroup([SympyPermutation(list(p.images)) for p in perms])
        assert group.order() == whole.order() == len(closure) == oracle.order()
        for images in itertools.permutations(range(perms[0].degree)):
            q = Permutation(images)
            assert (group.contains(q) == whole.contains(q) == (images in closure)
                    == oracle.contains(SympyPermutation(list(images))))

    def test_new_base_point_member_and_identity(self):
        group = PermGroup([cyc(4, (0, 1))])
        assert not group.extend(Permutation.identity(4))
        assert group.base == [0]
        assert group.extend(cyc(4, (2, 3)))
        assert group.base == [0, 2]
        assert group.order() == 4
        assert not group.extend(cyc(4, (0, 1), (2, 3)))
        assert group.generators == (cyc(4, (0, 1)), cyc(4, (2, 3)))
        assert group.order() == 4

    def test_extend_checks_its_argument(self):
        group = PermGroup([cyc(3, (0, 1))])
        with pytest.raises(ValueError, match="expects a Permutation"):
            group.extend((1, 0, 2))
        with pytest.raises(ValueError, match="matching degrees"):
            group.extend(cyc(4, (0, 1)))
        assert group.generators == (cyc(3, (0, 1)),)


class TestRecognition:
    def test_full_symmetric(self):
        assert PermGroup([cyc(4, (0, 1, 2)), cyc(4, (2, 3))]).is_full_symmetric()
        assert not PermGroup([cyc(3, (0, 1))]).is_full_symmetric()

    def test_full_alternating(self):
        assert PermGroup([cyc(3, (0, 1, 2))]).order() == math.factorial(3) // 2
        group = PermGroup([cyc(3, (0, 1))])
        assert group.order() == 2
        assert not group.is_full_symmetric()

    def test_alt5(self):
        group = PermGroup([cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1, 2))])
        assert group.order() == 60
        assert not group.is_full_symmetric()

    def test_tiny_degree_conventions(self):
        for degree in (0, 1):
            trivial = PermGroup([Permutation.identity(degree)])
            assert trivial.is_full_symmetric()
        two = PermGroup([cyc(2, (0, 1))])
        assert two.is_full_symmetric()
        assert not PermGroup([Permutation.identity(2)]).is_full_symmetric()

    def test_exactness_against_factorial(self):
        group = PermGroup([cyc(6, (0, 1, 2, 3, 4, 5)), cyc(6, (0, 1))])
        assert group.order() == math.factorial(6)
        assert group.is_full_symmetric()
