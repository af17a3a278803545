"""Sym/Alt recognition against the stabilizer chain and sympy.

``certify._is_symmetric`` decides a block group from its base action's
transitivity and ``normal_alternating_order`` decides a normal subgroup of
Sym(n) inside Alt(n), both without a chain.  Here random groups are
decided both ways: by the theorem, by ``PermGroup``'s chain, and by
``sympy.combinatorics`` (a test-only oracle).  ``check_subdirect`` and
``alt_cutoff`` are checked on random telescopes the same way, and on the
shipped presets they must build no chain at all.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

import telescope.certify as certify
import telescope.perm as perm
from telescope.certify import alt_cutoff, check_subdirect, perfectness_scan
from telescope.perm import PermGroup, Permutation, normal_alternating_order, transitivity
from telescope.selfsim import WreathRecursion, grigorchuk, gupta_sidki_3
from telescope.tower import TelescopeGroup, build_telescope, extend_action

PROPERTY = settings(max_examples=150, deadline=None)


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def sympy_order(generators):
    return SympyGroup([SympyPermutation(list(g.images)) for g in generators]).order()


@st.composite
def permutations(draw, degree):
    return Permutation(draw(st.permutations(range(degree))))


@st.composite
def extended_actions(draw):
    """A base action on 1..6 points plus one fresh point.  Half the time the
    first generator is the long cycle, so the base is transitive; otherwise
    the generators are drawn freely and often leave it intransitive."""
    degree = draw(st.integers(1, 6))
    perms = [draw(permutations(degree)) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        perms[0] = Permutation([(x + 1) % degree for x in range(degree)])
    return extend_action(perms, draw(st.integers(0, degree - 1)))


class TestSymmetricRecognition:
    @PROPERTY
    @given(extended_actions())
    def test_matches_chain_and_sympy(self, comp):
        gens = list(comp.gen_images) + [comp.tau]
        decided = certify._is_symmetric(comp)
        assert decided == PermGroup(gens).is_full_symmetric()
        assert decided == (sympy_order(gens) == math.factorial(comp.extended_degree))

    def test_intransitive_base_is_not_symmetric(self):
        # (0 1) on 4 points with tau = (0 4): the group is Sym({0, 1, 4})
        comp = extend_action([cyc(4, (0, 1))], 0)
        assert not certify._is_symmetric(comp)
        gens = list(comp.gen_images) + [comp.tau]
        assert PermGroup(gens).order() == sympy_order(gens) == 6

    def test_one_point_base_gives_sym_two(self):
        comp = extend_action([Permutation.identity(1)], 0)
        assert certify._is_symmetric(comp)
        assert PermGroup([comp.tau]).order() == 2


def conjugacy_class(h):
    """Every conjugate of ``h`` in Sym(n): closure under conjugation by the
    generators (0 1) and (0 1 ... n-1) of Sym(n)."""
    n = h.degree
    movers = [Permutation.transposition(n, 0, 1),
              Permutation([(x + 1) % n for x in range(n)])]
    found = {h}
    frontier = [h]
    while frontier:
        new = []
        for x in frontier:
            for g in movers:
                y = g * x * g.inverse()
                if y not in found:
                    found.add(y)
                    new.append(y)
        frontier = new
    return sorted(found, key=lambda g: g.images)


class TestAlternatingRecognition:
    """Generators of a normal subgroup of Sym(n) inside Alt(n): the
    conjugacy classes of some even permutations."""

    def check(self, degree, seeds):
        gens = [c for h in seeds for c in conjugacy_class(h)]
        decided = normal_alternating_order(degree, gens)
        chain = PermGroup(gens or [Permutation.identity(degree)])
        assert decided == chain.order()
        assert decided == sympy_order(gens or [Permutation.identity(degree)])
        assert (decided == math.factorial(degree) // 2) == chain.is_full_alternating()
        return decided

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 6).flatmap(
        lambda n: st.lists(permutations(n), min_size=1, max_size=2)))
    def test_matches_chain_and_sympy(self, drawn):
        degree = drawn[0].degree
        self.check(degree, [g for g in drawn if g.sign() == 1])

    def test_degree_four_klein_and_alternating(self):
        assert self.check(4, [cyc(4, (0, 1), (2, 3))]) == 4
        assert self.check(4, [cyc(4, (0, 1, 2))]) == 12
        assert self.check(4, [cyc(4, (0, 1), (2, 3)), cyc(4, (1, 2, 3))]) == 12
        assert self.check(4, []) == 1

    def test_degrees_two_three_and_five(self):
        assert normal_alternating_order(2, [Permutation.identity(2)]) == 1
        assert self.check(3, [cyc(3, (0, 1, 2))]) == 3
        assert self.check(5, [cyc(5, (0, 1), (2, 3))]) == 60
        assert self.check(5, [cyc(5, (0, 1, 2, 3, 4))]) == 60


@st.composite
def telescopes(draw, transitive=True):
    """Up to three components over k shared generators, each a base action
    plus one fresh point.  Unless ``transitive`` is false the first
    generator is a long cycle on every block, so every base is transitive."""
    k = draw(st.integers(1, 2))
    components = []
    for degree in sorted(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3,
                                       unique=True))):
        perms = [draw(permutations(degree)) for _ in range(k)]
        if transitive:
            perms[0] = Permutation([(x + 1) % degree for x in range(degree)])
        components.append(extend_action(perms, draw(st.integers(0, degree - 1))))
    return TelescopeGroup(tuple(components), tuple(f"g{i + 1}" for i in range(k)))


class TestCertifyAgainstChain:
    @PROPERTY
    @given(telescopes())
    def test_transitive_blocks_pass_with_cutoff_one(self, tg):
        assert check_subdirect(tg).passed
        report, cutoff, _ = alt_cutoff(tg)
        assert report.passed and cutoff == 1

    @PROPERTY
    @given(telescopes(transitive=False))
    def test_subdirect_and_kernel_orders(self, tg):
        subdirect = check_subdirect(tg)
        report, cutoff, kernel_gens = alt_cutoff(tg)
        for ci, (sym, alt) in enumerate(zip(subdirect.witnesses, report.witnesses[1:])):
            chain = PermGroup(tg.component_generators(ci))
            if "error" in sym:
                assert not chain.is_full_symmetric()
            else:
                assert sym["order"] == chain.order()
                assert sym["full_symmetric"] and chain.is_full_symmetric()
            degree = tg.components[ci].extended_degree
            projections = [e[ci] for e in kernel_gens] or [Permutation.identity(degree)]
            assert alt["kernel_projection_order"] == PermGroup(projections).order()
        assert subdirect.passed == all("error" not in w for w in subdirect.witnesses)

    def test_intransitive_block_falls_back_to_the_chain(self):
        # the second block's base (0 1) on 4 points is not transitive, so its
        # group is not Sym(5) and the kernel projection needs the chain
        tg = TelescopeGroup((extend_action([cyc(2, (0, 1))], 0),
                             extend_action([cyc(4, (0, 1))], 0)), ("g",))
        report, cutoff, kernel_gens = alt_cutoff(tg)
        projections = [e[1] for e in kernel_gens]
        assert report.witnesses[2]["kernel_projection_order"] == \
            PermGroup(projections).order() == 3
        assert not report.witnesses[2]["full_alternating"]
        assert cutoff is None and not report.passed

    @pytest.mark.parametrize("rec, levels", [(grigorchuk(), [1, 2, 3, 4]),
                                             (gupta_sidki_3(), [1, 2, 3])])
    def test_presets_build_no_stabilizer_chain(self, rec, levels, monkeypatch):
        tg = build_telescope(rec, levels)

        def refuse(*args):
            raise AssertionError("a stabilizer chain was built")
        monkeypatch.setattr(perm._StabilizerChain, "__init__", refuse)
        assert check_subdirect(tg).passed
        report, cutoff, _ = alt_cutoff(tg)
        assert report.passed and cutoff == 1


class TestPerfectnessShortcut:
    def test_perfect_root_group_runs_the_full_check(self):
        # root group A5 = <(0 1 2 3 4), (0 1 2)>; the odometer section keeps
        # every level transitive, and every generator image is even
        rec = WreathRecursion(
            arity=5, names=("a", "b"),
            root_perms=(cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1, 2))),
            sections=(((), (), (), (), (1,)), ((), (), (), (), ())),
            contracting=False)
        tg = build_telescope(rec, [1, 2])
        assert certify.check_perfect(PermGroup(rec.root_perms))
        witnesses = perfectness_scan(tg).witnesses
        for witness, comp in zip(witnesses, tg.components):
            base = PermGroup(certify._base_generators(comp))
            assert witness["perfect"] == certify.check_perfect(base)
        assert witnesses[0] == {"component": 1, "quotient_order": 60, "perfect": True}
