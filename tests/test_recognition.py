"""Sym/Alt recognition against the stabilizer chain and sympy.

``certify._is_symmetric`` decides a block group from its base action's
transitivity, without a chain.  Here random groups are decided both ways:
by the theorem, by ``PermGroup``'s chain, and by ``sympy.combinatorics``
(a test-only oracle).  ``check_subdirect`` is checked on random telescopes
the same way.  ``alt_cutoff`` rests on K >= [Gamma, Gamma] for the sign
kernel K; it is checked against ``schreier_sign_kernel``, which builds K
from Schreier generators, with chain orders of its block projections.  On
every input, ``check_subdirect`` and ``alt_cutoff`` must build no chain.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

import telescope.certify as certify
import telescope.perm as perm
from conftest import schreier_sign_kernel
from telescope.certify import alt_cutoff, check_subdirect, perfectness_scan, sign_vectors
from telescope.perm import PermGroup, Permutation, transitivity
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


def two_block_example():
    """Sym(3), then a block whose base (0 1) on 4 points is not transitive,
    so its group is Sym({0, 1, 4}), not Sym(5)."""
    return TelescopeGroup((extend_action([cyc(2, (0, 1))], 0),
                           extend_action([cyc(4, (0, 1))], 0)), ("g",))


def kernel_projection_orders(tg, kernel_gens):
    """Chain orders of the block projections of the oracle's sign kernel."""
    orders = []
    for ci, comp in enumerate(tg.components):
        projections = ([e[ci] for e in kernel_gens]
                       or [Permutation.identity(comp.extended_degree)])
        orders.append(PermGroup(projections).order())
    return orders


def assert_matches_sign_kernel_oracle(tg):
    """``alt_cutoff`` against the explicit Schreier sign kernel: the cutoff,
    every ``full_alternating`` flag, every Sym row's order, and the sign
    image size (also ``sign_vectors``') against the transversal's."""
    transversal, kernel_gens = schreier_sign_kernel(tg)
    report, cutoff = alt_cutoff(tg)
    full = []
    for comp, row, order in zip(tg.components, report.witnesses[1:],
                                kernel_projection_orders(tg, kernel_gens)):
        full.append(order == math.factorial(comp.extended_degree) // 2)
        assert row["full_alternating"] == full[-1]
        if "error" not in row:
            assert row["kernel_projection_order"] == order
    assert cutoff == next((i + 1 for i in range(len(full)) if all(full[i:])), None)
    assert report.parameters["sign_image_size"] == len(transversal)
    assert sign_vectors(tg)[1] == len(transversal)


@pytest.fixture
def refuse_chain(monkeypatch):
    def refuse(*args):
        raise AssertionError("a stabilizer chain was built")
    monkeypatch.setattr(perm._StabilizerChain, "__init__", refuse)


class TestCertifyAgainstChain:
    @PROPERTY
    @given(telescopes())
    def test_transitive_blocks_pass_with_cutoff_one(self, tg):
        assert check_subdirect(tg).passed
        report, cutoff = alt_cutoff(tg)
        assert report.passed and cutoff == 1
        assert_matches_sign_kernel_oracle(tg)

    @PROPERTY
    @given(telescopes(transitive=False))
    def test_subdirect_and_kernel_orders(self, tg):
        subdirect = check_subdirect(tg)
        for ci, sym in enumerate(subdirect.witnesses):
            chain = PermGroup(tg.component_generators(ci))
            if "error" in sym:
                assert not chain.is_full_symmetric()
            else:
                assert sym["order"] == chain.order()
                assert sym["full_symmetric"] and chain.is_full_symmetric()
        assert subdirect.passed == all("error" not in w for w in subdirect.witnesses)
        assert_matches_sign_kernel_oracle(tg)

    def test_intransitive_block_falls_back_to_the_chain(self):
        # the second block's group is not Sym(5); alt_cutoff decides it
        # without a chain, and the oracle's kernel projects onto a group of
        # order 3 there, far from Alt(5)
        tg = two_block_example()
        report, cutoff = alt_cutoff(tg)
        assert kernel_projection_orders(tg, schreier_sign_kernel(tg)[1])[1] == 3
        assert report.witnesses[2] == {
            "component": 2, "extended_degree": 5,
            "error": "block is not the full symmetric group",
            "full_alternating": False}
        assert cutoff is None and not report.passed
        assert_matches_sign_kernel_oracle(tg)

    def test_oracle_catches_a_wrong_symmetric_decision(self, monkeypatch):
        monkeypatch.setattr(certify, "_is_symmetric", lambda comp: True)
        with pytest.raises(AssertionError):
            assert_matches_sign_kernel_oracle(two_block_example())

    @pytest.mark.parametrize("rec, levels", [(grigorchuk(), [1, 2, 3, 4, 5]),
                                             (gupta_sidki_3(), [1, 2, 3])])
    def test_presets_match_the_sign_kernel_oracle(self, rec, levels):
        assert_matches_sign_kernel_oracle(build_telescope(rec, levels))

    @pytest.mark.parametrize("rec, levels", [(grigorchuk(), [1, 2, 3, 4]),
                                             (gupta_sidki_3(), [1, 2, 3])])
    def test_presets_build_no_stabilizer_chain(self, rec, levels, refuse_chain):
        tg = build_telescope(rec, levels)
        assert check_subdirect(tg).passed
        report, cutoff = alt_cutoff(tg)
        assert report.passed and cutoff == 1

    def test_intransitive_example_builds_no_stabilizer_chain(self, refuse_chain):
        tg = two_block_example()
        assert not check_subdirect(tg).passed
        report, cutoff = alt_cutoff(tg)
        assert cutoff is None and not report.passed


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
