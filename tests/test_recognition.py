"""Sym/Alt recognition against the stabilizer chain and sympy.

A component's base action is transitive by construction: ``ExtendedAction``
rejects any other.  From that invariant every block group is Sym(m) (a star
of transpositions), so ``check_subdirect`` reports m! without a chain.
Here freely drawn generators are checked three ways: construction succeeds
exactly when the BFS ``transitivity_oracle`` finds the base transitive, and
then the reported order equals ``PermGroup``'s chain order and the order
from ``sympy.combinatorics`` (a test-only oracle).  ``alt_cutoff`` rests on
K >= [Gamma, Gamma] for the sign kernel K; it is checked against
``schreier_sign_kernel``, which builds K from Schreier generators, with
chain orders of its block projections.  With the construction check
patched away, an intransitive block slips through and that oracle must
catch the wrong ``alt_cutoff`` row.  ``check_subdirect``, ``alt_cutoff`` and
``transitivity_report`` must build no chain and compute no orbit.  On
the presets ``perfectness_scan`` and a whole ``verify`` build no chain
either: their root group is cyclic of prime order, so the quotient orders
come from one induced polycyclic sequence.  Every other telescope keeps
the chain, and its witnesses are pinned.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

import telescope.certify as certify
import telescope.perm as perm
import telescope.tower as tower
from conftest import (custom_arity_3, cyc, cyclic_root_recursions, schreier_sign_kernel,
                      transitivity_oracle)
from telescope.certify import alt_cutoff, check_subdirect, perfectness_scan, sign_vectors
from telescope.cli import PRESETS, load_config, main
from telescope.perm import PermGroup, Permutation
from telescope.selfsim import WreathRecursion, grigorchuk, gupta_sidki_3
from telescope.tower import (ExtendedAction, TelescopeGroup, build_telescope,
                             transitivity_report)

PROPERTY = settings(max_examples=150, deadline=None)
DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo_c2.json"


def sympy_order(generators):
    return SympyGroup([SympyPermutation(list(g.images)) for g in generators]).order()


@st.composite
def permutations(draw, degree):
    return Permutation(draw(st.permutations(range(degree))))


@st.composite
def free_actions(draw):
    """One or two freely drawn generators on 1..6 points and a basepoint;
    the base is often not transitive."""
    degree = draw(st.integers(1, 6))
    perms = [draw(permutations(degree)) for _ in range(draw(st.integers(1, 2)))]
    return perms, draw(st.integers(0, degree - 1))


class TestSymmetricRecognition:
    @PROPERTY
    @given(free_actions())
    def test_matches_chain_and_sympy(self, drawn):
        perms, basepoint = drawn
        if not transitivity_oracle(perms)["transitive"]:
            with pytest.raises(ValueError, match="not transitive"):
                ExtendedAction(perms, basepoint)
            return
        comp = ExtendedAction(perms, basepoint)
        tg = TelescopeGroup((comp,), tuple(f"g{i + 1}" for i in range(len(perms))))
        report = check_subdirect(tg)
        gens = list(comp.gen_images) + [comp.tau]
        assert report.passed
        assert report.witnesses[0]["order"] == PermGroup(gens).order() == sympy_order(gens)

    def test_intransitive_base_is_rejected(self):
        # (0 1) on 4 points: the orbit of 0 is {0, 1}
        with pytest.raises(ValueError, match="orbit of 0 has 2 of 4 points"):
            ExtendedAction([cyc(4, (0, 1))], 0)

    def test_one_point_base_gives_sym_two(self):
        comp = ExtendedAction([Permutation.identity(1)], 0)
        tg = TelescopeGroup((comp,), ("e",))
        assert check_subdirect(tg).witnesses[0]["order"] == 2
        assert PermGroup([comp.tau]).order() == 2


@st.composite
def telescopes(draw):
    """Up to three components over k shared generators, each a base action
    plus one fresh point.  The first generator is a long cycle on every
    block, so every base is transitive; the others are drawn freely."""
    k = draw(st.integers(1, 2))
    components = []
    for degree in sorted(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3,
                                       unique=True))):
        perms = [draw(permutations(degree)) for _ in range(k)]
        perms[0] = Permutation([(x + 1) % degree for x in range(degree)])
        components.append(ExtendedAction(perms, draw(st.integers(0, degree - 1))))
    return TelescopeGroup(tuple(components), tuple(f"g{i + 1}" for i in range(k)))


def two_block_example():
    """Sym(3), then a block whose base (0 1) on 4 points is not transitive,
    so its group would be Sym({0, 1, 4}), not Sym(5).  Construction rejects
    it unless the check is patched away."""
    return TelescopeGroup((ExtendedAction([cyc(2, (0, 1))], 0),
                           ExtendedAction([cyc(4, (0, 1))], 0)), ("g",))


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
    every ``full_alternating`` flag, every row's order, and the sign image
    size (also ``sign_vectors``') against the transversal's."""
    transversal, kernel_gens = schreier_sign_kernel(tg)
    size = sign_vectors(tg)[1]
    report, cutoff = alt_cutoff(tg, size)
    full = []
    for comp, row, order in zip(tg.components, report.witnesses[1:],
                                kernel_projection_orders(tg, kernel_gens)):
        full.append(order == math.factorial(comp.extended_degree) // 2)
        assert row["full_alternating"] == full[-1]
        assert row["kernel_projection_order"] == order
    assert cutoff == next((i + 1 for i in range(len(full)) if all(full[i:])), None)
    assert report.parameters["sign_image_size"] == size == len(transversal)


def refuse_chain_make(group):
    if group.base is None:
        raise AssertionError("a stabilizer chain was built")


@pytest.fixture
def refuse_chain(monkeypatch):
    monkeypatch.setattr(perm.PermGroup, "_make_chain", refuse_chain_make)


@pytest.fixture
def refuse_orbit(monkeypatch):
    def refuse(*args):
        raise AssertionError("an orbit was computed")
    for module in (perm, tower, certify):
        monkeypatch.setattr(module, "orbit", refuse, raising=False)


class TestCertifyAgainstChain:
    @PROPERTY
    @given(telescopes())
    def test_transitive_blocks_pass_with_cutoff_one(self, tg):
        assert check_subdirect(tg).passed
        report, cutoff = alt_cutoff(tg, sign_vectors(tg)[1])
        assert report.passed and cutoff == 1
        assert_matches_sign_kernel_oracle(tg)

    @PROPERTY
    @given(telescopes())
    def test_subdirect_and_kernel_orders(self, tg):
        for ci, sym in enumerate(check_subdirect(tg).witnesses):
            comp = tg.components[ci]
            chain = PermGroup(list(comp.gen_images) + [comp.tau])
            assert sym["order"] == chain.order()
            assert sym["full_symmetric"] and chain.is_full_symmetric()
        assert_matches_sign_kernel_oracle(tg)

    def test_oracle_catches_a_wrong_symmetric_decision(self, monkeypatch):
        # without the construction check the intransitive second block gets
        # the theorem's rows, but the oracle's kernel projects onto a group
        # of order 3 there, far from Alt(5)
        monkeypatch.setattr(tower, "orbit", lambda gens, point: range(gens[0].degree))
        tg = two_block_example()
        assert alt_cutoff(tg, sign_vectors(tg)[1])[0].witnesses[2]["full_alternating"]
        assert kernel_projection_orders(tg, schreier_sign_kernel(tg)[1])[1] == 3
        with pytest.raises(AssertionError):
            assert_matches_sign_kernel_oracle(tg)

    @pytest.mark.parametrize("rec, levels", [(grigorchuk(), [1, 2, 3, 4, 5]),
                                             (gupta_sidki_3(), [1, 2, 3])])
    def test_presets_match_the_sign_kernel_oracle(self, rec, levels):
        assert_matches_sign_kernel_oracle(build_telescope(rec, levels))

    @pytest.mark.parametrize("rec, levels", [(grigorchuk(), [1, 2, 3, 4]),
                                             (gupta_sidki_3(), [1, 2, 3])])
    def test_presets_build_no_stabilizer_chain(self, rec, levels, refuse_chain,
                                               tmp_path, capsys, request):
        # a build makes the preset's components, each checked by its orbit;
        # after it neither construction nor the checks compute an orbit,
        # whichever test ran first
        preset = next(name for name, make in PRESETS.items() if make().names == rec.names)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"group": preset, "levels": levels}))
        assert main(["build", "--config", str(config)]) == 0
        request.getfixturevalue("refuse_orbit")
        out = tmp_path / "certificate.json"
        # only the stated pigeonhole fact fails
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 1
        assert "note: every failure is a counterexample" in capsys.readouterr().out
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        tg = build_telescope(load_config(str(config)).recursion, levels)
        assert transitivity_report(tg).passed
        assert check_subdirect(tg).passed
        report, cutoff = alt_cutoff(tg, sign_vectors(tg)[1])
        assert report.passed and cutoff == 1
        scan = perfectness_scan(tg)
        assert scan.witnesses == checks["perfectness_scan"]["witnesses"]
        assert not any(w["perfect"] for w in scan.witnesses)

    @pytest.mark.parametrize("make, levels", [(grigorchuk, range(1, 11)),
                                              (gupta_sidki_3, range(1, 7))])
    def test_deep_presets_build_without_orbits(self, make, levels, count_orbits):
        # the telescopes of deep word queries, up to degree 1024 and 729: a
        # fresh recursion's first build checks each level by one orbit, and
        # a second build reuses those components and computes none
        rec = make()
        first = build_telescope(rec, levels).components
        assert count_orbits[0] == len(levels)
        second = build_telescope(rec, levels).components
        assert count_orbits[0] == len(levels)
        assert len(first) == len(levels)
        assert all(a is b for a, b in zip(first, second))

    def test_demo_config_still_computes_an_orbit(self, count_orbits):
        # a config's own recursion table checks each level by its orbit
        config = load_config(DEMO_CONFIG)
        build_telescope(config.recursion, config.levels, config.basepoints)
        assert count_orbits[0] == len(config.levels) == 1

    def test_intransitive_example_builds_no_stabilizer_chain(self, refuse_chain):
        # construction decides transitivity by an orbit, not by a chain
        with pytest.raises(ValueError, match="not transitive"):
            two_block_example()


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
            assert witness["perfect"] == certify.check_perfect(PermGroup(comp.gen_images))
        assert witnesses[0] == {"component": 1, "quotient_order": 60, "perfect": True}


@pytest.fixture
def count_chains(monkeypatch):
    """The number of stabilizer chains built so far, in a one-item list: a
    call of the chain-making method counts when the group has no chain yet."""
    built = [0]
    original = perm.PermGroup._make_chain

    def counting(self):
        if self.base is None:
            built[0] += 1
        original(self)
    monkeypatch.setattr(perm.PermGroup, "_make_chain", counting)
    return built


def chain_scan(tg, root_perfect):
    """The scan's witnesses from a stabilizer chain per component; each
    generator image fixes the fresh point, so its group is the base
    quotient's."""
    witnesses = []
    for ci, comp in enumerate(tg.components, start=1):
        base = PermGroup(comp.gen_images)
        witnesses.append({"component": ci, "quotient_order": base.order(),
                          "perfect": root_perfect and certify.check_perfect(base)})
    return witnesses


def a5_root():
    """Root group A5 = <(0 1 2 3 4), (0 1 2)>, and c = (a, 1, 1, 1, 1) with a
    trivial root permutation: a finite group, A5 at level 1 and C5 wr A5,
    of order 5^5 * 60, at level 2."""
    return WreathRecursion(
        arity=5, names=("a", "b", "c"),
        root_perms=(cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1, 2)), Permutation.identity(5)),
        sections=(((),) * 5, ((),) * 5, ((1,), (), (), (), ())),
        contracting=True)


def unleveled_grigorchuk():
    """Grigorchuk's level-3 action as a plain permutation list, so its
    component records no level, on a telescope that carries the recursion."""
    rec = grigorchuk()
    return TelescopeGroup((ExtendedAction(list(rec.level_action(3)), 0),),
                          rec.names, rec)


@st.composite
def cyclic_root_telescopes(draw):
    """A telescope on the transitive levels among 1..3 of a recursion drawn
    by ``cyclic_root_recursions``."""
    rec = draw(cyclic_root_recursions())
    levels = [level for level in range(1, 4)
              if transitivity_oracle(rec.level_action(level))["transitive"]]
    assume(levels)
    return build_telescope(rec, levels)


class TestPolycyclicScope:
    @PROPERTY
    @given(cyclic_root_telescopes())
    def test_cyclic_root_scan_matches_the_chain(self, tg):
        assert tg.rec.root_cycle is not None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(perm.PermGroup, "_make_chain", refuse_chain_make)
            witnesses = perfectness_scan(tg).witnesses
        assert witnesses == chain_scan(tg, False)

    @pytest.mark.parametrize("tg, expected", [
        # root group <(0 1 2 3)>: the arity is not prime
        (build_telescope(WreathRecursion(
            4, ("a", "b"), (cyc(4, (0, 1, 2, 3)), Permutation.identity(4)),
            (((), (), (), (1,)), ((1,), (), (), (2,))), contracting=False), [1, 2, 3]),
         [(4, False), (1024, False), (68719476736, False)]),
        # root group <(0 1 2 3)> with b = (a, 1, 1, 1): C4, then C4 wr C4 of order 4^5
        (build_telescope(WreathRecursion(
            4, ("a", "b"), (cyc(4, (0, 1, 2, 3)), Permutation.identity(4)),
            (((),) * 4, ((1,), (), (), ())), contracting=False), [1, 2]),
         [(4, False), (1024, False)]),
        # root group Sym(3) = <(0 1 2), (0 1)>
        (build_telescope(custom_arity_3(), [1, 2, 3]),
         [(6, False), (648, False), (816293376, False)]),
        # root group A5, which is perfect: A5, then C5 wr A5 of order 5^5 * 60
        (build_telescope(a5_root(), [1, 2]), [(60, True), (187500, False)]),
        # no recursion: Sym(3), then Alt(5)
        (TelescopeGroup((ExtendedAction([cyc(3, (0, 1, 2)), cyc(3, (0, 1))], 0),
                         ExtendedAction([cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1, 2))], 1)),
                        ("g1", "g2")),
         [(6, False), (60, True)]),
        # Grigorchuk's recursion, but a component that records no level
        (unleveled_grigorchuk(), [(128, False)]),
    ], ids=["arity-4", "arity-4-wreath", "sym3-root", "a5-root", "no-recursion",
            "no-level"])
    def test_other_telescopes_keep_the_chain(self, tg, expected, count_chains):
        witnesses = perfectness_scan(tg).witnesses
        assert [(w["quotient_order"], w["perfect"]) for w in witnesses] == expected
        assert count_chains[0] >= len(tg.components)
        root_perfect = tg.rec is None or certify.check_perfect(PermGroup(tg.rec.root_perms))
        assert witnesses == chain_scan(tg, root_perfect)
        for witness, comp in zip(witnesses, tg.components):
            oracle = SympyGroup([SympyPermutation(list(p.images)) for p in comp.gen_images])
            assert (witness["quotient_order"], witness["perfect"]) == (
                oracle.order(), oracle.is_perfect)

    def test_a5_root_scan_builds_one_chain_per_group(self, count_chains):
        # the root group and its commutator subgroup, then each component's
        # group and its commutator subgroup: the closure grows one chain
        tg = build_telescope(a5_root(), [1, 2])
        assert [(w["quotient_order"], w["perfect"])
                for w in perfectness_scan(tg).witnesses] == [(60, True), (187500, False)]
        assert count_chains[0] == 6
