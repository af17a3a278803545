import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from conftest import brute_closure, cyc, schreier_sign_kernel
from telescope.cli import load_config
from telescope.certify import (alt_cutoff, certificate_bytes, check_perfect,
                               check_subdirect, check_tail_injectivity,
                               component_table, emit_certificate,
                               perfectness_scan, sign_vectors)
from telescope.perm import PermGroup, Permutation
from telescope.reports import CheckReport
from telescope.selfsim import grigorchuk, gupta_sidki_3
from telescope.tower import ExtendedAction, TelescopeGroup, build_telescope
from telescope.words import format_word

GGS5 = Path(__file__).resolve().parent / "golden" / "ggs5_1-4.json"


def json_dumps_bytes(doc):
    """The bytes ``certificate_bytes`` promises, from the standard encoder."""
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode("ascii")


# strings with non-ASCII and control characters, lone surrogates, quotes,
# backslashes and brackets; ints past a machine word, negative ones and ones
# of 1,000 digits; empty containers as leaves, so they occur at every depth
json_text = st.text(st.one_of(st.characters(blacklist_categories=()),
                              st.sampled_from('"\\[]{}\n\t\x00\x1f\x7f')),
                    max_size=8)
json_ints = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                      st.integers(10 ** 999, 10 ** 1000 - 1),
                      st.integers(-(10 ** 1000 - 1), -(10 ** 999)))
json_leaves = st.one_of(st.none(), st.booleans(), json_ints, json_text,
                        st.sampled_from([{}, [], ()]))
json_docs = st.recursive(
    json_leaves,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(json_text, children, max_size=4)),
    max_leaves=40)


def single_component(perms, basepoint, names):
    return TelescopeGroup((ExtendedAction(perms, basepoint),), tuple(names))


@pytest.fixture(scope="module")
def grig123(grig):
    return build_telescope(grig, [1, 2, 3])


class TestSubdirect:
    def test_c3_extends_to_sym4(self):
        tg = single_component([cyc(3, (0, 1, 2))], 2, ["r"])
        report = check_subdirect(tg)
        assert report.passed
        assert report.witnesses[0]["order"] == 24
        closure = brute_closure([cyc(4, (0, 1, 2)), cyc(4, (2, 3))])
        assert len(closure) == 24

    def test_trivial_base(self):
        tg = single_component([Permutation.identity(1)], 0, ["e"])
        report = check_subdirect(tg)
        assert report.passed
        assert report.witnesses[0]["order"] == 2

    def test_grigorchuk_orders(self, grig123):
        report = check_subdirect(grig123)
        assert report.passed
        orders = [w["order"] for w in report.witnesses]
        assert orders == [math.factorial(3), math.factorial(5), math.factorial(9)]


class TestTailInjectivity:
    def test_radius_zero_vacuous(self, grig123):
        report = check_tail_injectivity(grig123, 0)
        assert report.passed
        assert report.witnesses[0]["ball_size"] == 1

    def test_deep_levels_separate(self, grig123):
        report = check_tail_injectivity(grig123, 2)
        assert report.passed
        assert report.witnesses[0] == {"ball_size": 11, "separated": 11}

    def test_level_one_collides(self, grig):
        tg = build_telescope(grig, [1])
        report = check_tail_injectivity(tg, 1)
        assert not report.passed
        colliding = {w["word"] for w in report.witnesses}
        assert "b" in colliding  # b acts trivially on the two level-1 vertices

    @pytest.mark.parametrize("make, levels, pairs", [
        # d acts trivially on levels 1 and 2, and c like b
        (grigorchuk, [1, 2], [("c", "b"), ("d", "1"), ("a c", "a b"), ("a d", "a"),
                              ("c a", "b a"), ("d a", "a")]),
        # the second generator is named t: t^-1 is its inverse, not the
        # telescope's transposition, and it fixes level 1
        (gupta_sidki_3, [1], [("t", "1"), ("t^-1", "1"), ("a t", "a"), ("a t^-1", "a"),
                              ("a^-1 t", "a^-1"), ("a^-1 t^-1", "a^-1"), ("t a", "a"),
                              ("t a^-1", "a^-1"), ("t^-1 a", "a"), ("t^-1 a^-1", "a^-1")]),
    ])
    def test_witnesses_spell_generator_names(self, make, levels, pairs):
        report = check_tail_injectivity(build_telescope(make(), levels), 2)
        assert not report.passed
        assert report.witnesses == [{"word": word, "collides_with": other, "tail_start": 1}
                                    for word, other in pairs]


def per_component_tail_injectivity(tg, radius):
    """``check_tail_injectivity``'s report, each ball word keyed by its
    images on the components, each evaluated on its own."""
    ball = tg.rec.ball(radius)
    seen = {}
    collisions = []
    for word in ball:
        key = tuple(tg.evaluate_component(word, ci).images
                    for ci in range(len(tg.components)))
        if key in seen:
            collisions.append({"word": format_word(word, tg.gen_names),
                               "collides_with": format_word(seen[key], tg.gen_names),
                               "tail_start": 1})
        else:
            seen[key] = word
    return {"name": "tail_injectivity",
            "parameters": {"ball_radius": radius, "start_component": 1,
                           "ball_size": len(ball)},
            "status": "fail" if collisions else "pass",
            "witnesses": collisions or [{"ball_size": len(ball), "separated": len(seen)}]}


@pytest.mark.parametrize("make, levels", [
    (grigorchuk, [1]), (grigorchuk, [1, 2]), (grigorchuk, [1, 2, 3, 4]),
    (gupta_sidki_3, [1]), (gupta_sidki_3, [1, 2, 3]),
    (lambda: load_config(GGS5).recursion, [1]), (lambda: load_config(GGS5).recursion, [1, 2]),
], ids=["grigorchuk-1", "grigorchuk-1-2", "grigorchuk-1-4", "gupta-sidki-1",
        "gupta-sidki-1-3", "ggs5-1", "ggs5-1-2"])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_tail_injectivity_keys_like_the_components(make, levels, radius):
    # the union image is the key: two words agree on it exactly when they
    # agree on every component
    tg = build_telescope(make(), levels)
    assert (check_tail_injectivity(tg, radius).as_dict()
            == per_component_tail_injectivity(tg, radius))


def signs_and_size(report):
    """The sign vectors of a ``sign_vectors`` report, as tuples in symbol
    order, and its image size."""
    *rows, last = report.witnesses
    return [tuple(row["signs"]) for row in rows], last["image_size"]


class TestSignVectors:
    def test_tau_is_all_odd(self, grig123):
        report = sign_vectors(grig123)
        assert report.parameters["symbols"][-1] == "t"
        assert report.witnesses[-2] == {"symbol": "t", "signs": [-1, -1, -1]}

    def test_grigorchuk_level_pair(self, grig):
        report = sign_vectors(build_telescope(grig, [1, 2]))
        assert signs_and_size(report)[0][0] == (-1, 1)
        assert report.passed

    def test_even_generator_is_all_plus(self, grig123):
        vectors, _ = signs_and_size(sign_vectors(grig123))
        assert vectors[3][0] == 1  # d acts trivially on the first block

    def test_image_size_is_power_of_two(self, grig1234):
        assert signs_and_size(sign_vectors(grig1234))[1] == 16

    def test_full_vector_table(self, grig1234):
        report = sign_vectors(grig1234)
        assert report.parameters["symbols"] == ["a", "b", "c", "d", "t"]
        assert signs_and_size(report)[0] == [
            (-1, 1, 1, 1),
            (1, -1, -1, 1),
            (1, -1, 1, -1),
            (1, 1, -1, -1),
            (-1, -1, -1, -1),
        ]

    def test_generator_named_t_keeps_its_vector(self, grig1234):
        # Grigorchuk with a renamed t: the generator's vector and tau's are
        # both counted, as in the Schreier transversal of the sign image
        renamed = TelescopeGroup(grig1234.components, ("t", "b", "c", "d"),
                                 grig1234.rec)
        report = sign_vectors(renamed)
        vectors, size = signs_and_size(report)
        assert report.parameters["symbols"] == ["t", "b", "c", "d", "t"]
        assert vectors[0] == (-1, 1, 1, 1) and vectors[-1] == (-1, -1, -1, -1)
        transversal, _ = schreier_sign_kernel(renamed)
        assert size == len(transversal) == 16
        assert alt_cutoff(renamed)[0].parameters["sign_image_size"] == 16


class TestAltCutoff:
    def test_sym3_kernel_is_alt3(self):
        tg = single_component([cyc(2, (0, 1))], 0, ["g"])
        report, cutoff = alt_cutoff(tg)
        assert report.passed and cutoff == 1
        assert report.witnesses[1]["kernel_projection_order"] == 3

    def test_sym4_kernel_is_alt4(self):
        tg = single_component([cyc(3, (0, 1, 2))], 2, ["r"])
        report, cutoff = alt_cutoff(tg)
        assert cutoff == 1
        assert report.witnesses[1]["kernel_projection_order"] == 12

    def test_grigorchuk_cutoff_exists(self, grig1234):
        report, cutoff = alt_cutoff(grig1234)
        assert report.passed
        assert cutoff is not None
        for witness in report.witnesses[1:]:
            if witness["component"] >= cutoff:
                assert witness["full_alternating"]
                expected = math.factorial(witness["extended_degree"]) // 2
                assert witness["kernel_projection_order"] == expected

    def test_kernel_generators_are_all_even(self, grig1234):
        # the kernel alt_cutoff argues about, built explicitly by the oracle
        _, gens = schreier_sign_kernel(grig1234)
        report, _ = alt_cutoff(grig1234)
        assert report.parameters["kernel_generators"] == 0
        assert gens
        for element in gens:
            assert all(p.sign() == 1 for p in element)

    def test_cutoff_monotone_under_prefix(self, grig123, grig1234):
        _, small_cut = alt_cutoff(grig123)
        _, large_cut = alt_cutoff(grig1234)
        assert small_cut == large_cut == 1


class TestPerfect:
    def test_alt5_is_perfect(self):
        group = PermGroup([cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1, 2))])
        assert check_perfect(group)

    def test_sym3_is_not(self):
        assert not check_perfect(PermGroup([cyc(3, (0, 1, 2)), cyc(3, (0, 1))]))

    def test_trivial_is_perfect(self):
        assert check_perfect(PermGroup([Permutation.identity(3)]))

    def test_abelian_is_not(self):
        assert not check_perfect(PermGroup([cyc(4, (0, 1, 2, 3))]))

    def test_agrees_with_sign_structure_on_small_groups(self):
        # a group generated by odd permutations surjects onto {+1,-1},
        # so it cannot be perfect
        for gens in ([cyc(4, (0, 1))], [cyc(5, (0, 1), (2, 3, 4))],
                     [cyc(6, (0, 1, 2, 3, 4, 5))]):
            if any(g.sign() == -1 for g in gens):
                assert not check_perfect(PermGroup(gens))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.lists(
        st.tuples(st.permutations(range(n)), st.booleans()), min_size=1, max_size=3)))
    def test_matches_sympy(self, drawn):
        # squaring a generator makes it even, so perfect groups are drawn too
        gens = [Permutation(images) ** (2 if square else 1) for images, square in drawn]
        expected = SympyGroup([SympyPermutation(list(g.images)) for g in gens]).is_perfect
        assert check_perfect(PermGroup(gens)) == expected

    def test_quotient_scan_is_informational(self, grig123):
        report = perfectness_scan(grig123)
        assert report.parameters == {"informational": True}
        assert report.passed
        assert [w["quotient_order"] for w in report.witnesses] == [2, 8, 128]
        assert not any(w["perfect"] for w in report.witnesses)


class TestCertificate:
    def make_checks(self):
        return [
            CheckReport("subdirect", {"components": 1}, True,
                        [{"component": 1, "order": 6}]),
            CheckReport("alt_cutoff", {}, False),
        ]

    def test_roundtrip_and_digest(self):
        cert = emit_certificate(b"{}", [], self.make_checks(), 1, [])
        doc = json.loads(certificate_bytes(cert))
        assert doc == cert
        assert [check["status"] for check in doc["checks"]] == ["pass", "fail"]
        assert doc["format_version"] == 4
        assert doc["config_digest"] == (
            "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a")
        assert doc["alt_cutoff"] == 1

    def test_deterministic_bytes(self):
        a = emit_certificate(b"xyz", [], self.make_checks(), None, [])
        b = emit_certificate(b"xyz", [], self.make_checks(), None, [])
        assert certificate_bytes(a) == certificate_bytes(b)

    def test_pass_without_witnesses_rejected(self):
        checks = [CheckReport("subdirect", {}, True)]
        with pytest.raises(ValueError):
            emit_certificate(b"{}", [], checks, None, [])

    def test_empty_check_list_is_minimal_valid(self):
        cert = emit_certificate(b"config", [], [], None, [])
        doc = json.loads(certificate_bytes(cert))
        assert doc["checks"] == []
        assert len(doc["config_digest"]) == 64

    @settings(max_examples=300, deadline=None)
    @given(json_docs)
    @example([(), [{}], {"a": {}}, []])
    @example(["\u00e9\U0001f600\ud800", "\"\\[{\x00", -1, 0, None, True, False])
    @example(-(10 ** 999))
    @example("")
    def test_bytes_match_json_dumps(self, doc):
        assert certificate_bytes(doc) == json_dumps_bytes(doc)

    # 10**4300 has 4,301 digits, one past the limit; a dict value and a list
    # item are written by different lines of the writer
    @pytest.mark.parametrize("doc", [{"order": 10 ** 4300}, [-(10 ** 4300)]])
    def test_int_past_the_digit_limit_raises_as_json_dumps_does(self, doc):
        with pytest.raises(ValueError) as oracle:
            json_dumps_bytes(doc)
        with pytest.raises(ValueError) as written:
            certificate_bytes(doc)
        assert str(written.value) == str(oracle.value)
        assert "4300" in str(written.value)

    @pytest.mark.parametrize("value, message", [
        (1.5, "values must be int, str, bool, None, dict, list or tuple, not float"),
        ([0, {"x": 2.0}], "values must be int, str, bool, None, dict, list or tuple, not float"),
        ({1, 2}, "values must be int, str, bool, None, dict, list or tuple, not set"),
        (b"x", "values must be int, str, bool, None, dict, list or tuple, not bytes"),
        ({1: 2}, "keys must be str, not int"),
        ({"a": {(1, 2): 0}}, "keys must be str, not tuple"),
    ])
    def test_other_types_raise_type_error(self, value, message):
        with pytest.raises(TypeError, match=rf"^certificate {message}$"):
            certificate_bytes(value)

    def test_component_table(self, grig123):
        rows = component_table(grig123)
        assert rows == [
            {"component": 1, "level": 1, "base_degree": 2,
             "extended_degree": 3, "basepoint": 0},
            {"component": 2, "level": 2, "base_degree": 4,
             "extended_degree": 5, "basepoint": 0},
            {"component": 3, "level": 3, "base_degree": 8,
             "extended_degree": 9, "basepoint": 0},
        ]
