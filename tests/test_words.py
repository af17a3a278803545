import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from telescope.cli import load_config
from telescope.perm import Permutation
from telescope.selfsim import grigorchuk, gupta_sidki_3
from telescope.tower import build_telescope
from telescope.words import (LetterTable, build_w, compose_signed, format_word,
                             invert_signed, parse_word, reduce_signed, trace)

# the GGS group with p = 5 and e = (1, 2, 3, 4), as an inline table
GGS5 = Path(__file__).resolve().parent / "golden" / "ggs5_1-4.json"


def code_words(gen_count, transposition=True):
    """Reduced code words over g1..g<gen_count>, their inverses and, if
    ``transposition``, t."""
    letters = [s * g for g in range(1, gen_count + 1) for s in (1, -1)]
    if transposition:
        letters.append(0)
    return st.lists(st.sampled_from(letters), max_size=12).map(reduce_signed)


class TestReduction:
    def test_empty(self):
        assert reduce_signed(()) == () == parse_word("")

    def test_inverse_pair_cancels(self):
        assert reduce_signed((1, -1)) == ()

    def test_tau_is_involutive(self):
        assert reduce_signed((0, 0)) == ()
        assert invert_signed((0,)) == (0,)

    def test_idempotent(self):
        once = reduce_signed([1, 2, -2, 0, 0, 1])
        assert reduce_signed(once) == once == (1, 1)

    def test_word_times_inverse_is_empty(self):
        w = (0, 1, -2, 1)
        assert reduce_signed(w + invert_signed(w)) == ()

    def test_no_group_relations(self):
        # generator letters square freely; only formal inverses cancel
        assert len(reduce_signed((1, 1))) == 2


class TestCodes:
    def test_codes_letters_and_str_agree(self):
        w = (0, 1, -2, 3, 0)
        assert format_word(w) == "t g1 g2^-1 g3 t"
        assert parse_word(format_word(w)) == w

    def test_tau_and_inverse_pairs_cancel_on_codes(self):
        assert reduce_signed((0, 0)) == ()
        assert reduce_signed((2, 1, -1, 0, 0, 3)) == (2, 3)
        assert reduce_signed((1, 0, 0, -1)) == ()


class TestTerminalSubword:
    # the terminal subword of length k is the slice word[len(word) - k:];
    # its trace from a point is the first k entries of the full word's trace
    def setup_method(self):
        self.gens = [Permutation.from_cycles(3, [(0, 1)]),
                     Permutation.from_cycles(3, [(1, 2)]),
                     Permutation.from_cycles(3, [(0, 1, 2)])]
        self.tau = Permutation.from_cycles(3, [(0, 2)])

    def terminal(self, word, k):
        return word[len(word) - k:]

    def test_last_two(self):
        w = (1, 2, 3)
        assert self.terminal(w, 2) == (2, 3)
        for point in range(3):
            full = trace(w, point, self.gens, self.tau)
            assert trace((2, 3), point, self.gens, self.tau) == full[:2]

    def test_zero(self):
        w = (1, 2)
        assert self.terminal(w, 0) == ()
        letters = LetterTable(self.gens, self.tau)
        assert compose_signed(self.terminal(w, 0), letters) == (0, 1, 2)
        assert trace(self.terminal(w, 0), 1, self.gens, self.tau) == ()
        # a component's, the union's and a tree level's table each give the
        # empty word the identity of their own degree, and refuse a letter
        # they do not assign
        rec = grigorchuk()
        tg = build_telescope(rec, [1, 2, 3])
        level = LetterTable(rec.level_action(3))
        for table, degree in ((tg.components[1].letters, 5), (tg.union_letters, 17),
                              (level, 8)):
            assert table.degree == degree
            assert compose_signed((), table) == tuple(range(degree))
            for word, name in (((5,), "g5"), ((1, -5), r"g5\^-1")):
                with pytest.raises(ValueError,
                                   match=f"^letter {name} has no assigned permutation$"):
                    compose_signed(word, table)
        with pytest.raises(ValueError,
                           match="^word uses the transposition letter but none is assigned$"):
            compose_signed((1, 0), level)

    def test_full_word(self):
        w = (0, 1)
        assert self.terminal(w, 2) == w
        assert self.terminal(w, 1) == (1,)
        for point in range(3):
            full = trace(w, point, self.gens, self.tau)
            assert trace(self.terminal(w, 1), point, self.gens, self.tau) == full[:1]


class TestFormat:
    def test_empty_word_is_one(self):
        assert format_word(()) == "1"
        assert format_word((), ("a", "b")) == "1"

    def test_name_table(self):
        assert format_word((1, -2, 2), ("a", "b")) == "a b^-1 b"
        # a generator may be named t; its inverse is spelled t^-1
        assert format_word((-2, 1), ("a", "t")) == "t^-1 a"

    def test_name_table_refuses_the_transposition(self):
        # the transposition is not a generator of the recursion: with a
        # name table it has no spelling, rather than the last generator's
        # inverse or a name a generator may carry
        tg = build_telescope(grigorchuk(), [1, 2])
        with pytest.raises(ValueError, match="transposition"):
            format_word((0, 1, -2), tg.gen_names)
        with pytest.raises(ValueError, match="transposition"):
            format_word((0,), ("a", "t"))

    @given(code_words(12))
    @example(())
    def test_parse_word_round_trip(self, word):
        assert parse_word(format_word(word)) == word
        assert parse_word(format_word(word), gen_count=12) == word

    def test_lone_one_is_the_empty_word(self):
        assert parse_word("1") == parse_word(" 1\t") == ()
        assert grigorchuk().parse("1") == ()
        # only alone: 1 is no letter of a longer word
        for bad in ("1 g1", "g1 1", "1 1", "1^-1"):
            with pytest.raises(ValueError, match="unknown word token"):
                parse_word(bad)
            with pytest.raises(ValueError, match="unknown word token"):
                grigorchuk().parse(bad.replace("g1", "a"))

    @pytest.mark.parametrize("make", [
        grigorchuk, gupta_sidki_3, lambda: load_config(GGS5).recursion,
    ], ids=["grigorchuk", "gupta-sidki-3", "ggs5"])
    @given(data=st.data())
    def test_generator_names_round_trip(self, make, data):
        rec = make()
        word = data.draw(code_words(rec.generator_count, transposition=False))
        assert rec.parse(format_word(word, rec.names)) == word

    @pytest.mark.parametrize("make", [
        grigorchuk, gupta_sidki_3, lambda: load_config(GGS5).recursion,
    ], ids=["grigorchuk", "gupta-sidki-3", "ggs5"])
    def test_generator_names_round_trip_of_the_empty_word(self, make):
        rec = make()
        assert rec.parse(format_word((), rec.names)) == ()


class TestTrace:
    def setup_method(self):
        self.g = Permutation.from_cycles(3, [(0, 1)])
        self.tau = Permutation.from_cycles(3, [(0, 2)])

    def test_empty_word(self):
        assert trace((), 1, [self.g], self.tau) == ()

    def test_tau_g_from_zero(self):
        assert trace((0, 1), 0, [self.g], self.tau) == (1, 1)

    def test_tau_g_from_one(self):
        assert trace((0, 1), 1, [self.g], self.tau) == (0, 2)

    def test_last_entry_is_evaluation(self):
        letters = LetterTable([self.g], self.tau)
        for word in ((0, 1), (1, 0, 1), build_w(1, 3, 0)):
            image = compose_signed(word, letters)
            for point in range(3):
                entries = trace(word, point, [self.g], self.tau)
                assert entries[-1] == image[point]

    def test_prefix_coherence(self):
        # entry j is the terminal subword of length j applied to the point,
        # from the empty subword to the full word
        word = build_w(1, 2, 0)
        for point in range(3):
            full = trace(word, point, [self.g], self.tau)
            for j in range(len(word) + 1):
                sub = trace(word[len(word) - j:], point, [self.g], self.tau)
                assert sub == full[:j]

    def test_unassigned_letter_rejected(self):
        with pytest.raises(ValueError):
            trace((0,), 0, [self.g], None)
        with pytest.raises(ValueError):
            trace((2,), 0, [self.g], self.tau)

    def test_point_out_of_domain(self):
        with pytest.raises(ValueError):
            trace((1,), 3, [self.g], self.tau)

    def test_inverse_letters(self):
        rot = Permutation.from_cycles(3, [(0, 1, 2)])
        assert trace((-1,), 1, [rot], None) == (0,)


class TestFamilies:
    def test_build_w_examples(self):
        assert build_w(1, 2, 0) == (0, 1, 0, 1)
        assert build_w(2, 0, 1) == (0, 1)
        assert build_w(2, 0, 0) == ()
        assert format_word(build_w(2, 1, 1)) == "t g1 t g2 t g1"

    def test_lengths(self):
        for k, n, i in [(1, 0, 0), (1, 4, 0), (2, 3, 1), (3, 2, 2)]:
            assert len(build_w(k, n, i)) == 2 * (n * k + i)

    def test_bad_partial_index(self):
        with pytest.raises(ValueError):
            build_w(2, 1, 2)

    def test_suffix_self_similarity(self):
        # the terminal subword of length 2*(a*k + i) is the a-fold family word;
        # suffixes at other even lengths start mid-cycle and are rotations
        for k, n, i in [(1, 3, 0), (2, 2, 1), (3, 2, 2), (2, 3, 0)]:
            w = build_w(k, n, i)
            for a in range(n + 1):
                assert w[len(w) - 2 * (a * k + i):] == build_w(k, a, i)

    def test_suffix_at_incongruent_length_is_a_rotation(self):
        # k=2, n=1, i=1: the length-4 suffix is t g2 t g1, not t g1 t g2
        suffix = build_w(2, 1, 1)[-4:]
        assert suffix == (0, 2, 0, 1)
        assert suffix != build_w(2, 1, 0)


class TestParsing:
    def test_round_trip(self):
        text = "t g1 t g2^-1 g1"
        assert format_word(parse_word(text)) == text

    def test_rejects_bad_tokens(self):
        for bad in ("g0", "gx", "x", "g1^2", "t^-1 g", "g-1"):
            with pytest.raises(ValueError):
                parse_word(bad)

    @pytest.mark.parametrize("token", ["g\u00b2", "g\u0661", "g\u0661^-1"])
    def test_rejects_digits_that_are_not_ascii(self, token):
        # str.isdigit accepts both; int() rejects the superscript two and
        # reads the Arabic-Indic one as 1
        message = re.escape(f"unknown word token {token!r}")
        with pytest.raises(ValueError, match=message):
            parse_word(token)
        with pytest.raises(ValueError, match=message):
            parse_word(f"t {token}", gen_count=4)

    @pytest.mark.parametrize("token", ["g01", "g00", "g01^-1", "g007"])
    def test_rejects_leading_zeros(self, token):
        # int() would read 'g01' as g1
        with pytest.raises(ValueError, match=re.escape(f"unknown word token {token!r}")):
            parse_word(f"t {token}", gen_count=9)

    def test_index_past_the_digit_limit_names_token(self):
        # without a generator count, the digits are held against the
        # interpreter's limit before int() would refuse them
        limit = sys.get_int_max_str_digits()
        token = "g" + "1" * (limit + 1)
        with pytest.raises(ValueError, match=f"^token '{token}' has more digits than the "
                                             f"interpreter's limit of {limit}$"):
            parse_word(f"t {token}^-1")
        assert parse_word("g" + "1" * limit) == (int("1" * limit),)

    def test_generator_bound(self):
        with pytest.raises(ValueError):
            parse_word("g3", gen_count=2)
        assert parse_word("g2", gen_count=2) == (2,)
        assert parse_word("g10 t", gen_count=10) == (10, 0)

    def test_parse_reduces(self):
        assert parse_word("g1 g1^-1 t t") == ()
