import re

import pytest

from telescope.perm import Permutation
from telescope.words import (Letter, TAU, Word, build_v, build_w, evaluate_word,
                             parse_word, reduce_word, terminal_subword, trace)

G1 = Letter(0)
G2 = Letter(1)


class TestReduction:
    def test_empty(self):
        assert len(Word()) == 0

    def test_inverse_pair_cancels(self):
        assert reduce_word([G1, G1.inverse()]) == Word()

    def test_tau_is_involutive(self):
        assert reduce_word([TAU, TAU]) == Word()
        assert TAU.inverse() == TAU

    def test_idempotent(self):
        letters = [G1, G2, G2.inverse(), TAU, TAU, G1]
        once = reduce_word(letters)
        assert reduce_word(once.letters) == once
        assert once == Word([G1, G1])

    def test_word_times_inverse_is_empty(self):
        w = Word([TAU, G1, G2.inverse(), G1])
        assert w * w.inverse() == Word()

    def test_no_group_relations(self):
        # generator letters square freely; only formal inverses cancel
        assert len(Word([G1, G1])) == 2


class TestCodes:
    def test_codes_letters_and_str_agree(self):
        w = Word([TAU, G1, G2.inverse(), Letter(2), TAU])
        assert w.codes == (0, 1, -2, 3, 0)
        assert w.letters == (TAU, G1, G2.inverse(), Letter(2), TAU)
        assert [l.code for l in w.letters] == list(w.codes)
        assert str(w) == " ".join(str(l) for l in w.letters) == "t g1 g2^-1 g3 t"
        assert Word.from_codes(w.codes) == w
        assert parse_word(str(w)).codes == w.codes

    def test_tau_and_inverse_pairs_cancel_on_codes(self):
        assert Word.from_codes((0, 0)).codes == ()
        assert Word.from_codes((2, 1, -1, 0, 0, 3)).codes == (2, 3)
        assert Word([G1, TAU, TAU, G1.inverse()]).codes == ()


class TestTerminalSubword:
    def test_last_two(self):
        w = Word([G1, G2, Letter(2)])
        assert terminal_subword(w, 2) == Word([G2, Letter(2)])

    def test_zero(self):
        assert terminal_subword(Word([G1, G2]), 0) == Word()

    def test_full_word(self):
        w = Word([TAU, G1])
        assert terminal_subword(w, 2) == w
        assert terminal_subword(w, 1) == Word([G1])

    def test_overlong_rejected(self):
        with pytest.raises(ValueError):
            terminal_subword(Word([G1]), 2)


class TestTrace:
    def setup_method(self):
        self.g = Permutation.from_cycles(3, [(0, 1)])
        self.tau = Permutation.from_cycles(3, [(0, 2)])

    def test_empty_word(self):
        assert trace(Word(), 1, [self.g], self.tau) == ()

    def test_tau_g_from_zero(self):
        assert trace(Word([TAU, G1]), 0, [self.g], self.tau) == (1, 1)

    def test_tau_g_from_one(self):
        assert trace(Word([TAU, G1]), 1, [self.g], self.tau) == (0, 2)

    def test_last_entry_is_evaluation(self):
        for word in (Word([TAU, G1]), Word([G1, TAU, G1]), build_w(1, 3, 0)):
            for point in range(3):
                entries = trace(word, point, [self.g], self.tau)
                assert entries[-1] == evaluate_word(word, [self.g], self.tau)(point)

    def test_prefix_coherence(self):
        word = build_w(1, 2, 0)
        for point in range(3):
            full = trace(word, point, [self.g], self.tau)
            for j in range(len(word) + 1):
                sub = trace(terminal_subword(word, j), point, [self.g], self.tau)
                assert sub == full[:j]

    def test_unassigned_letter_rejected(self):
        with pytest.raises(ValueError):
            trace(Word([TAU]), 0, [self.g], None)
        with pytest.raises(ValueError):
            trace(Word([G2]), 0, [self.g], self.tau)

    def test_point_out_of_domain(self):
        with pytest.raises(ValueError):
            trace(Word([G1]), 3, [self.g], self.tau)

    def test_inverse_letters(self):
        rot = Permutation.from_cycles(3, [(0, 1, 2)])
        assert trace(Word([G1.inverse()]), 1, [rot], None) == (0,)


class TestFamilies:
    def test_build_v_example(self):
        assert build_v(2, 1, 1) == Word([G1, G2, G1])

    def test_build_w_examples(self):
        assert build_w(1, 2, 0) == Word([TAU, G1, TAU, G1])
        assert build_w(2, 0, 1) == Word([TAU, G1])
        assert build_w(2, 0, 0) == Word()

    def test_lengths(self):
        for k, n, i in [(1, 0, 0), (1, 4, 0), (2, 3, 1), (3, 2, 2)]:
            assert len(build_v(k, n, i)) == n * k + i
            assert len(build_w(k, n, i)) == 2 * (n * k + i)

    def test_bad_partial_index(self):
        with pytest.raises(ValueError):
            build_v(2, 1, 2)
        with pytest.raises(ValueError):
            build_w(2, 1, 2)

    def test_suffix_self_similarity(self):
        # the terminal subword of length 2*(a*k + i) is the a-fold family word;
        # suffixes at other even lengths start mid-cycle and are rotations
        for k, n, i in [(1, 3, 0), (2, 2, 1), (3, 2, 2), (2, 3, 0)]:
            w = build_w(k, n, i)
            for a in range(n + 1):
                assert terminal_subword(w, 2 * (a * k + i)) == build_w(k, a, i)

    def test_suffix_at_incongruent_length_is_a_rotation(self):
        # k=2, n=1, i=1: the length-4 suffix is t g2 t g1, not t g1 t g2
        w = build_w(2, 1, 1)
        suffix = terminal_subword(w, 4)
        assert suffix == Word([TAU, G2, TAU, G1])
        assert suffix != build_w(2, 1, 0)


class TestParsing:
    def test_round_trip(self):
        text = "t g1 t g2^-1 g1"
        assert str(parse_word(text)) == text

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

    def test_generator_bound(self):
        with pytest.raises(ValueError):
            parse_word("g3", gen_count=2)
        assert parse_word("g2", gen_count=2) == Word([G2])
        assert parse_word("g10 t", gen_count=10).codes == (10, 0)

    def test_parse_reduces(self):
        assert parse_word("g1 g1^-1 t t") == Word()
