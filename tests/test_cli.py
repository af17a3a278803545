import errno
import importlib
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import list_sample_words, src_env, write_config
from telescope import certify, cli
from telescope.cli import (ConfigError, load_config, main, parse_cycles,
                           sample_words)
from telescope.perm import Permutation
from telescope.selfsim import BudgetExceeded, gupta_sidki_3
from telescope.words import reduce_signed

REPO = Path(__file__).resolve().parents[1]
DEMO_CONFIG = REPO / "configs" / "demo_c2.json"


def grig_config(tmp_path, **overrides):
    doc = {
        "group": "grigorchuk",
        "levels": [1, 2, 3],
        "word_sample": {"count": 30, "max_length": 3},
        "seed": 7,
        "output_path": str(tmp_path / "cert.json"),
    }
    doc.update(overrides)
    return write_config(tmp_path, doc)


# one involution with trivial sections: transitive at level 1, not at level 2
C2_INVOLUTION = {"arity": 2, "generators": ["g1"], "root_perms": {"g1": "(0 1)"},
                 "sections": {"g1": ["", ""]}, "contracting": True}


class TestParseCycles:
    def test_identity(self):
        assert parse_cycles("", 3).is_identity()
        assert parse_cycles("()", 3).is_identity()

    def test_cycles(self):
        assert parse_cycles("(0 1)", 2) == Permutation((1, 0))
        assert parse_cycles("(0 1 2)(3 4)", 5) == Permutation.from_cycles(
            5, [(0, 1, 2), (3, 4)])
        assert parse_cycles("(0 10)", 11) == Permutation.from_cycles(11, [(0, 10)])

    def test_rejects_garbage(self):
        for bad in ("0 1", "(0 1", "(0 x)", "(0 1)(1 2)", "(0 1)(1)", "(1)(0 1)", "(2)(2)"):
            with pytest.raises(ConfigError):
                parse_cycles(bad, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_cycles("(0 5)", 3)

    @pytest.mark.parametrize("text", ["(01 2)", "(0 01)", "(00 1)", "(1 2)(0 02)"])
    def test_rejects_leading_zeros(self, text):
        with pytest.raises(ConfigError, match="malformed cycle notation"):
            parse_cycles(text, 3)

    @pytest.mark.parametrize("text", ["(\u0660 \u0661)", "(0 \u00b2)", "(\uff10 1)"])
    def test_rejects_digits_that_are_not_ascii(self, text):
        with pytest.raises(ConfigError, match="malformed cycle notation"):
            parse_cycles(text, 3)


class TestConfig:
    def test_demo_config_loads(self):
        config = load_config(DEMO_CONFIG)
        assert config.levels == [1]
        assert config.recursion.generator_count == 1
        assert config.seed == 1

    def test_presets(self, tmp_path):
        config = load_config(grig_config(tmp_path))
        assert config.recursion.names == ("a", "b", "c", "d")
        gs = write_config(tmp_path, {"group": "gupta-sidki-3", "levels": [1]},
                          "gs.json")
        assert load_config(gs).recursion.arity == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"group": "grigorchuk", "levels": [1],
                                       "extra": 1})
        with pytest.raises(ConfigError, match="extra"):
            load_config(path)

    def test_unknown_sample_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {
            "group": "grigorchuk", "levels": [1],
            "word_sample": {"count": 1, "max_length": 1, "typo": 2}})
        with pytest.raises(ConfigError, match="typo"):
            load_config(path)

    def test_empty_levels_rejected(self, tmp_path):
        path = write_config(tmp_path, {"group": "grigorchuk", "levels": []})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_increasing_levels_rejected(self, tmp_path):
        path = write_config(tmp_path, {"group": "grigorchuk", "levels": [2, 2]})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_basepoint_range_checked(self, tmp_path):
        path = write_config(tmp_path, {"group": "grigorchuk", "levels": [1],
                                       "basepoints": [2]})
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("text, key", [
        ('{"group": "grigorchuk", "levels": [1, 2, 3], "levels": [1]}', "levels"),
        ('{"group": "grigorchuk", "levels": [1],'
         ' "word_sample": {"count": 1, "max_length": 1, "count": 2}}', "count"),
        ('{"group": {"arity": 2, "generators": ["g1"], "root_perms": {"g1": "(0 1)"},'
         ' "sections": {"g1": ["", ""], "g1": ["g1", ""]}, "contracting": true},'
         ' "levels": [1]}', "g1"),
    ], ids=["top", "word_sample", "sections"])
    def test_duplicate_key_rejected(self, tmp_path, capsys, text, key):
        path = tmp_path / "dup.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"duplicate key '{key}'"):
            load_config(path)
        assert main(["build", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: duplicate key '{key}'\n"

    def test_json_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "group": "grigorchuk",\n  oops\n}')
        with pytest.raises(ConfigError, match=r":3:"):
            load_config(path)

    def test_json_nested_too_deeply_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        for seed, reason in [
                # json.loads raises RecursionError here, which is no budget overrun
                ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
                # and ValueError here, from int() past the interpreter's digit limit
                ("9" * 5000,
                 f"an integer has more than {sys.get_int_max_str_digits()} digits")]:
            path.write_text('{"group": "grigorchuk", "levels": [1], "seed": ' + seed + "}")
            assert main(["build", "--config", str(path)]) == 2
            assert capsys.readouterr() == (
                "", f"config error: {path}: invalid JSON: {reason}\n")

    def test_unknown_preset(self, tmp_path):
        path = write_config(tmp_path, {"group": "nosuch", "levels": [1]})
        with pytest.raises(ConfigError, match="nosuch"):
            load_config(path)

    def test_inline_recursion(self, tmp_path):
        path = write_config(tmp_path, {
            "group": {"arity": 2, "generators": ["x", "y"],
                      "root_perms": {"x": "(0 1)", "y": ""},
                      "sections": {"x": ["", ""], "y": ["x", "y"]},
                      "contracting": True},
            "levels": [1, 2]})
        config = load_config(path)
        assert config.recursion.names == ("x", "y")
        assert config.recursion.sections[1] == ((1,), (2,))

    @pytest.mark.parametrize("bad", ["a b", "x\t", "x^-1"])
    def test_generator_name_a_word_cannot_spell_rejected(self, tmp_path, capsys, bad):
        # a section word splits on whitespace and reads a trailing ^-1 as an
        # inverse, so neither name could be written in one
        path = write_config(tmp_path, {
            "group": {"arity": 2, "generators": [bad, "y"],
                      "root_perms": {bad: "(0 1)", "y": ""},
                      "sections": {bad: ["", ""], "y": ["", "y"]},
                      "contracting": True},
            "levels": [1]})
        assert main(["build", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: generator name {bad!r} cannot be spelled "
                                "in a word: it contains whitespace or ends in '^-1'\n")

    def test_generator_named_one_rejected(self, tmp_path, capsys):
        # a lone 1 is the empty word, as the empty word is printed
        path = write_config(tmp_path, {
            "group": {"arity": 2, "generators": ["1", "y"],
                      "root_perms": {"1": "(0 1)", "y": ""},
                      "sections": {"1": ["", ""], "y": ["", "y"]},
                      "contracting": True},
            "levels": [1]})
        assert main(["build", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: generator name '1' cannot be spelled "
                                "in a word: '1' is the empty word\n")

    @pytest.mark.parametrize("table, message", [
        ({"generators": ["a"], "root_perms": {"a": 5}},
         "root_perms['a'] must be a cycle-notation string"),
        ({"generators": ["a", "a"], "root_perms": {"a": "(0 1)"}},
         "generator names must be distinct"),
        ({"generators": ["a"], "root_perms": {"a": "(0 1)(1)"}},
         "bad cycles '(0 1)(1)': cycles are not disjoint at point 1"),
    ])
    def test_recursion_table_error_is_one_config_error(self, tmp_path, capsys, table,
                                                        message):
        path = write_config(tmp_path, {
            "group": {"arity": 2, "sections": {"a": ["", ""]}, "contracting": True,
                      **table},
            "levels": [1]})
        assert main(["build", "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_section_word_one_is_the_empty_word(self, tmp_path):
        path = write_config(tmp_path, {
            "group": {"arity": 2, "generators": ["x", "y"],
                      "root_perms": {"x": "(0 1)", "y": ""},
                      "sections": {"x": ["1", ""], "y": ["x", "y"]},
                      "contracting": True},
            "levels": [1, 2]})
        assert load_config(path).recursion.sections[0] == ((), ())

    def test_generator_names_valid_before_still_accepted(self, tmp_path):
        names = ["t", "x^-1y", "b2", "g^2"]
        path = write_config(tmp_path, {
            "group": {"arity": 2, "generators": names,
                      "root_perms": {name: "(0 1)" for name in names},
                      "sections": {name: [name, ""] for name in names},
                      "contracting": True},
            "levels": [1]})
        config = load_config(path)
        assert config.recursion.names == tuple(names)
        assert config.recursion.sections == tuple(((i,), ()) for i in range(1, 5))


ADDING_MACHINE = {"arity": 2, "generators": ["a"],
                  "root_perms": {"a": "(0 1)"}, "sections": {"a": ["", "a"]},
                  "contracting": True}


@pytest.mark.parametrize("overrides", [
    {"levels": [True, 2]},
    {"basepoints": [0, False]},
    {"ball_radius": True},
    {"word_sample": {"count": True, "max_length": 2}},
    {"word_sample": {"count": 3, "max_length": True}},
    {"seed": False},
    {"horizon_factor": True},
    {"group": dict(ADDING_MACHINE, arity=True)},
    {"group": dict(ADDING_MACHINE, sections={"a": ["", 1]})},
    *({"group": dict(ADDING_MACHINE, root_perms={"a": value})}
      for value in (5, None, True, [], {})),
    {"group": dict(ADDING_MACHINE, generators=["a", "a"])},
])
def test_mistyped_config_values_rejected(tmp_path, overrides):
    doc = {"group": "grigorchuk", "levels": [1, 2]}
    doc.update(overrides)
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("argv", [["verify"], ["word", "--word", "g1"]])
def test_non_torsion_recursion_exits_3_without_traceback(tmp_path, capsys, argv):
    path = write_config(tmp_path, {"group": ADDING_MACHINE, "levels": [1, 2],
                                   "output_path": str(tmp_path / "cert.json")})
    assert main([argv[0], "--config", str(path)] + argv[1:]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


# Grigorchuk's table, declared not contracting
GRIGORCHUK_NOT_CONTRACTING = {
    "arity": 2, "generators": ["a", "b", "c", "d"],
    "root_perms": {"a": "(0 1)", "b": "", "c": "", "d": ""},
    "sections": {"a": ["", ""], "b": ["a", "c"], "c": ["a", "d"], "d": ["", "b"]},
    "contracting": False}


@pytest.mark.parametrize("argv, message", [
    (["verify"], "element orders need a contracting recursion"),
    (["word", "--word", "g1 g2"], "equality needs a contracting recursion"),
])
def test_non_contracting_recursion_exits_2_without_traceback(tmp_path, capsys, argv,
                                                             message):
    # construction decides no equality, so build runs; verify and word need
    # the recursion's equality or element orders and refuse it as a usage error
    out_path = tmp_path / "cert.json"
    path = write_config(tmp_path, {"group": GRIGORCHUK_NOT_CONTRACTING, "levels": [1, 2, 3],
                                   "output_path": str(out_path)})
    assert main(["build", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main([argv[0], "--config", str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("group, levels", [
    pytest.param("grigorchuk", [1, 40], id="levels0"),
    pytest.param("grigorchuk", [1, 10**30], id="levels1"),
    # root permutations of 10^8 or 10^20 points, if built, end in a
    # MemoryError or an OverflowError
    pytest.param(dict(C2_INVOLUTION, arity=10**8), [1], id="arity-10^8"),
    pytest.param(dict(C2_INVOLUTION, arity=10**20), [1], id="arity-10^20"),
])
def test_level_past_the_budget_exits_3(tmp_path, group, levels):
    # run under a 1.5 GB address-space cap: a level of 2^40 vertices must be
    # refused by the step budget, not end in a MemoryError
    path = write_config(tmp_path, {"group": group, "levels": levels})
    cap = 1536 * 2**20
    done = subprocess.run(
        [sys.executable, "-m", "telescope", "build", "--config", str(path)],
        capture_output=True, text=True, cwd=REPO, env=src_env(), timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert done.returncode == 3
    assert done.stderr == (f"error: computation budget exceeded: level {levels[-1]} "
                           f"has more than 1000000 vertices\n")


class TestSampler:
    def test_deterministic(self):
        a = sample_words(50, 4, 2, seed=9)
        b = sample_words(50, 4, 2, seed=9)
        assert a == b

    def test_words_are_reduced_and_bounded(self):
        for word in sample_words(200, 5, 3, seed=3):
            assert 1 <= len(word) <= 5
            assert reduce_signed(word) == word

    def test_draws_match_the_list_comprehension_oracle(self):
        # the tabled letter choices consume the generator exactly as the
        # per-letter filter does, so every draw is the same word
        for seed in range(50):
            for gen_count in range(1, 5):
                for max_length in range(1, 7):
                    assert (sample_words(20, max_length, gen_count, seed)
                            == list_sample_words(20, max_length, gen_count, seed))

    def test_skipped_lengths_consume_their_draws(self):
        # a draw of a skipped length builds no word but consumes its random
        # numbers, so every other word is the one drawn without skipping
        for seed in range(20):
            for skip in ({1}, {2, 3}, {1, 2, 3, 4}, set()):
                full = sample_words(40, 4, 2, seed)
                assert sample_words(40, 4, 2, seed, skip) == [
                    word for word in full if len(word) not in skip]

    def test_count_past_the_budget_exits_3_before_drawing(self, tmp_path, capsys,
                                                         monkeypatch):
        # the whole sample is held at once, so a count above the step
        # budget is refused before the first draw and before any check
        drawn = []
        monkeypatch.setattr(cli, "sample_words", lambda *args: drawn.append(args))
        budget = load_config(grig_config(tmp_path)).recursion.step_budget
        out_path = tmp_path / "cert.json"
        path = grig_config(tmp_path, word_sample={"count": budget + 1, "max_length": 4})
        assert main(["verify", "--config", str(path), "--out", str(out_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: computation budget exceeded: word sample "
                                f"has more than {budget} draws\n")
        assert drawn == []
        assert sorted(os.listdir(tmp_path)) == ["config.json"]


class TestCommands:
    def test_build_table(self, tmp_path, capsys):
        assert main(["build", "--config", str(grig_config(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "extended_degree" in out
        lines = [l.split() for l in out.splitlines()[2:]]
        assert [l[3] for l in lines] == ["3", "5", "9"]

    def test_build_gupta_sidki(self, tmp_path, capsys):
        path = write_config(tmp_path, {"group": "gupta-sidki-3", "levels": [1, 2]})
        assert main(["build", "--config", str(path)]) == 0
        lines = [l.split() for l in capsys.readouterr().out.splitlines()[2:]]
        assert [l[3] for l in lines] == ["4", "10"]

    def test_build_config_error_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, {"group": "grigorchuk", "levels": []})
        assert main(["build", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_word_three_cycle(self, capsys):
        assert main(["word", "--config", str(DEMO_CONFIG), "--word", "t g1"]) == 0
        out = capsys.readouterr().out
        assert "order 3" in out
        assert "(0 1 2)" in out

    def test_word_identity(self, capsys):
        assert main(["word", "--config", str(DEMO_CONFIG), "--word", "g1 g1"]) == 0
        out = capsys.readouterr().out
        assert "order in truncation: 1" in out

    def test_word_tau(self, capsys):
        assert main(["word", "--config", str(DEMO_CONFIG), "--word", "t"]) == 0
        out = capsys.readouterr().out
        assert "order in truncation: 2" in out

    def test_word_one_is_the_empty_word(self, capsys):
        # the empty word is printed as 1, and 1 reads back as it
        assert main(["word", "--config", str(DEMO_CONFIG), "--word", "1"]) == 0
        one = capsys.readouterr()
        assert main(["word", "--config", str(DEMO_CONFIG), "--word", ""]) == 0
        assert one == capsys.readouterr()
        assert one.out.startswith("word: 1  (reduced length 0)\n")

    def test_word_parse_failure_names_token(self, capsys):
        # a 5,000-digit index is refused before int() meets the interpreter's
        # digit limit
        for token in ("g9", "g" + "1" * 5000):
            assert main(["word", "--config", str(DEMO_CONFIG), "--word", token]) == 2
            assert token in capsys.readouterr().err

    def test_word_leading_zero_names_token(self, capsys):
        # 'g01' is not read as g1: the transcript would not echo the input
        assert main(["word", "--config", str(DEMO_CONFIG), "--word", "g01 t"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown word token 'g01'\n"

    def test_word_digit_that_is_not_ascii_names_token(self, capsys):
        assert main(["word", "--config", str(DEMO_CONFIG), "--word", "t g\u00b2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown word token 'g\u00b2'\n"

    @pytest.mark.parametrize("preset, levels, words", [
        ("grigorchuk", list(range(1, 11)), ["g1 g2 t g3 g1 t", "t", "g4^-1 t g2", ""]),
        ("gupta-sidki-3", list(range(1, 7)), ["g1 t g2^-1", "t g1 t g2", "g2 g2", ""]),
    ])
    def test_word_walks_each_image_once(self, tmp_path, capsys, monkeypatch,
                                        preset, levels, words):
        # each component image is walked by its string alone, from a cold
        # recursion on: the orbit sizes and every order read its cycle lengths
        calls = [0]
        original = Permutation.cycle_string

        def counted(self):
            calls[0] += 1
            return original(self)
        monkeypatch.setattr(Permutation, "cycle_string", counted)
        cli._preset_recursion.cache_clear()
        path = write_config(tmp_path, {"group": preset, "levels": levels})
        for text in words:
            calls[0] = 0
            assert main(["word", "--config", str(path), "--word", text]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert sum(line.startswith("component ") for line in lines) == len(levels)
            assert calls == [len(levels)], text

    def test_word_past_the_ball_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        # T(10) needs a ball of 4,061 representatives, more than 1,000
        # candidate words; nothing is printed before the budget runs out
        def small_budget():
            rec = gupta_sidki_3()
            rec.step_budget = 1000
            return rec

        monkeypatch.setitem(cli.PRESETS, "gupta-sidki-3", small_budget)
        path = write_config(tmp_path, {"group": "gupta-sidki-3", "levels": [1, 2]})
        assert main(["word", "--config", str(path), "--word", "g1 g2 " * 5]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: computation budget exceeded: "
                                "ball exceeded 1000 candidate words\n")

    def test_verify_writes_certificate(self, tmp_path, capsys):
        out_path = tmp_path / "cert.json"
        code = main(["verify", "--config", str(grig_config(tmp_path)),
                     "--out", str(out_path)])
        doc = json.loads(out_path.read_text())
        names = [c["name"] for c in doc["checks"]]
        assert names == ["transitivity", "trace_lemmas", "fundamental_general",
                         "orbit_bound_sample", "torsion_bound_sample", "subdirect",
                         "tail_injectivity", "sign_vectors", "alt_cutoff",
                         "perfectness_scan"]
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        # the stated pigeonhole trace fact has counterexamples, so that one
        # check fails; everything the construction rests on passes
        assert statuses["trace_lemmas"] == "fail"
        assert code == 1
        del statuses["trace_lemmas"]
        assert set(statuses.values()) == {"pass"}
        assert doc["alt_cutoff"] == 1
        assert [row["torsion_growth"] for row in doc["torsion_bound_table"]] == [2, 16, 16]

    # every command builds the telescope first, so the level is reported
    # before a bad word token and verify writes no certificate
    @pytest.mark.parametrize("argv", [["build"], ["word", "--word", "g1"], ["verify"],
                                      ["word", "--word", "g9"]])
    def test_build_and_word_on_intransitive_level_exit_2(self, tmp_path, capsys, argv):
        out_path = tmp_path / "cert.json"
        path = write_config(tmp_path, {"group": C2_INVOLUTION, "levels": [1, 2],
                                       "output_path": str(out_path)})
        assert main([argv[0], "--config", str(path)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: level 2 action is not transitive: "
                                "the orbit of 0 has 2 of 4 points\n")
        assert not out_path.exists()

    def test_verify_unwritable_certificate_path_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "cert.json"
        assert main(["verify", "--config", str(DEMO_CONFIG), "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot write certificate {out_path}: "
                                f"{os.strerror(errno.ENOENT)}\n")
        assert not out_path.parent.exists()

    def test_verify_empty_out_exits_2(self, tmp_path, capsys, monkeypatch):
        # an empty --out does not fall back to the config's output path
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, {"group": "grigorchuk", "levels": [1, 2]})
        assert main(["verify", "--config", str(path), "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out must name a file, not an empty path\n"
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("target, error", [("missing/cert.json", errno.ENOENT),
                                               ("directory", errno.EISDIR)])
    def test_verify_unwritable_path_fails_before_any_check(self, tmp_path, capsys,
                                                         monkeypatch, target, error):
        def refuse(tg):
            raise AssertionError("a check ran before the path was known writable")

        monkeypatch.setattr(cli.certify, "check_subdirect", refuse)
        monkeypatch.setattr(cli.tower, "transitivity_report", refuse)
        (tmp_path / "directory").mkdir()
        out_path = tmp_path / target
        config = grig_config(tmp_path)
        assert main(["verify", "--config", str(config), "--out", str(out_path)]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write certificate {out_path}: "
                                           f"{os.strerror(error)}\n")
        assert sorted(tmp_path.iterdir()) == [config, tmp_path / "directory"]
        assert not any((tmp_path / "directory").iterdir())

    @pytest.mark.parametrize("failure, code, err", [
        (ValueError("injected"), 2, "error: injected\n"),
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), 2, None),
        (BudgetExceeded("injected"), 3, "error: computation budget exceeded: injected\n"),
    ])
    def test_failed_serialization_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                                 failure, code, err):
        # an older certificate stays as it was, and no temporary file is left
        config = grig_config(tmp_path)
        out_path = tmp_path / "cert.json"
        out_path.write_bytes(b"older certificate")

        def fail(doc):
            raise failure

        monkeypatch.setattr(certify, "certificate_bytes", fail)
        assert main(["verify", "--config", str(config), "--out", str(out_path)]) == code
        if err is None:
            err = (f"error: cannot write certificate {out_path}: "
                   f"{os.strerror(errno.ENOSPC)}\n")
        assert capsys.readouterr() == ("", err)
        assert sorted(tmp_path.iterdir()) == [out_path, config]
        assert out_path.read_bytes() == b"older certificate"

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink", "output_path"])
    def test_verify_refuses_the_config_as_certificate(self, tmp_path, capsys, monkeypatch,
                                                      spelling):
        def refuse(tg):
            raise AssertionError("a check ran before the target was refused")

        monkeypatch.setattr(cli.tower, "transitivity_report", refuse)
        (tmp_path / "sub").mkdir()
        config = grig_config(tmp_path)
        if spelling == "output_path":
            config = grig_config(tmp_path, output_path=str(config))
        before = config.read_bytes()
        out_path = {"same": config, "dotted": tmp_path / "sub" / ".." / config.name,
                    "symlink": tmp_path / "link.json", "output_path": None}[spelling]
        if spelling == "symlink":
            out_path.symlink_to(config)
        argv = ["verify", "--config", str(config)]
        if out_path is not None:
            argv += ["--out", str(out_path)]
        assert main(argv) == 2
        target = config if out_path is None else out_path
        assert capsys.readouterr() == (
            "", f"error: cannot write certificate {target}: it is the config file\n")
        assert config.read_bytes() == before
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_verify_replaces_an_existing_certificate(self, tmp_path, capsys):
        config = grig_config(tmp_path)
        out_path = tmp_path / "cert.json"
        assert main(["verify", "--config", str(config), "--out", str(out_path)]) == 1
        first = capsys.readouterr()
        fresh = out_path.read_bytes()
        out_path.write_bytes(b"older certificate")
        assert main(["verify", "--config", str(config), "--out", str(out_path)]) == 1
        assert capsys.readouterr() == first
        assert out_path.read_bytes() == fresh
        assert sorted(tmp_path.iterdir()) == [out_path, config]

    @pytest.mark.parametrize("command", [["build"], ["verify"], ["word", "--word", "g1"]])
    def test_config_that_is_not_utf8_names_path_byte_and_position(self, tmp_path, capsys,
                                                                  command):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"group": "grigorchuk", "levels": [1], "seed": "\xe9"}'
                         .encode("latin-1"))
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {path}: not UTF-8: byte 0xe9 at "
                                f"position 48: invalid continuation byte\n")

    @pytest.mark.parametrize("command", [["build"], ["verify"], ["word", "--word", "g1"]])
    def test_unreadable_config_names_its_path_once(self, tmp_path, capsys, command):
        path = tmp_path / "no" / "such.json"
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(str(path)) == 1
        assert captured.err == (f"config error: cannot read config {path}: "
                                f"{os.strerror(errno.ENOENT)}\n")

    def test_certificate_embeds_sampler(self, tmp_path):
        out_path = tmp_path / "cert.json"
        main(["verify", "--config", str(grig_config(tmp_path)),
              "--out", str(out_path)])
        doc = json.loads(out_path.read_text())
        sample_check = next(c for c in doc["checks"]
                            if c["name"] == "orbit_bound_sample")
        assert sample_check["parameters"]["sampler"] == "mt19937-reduced-words-v1"
        assert sample_check["parameters"]["seed"] == 7


def test_console_script_targets_main():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["telescope"]
    module, _, attribute = target.partition(":")
    assert getattr(importlib.import_module(module), attribute) is main


def test_importing_the_cli_loads_only_the_standard_library():
    # in a fresh interpreter, as every spawned call imports it: a package
    # outside the standard library (sympy is test-only) would be a runtime
    # dependency, and each module is compiled and run on every start
    script = """
import json, sys
before = set(sys.modules)
import telescope.cli
new = {name.partition(".")[0] for name in set(sys.modules) - before}
import telescope
print(json.dumps({
    "foreign": sorted(new - {"telescope"} - set(sys.stdlib_module_names)),
    "telescope": "telescope" in new,
    "unresolved": [name for name in telescope.__all__ if not hasattr(telescope, name)],
}))
"""
    result = subprocess.run([sys.executable, "-c", script], env=src_env(),
                            capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(result.stdout) == {"foreign": [], "telescope": True, "unresolved": []}


def test_verify_killed_by_sigterm_leaves_no_file(tmp_path):
    # a word sample of length 40 keeps the torsion-growth ball running for
    # minutes, so the signal arrives while the checks run; the temporary
    # file is made only once they are done
    config = grig_config(tmp_path, word_sample={"count": 30, "max_length": 40})
    out_path = tmp_path / "cert.json"
    child = subprocess.Popen(
        [sys.executable, "-m", "telescope", "verify", "--config", str(config),
         "--out", str(out_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=src_env())
    try:
        with pytest.raises(subprocess.TimeoutExpired):
            child.wait(timeout=1)
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=30) == -signal.SIGTERM
    finally:
        child.kill()
        child.wait()
    assert sorted(tmp_path.iterdir()) == [config]


def run_into_closed_stdout(argv, unbuffered, cwd):
    """Run ``telescope argv`` with stdout a pipe whose reader has gone,
    with ``PYTHONUNBUFFERED`` set or unset, and require exit 2 and the one
    error line on stderr."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "telescope", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, cwd=cwd, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == "error: stdout was closed before the output was written\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command, extra", [("build", []), ("word", ["--word", "g1 t"]),
                                            ("verify", ["--out", "cert.json"])])
def test_closed_stdout_exits_2_without_traceback(command, extra, unbuffered, tmp_path,
                                                  capsys):
    # a reader that has gone, as in `telescope word ... | head`, is a usage
    # error: one error line, no traceback and no second error from the
    # flush at exit, whether each print writes at once or the output waits
    # in stdout's buffer; verify prints only once its certificate is in
    # place, so the certificate stays
    run_into_closed_stdout([command, "--config", str(DEMO_CONFIG), *extra], unbuffered,
                           tmp_path)
    if command == "verify":
        reference = tmp_path / "reference.json"
        assert main(["verify", "--config", str(DEMO_CONFIG), "--out", str(reference)]) in (0, 1)
        capsys.readouterr()
        assert (tmp_path / "cert.json").read_bytes() == reference.read_bytes()
    else:
        assert sorted(os.listdir(tmp_path)) == []


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("args", [["--help"], ["word", "--help"], ["verify", "--help"]])
def test_help_into_a_closed_stdout_exits_2(args, unbuffered, tmp_path):
    # help text meets a reader that has gone like every other output: one
    # error line, and neither a traceback nor an error from the flush at
    # exit, whether the text is written at once or waits in the buffer
    run_into_closed_stdout(args, unbuffered, tmp_path)


class TestDeterminism:
    def run_verify(self, out_path):
        return subprocess.run(
            [sys.executable, "-m", "telescope", "verify",
             "--config", str(DEMO_CONFIG), "--out", str(out_path)],
            capture_output=True, text=True, cwd=REPO, env=src_env())

    def test_verify_twice_is_byte_identical(self, tmp_path):
        out_path = tmp_path / "cert.json"
        first = self.run_verify(out_path)
        first_bytes = out_path.read_bytes()
        second = self.run_verify(out_path)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
        assert first_bytes == out_path.read_bytes()
