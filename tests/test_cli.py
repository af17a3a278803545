import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env
from telescope.cli import (ConfigError, load_config, main, parse_cycles,
                           sample_words)
from telescope.perm import Permutation

REPO = Path(__file__).resolve().parents[1]
DEMO_CONFIG = REPO / "configs" / "demo_c2.json"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


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


class TestParseCycles:
    def test_identity(self):
        assert parse_cycles("", 3).is_identity()
        assert parse_cycles("()", 3).is_identity()

    def test_cycles(self):
        assert parse_cycles("(0 1)", 2) == Permutation((1, 0))
        assert parse_cycles("(0 1 2)(3 4)", 5) == Permutation.from_cycles(
            5, [(0, 1, 2), (3, 4)])

    def test_rejects_garbage(self):
        for bad in ("0 1", "(0 1", "(0 x)", "(0 1)(1 2)"):
            with pytest.raises(ConfigError):
                parse_cycles(bad, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_cycles("(0 5)", 3)


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

    def test_json_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "group": "grigorchuk",\n  oops\n}')
        with pytest.raises(ConfigError, match=r":3:"):
            load_config(path)

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


class TestSampler:
    def test_deterministic(self):
        a = sample_words(50, 4, 2, seed=9)
        b = sample_words(50, 4, 2, seed=9)
        assert a == b

    def test_words_are_reduced_and_bounded(self):
        for word in sample_words(200, 5, 3, seed=3):
            assert 1 <= len(word) <= 5


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

    def test_word_parse_failure_names_token(self, capsys):
        assert main(["word", "--config", str(DEMO_CONFIG), "--word", "g9"]) == 2
        assert "g9" in capsys.readouterr().err

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

    def test_verify_intransitive_level_fails_closed(self, tmp_path, capsys):
        # the C2 involution is transitive at level 1 but not at level 2
        path = write_config(tmp_path, {
            "group": {"arity": 2, "generators": ["g1"],
                      "root_perms": {"g1": "(0 1)"},
                      "sections": {"g1": ["", ""]},
                      "contracting": True},
            "levels": [1, 2],
            "output_path": str(tmp_path / "cert.json")})
        assert main(["verify", "--config", str(path)]) == 1
        doc = json.loads((tmp_path / "cert.json").read_text())
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        assert statuses["transitivity"] == "fail"
        assert statuses["subdirect"] == "skipped"

    def test_certificate_embeds_sampler(self, tmp_path):
        out_path = tmp_path / "cert.json"
        main(["verify", "--config", str(grig_config(tmp_path)),
              "--out", str(out_path)])
        doc = json.loads(out_path.read_text())
        sample_check = next(c for c in doc["checks"]
                            if c["name"] == "orbit_bound_sample")
        assert sample_check["parameters"]["sampler"] == "mt19937-reduced-words-v1"
        assert sample_check["parameters"]["seed"] == 7


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
