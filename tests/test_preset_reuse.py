"""A preset recursion lives as long as the process, and no output may show it.

Every call on a preset reuses the recursion the first such call built,
with all the splits, triviality verdicts, orders, level actions and torsion
growths it has cached.  Those are exact facts about the group, so each call
must print the same, exit the same and write the same certificate bytes as
it does on a fresh recursion, whatever ran before it in the process, an
exhausted budget included.  The recursion also keeps each telescope
component it was extended to, per level and basepoint, so those must
print as freshly made ones do, and a custom recursion's components must
go with it.
"""

import gc
import weakref

import pytest

from conftest import write_config
from telescope import cli
from telescope.cli import load_config, main, sample_words
from telescope.words import format_word

WORD_LEVELS = {"grigorchuk": [1, 2, 3, 4, 5, 6], "gupta-sidki-3": [1, 2, 3, 4]}
VERIFY_LEVELS = {"grigorchuk": [1, 2, 3, 4], "gupta-sidki-3": [1, 2, 3]}
GENERATORS = {"grigorchuk": 4, "gupta-sidki-3": 2}


def run(argv, capsys, out_path=None):
    """Exit code, stdout, stderr and the certificate bytes of one call."""
    if out_path is not None and out_path.exists():
        out_path.unlink()
    code = main(argv)
    captured = capsys.readouterr()
    certificate = out_path.read_bytes() if out_path is not None and out_path.exists() else None
    return code, captured.out, captured.err, certificate


def run_cold(argv, capsys, out_path=None):
    """One call on recursions built for it alone."""
    cli._preset_recursion.cache_clear()
    return run(argv, capsys, out_path)


def seeded_queries(tmp_path):
    """Word queries on both presets, seeded: (length, argv) pairs."""
    queries = []
    for seed, preset in enumerate(sorted(WORD_LEVELS), start=11):
        config = str(write_config(tmp_path, {"group": preset, "levels": WORD_LEVELS[preset]},
                                  f"words-{preset}.json"))
        for word in sample_words(16, 8, GENERATORS[preset], seed):
            queries.append((len(word),
                            ["word", "--config", config, "--word", format_word(word)]))
    return queries


def test_warm_calls_match_fresh_recursions(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    verifies = {
        preset: ["verify", "--config",
                 str(write_config(tmp_path, {"group": preset, "levels": levels,
                                             "word_sample": {"count": 40, "max_length": 5}},
                                  f"verify-{preset}.json")),
                 "--out", str(out_path)]
        for preset, levels in VERIFY_LEVELS.items()}
    queries = seeded_queries(tmp_path)
    cold = {tuple(argv): run_cold(argv, capsys) for _, argv in queries}
    cold_verify = {preset: run_cold(argv, capsys, out_path)
                   for preset, argv in verifies.items()}
    assert {code for code, *_ in cold.values()} == {0}
    assert all(result[3] for result in cold_verify.values())

    cli._preset_recursion.cache_clear()
    longest_first = [argv for _, argv in sorted(queries, key=lambda q: -q[0])]
    shortest_first = [argv for _, argv in sorted(queries, key=lambda q: q[0])]
    order = ([("verify", "grigorchuk")] + [("word", argv) for argv in longest_first]
             + [("verify", "gupta-sidki-3")] + [("word", argv) for argv in shortest_first]
             + [("verify", "grigorchuk"), ("verify", "gupta-sidki-3")])
    for kind, what in order:
        if kind == "verify":
            assert run(verifies[what], capsys, out_path) == cold_verify[what], what
        else:
            assert run(what, capsys) == cold[tuple(what)], what


def test_exhausted_level_budget_leaves_the_next_query_unchanged(tmp_path, capsys):
    query = ["word", "--config",
             str(write_config(tmp_path, {"group": "grigorchuk", "levels": [1, 2, 3]},
                              "small.json")),
             "--word", "g1 g2 t g3"]
    too_deep = ["word", "--config",
                str(write_config(tmp_path, {"group": "grigorchuk", "levels": [1, 20]},
                                 "deep.json")),
                "--word", "g1 g2 t g3"]
    expected = run_cold(query, capsys)
    assert expected[0] == 0
    cli._preset_recursion.cache_clear()
    for _ in range(2):
        assert run(too_deep, capsys) == (
            3, "", "error: computation budget exceeded: "
                   "level 20 has more than 1000000 vertices\n", None)
        assert run(query, capsys) == expected


def test_exhausted_ball_budget_leaves_the_next_query_unchanged(tmp_path, capsys,
                                                               monkeypatch):
    # the factory of test_cli's ball-budget test: T(10) needs more than
    # 1,000 candidate words, T(2) does not
    def small_budget():
        rec = cli.gupta_sidki_3()
        rec.step_budget = 1000
        return rec

    monkeypatch.setitem(cli.PRESETS, "gupta-sidki-3", small_budget)
    config = str(write_config(tmp_path, {"group": "gupta-sidki-3", "levels": [1, 2]}, "gs.json"))
    fits = ["word", "--config", config, "--word", "g1 g2"]
    too_long = ["word", "--config", config, "--word", "g1 g2 " * 5]
    expected = run_cold(fits, capsys)
    assert expected[0] == 0
    cli._preset_recursion.cache_clear()
    for _ in range(2):
        assert run(too_long, capsys) == (
            3, "", "error: computation budget exceeded: "
                   "ball exceeded 1000 candidate words\n", None)
        assert run(fits, capsys) == expected


def test_load_config_shares_a_preset_recursion_only(tmp_path):
    first = write_config(tmp_path, {"group": "grigorchuk", "levels": [1, 2]}, "a.json")
    second = write_config(tmp_path, {"group": "grigorchuk", "levels": [3]}, "b.json")
    assert load_config(first).recursion is load_config(second).recursion
    custom = write_config(tmp_path, {"group": {
        "arity": 2, "generators": ["g1"], "root_perms": {"g1": "(0 1)"},
        "sections": {"g1": ["", "g1"]}, "contracting": True}, "levels": [1]}, "c.json")
    assert load_config(custom).recursion is not load_config(custom).recursion


def test_a_swapped_in_factory_gets_its_own_recursion(tmp_path, monkeypatch):
    config = write_config(tmp_path, {"group": "gupta-sidki-3", "levels": [1]}, "gs.json")
    shipped = load_config(config).recursion
    monkeypatch.setitem(cli.PRESETS, "gupta-sidki-3", lambda: cli.gupta_sidki_3())
    swapped = load_config(config).recursion
    assert swapped is not shipped
    assert load_config(config).recursion is swapped


@pytest.mark.parametrize("argv, code, err", [
    ([], 2, "usage: telescope [-h] {build,verify,word} ...\n"
            "telescope: error: the following arguments are required: command\n"),
    (["word", "--config", "x"], 2,
     "usage: telescope word [-h] --config CONFIG --word WORD\n"
     "telescope word: error: the following arguments are required: --word\n"),
    (["verify"], 2, "usage: telescope verify [-h] --config CONFIG [--out OUT]\n"
                    "telescope verify: error: the following arguments are required: "
                    "--config\n"),
    (["--help"], 0, None), (["word", "--help"], 0, None), (["build", "--help"], 0, None),
    (["bogus"], 2, None),
])
def test_the_parser_built_once_prints_what_a_fresh_one_does(argv, code, err, capsys,
                                                           monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    outputs = []
    for parse in (cli._parser.__wrapped__().parse_args, main, main):
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
        captured = capsys.readouterr()
        outputs.append((exit_info.value.code, captured.out, captured.err))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0] == code
    if err is not None:
        assert outputs[0] == (code, "", err)
    if argv[-1:] == ["--help"]:
        assert outputs[0][1].startswith(f"usage: telescope {' '.join(argv[:-1])}".rstrip())


# -- telescope components, kept per (level, basepoint) by the recursion -------


def word_argv(tmp_path, name, doc, word):
    return ["word", "--config", str(write_config(tmp_path, doc, f"{name}.json")),
            "--word", word]


def test_warm_word_on_other_basepoints_matches_a_cold_one(tmp_path, capsys):
    # levels 2, 4 and 6 were extended at basepoint 0 by the first call; the
    # second names other basepoints and must not be given those components
    first = word_argv(tmp_path, "identity", {"group": "grigorchuk",
                                             "levels": [1, 2, 3, 4, 5, 6]}, "t g1 g2 t g3")
    moved = word_argv(tmp_path, "moved", {"group": "grigorchuk", "levels": [2, 4, 6],
                                          "basepoints": [1, 3, 5]}, "t g1 g2 t g3")
    cold = run_cold(moved, capsys)
    assert cold[0] == 0
    first_cold = run_cold(first, capsys)
    assert first_cold[0] == 0
    cli._preset_recursion.cache_clear()
    assert run(first, capsys) == first_cold
    assert run(moved, capsys) == cold
    assert run(first, capsys) == first_cold
    made = cli._preset_recursion(cli.PRESETS["grigorchuk"])._components
    assert sorted(made) == sorted([(level, 0) for level in range(1, 7)]
                                  + [(2, 1), (4, 3), (6, 5)])
    assert [made[2, 1].basepoint, made[4, 3].basepoint] == [1, 3]


def test_verify_after_words_on_overlapping_levels_matches_a_cold_one(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    verify = ["verify", "--config",
              str(write_config(tmp_path, {"group": "gupta-sidki-3", "levels": [2, 3, 4],
                                          "word_sample": {"count": 20, "max_length": 4}},
                               "verify.json")),
              "--out", str(out_path)]
    words = [word_argv(tmp_path, f"words{i}", {"group": "gupta-sidki-3", "levels": levels},
                       "g1 t g2^-1 t")
             for i, levels in enumerate([[1, 2, 3], [3, 4, 5], [2, 4]])]
    cold = run_cold(verify, capsys, out_path)
    assert cold[3]
    cli._preset_recursion.cache_clear()
    for argv in words:
        assert run(argv, capsys)[0] == 0
    assert run(verify, capsys, out_path) == cold


CUSTOM_TABLES = {
    # the Grigorchuk group and its mirror image, b = (c, a), c = (d, a),
    # d = (b, 1): same arity, same levels, different level actions
    "grigorchuk": {"arity": 2, "generators": ["a", "b", "c", "d"],
                   "root_perms": {"a": "(0 1)", "b": "", "c": "", "d": ""},
                   "sections": {"a": ["", ""], "b": ["a", "c"], "c": ["a", "d"],
                                "d": ["", "b"]},
                   "contracting": True},
    "mirror": {"arity": 2, "generators": ["a", "b", "c", "d"],
               "root_perms": {"a": "(0 1)", "b": "", "c": "", "d": ""},
               "sections": {"a": ["", ""], "b": ["c", "a"], "c": ["d", "a"],
                            "d": ["b", ""]},
               "contracting": True},
}


def test_custom_tables_with_the_same_levels_keep_their_own_components(tmp_path, capsys):
    argvs = {name: ["build", "--config",
                    str(write_config(tmp_path, {"group": table, "levels": [1, 2, 3]},
                                     f"{name}.json"))]
             for name, table in CUSTOM_TABLES.items()}
    argvs.update({f"{name} word": word_argv(tmp_path, f"{name}-word",
                                            {"group": table, "levels": [1, 2, 3]},
                                            "g1 g2 t g3")
                  for name, table in CUSTOM_TABLES.items()})
    cold = {name: run_cold(argv, capsys) for name, argv in argvs.items()}
    assert {code for code, *_ in cold.values()} == {0}
    assert cold["grigorchuk word"][1] != cold["mirror word"][1]
    for _ in range(2):
        for name, argv in argvs.items():
            assert run(argv, capsys) == cold[name], name


def test_exhausted_level_budget_keeps_no_component_past_it(tmp_path, capsys):
    deep = word_argv(tmp_path, "deep", {"group": "grigorchuk", "levels": [1, 2, 20]}, "g1 t")
    after = word_argv(tmp_path, "after", {"group": "grigorchuk", "levels": [1, 2, 3]},
                      "g1 t g2")
    expected = run_cold(after, capsys)
    cli._preset_recursion.cache_clear()
    assert run(deep, capsys) == (3, "", "error: computation budget exceeded: "
                                        "level 20 has more than 1000000 vertices\n", None)
    rec = cli._preset_recursion(cli.PRESETS["grigorchuk"])
    # the levels before the one out of budget were made whole; nothing of level 20
    assert sorted(rec._components) == [(1, 0), (2, 0)]
    assert sorted(rec._levels) == [1, 2]
    assert run(after, capsys) == expected


def test_a_custom_recursion_and_its_components_die_with_its_call(tmp_path, capsys,
                                                                monkeypatch):
    made = []
    build = cli.tower.build_telescope

    def watched(rec, levels, basepoints=None):
        tg = build(rec, levels, basepoints)
        made.extend(weakref.ref(obj) for obj in (rec, *tg.components))
        return tg

    monkeypatch.setattr(cli.tower, "build_telescope", watched)
    argv = word_argv(tmp_path, "custom", {"group": CUSTOM_TABLES["grigorchuk"],
                                          "levels": [1, 2, 3]}, "g1 g2 t")
    assert run(argv, capsys)[0] == 0
    gc.collect()
    assert len(made) == 4
    assert [ref() for ref in made] == [None] * 4
