"""Golden outputs: certificate bytes and command-line stdout, compared byte for byte.

The files under ``tests/golden/`` pin what ``telescope verify`` and
``telescope word`` print and write for fixed configs.  A refactor must
reproduce them exactly; an intended change to a certificate bumps
``FORMAT_VERSION`` and regenerates them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from conftest import block_images, oracle_bound_reports, return_time, spying_sample
from telescope import cli, tower
from telescope.perm import Permutation
from telescope.cli import load_config, main, sample_words
from telescope.words import format_word

GOLDEN = Path(__file__).resolve().parent / "golden"

# config stem -> the configs ``verify`` runs on; ``ggs5_1-4`` is the GGS
# group with p = 5 and e = (1, 2, 3, 4), an inline table whose arity-5
# blocks reach 626 points
VERIFY_CASES = ("demo_c2", "grigorchuk_1-4", "gupta_sidki_1-3", "gupta_sidki_1-4",
                "ggs5_1-4", "a5_root_1-2")

# config stem -> the words ``word`` is queried with; they cover inverse
# letters, t, free cancellation and the empty word
WORD_CASES = {
    "words_grigorchuk_1-6": (
        "t", "g1 g2", "g1^-1 t g4 g2 t g3^-1", "t g1 t g2 t g3",
        "g2 g1 g1^-1 t t g3", "g4^-1 g2^-1 g1", "",
    ),
    # degree 1024 at the last level: the construction and cycle kernels at depth
    "words_grigorchuk_1-10": (
        "t", "g1 g2", "g1^-1 t g4 g2 t g3^-1", "t g1 t g2 t g3", "",
    ),
    "words_gupta_sidki_1-4": (
        "t", "g1 g2", "g1^-1 t g2^-1", "t g1 t g2 t g1^-1",
        "g2 g2 g1", "g1 g1^-1 t t", "",
    ),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


def produce(stem, workdir):
    """The golden files of one case, as {file name: bytes}; runs inside ``workdir``."""
    config = str(GOLDEN / f"{stem}.json")
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        if stem in VERIFY_CASES:
            stdout = _run(["verify", "--config", config, "--out", "certificate.json"])
            return {f"{stem}.stdout": stdout,
                    f"{stem}.certificate.json": Path("certificate.json").read_bytes()}
        transcript = b"".join(
            f"$ word {text!r}\n".encode() + _run(["word", "--config", config,
                                                  "--word", text])
            for text in WORD_CASES[stem])
        return {f"{stem}.stdout": transcript}
    finally:
        os.chdir(previous)


@pytest.mark.parametrize("stem", VERIFY_CASES + tuple(WORD_CASES))
def test_golden_bytes(stem, tmp_path):
    for name, produced in produce(stem, tmp_path).items():
        assert produced == (GOLDEN / name).read_bytes(), name


def _recording(monkeypatch):
    """Record every orbit- and torsion-bound report ``verify`` builds, as
    (word, bound, images, report), by kind."""
    recorded = {"orbit": [], "torsion": []}

    def recording(kind, verify):
        def wrapper(word, images, torsion_bound):
            report = verify(word, images, torsion_bound)
            recorded[kind].append((word, torsion_bound, images, report))
            return report
        return wrapper

    monkeypatch.setattr(tower, "verify_orbit_bound",
                        recording("orbit", tower.verify_orbit_bound))
    monkeypatch.setattr(tower, "verify_torsion_bound",
                        recording("torsion", tower.verify_torsion_bound))
    return recorded


def _recording_decisions(monkeypatch, orbit_bound_blocks=None):
    """Record every call of the two bounds' shared helpers, as (each block's
    cycle lengths above 1, as a frozenset, limit, result), by kind;
    ``orbit_bound_blocks`` stands in for the orbit helper when given."""
    decided = {"orbit": [], "torsion": []}

    def recording(kind, decide):
        def wrapper(block_lengths, limit):
            result = decide(block_lengths, limit)
            decided[kind].append((_nontrivial(block_lengths), limit, result))
            return result
        return wrapper

    monkeypatch.setattr(tower, "orbit_bound_blocks", recording(
        "orbit", orbit_bound_blocks or tower.orbit_bound_blocks))
    monkeypatch.setattr(tower, "torsion_bound_order",
                        recording("torsion", tower.torsion_bound_order))
    return decided


def _nontrivial(block_lengths):
    return tuple(frozenset(lengths) - {1} for lengths in block_lengths)


def _oracle_lengths(element):
    """Each block's cycle lengths above 1, as a frozenset, from the return
    time of every point of the element's block image tuples."""
    return _nontrivial({return_time(Permutation(images), x) for x in range(len(images))}
                       for images in element)


def _sample(stem):
    """The config, its telescope, and its drawn words with each word's
    element: the tuple of its hand-composed block image tuples."""
    config = load_config(GOLDEN / f"{stem}.json")
    tg = tower.build_telescope(config.recursion, config.levels, config.basepoints)
    words = sample_words(config.sample_count, config.sample_max_length,
                         config.recursion.generator_count, config.seed)
    elements = {word: tuple(image.images for image in block_images(tg, word))
                for word in words}
    return config, tg, words, elements


def _settled(tg, rec, length):
    """Whether ``length``'s limit T(n)(n+1) reaches the largest block's
    degree, from the components' own degrees."""
    largest = max(comp.extended_degree for comp in tg.components)
    return rec.torsion_growth(length) * (length + 1) >= largest


@pytest.mark.parametrize("stem", ("grigorchuk_1-4", "gupta_sidki_1-3"))
def test_sample_reports_match_oracle(stem, tmp_path, monkeypatch, capsys):
    # the goldens keep only the case counts of the two sample checks, so
    # each verdict ``verify`` reaches is checked here against the oracle's
    # report on the word's hand-composed block images.  A length whose
    # limit reaches the largest block's degree is settled without reaching
    # either helper, and every distinct word of it passes both of the
    # oracle's reports.  Words of the other lengths that name one element
    # share its decision per length: each distinct (element, length) is
    # decided once, by each bound's shared helper on each of the element's
    # blocks' cycle lengths and the length's limit, in first-draw order;
    # each helper's result must be the oracle's, and its verdict must be
    # the oracle's verdict on every distinct word of that element and
    # length, each on its own images.  Every draw passes (the goldens pin
    # the 200 counted draws and no failing sample case), so no report is
    # built
    decided = _recording_decisions(monkeypatch)
    recorded = _recording(monkeypatch)
    assert main(["verify", "--config", str(GOLDEN / f"{stem}.json"),
                 "--out", str(tmp_path / "certificate.json")]) == 1
    capsys.readouterr()
    assert recorded == {"orbit": [], "torsion": []}

    config, tg, words, elements = _sample(stem)
    rec = config.recursion
    settled = [word for word in words if _settled(tg, rec, len(word))]
    decidable = [word for word in words if not _settled(tg, rec, len(word))]
    assert settled and decidable
    for word in dict.fromkeys(settled):
        bound = rec.torsion_growth(len(word))
        assert all(report.passed for report
                   in oracle_bound_reports(word, block_images(tg, word), bound)), \
            format_word(word)

    first = {}  # (element, length) -> its first drawn word
    for word in decidable:
        first.setdefault((elements[word], len(word)), word)
    distinct = list(dict.fromkeys(decidable))
    assert len(distinct) < len(decidable)
    # Grigorchuk's generators are involutions, so g and g^-1 share one
    # element; the Gupta-Sidki words drawn at lengths 1 and 2 name 19
    # distinct elements
    assert (len(first) < len(distinct) if stem == "grigorchuk_1-4"
            else len(first) == len(distinct) == 19)
    for index, kind in enumerate(("orbit", "torsion")):
        assert [(lengths, limit) for lengths, limit, _ in decided[kind]] == [
            (_oracle_lengths(element), rec.torsion_growth(length) * (length + 1))
            for element, length in first]
        verdicts = {}
        for (element, length), word in first.items():
            _, limit, result = decided[kind][len(verdicts)]
            bound = rec.torsion_growth(length)
            expected = oracle_bound_reports(word, block_images(tg, word), bound)[index]
            if kind == "orbit":
                assert result == [(row["largest_orbit"], "violation" in row)
                                  for row in expected.witnesses], format_word(word)
                verdicts[element, length] = not any(over for _, over in result)
            else:
                assert result == (expected.witnesses[0]["order"], expected.passed), \
                    format_word(word)
                verdicts[element, length] = result[1]
            assert verdicts[element, length]
        for word in distinct:
            bound = rec.torsion_growth(len(word))
            expected = oracle_bound_reports(word, block_images(tg, word), bound)[index]
            assert verdicts[elements[word], len(word)] == expected.passed, format_word(word)


def test_a_failing_element_is_reported_for_each_of_its_words(tmp_path, monkeypatch,
                                                             capsys):
    # the shared orbit-bound helper, which sees only cycle lengths, is made
    # to fail on the blocks' cycle lengths that the most distinct words of
    # the sample share, and no length is settled by block degree, so the
    # helper sees every length: the verifier runs once on each of those
    # words, and every draw of one embeds a failure naming that word, in
    # draw order
    stem = "grigorchuk_1-4"
    config, tg, words, elements = _sample(stem)
    distinct = list(dict.fromkeys(words))
    lengths = {word: _oracle_lengths(elements[word]) for word in distinct}
    names = {}  # cycle lengths -> their distinct words, in first-draw order
    for word in distinct:
        names.setdefault(lengths[word], []).append(word)
    target = max(names, key=lambda key: len(names[key]))
    assert len(names[target]) >= 2
    assert len({elements[word] for word in names[target]}) >= 2
    assert any(_settled(tg, config.recursion, len(word)) for word in names[target])
    orbit_bound_blocks = tower.orbit_bound_blocks

    def failing_on_target(block_lengths, limit):
        rows = orbit_bound_blocks(block_lengths, limit)
        if _nontrivial(block_lengths) != target:
            return rows
        return [(largest, True) for largest, _ in rows]

    monkeypatch.setattr(tower, "bounds_settled", lambda block_degrees, limit: False)
    _recording_decisions(monkeypatch, failing_on_target)
    recorded = _recording(monkeypatch)
    out_path = tmp_path / "certificate.json"
    assert main(["verify", "--config", str(GOLDEN / f"{stem}.json"),
                 "--out", str(out_path)]) == 1
    out = capsys.readouterr().out
    assert "FAILED checks: trace_lemmas, orbit_bound_sample\n" in out

    assert [word for word, _, _, _ in recorded["orbit"]] == names[target]
    assert all(_oracle_lengths(tuple(image.images for image in images)) == target
               for _, _, images, _ in recorded["orbit"])
    assert recorded["torsion"] == []
    checks = {check["name"]: check for check in json.loads(out_path.read_text())["checks"]}
    orbit = checks["orbit_bound_sample"]
    drawn = [format_word(word) for word in words if lengths[word] == target]
    assert orbit["status"] == "fail"
    assert orbit["witnesses"][0] == {"cases": len(words), "failed_cases": len(drawn)}
    assert [case["parameters"]["word"] for case in orbit["witnesses"][1:]] == drawn[:20]
    for case in orbit["witnesses"][1:]:
        assert all(row["violation"] for row in case["failures"])
    assert checks["torsion_bound_sample"]["witnesses"] == [
        {"cases": len(words), "failed_cases": 0}]


# a config and the sample lengths whose limit T(n)(n+1) reaches its largest
# block's degree; the default sample draws words of lengths 1..4
SETTLED_LENGTHS = {
    # largest block 17, limits 4, 48, 64, 80
    "grigorchuk_1-4": {2, 3, 4},
    # largest block 28, limits 6, 27, 36, 135: length 2 misses by one point
    "gupta_sidki_1-3": {3, 4},
    # largest block 626, limits 10, 75, 100, 625: length 4 misses by one point
    "ggs5_1-4": set(),
    # largest block 513, above every limit
    "grigorchuk_1-9": set(),
}


@pytest.mark.parametrize("stem", SETTLED_LENGTHS)
def test_only_unsettled_lengths_are_composed(stem, tmp_path, monkeypatch):
    # every word is still drawn, once, but a word of a settled length is
    # only counted: the composed words are the distinct drawn words of the
    # other lengths, in first-draw order
    path = GOLDEN / f"{stem}.json"
    if stem == "grigorchuk_1-9":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"group": "grigorchuk", "levels": list(range(1, 10))}))
    config = load_config(path)
    rec = config.recursion
    tg = tower.build_telescope(rec, config.levels, config.basepoints)
    growth = {n: rec.torsion_growth(n) for n in range(1, config.sample_max_length + 1)}
    assert {n for n in growth if _settled(tg, rec, n)} == SETTLED_LENGTHS[stem]
    drawn, composed = spying_sample(monkeypatch)
    entries = cli._sample_checks(config, tg, growth)
    assert len(drawn) == 1
    assert {len(word) for word in drawn[0]} == set(growth)
    assert composed == list(dict.fromkeys(word for word in drawn[0]
                                          if len(word) not in SETTLED_LENGTHS[stem]))
    assert [entry["witnesses"] for entry in entries] == [
        [{"cases": config.sample_count, "failed_cases": 0}]] * 2


def test_benchmark_verify_composes_no_settled_word(tmp_path, monkeypatch, capsys):
    # Grigorchuk levels 1..5 with a 200-word sample of lengths 1..4: the
    # largest block has 33 points and the limits are 4, 48, 64 and 80, so
    # a call draws the sample once and composes only its length-1 words
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "group": "grigorchuk", "levels": [1, 2, 3, 4, 5], "seed": 1,
        "basepoints": "identity", "ball_radius": 2, "horizon_factor": 2,
        "word_sample": {"count": 200, "max_length": 4}}))
    drawn, composed = spying_sample(monkeypatch)
    assert main(["verify", "--config", str(config),
                 "--out", str(tmp_path / "certificate.json")]) == 1
    capsys.readouterr()
    assert len(drawn) == 1
    assert {len(word) for word in drawn[0]} == {1, 2, 3, 4}
    assert composed
    assert composed == list(dict.fromkeys(word for word in drawn[0] if len(word) == 1))


@pytest.mark.parametrize("stem", VERIFY_CASES)
def test_each_sweep_case_is_built_once(stem, tmp_path, monkeypatch, capsys):
    # the trace and return-bound sweeps of every component read one shared
    # case per generator sequence, on the union of all the blocks, so a call
    # builds one case per sequence, whatever the number of components
    built = []

    def counting(tg, gseq, *args, **kwargs):
        assert kwargs.get("component") is None
        built.append(tuple(gseq))
        return sweep_case(tg, gseq, *args, **kwargs)

    sweep_case = tower._sweep_case
    monkeypatch.setattr(tower, "_sweep_case", counting)
    config_path = GOLDEN / f"{stem}.json"
    main(["verify", "--config", str(config_path),
          "--out", str(tmp_path / "certificate.json")])
    capsys.readouterr()
    config = load_config(config_path)
    gens = config.recursion.generator_count
    assert len(built) == gens + gens ** 2
    assert len(set(built)) == len(built)


@pytest.mark.parametrize("stem", VERIFY_CASES)
def test_tail_maps_are_composed_once_per_sequence(stem, tmp_path, monkeypatch, capsys):
    # the tail of each trace row depends only on the generator sequence, so
    # the sweeps compose 2(k - 1) maps per sequence of k entries, whatever
    # the number of components: the goldens have one to five
    composed = [0]

    def counting(p, q):
        composed[0] += 1
        return compose(p, q)

    compose = tower._compose
    monkeypatch.setattr(tower, "_compose", counting)
    config_path = GOLDEN / f"{stem}.json"
    main(["verify", "--config", str(config_path),
          "--out", str(tmp_path / "certificate.json")])
    capsys.readouterr()
    gens = load_config(config_path).recursion.generator_count
    # gens sequences of one entry, gens ** 2 of two
    assert composed[0] == 2 * gens ** 2


@pytest.mark.parametrize("stem", VERIFY_CASES + ("grigorchuk_1-6",))
def test_certificate_is_its_own_json_dumps_encoding(stem, tmp_path, capsys):
    # the certificate writer promises json.dumps's indent-2 ASCII bytes; it
    # refuses floats, so a certificate written at all holds none
    config = GOLDEN / f"{stem}.json"
    if stem == "grigorchuk_1-6":
        config = tmp_path / "config.json"
        config.write_text('{"group": "grigorchuk", "levels": [1, 2, 3, 4, 5, 6]}')
    out = tmp_path / "certificate.json"
    assert main(["verify", "--config", str(config), "--out", str(out)]) in (0, 1)
    capsys.readouterr()
    written = out.read_bytes()
    assert written == (json.dumps(json.loads(written), indent=2, ensure_ascii=True)
                       + "\n").encode("ascii")


if __name__ == "__main__":
    import tempfile

    for stem in VERIFY_CASES + tuple(WORD_CASES):
        with tempfile.TemporaryDirectory() as scratch:
            for name, data in produce(stem, scratch).items():
                (GOLDEN / name).write_bytes(data)
                print(f"wrote {name}", file=sys.stderr)
