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

from conftest import (assemble_check, block_images, oracle_bound_reports, return_time,
                      spying_sample)
from telescope import cli, tower
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


def _recording_settled(monkeypatch):
    """Record every ``tower.bounds_settled`` call, as (longest, limit, result)."""
    calls = []
    bounds_settled = tower.bounds_settled

    def recording(longest, limit):
        result = bounds_settled(longest, limit)
        calls.append((longest, limit, result))
        return result

    monkeypatch.setattr(tower, "bounds_settled", recording)
    return calls


def _oracle_longest(tg, word):
    """The longest cycle of a word's hand-composed block images, from the
    return time of every point."""
    return max(return_time(image, x) for image in block_images(tg, word)
               for x in range(image.degree))


def _sample(stem):
    """The config, its telescope, and its drawn words."""
    config = load_config(GOLDEN / f"{stem}.json")
    tg = tower.build_telescope(config.recursion, config.levels, config.basepoints)
    words = sample_words(config.sample_count, config.sample_max_length,
                         config.recursion.generator_count, config.seed)
    return config, tg, words


def _settled(tg, rec, length):
    """Whether ``length``'s limit T(n)(n+1) reaches the largest block's
    degree, from the components' own degrees."""
    largest = max(comp.extended_degree for comp in tg.components)
    return rec.torsion_growth(length) * (length + 1) >= largest


@pytest.mark.parametrize("stem", ("grigorchuk_1-4", "gupta_sidki_1-3"))
def test_sample_reports_match_oracle(stem, tmp_path, monkeypatch, capsys):
    # the goldens keep only the case counts of the two sample checks, so
    # each decision ``verify`` reaches is checked here against the oracle.
    # ``tower.bounds_settled`` is asked once per length, with the largest
    # block's degree, and then once per distinct word of an unsettled
    # length, in first-draw order, with the longest cycle of the word's
    # hand-composed block images.  Every draw passes both of the oracle's
    # reports (the goldens pin the 200 counted draws and no failing sample
    # case), so every answer is yes and no report is built
    calls = _recording_settled(monkeypatch)
    recorded = _recording(monkeypatch)
    assert main(["verify", "--config", str(GOLDEN / f"{stem}.json"),
                 "--out", str(tmp_path / "certificate.json")]) == 1
    capsys.readouterr()
    assert recorded == {"orbit": [], "torsion": []}

    config, tg, words = _sample(stem)
    rec = config.recursion
    lengths = range(1, config.sample_max_length + 1)
    limits = {n: rec.torsion_growth(n) * (n + 1) for n in lengths}
    largest = max(comp.extended_degree for comp in tg.components)
    assert calls[:len(limits)] == [(largest, limits[n], _settled(tg, rec, n))
                                   for n in lengths]
    decidable = [word for word in words if not _settled(tg, rec, len(word))]
    distinct = list(dict.fromkeys(decidable))
    assert len(decidable) < len(words)
    assert len(distinct) < len(decidable)
    assert calls[len(limits):] == [(_oracle_longest(tg, word), limits[len(word)], True)
                                   for word in distinct]
    for word in dict.fromkeys(words):
        bound = rec.torsion_growth(len(word))
        assert all(report.passed for report
                   in oracle_bound_reports(word, block_images(tg, word), bound)), \
            format_word(word)


def test_a_failing_element_is_reported_for_each_of_its_words(monkeypatch):
    # a torsion growth of 1 or 2 at every length puts every limit below the
    # largest block, so no length is settled and draws genuinely fail: the
    # entries are those assembled from both of the oracle's reports on
    # every draw, in draw order, and the verifiers run once on each
    # distinct failing word.  Some failing element is named by two of
    # them, and some failing draw's longest cycle is limit + 1, the
    # shortest that breaks the orbit bound
    recorded = _recording(monkeypatch)
    for stem in ("grigorchuk_1-4", "gupta_sidki_1-3"):
        config, tg, words = _sample(stem)
        sampler = {"sampler": cli.SAMPLER_NAME, "seed": config.seed,
                   "count": config.sample_count, "max_length": config.sample_max_length}
        for value in (1, 2):
            for calls in recorded.values():
                calls.clear()
            growth = dict.fromkeys(range(1, config.sample_max_length + 1), value)
            entries = [entry.as_dict() for entry in cli._sample_checks(config, tg, growth)]
            reports = [oracle_bound_reports(word, block_images(tg, word), value)
                       for word in words]
            assert entries == [
                assemble_check(f"{name}_sample", sampler, [pair[index] for pair in reports])
                for index, name in enumerate(("orbit_bound", "torsion_bound"))]
            failing = list(dict.fromkeys(word for word, (orbit, _) in zip(words, reports)
                                         if not orbit.passed))
            assert 0 < len(failing) < len(set(words)), (stem, value)
            assert [word for word, _, _, _ in recorded["orbit"]] == failing
            assert [word for word, _, _, _ in recorded["torsion"]] == failing
            elements = {block_images(tg, word) for word in failing}
            assert len(elements) < len(failing), (stem, value)
            assert any(_oracle_longest(tg, word) == value * (len(word) + 1) + 1
                       for word in failing), (stem, value)


def _config(stem, tmp_path):
    """A golden config, or Grigorchuk [1..9] with the default sample, its
    telescope and its growth table."""
    path = GOLDEN / f"{stem}.json"
    if stem == "grigorchuk_1-9":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"group": "grigorchuk", "levels": list(range(1, 10))}))
    config = load_config(path)
    rec = config.recursion
    tg = tower.build_telescope(rec, config.levels, config.basepoints)
    growth = {n: rec.torsion_growth(n) for n in range(1, config.sample_max_length + 1)}
    return config, tg, growth


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
    # every draw still consumes its random numbers, once, but a draw of a
    # settled length is only counted and builds no word: the drawn words
    # are the full sample's words of the other lengths, and the composed
    # words are their distinct words, in first-draw order
    config, tg, growth = _config(stem, tmp_path)
    assert {n for n in growth if _settled(tg, config.recursion, n)} == SETTLED_LENGTHS[stem]
    drawn, composed = spying_sample(monkeypatch)
    entries = [entry.as_dict() for entry in cli._sample_checks(config, tg, growth)]
    full = sample_words(config.sample_count, config.sample_max_length,
                        tg.generator_count, config.seed)
    assert {len(word) for word in full} == set(growth)
    assert len(drawn) == 1
    assert drawn[0] == [word for word in full if len(word) not in SETTLED_LENGTHS[stem]]
    assert composed == list(dict.fromkeys(drawn[0]))
    assert [entry["witnesses"] for entry in entries] == [
        [{"cases": config.sample_count, "failed_cases": 0}]] * 2


@pytest.mark.parametrize("stem", SETTLED_LENGTHS)
def test_each_distinct_unsettled_element_is_walked_once(stem, tmp_path, monkeypatch):
    # words that name one element share its one walk: under the config's
    # growth and under a growth of 1 at every length, which settles
    # nothing, the walked image tuples are the distinct elements of the
    # unsettled draws, each its hand-composed block images side by side on
    # the union of the blocks, in first-draw order
    config, tg, growth = _config(stem, tmp_path)
    words = sample_words(config.sample_count, config.sample_max_length,
                         tg.generator_count, config.seed)
    walked = []
    cycle_walk = tower._cycle_walk

    def walking(images, power=None):
        walked.append(images)
        return cycle_walk(images, power)

    monkeypatch.setattr(tower, "_cycle_walk", walking)
    largest = max(comp.extended_degree for comp in tg.components)
    for table in (growth, dict.fromkeys(growth, 1)):
        walked.clear()
        cli._sample_checks(config, tg, table)
        unsettled = [word for word in words
                     if table[len(word)] * (len(word) + 1) < largest]
        elements = [tuple(x + start for (start, _), image
                          in zip(tg.block_spans, block_images(tg, word))
                          for x in image.images)
                    for word in unsettled]
        assert walked == list(dict.fromkeys(elements))
    # with nothing settled, some element is named by two distinct words
    assert len(walked) < len(set(unsettled))


def test_benchmark_verify_composes_no_settled_word(tmp_path, monkeypatch, capsys):
    # Grigorchuk levels 1..5 with a 200-word sample of lengths 1..4: the
    # largest block has 33 points and the limits are 4, 48, 64 and 80, so
    # a call draws the sample once, builds only its length-1 words and
    # composes each distinct one
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "group": "grigorchuk", "levels": [1, 2, 3, 4, 5], "seed": 1,
        "basepoints": "identity", "ball_radius": 2, "horizon_factor": 2,
        "word_sample": {"count": 200, "max_length": 4}}))
    drawn, composed = spying_sample(monkeypatch)
    assert main(["verify", "--config", str(config),
                 "--out", str(tmp_path / "certificate.json")]) == 1
    capsys.readouterr()
    full = sample_words(200, 4, 4, 1)
    assert {len(word) for word in full} == {1, 2, 3, 4}
    assert len(drawn) == 1
    assert drawn[0] == [word for word in full if len(word) == 1]
    assert composed
    assert composed == list(dict.fromkeys(drawn[0]))


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

    sweep_case = tower.sweep_case
    monkeypatch.setattr(tower, "sweep_case", counting)
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
    # the sweeps compose 2(k - 1) maps per sequence of k entries, and its
    # block from the kept one-entry blocks, k - 1 more, whatever the number
    # of components: the goldens have one to five
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
    assert composed[0] == 3 * gens ** 2


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
