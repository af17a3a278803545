"""Golden outputs: certificate bytes and command-line stdout, compared byte for byte.

The files under ``tests/golden/`` pin what ``telescope verify`` and
``telescope word`` print and write for fixed configs.  A refactor must
reproduce them exactly; an intended change to a certificate bumps
``FORMAT_VERSION`` and regenerates them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from conftest import block_images, oracle_bound_reports
from telescope import tower
from telescope.cli import load_config, main, sample_words

GOLDEN = Path(__file__).resolve().parent / "golden"

# config stem -> the configs ``verify`` runs on
VERIFY_CASES = ("demo_c2", "grigorchuk_1-4", "gupta_sidki_1-3", "gupta_sidki_1-4")

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


@pytest.mark.parametrize("stem", ("grigorchuk_1-4", "gupta_sidki_1-3"))
def test_sample_reports_match_oracle(stem, tmp_path, monkeypatch, capsys):
    # the goldens keep only the case counts of the two sample checks, so
    # each report ``verify`` builds is checked here against the oracle's
    # report on the word's hand-composed block images
    recorded = {"orbit": [], "torsion": []}

    def recording(kind, verify):
        def wrapper(word, images, torsion_bound):
            report = verify(word, images, torsion_bound)
            recorded[kind].append((word, torsion_bound, report))
            return report
        return wrapper

    monkeypatch.setattr(tower, "verify_orbit_bound",
                        recording("orbit", tower.verify_orbit_bound))
    monkeypatch.setattr(tower, "verify_torsion_bound",
                        recording("torsion", tower.verify_torsion_bound))
    config_path = GOLDEN / f"{stem}.json"
    assert main(["verify", "--config", str(config_path),
                 "--out", str(tmp_path / "certificate.json")]) == 1
    capsys.readouterr()

    config = load_config(config_path)
    rec = config.recursion
    tg = tower.build_telescope(rec, config.levels, config.basepoints)
    words = sample_words(config.sample_count, config.sample_max_length,
                         rec.generator_count, config.seed)
    for index, kind in enumerate(("orbit", "torsion")):
        assert [word for word, _, _ in recorded[kind]] == words
        for word, bound, report in recorded[kind]:
            assert bound == rec.torsion_growth(len(word))
            expected = oracle_bound_reports(word, block_images(tg, word), bound)[index]
            assert report.as_dict() == expected.as_dict(), str(word)


if __name__ == "__main__":
    import tempfile

    for stem in VERIFY_CASES + tuple(WORD_CASES):
        with tempfile.TemporaryDirectory() as scratch:
            for name, data in produce(stem, scratch).items():
                (GOLDEN / name).write_bytes(data)
                print(f"wrote {name}", file=sys.stderr)
