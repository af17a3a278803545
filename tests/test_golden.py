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

from telescope.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# config stem -> the configs ``verify`` runs on
VERIFY_CASES = ("demo_c2", "grigorchuk_1-4", "gupta_sidki_1-3")

# config stem -> the words ``word`` is queried with; they cover inverse
# letters, t, free cancellation and the empty word
WORD_CASES = {
    "words_grigorchuk_1-6": (
        "t", "g1 g2", "g1^-1 t g4 g2 t g3^-1", "t g1 t g2 t g3",
        "g2 g1 g1^-1 t t g3", "g4^-1 g2^-1 g1", "",
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


if __name__ == "__main__":
    import tempfile

    for stem in VERIFY_CASES + tuple(WORD_CASES):
        with tempfile.TemporaryDirectory() as scratch:
            for name, data in produce(stem, scratch).items():
                (GOLDEN / name).write_bytes(data)
                print(f"wrote {name}", file=sys.stderr)
