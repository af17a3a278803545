"""Word transcripts beyond the golden words, pinned by one digest per preset.

The golden transcripts query a handful of hand-picked words and never go
deeper than level 4 on Gupta-Sidki.  Here 150 seeded words of length at
most 8 run through ``telescope word`` on Grigorchuk levels 1..10 and on
Gupta-Sidki levels 1..6, and one SHA-256 over every query's exit code and
stdout must equal a constant.  The constants were computed when each
component image was first listed as tuples of int cycles and then printed,
before ``Permutation.cycle_string`` walked the image tuple itself, so a
change to how cycles are walked or printed must leave every byte alone.

Three fixed words go deeper, on Grigorchuk levels 1..14 (16,385 points at
the top, names of 5 digits) and on Gupta-Sidki levels 1..8.  Their
constants were computed while ``cycle_string`` still walked the image
tuple with a visited bytearray and joined one list per cycle, before it
walked a consumed copy and wrote prefixed names.
"""

import hashlib
import json

import pytest

from telescope.cli import main, sample_words
from telescope.words import format_word

# preset -> (levels, generator count, word seed, SHA-256 of the transcript)
PRESETS = {
    "grigorchuk": ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 4, 1,
                   "9e15774cb91d2f826f05efd31be3da519c45e9fa30f94b547fe7afbbc5078a20"),
    "gupta-sidki-3": ([1, 2, 3, 4, 5, 6], 2, 2,
                      "547f49aa79a1927d371e09e08681dd9b865eeedebeed4537c5316bb9918538d6"),
}

# preset -> (levels, words, SHA-256 of the transcript)
DEEP = {
    "grigorchuk": (list(range(1, 15)), ("g1 g2", "t g1 g3 g2", "g1 g2 g1 g4 t g3"),
                   "3a04bd23aae6cda399a38d63a4cfdc7c0ebc934d261a34e7b1e1eab6cc672667"),
    "gupta-sidki-3": (list(range(1, 9)), ("g1 g2", "t g1 g2^-1", "g1 g2 g1^-1 t g2 g1"),
                      "940dab6eebd0276a9ebe6582dfe4e962f2f9c6e81a098d6819a422cadb48caf1"),
}


def transcript(preset, levels, words, tmp_path, capsys):
    config = tmp_path / f"{preset}.json"
    config.write_text(json.dumps({"group": preset, "levels": levels}))
    digest = hashlib.sha256()
    for text in words:
        code = main(["word", "--config", str(config), "--word", text])
        out = capsys.readouterr().out
        digest.update(f"$ word {text!r}\nexit {code}\n{out}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_seeded_word_transcripts(preset, tmp_path, capsys):
    levels, gen_count, seed, expected = PRESETS[preset]
    words = [format_word(word) for word in sample_words(150, 8, gen_count, seed)]
    assert transcript(preset, levels, words, tmp_path, capsys) == expected


@pytest.mark.parametrize("preset", sorted(DEEP))
def test_deep_word_transcripts(preset, tmp_path, capsys):
    levels, words, expected = DEEP[preset]
    assert transcript(preset, levels, words, tmp_path, capsys) == expected
