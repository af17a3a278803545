"""Word transcripts beyond the golden words, pinned by one digest per preset.

The golden transcripts query a handful of hand-picked words and never go
deeper than level 4 on Gupta-Sidki.  Here 150 seeded words of length at
most 8 run through ``telescope word`` on Grigorchuk levels 1..10 and on
Gupta-Sidki levels 1..6, and one SHA-256 over every query's exit code and
stdout must equal a constant.  The constants were computed when each
component image was first listed as tuples of int cycles and then printed,
before ``Permutation.cycle_string`` walked the image tuple itself, so a
change to how cycles are walked or printed must leave every byte alone.
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


def transcript(preset, tmp_path, capsys):
    levels, gen_count, seed, _ = PRESETS[preset]
    config = tmp_path / f"{preset}.json"
    config.write_text(json.dumps({"group": preset, "levels": levels}))
    digest = hashlib.sha256()
    for word in sample_words(150, 8, gen_count, seed):
        code = main(["word", "--config", str(config), "--word", format_word(word)])
        out = capsys.readouterr().out
        digest.update(f"$ word {format_word(word)!r}\nexit {code}\n{out}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_seeded_word_transcripts(preset, tmp_path, capsys):
    assert transcript(preset, tmp_path, capsys) == PRESETS[preset][3]
