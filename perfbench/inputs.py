"""Seeded inputs for the benchmark workloads.

The benchmark seed fixes every input.  The program under test sees only
what is made here: config files on disk and word strings on its command
line.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Settings shared by both verify workloads.
VERIFY_SETTINGS = {
    "basepoints": "identity",
    "ball_radius": 2,
    "word_sample": {"count": 200, "max_length": 4},
    "horizon_factor": 2,
}

# name -> (preset, levels, alternating cutoff the certificate must record)
VERIFY_WORKLOADS = {
    "verify-grig5": ("grigorchuk", [1, 2, 3, 4, 5], 1),
    "verify-gs3": ("gupta-sidki-3", [1, 2, 3], 1),
}

# query-deep alternates these (preset, levels, generator count).
QUERY_GROUPS = (
    ("grigorchuk", list(range(1, 11)), 4),
    ("gupta-sidki-3", list(range(1, 7)), 2),
)
QUERY_MAX_LENGTH = 8
QUERY_STREAM = 4096

WORKLOADS = tuple(VERIFY_WORKLOADS) + ("query-deep",)


@dataclass(frozen=True)
class Op:
    """One call of the command line and what its output must satisfy."""

    argv: tuple
    group: str
    levels: tuple
    word_length: int = 0


def _write_config(path, group, levels, seed):
    doc = {"group": group, "levels": list(levels), "seed": seed}
    doc.update(VERIFY_SETTINGS)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _reduced_word(rng, gen_count, length):
    """A reduced word over g1..gk, their inverses and t (t is an involution)."""
    alphabet = ["t"]
    for k in range(1, gen_count + 1):
        alphabet += [f"g{k}", f"g{k}^-1"]

    def inverse(token):
        if token == "t":
            return token
        return token[:-3] if token.endswith("^-1") else token + "^-1"

    tokens = []
    while len(tokens) < length:
        choices = [a for a in alphabet if not tokens or a != inverse(tokens[-1])]
        tokens.append(rng.choice(choices))
    return " ".join(tokens)


def make_inputs(workload, seed, directory):
    """Write the workload's config files under ``directory``; return its ops.

    A verify workload is one op repeated, so repeated calls can be checked
    for byte-identical certificates.  ``query-deep`` is a stream of word
    queries that alternates between the two groups.
    """
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    if workload in VERIFY_WORKLOADS:
        group, levels, _ = VERIFY_WORKLOADS[workload]
        config = directory / "verify.json"
        _write_config(config, group, levels, rng.randrange(2**31))
        argv = ("verify", "--config", str(config),
                "--out", str(directory / "certificate.json"))
        return [Op(argv, group, tuple(levels))]
    if workload != "query-deep":
        raise ValueError(f"unknown workload {workload!r}")
    configs = []
    for index, (group, levels, gen_count) in enumerate(QUERY_GROUPS):
        config = directory / f"query{index}.json"
        _write_config(config, group, levels, rng.randrange(2**31))
        configs.append((str(config), group, tuple(levels), gen_count))
    ops = []
    for i in range(QUERY_STREAM):
        config, group, levels, gen_count = configs[i % len(configs)]
        length = rng.randint(1, QUERY_MAX_LENGTH)
        word = _reduced_word(rng, gen_count, length)
        ops.append(Op(("word", "--config", config, "--word", word),
                      group, levels, length))
    return ops
