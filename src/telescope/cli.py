"""Command-line front end: config ingestion, the verification pipeline,
human-readable reporting, and certificate persistence.

Configs are strict JSON: unknown keys are rejected so a typo cannot
silently weaken a certificate.  Fixed config plus fixed seed reproduces
identical stdout and byte-identical certificate files.

Exit codes: 0 pass, 1 a check failed, 2 config or usage error, 3 a
computation ran out of its budget (a non-contracting or non-torsion input).
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from dataclasses import dataclass

from . import certify, tower
from .perm import Permutation
from .selfsim import BudgetExceeded, WreathRecursion, grigorchuk, gupta_sidki_3
from .words import Word, parse_signed, parse_word

SAMPLER_NAME = "mt19937-reduced-words-v1"

PRESETS = {
    "grigorchuk": grigorchuk,
    "gupta-sidki-3": gupta_sidki_3,
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    recursion: WreathRecursion
    group_label: str
    levels: list
    basepoints: list
    ball_radius: int
    sample_count: int
    sample_max_length: int
    seed: int
    horizon_factor: int
    output_path: str
    raw_bytes: bytes


def _natural(value, least=0):
    """Whether a JSON value is an integer >= ``least``; booleans are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _expect_keys(mapping, required, optional, where):
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"missing key {key!r} in {where}")


_CYCLES_RE = re.compile(r"\s*(?:\(\s*(?:\d+\s*)*\)\s*)*")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree):
    """Parse disjoint cycles like ``(0 1)(2 3 4)``; empty text is the identity."""
    if _CYCLES_RE.fullmatch(text) is None:
        raise ConfigError(f"malformed cycle notation {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        cycle = [int(p) for p in body.split()]
        if any(p >= degree for p in cycle):
            raise ConfigError(f"cycle point out of range in {text!r} (degree {degree})")
        if len(cycle) >= 2:
            cycles.append(tuple(cycle))
    try:
        return Permutation.from_cycles(degree, cycles)
    except ValueError as exc:
        raise ConfigError(f"bad cycles {text!r}: {exc}") from exc


def _parse_recursion(spec, where):
    if isinstance(spec, str):
        if spec not in PRESETS:
            raise ConfigError(
                f"unknown preset {spec!r}; available: {', '.join(sorted(PRESETS))}")
        return PRESETS[spec](), spec
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a preset name or a recursion table")
    _expect_keys(spec, ["arity", "generators", "root_perms", "sections", "contracting"],
                 [], where)
    arity = spec["arity"]
    names = spec["generators"]
    if not _natural(arity, 2):
        raise ConfigError("arity must be an integer >= 2")
    if (not isinstance(names, list) or not names
            or not all(isinstance(n, str) and n for n in names)):
        raise ConfigError("generators must be a nonempty list of names")
    roots = spec["root_perms"]
    sections = spec["sections"]
    if not isinstance(roots, dict) or set(roots) != set(names):
        raise ConfigError("root_perms must map every generator name to cycle notation")
    if not isinstance(sections, dict) or set(sections) != set(names):
        raise ConfigError("sections must map every generator name to a word list")
    index = {name: i + 1 for i, name in enumerate(names)}

    def section_word(text):
        try:
            return parse_signed(text, index.get)
        except ValueError as exc:
            raise ConfigError(f"section word: {exc}") from exc

    root_perms = []
    section_rows = []
    for name in names:
        root_perms.append(parse_cycles(roots[name], arity))
        row = sections[name]
        if (not isinstance(row, list) or len(row) != arity
                or not all(isinstance(entry, str) for entry in row)):
            raise ConfigError(f"sections[{name!r}] needs exactly {arity} word strings")
        section_rows.append(tuple(section_word(entry) for entry in row))
    contracting = spec["contracting"]
    if not isinstance(contracting, bool):
        raise ConfigError("contracting must be true or false")
    rec = WreathRecursion(arity, names, root_perms, section_rows, contracting)
    return rec, "custom"


def load_config(path):
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _expect_keys(doc, ["group", "levels"],
                 ["basepoints", "ball_radius", "word_sample", "seed",
                  "horizon_factor", "output_path"],
                 "config")
    recursion, label = _parse_recursion(doc["group"], "group")

    levels = doc["levels"]
    if (not isinstance(levels, list) or not levels
            or not all(_natural(l, 1) for l in levels)):
        raise ConfigError("levels must be a nonempty list of naturals >= 1")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ConfigError("levels must be strictly increasing")

    basepoints = doc.get("basepoints", "identity")
    if basepoints == "identity":
        basepoints = [0] * len(levels)
    elif isinstance(basepoints, list) and all(_natural(b) for b in basepoints):
        if len(basepoints) != len(levels):
            raise ConfigError("basepoints must match levels in length")
    else:
        raise ConfigError('basepoints must be "identity" or a list of naturals')
    for level, point in zip(levels, basepoints):
        if point >= recursion.arity ** level:
            raise ConfigError(f"basepoint {point} out of range for level {level}")

    ball_radius = doc.get("ball_radius", 2)
    if not _natural(ball_radius):
        raise ConfigError("ball_radius must be a non-negative integer")

    sample = doc.get("word_sample", {"count": 100, "max_length": 4})
    if not isinstance(sample, dict):
        raise ConfigError("word_sample must be an object")
    _expect_keys(sample, ["count", "max_length"], [], "word_sample")
    count, max_length = sample["count"], sample["max_length"]
    if not _natural(count):
        raise ConfigError("word_sample.count must be a non-negative integer")
    if not _natural(max_length, 1):
        raise ConfigError("word_sample.max_length must be a positive integer")

    seed = doc.get("seed", 0)
    if not _natural(seed):
        raise ConfigError("seed must be a non-negative integer")
    horizon_factor = doc.get("horizon_factor", 2)
    if not _natural(horizon_factor, 1):
        raise ConfigError("horizon_factor must be a positive integer")
    output_path = doc.get("output_path", "certificate.json")
    if not isinstance(output_path, str) or not output_path:
        raise ConfigError("output_path must be a nonempty string")

    return RunConfig(
        recursion=recursion,
        group_label=label,
        levels=levels,
        basepoints=basepoints,
        ball_radius=ball_radius,
        sample_count=count,
        sample_max_length=max_length,
        seed=seed,
        horizon_factor=horizon_factor,
        output_path=output_path,
        raw_bytes=raw,
    )


def sample_words(count, max_length, gen_count, seed):
    """Deterministic reduced words over the generators and the transposition.

    Only ``Random.random()`` is consumed (its output is stable across Python
    releases); each next letter is drawn among those that do not cancel the
    previous one, so the sampled words are reduced by construction.
    """
    rng = random.Random(seed)
    alphabet = [0]
    for code in range(1, gen_count + 1):
        alphabet.extend((code, -code))
    words = []
    for _ in range(count):
        length = 1 + int(rng.random() * max_length)
        codes = []
        while len(codes) < length:
            choices = [c for c in alphabet if not codes or c != -codes[-1]]
            codes.append(choices[int(rng.random() * len(choices))])
        words.append(Word.from_codes(codes))
    return words


def _gseq_sweep(gen_count):
    """All generator sequences of length 1 and 2 over single generators."""
    singles = [Word.from_codes((code,)) for code in range(1, gen_count + 1)]
    sweep = [[w] for w in singles]
    sweep.extend([u, v] for u in singles for v in singles)
    return sweep


def _only_pigeonhole_failures(checks):
    saw_failure = False
    for check in checks:
        if check["status"] != "fail":
            continue
        if check["name"] != "trace_lemmas":
            return False
        for case in check["witnesses"]:
            for failure in case.get("failures", []):
                saw_failure = True
                if failure.get("check") != "pigeonhole_pair":
                    return False
    return saw_failure


def _aggregate(name, parameters, reports, max_failures=20, per_case=True):
    """Fold per-case reports into one certificate check entry.

    With ``per_case`` every case contributes one witness row; otherwise only
    a count summary and the failing cases are embedded (samples are already
    reproducible from the recorded seed).
    """
    witnesses = []
    failing = []
    passed = True
    for report in reports:
        if not report.passed:
            passed = False
            if len(failing) < max_failures:
                failing.append({"parameters": report.parameters,
                                "failures": report.witnesses[:max_failures]})
        elif per_case:
            witnesses.append({"parameters": report.parameters, "status": "pass",
                              "witnesses": len(report.witnesses)})
    summary = {"cases": len(reports), "failed_cases":
               sum(1 for r in reports if not r.passed)}
    witnesses = [summary] + witnesses + failing
    parameters = dict(parameters)
    return {"name": name, "parameters": parameters,
            "status": "pass" if passed else "fail", "witnesses": witnesses}


def cmd_build(config):
    tg = tower.build_telescope(config.recursion, config.levels, config.basepoints)
    print(f"group: {config.group_label}  (arity {config.recursion.arity}, "
          f"generators {' '.join(config.recursion.names)})")
    print("component  level  base_degree  extended_degree  basepoint")
    for row in certify.component_table(tg, config.levels):
        print(f"{row['component']:>9}  {row['level']:>5}  {row['base_degree']:>11}  "
              f"{row['extended_degree']:>15}  {row['basepoint']:>9}")
    return 0


def cmd_verify(config, out_path=None):
    checks = []
    order = ["transitivity", "trace_lemmas", "fundamental_general",
             "orbit_bound_sample", "torsion_bound_sample", "subdirect",
             "tail_injectivity", "sign_vectors", "alt_cutoff", "perfectness_scan"]
    informational = {"perfectness_scan"}
    rec = config.recursion

    def finalize(alt_cutoff_value=None, torsion_table=(), components=()):
        named = {c["name"]: c for c in checks}
        for name in order:
            if name not in named:
                checks.append({"name": name, "parameters": {},
                               "status": "skipped", "witnesses": []})
        checks.sort(key=lambda c: order.index(c["name"]))
        certificate = certify.emit_certificate(
            config.raw_bytes, components, checks, alt_cutoff_value, torsion_table)
        path = out_path or config.output_path
        with open(path, "wb") as handle:
            handle.write(certificate.to_bytes())
        failed = [c["name"] for c in checks
                  if c["status"] == "fail" and c["name"] not in informational]
        for check in checks:
            print(f"{check['name']}: {check['status']}")
        print(f"certificate written to {path}")
        if failed:
            print(f"FAILED checks: {', '.join(failed)}")
            if _only_pigeonhole_failures(checks):
                print("note: every failure is a counterexample to the stated "
                      "pigeonhole trace fact (trace_lemmas check 3); "
                      "see README for details")
            return 1
        return 0

    trans = tower.transitivity_report(rec, config.levels)
    checks.append(trans.as_dict())
    if not trans.passed:
        return finalize()

    tg = tower.build_telescope(rec, config.levels, config.basepoints)
    components = certify.component_table(tg, config.levels)

    sweep = _gseq_sweep(rec.generator_count)
    trace_reports = []
    general_reports = []
    for ci in range(len(tg.components)):
        for gseq in sweep:
            trace_reports.append(tower.verify_trace_lemmas(
                tg, ci, gseq, horizon_factor=config.horizon_factor))
            general_reports.append(tower.verify_fundamental_general(tg, ci, gseq))
    checks.append(_aggregate("trace_lemmas",
                             {"horizon_factor": config.horizon_factor},
                             trace_reports))
    checks.append(_aggregate("fundamental_general", {}, general_reports))

    growth = {n: rec.torsion_growth(n) for n in range(1, config.sample_max_length + 1)}
    torsion_table = [
        {"n": n, "torsion_growth": growth[n],
         "bound": f"({growth[n]}*{n + 1})!"}
        for n in sorted(growth)
    ]
    words = sample_words(config.sample_count, config.sample_max_length,
                         rec.generator_count, config.seed)
    sampler = {"sampler": SAMPLER_NAME, "seed": config.seed,
               "count": config.sample_count, "max_length": config.sample_max_length}
    orbit_reports = []
    torsion_reports = []
    for word in words:
        bound = growth[len(word)] if len(word) >= 1 else 1
        orbit_reports.append(tower.verify_orbit_bound(tg, word, bound))
        torsion_reports.append(tower.verify_torsion_bound(tg, word, bound))
    checks.append(_aggregate("orbit_bound_sample", sampler, orbit_reports,
                             per_case=False))
    checks.append(_aggregate("torsion_bound_sample", sampler, torsion_reports,
                             per_case=False))

    checks.append(certify.check_subdirect(tg).as_dict())
    checks.append(certify.check_tail_injectivity(tg, config.ball_radius).as_dict())
    _, _, sign_report = certify.sign_vectors(tg)
    checks.append(sign_report.as_dict())
    cutoff_report, cutoff, _ = certify.alt_cutoff(tg)
    checks.append(cutoff_report.as_dict())
    checks.append(certify.perfectness_scan(tg).as_dict())

    return finalize(cutoff, torsion_table, components)


def cmd_word(config, text):
    try:
        word = parse_word(text, config.recursion.generator_count)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tg = tower.build_telescope(config.recursion, config.levels, config.basepoints)
    print(f"word: {str(word) or '1'}  (reduced length {len(word)})")
    images = tg.evaluate(word)
    for ci, image in enumerate(images, start=1):
        sizes = sorted((len(c) for c in image.cycles()), reverse=True) or [1]
        print(f"component {ci}: {image.cycle_string()}  "
              f"order {image.order()}  orbit sizes {sizes}")
    order = tg.order_in_truncation(word)
    print(f"order in truncation: {order}")
    if len(word) >= 1:
        growth = config.recursion.torsion_growth(len(word))
        limit = growth * (len(word) + 1)
        ok = tower.divides_factorial(order, limit)
        print(f"torsion bound: order divides ({growth}*{len(word) + 1})! = {limit}!"
              f" -> {'pass' if ok else 'FAIL'}")
        return 0 if ok else 1
    print("torsion bound: empty word, order 1 divides everything -> pass")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="telescope",
        description="Build and certify telescopes of extended finite actions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs in (("build", []), ("verify", ["--out"]), ("word", ["--word"])):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        if "--out" in needs:
            p.add_argument("--out", default=None, help="certificate output path")
        if "--word" in needs:
            p.add_argument("--word", required=True,
                           help="whitespace-separated tokens g<k>, g<k>^-1, t")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "build":
            return cmd_build(config)
        if args.command == "verify":
            return cmd_verify(config, args.out)
        return cmd_word(config, args.word)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, RecursionError) as exc:
        print(f"error: computation budget exceeded: {exc}", file=sys.stderr)
        return 3
