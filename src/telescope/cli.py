"""Command-line front end: config ingestion, the verification pipeline,
human-readable reporting, and certificate persistence.

Configs are strict JSON: unknown and duplicate keys are rejected so a typo
cannot silently weaken a certificate.  Fixed config plus fixed seed reproduces
identical stdout and byte-identical certificate files.

Each preset recursion is built once per process, on the first call that
names it, and reused with its caches by every later call, the telescope
components extended from its levels included; a custom recursion table is
built anew on every call, and its caches and components go with it.
Cached values are exact facts about the group, so a call prints the same
whatever ran before it.

``verify`` refuses a target that is the config file itself.  It probes
the target's directory before any check runs by making and removing a
temporary file beside the target, so a path that cannot be written fails
at once.  Only after the checks does it write the certificate to that
temporary file and rename it over the target: a failed call, or one
killed during the checks, leaves no partial file and any older
certificate intact.

Exit codes: 0 pass, 1 a check failed, 2 config or usage error (also a
config nested too deeply for the JSON decoder or holding an integer of
more digits than the interpreter converts, a ``word`` token whose index
has such digits, which exceeds the generators, ``verify`` and ``word``
on a recursion declared ``"contracting": false``, whose equality and
element orders they need, and a stdout whose reader has gone before all
output was written, as in ``telescope word ... | head`` or ``--help``
into such a reader; ``verify`` prints only once its certificate is in
place, so the certificate stays), 3 a computation ran out of its budget
(a recursion declared contracting that is not, or that is not torsion, a
level with more vertices than the step budget, an inline table whose
arity is above it, refused before any root permutation is parsed, or a
word sample of more draws than it).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import random
import re
import sys
from dataclasses import dataclass

from . import certify, tower
from .perm import Permutation
from .reports import CheckReport
from .selfsim import (STEP_BUDGET, BudgetExceeded, WreathRecursion, grigorchuk,
                      gupta_sidki_3)
from .words import compose_signed, format_word, parse_signed, parse_word

SAMPLER_NAME = "mt19937-reduced-words-v1"
# failing cases embedded per check, and failure rows per case
MAX_FAILURES = 20

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


def _unique_keys(pairs):
    """``object_pairs_hook`` for ``json.loads``: a key may occur once per object."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


# points are canonical ASCII decimals: '(01 2)' is malformed, not (1 2)
_CYCLES_RE = re.compile(r"\s*(?:\(\s*(?:(?:0|[1-9][0-9]*)\b\s*)*\)\s*)*")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree):
    """Parse disjoint cycles like ``(0 1)(2 3 4)``; empty text is the identity.

    A point may appear in one cycle only, one-point cycles included.
    """
    if _CYCLES_RE.fullmatch(text) is None:
        raise ConfigError(f"malformed cycle notation {text!r}")
    cycles = [tuple(int(p) for p in body.split()) for body in _CYCLE_RE.findall(text)]
    if any(p >= degree for cycle in cycles for p in cycle):
        raise ConfigError(f"cycle point out of range in {text!r} (degree {degree})")
    try:
        return Permutation.from_cycles(degree, cycles)
    except ValueError as exc:
        raise ConfigError(f"bad cycles {text!r}: {exc}") from exc


@functools.cache
def _preset_recursion(factory):
    """The one recursion ``factory`` builds in this process, made on first use.

    Keyed by the factory object, so a factory swapped into ``PRESETS`` gets
    its own recursion.  Every value a recursion caches is an exact fact
    about its group, so later calls see the same results, only sooner.
    """
    return factory()


def _parse_recursion(spec, where):
    if isinstance(spec, str):
        if spec not in PRESETS:
            raise ConfigError(
                f"unknown preset {spec!r}; available: {', '.join(sorted(PRESETS))}")
        return _preset_recursion(PRESETS[spec]), spec
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a preset name or a recursion table")
    _expect_keys(spec, ["arity", "generators", "root_perms", "sections", "contracting"],
                 [], where)
    arity = spec["arity"]
    names = spec["generators"]
    if not _natural(arity, 2):
        raise ConfigError("arity must be an integer >= 2")
    if arity > STEP_BUDGET:
        # refused before any arity-sized root permutation is built
        raise BudgetExceeded(f"level 1 has more than {STEP_BUDGET} vertices")
    if (not isinstance(names, list) or not names
            or not all(isinstance(n, str) and n for n in names)):
        raise ConfigError("generators must be a nonempty list of names")
    if len(set(names)) != len(names):
        raise ConfigError("generator names must be distinct")
    for name in names:
        # a section word splits on whitespace, reads a trailing ^-1 as
        # inversion and the lone token 1 as the empty word
        if name.split() != [name] or name.endswith("^-1"):
            raise ConfigError(f"generator name {name!r} cannot be spelled in a word: "
                              "it contains whitespace or ends in '^-1'")
        if name == "1":
            raise ConfigError("generator name '1' cannot be spelled in a word: "
                              "'1' is the empty word")
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
        if not isinstance(roots[name], str):
            raise ConfigError(f"root_perms[{name!r}] must be a cycle-notation string")
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
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                          f"at position {exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from exc
    except ConfigError:
        raise
    except ValueError as exc:  # the interpreter's limit on int() digits
        raise ConfigError(f"{path}: invalid JSON: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits") from exc
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
        # arity ** level > point once level reaches point's bit length, so
        # the power is formed only for small levels
        if level < point.bit_length() and point >= recursion.arity ** level:
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


def sample_words(count, max_length, gen_count, seed, skip=()):
    """Deterministic reduced code words over the generators and the transposition.

    Only ``Random.random()`` is consumed (its output is stable across Python
    releases); each next letter is drawn among those that do not cancel the
    previous one, so the sampled words are reduced by construction.  The
    letters allowed after each letter, and first, are tabled once.  A draw
    whose length is in ``skip`` consumes its random numbers, so every other
    word stays the same, but is neither built nor returned.
    """
    draw = random.Random(seed).random
    alphabet = [0]
    for code in range(1, gen_count + 1):
        alphabet.extend((code, -code))
    follows = {code: [c for c in alphabet if c != -code] for code in alphabet}
    words = []
    for _ in range(count):
        length = 1 + int(draw() * max_length)
        if length in skip:
            for _ in range(length):
                draw()
            continue
        codes = []
        choices = alphabet
        for _ in range(length):
            code = choices[int(draw() * len(choices))]
            codes.append(code)
            choices = follows[code]
        words.append(tuple(codes))
    return words


def _gseq_sweep(gen_count):
    """All generator sequences of length 1 and 2 over single generators."""
    singles = [(code,) for code in range(1, gen_count + 1)]
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


def _aggregate(name, parameters, cases, failures, rows=()):
    """One check report: a count summary of ``cases`` cases, then the count
    ``rows``, then the first failing cases.

    A passing case is only counted; only the failing cases' reports, in
    case order, are embedded.
    """
    failing = [{"parameters": report.parameters,
                "failures": report.witnesses[:MAX_FAILURES]}
               for report in failures[:MAX_FAILURES]]
    return CheckReport(name, dict(parameters), not failures,
                       [{"cases": cases, "failed_cases": len(failures)}, *rows, *failing])


def _per_component(name, parameters, cases, failures):
    """A sweep check report: ``cases`` cases on each component, whose failing
    reports are ``failures[ci]``, counted per component, then the first
    failing cases, component by component."""
    rows = [{"component": ci, "cases": cases, "failed_cases": len(failed)}
            for ci, failed in enumerate(failures, start=1)]
    return _aggregate(name, parameters, cases * len(failures),
                      [report for failed in failures for report in failed], rows)


def cmd_build(config, tg):
    print(f"group: {config.group_label}  (arity {config.recursion.arity}, "
          f"generators {' '.join(config.recursion.names)})")
    print("component  level  base_degree  extended_degree  basepoint")
    for row in certify.component_table(tg):
        print(f"{row['component']:>9}  {row['level']:>5}  {row['base_degree']:>11}  "
              f"{row['extended_degree']:>15}  {row['basepoint']:>9}")
    return 0


def _sweep_checks(tg, horizon_factor):
    """The ``trace_lemmas`` and ``fundamental_general`` check reports: one
    case per generator sequence on the disjoint union of the blocks, built
    once for both sweeps and every component.

    The trace facts of every block of a case are decided by one pass over
    the union (``tower.failing_trace_reports``), and every return-bound
    case is decided by its longest cycle; a report is built only for a
    failing case of one component.  Each entry's block t g is composed
    once and kept for the sequences after it, so a pair's block is one
    composition of two kept blocks.  Each component's cases are counted,
    and only the failing cases' reports are kept, listed component by
    component, each component's in sweep order.  A sequence's order N in
    the group and bound N(k+1) are the same on every component, so
    ``fundamental_general`` lists them once per sequence, as its ``sweep``
    parameter.
    """
    sweep = _gseq_sweep(tg.generator_count)
    count = len(tg.components)
    orders = []
    blocks = {}  # each entry's block t g on the union, composed on first use
    trace_failures = [[] for _ in range(count)]
    general_failures = [[] for _ in range(count)]
    for gseq in sweep:
        case = tower.sweep_case(tg, gseq, blocks)
        orders.append({"gseq": case.names, "order": case.order, "bound": case.bound})
        for ci, report in tower.failing_trace_reports(tg, case, horizon_factor).items():
            trace_failures[ci].append(report)
        for ci in range(count):
            if not tower.return_bound_holds(case, ci):
                general_failures[ci].append(tower.verify_fundamental_general(tg, ci, case))
    return [_per_component("trace_lemmas", {"horizon_factor": horizon_factor}, len(sweep),
                           trace_failures),
            _per_component("fundamental_general", {"sweep": orders}, len(sweep),
                           general_failures)]


def _sample_checks(config, tg, growth):
    """The ``orbit_bound_sample`` and ``torsion_bound_sample`` check reports
    on the seeded word sample; ``growth`` maps each length to its torsion
    growth.

    ``tower.bounds_settled`` decides a draw by one longest cycle against
    its limit T(n)(n+1).  A length whose limit reaches the largest block's
    degree is settled for every element, so its draws are counted and
    nothing else: they consume their random numbers, which fix the words
    of the other lengths, but build no word.

    Each distinct word of another length is composed once, from the
    telescope's letter table on the disjoint union of the blocks, so its
    element is one image tuple, and one walk of each distinct element's
    cycles gives its longest cycle.  An element whose longest cycle is at
    most the limit passes both bounds; any other fails the orbit bound, so
    its word is evaluated on the blocks and both verifiers run once for
    it, every embedded failure naming its own word.  Every draw is
    counted.
    """
    sampler = {"sampler": SAMPLER_NAME, "seed": config.seed,
               "count": config.sample_count, "max_length": config.sample_max_length}
    letters = tg.union_letters
    largest = max(stop - start for start, stop in tg.block_spans)
    settled = {length for length, bound in growth.items()
               if tower.bounds_settled(largest, bound * (length + 1))}
    longest = {}  # element -> its longest cycle
    by_word = {}  # word -> its failing reports
    failures = {"orbit_bound": [], "torsion_bound": []}
    for word in sample_words(config.sample_count, config.sample_max_length,
                             tg.generator_count, config.seed, settled):
        failed = by_word.get(word)
        if failed is None:
            element = compose_signed(word, letters)
            cycle = longest.get(element)
            if cycle is None:
                cycle = longest[element] = max(tower._cycle_walk(element)[0])
            bound = growth[len(word)]
            failed = ()
            if not tower.bounds_settled(cycle, bound * (len(word) + 1)):
                images = tg.evaluate(word)
                failed = tuple(report for report in (
                    tower.verify_orbit_bound(word, images, bound),
                    tower.verify_torsion_bound(word, images, bound)) if not report.passed)
            by_word[word] = failed
        for report in failed:
            failures[report.name].append(report)
    return [_aggregate(f"{name}_sample", sampler, config.sample_count, reports)
            for name, reports in failures.items()]


def _verify_checks(config, tg):
    """The certificate document of ``verify``, its checks in certificate order."""
    rec = config.recursion
    # the sample is held in memory, so its draws count against the budget
    # before anything is drawn or checked
    if config.sample_count > rec.step_budget:
        raise BudgetExceeded(f"word sample has more than {rec.step_budget} draws")
    checks = [tower.transitivity_report(tg)]
    checks += _sweep_checks(tg, config.horizon_factor)

    growth = {n: rec.torsion_growth(n) for n in range(1, config.sample_max_length + 1)}
    torsion_table = [
        {"n": n, "torsion_growth": growth[n],
         "bound": f"({growth[n]}*{n + 1})!"}
        for n in sorted(growth)
    ]
    checks += _sample_checks(config, tg, growth)

    checks.append(certify.check_subdirect(tg))
    checks.append(certify.check_tail_injectivity(tg, config.ball_radius))
    _, image_size, sign_report = certify.sign_vectors(tg)
    checks.append(sign_report)
    cutoff_report, cutoff = certify.alt_cutoff(tg, image_size)
    checks.append(cutoff_report)
    checks.append(certify.perfectness_scan(tg))

    return certify.emit_certificate(
        config.raw_bytes, certify.component_table(tg), checks,
        cutoff, torsion_table)


def _remove(path):
    with contextlib.suppress(OSError):
        os.remove(path)


def _cannot_write(path, reason):
    # nothing is printed before the certificate is in place, so a path
    # that cannot be written leaves stdout empty
    print(f"error: cannot write certificate {path}: {reason}", file=sys.stderr)
    return 2


def _same_file(a, b):
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def cmd_verify(config, tg, out_path, config_path):
    path = config.output_path if out_path is None else out_path
    if not path:
        raise ValueError("--out must name a file, not an empty path")
    if os.path.isdir(path):
        return _cannot_write(path, os.strerror(errno.EISDIR))
    if _same_file(path, config_path):
        return _cannot_write(path, "it is the config file")
    # made and removed before any check runs, so a path that cannot be
    # written fails at once and a killed run leaves no file behind
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "wb"):
            pass
        os.remove(temp)
    except OSError as exc:
        return _cannot_write(path, exc.strerror)
    doc = _verify_checks(config, tg)
    try:
        with open(temp, "wb") as handle:
            handle.write(certify.certificate_bytes(doc))
        os.replace(temp, path)
    except OSError as exc:
        _remove(temp)
        return _cannot_write(path, exc.strerror)
    except BaseException:
        _remove(temp)
        raise
    checks = doc["checks"]
    failed = [c["name"] for c in checks
              if c["status"] == "fail" and not c["parameters"].get("informational")]
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


def cmd_word(config, tg, text):
    word = parse_word(text, config.recursion.generator_count)
    # the ball behind the growth is the costly part; an exhausted budget
    # ends the query before anything is printed
    growth = config.recursion.torsion_growth(len(word)) if word else None
    images = tg.evaluate(word)
    print(f"word: {format_word(word)}  (reduced length {len(word)})")
    for ci, image in enumerate(images, start=1):
        # the string's walk fills the cycle lengths the sizes and order read
        text = image.cycle_string()
        sizes = sorted(image.cycle_lengths(), reverse=True) or [1]
        print(f"component {ci}: {text}  order {image.order()}  orbit sizes {sizes}")
    if not word:
        print("order in truncation: 1")
        print("torsion bound: empty word, order 1 divides everything -> pass")
        return 0
    report = tower.verify_torsion_bound(word, images, growth)
    witness = report.witnesses[0]
    print(f"order in truncation: {witness['order']}")
    print(f"torsion bound: order divides ({growth}*{len(word) + 1})! = "
          f"{witness['factorial_of']}! -> {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help text meets a closed stdout as every
    other output does.  ``argparse`` drops the error of its own write, so
    help into a reader that has gone would exit 0 with nothing written, or,
    with the text left in stdout's buffer, fail at exit; here the text is
    written and flushed at once, and a closed stdout raises inside
    ``main``.  Subcommand parsers are made of this class too."""

    def print_help(self, file=None):
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


@functools.cache
def _parser():
    """The command-line parser, built on the first call of ``main``."""
    parser = _Parser(
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
                           help="whitespace-separated tokens g<k>, g<k>^-1, t, "
                                "or 1 for the empty word")
    return parser


def _stdout_closed():
    """Exit code 2 once stdout's reader has gone: one error line, and stdout
    pointed at the null device, so the interpreter's flush at exit cannot
    fail a second time."""
    with contextlib.suppress(OSError):
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    with contextlib.suppress(OSError):
        print("error: stdout was closed before the output was written", file=sys.stderr)
    return 2


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        config = load_config(args.config)
        tg = tower.build_telescope(config.recursion, config.levels, config.basepoints)
        if args.command == "build":
            code = cmd_build(config, tg)
        elif args.command == "verify":
            code = cmd_verify(config, tg, args.out, args.config)
        else:
            code = cmd_word(config, tg, args.word)
        # output still in the buffer meets a closed stdout here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return _stdout_closed()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, RecursionError) as exc:
        print(f"error: computation budget exceeded: {exc}", file=sys.stderr)
        return 3
