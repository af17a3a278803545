"""Output checks for every benchmark call, and a self-test of the checks.

Each check returns a list of problems; an empty list means the output is
correct.  Expected values come from theory, never from the program under
test: full symmetric and alternating orders are n! and n!/2, the
Grigorchuk quotient |G/St(n)| is 2^(5*2^(n-3)+2) for n >= 3, and a word's
order is the lcm of the cycle lengths it prints.
"""

from __future__ import annotations

import json
import math
import re

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_COMPONENT_RE = re.compile(
    r"component (\d+): (\(.*?\))  order (\d+)  orbit sizes \[([\d, ]*)\]$")
_ORDER_RE = re.compile(r"order in truncation: (\d+)$")
_WORD_RE = re.compile(r"word: .*  \(reduced length (\d+)\)$")


def grigorchuk_quotient_order(level):
    return 2 ** (5 * 2 ** (level - 3) + 2)


def _trace_failures(check):
    return [failure for case in check["witnesses"]
            for failure in case.get("failures", [])]


def check_certificate(exit_code, cert_bytes, op, expected_cutoff):
    """Problems with one ``verify`` call, judged from its exit code and certificate.

    Exit code 1 is expected: the only failures allowed are pigeonhole
    counterexamples in ``trace_lemmas``, which are genuine (see README,
    "Known red checks").  Every other non-informational check must pass.
    """
    problems = [] if exit_code == 1 else [f"exit code {exit_code!r}, expected 1"]
    try:
        return problems + _certificate_problems(json.loads(cert_bytes), op,
                                                expected_cutoff)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return problems + [f"malformed certificate: {exc!r}"]


def _certificate_problems(doc, op, expected_cutoff):
    problems = []
    checks = {c["name"]: c for c in doc["checks"]}
    for check in doc["checks"]:
        if check["parameters"].get("informational") or check["status"] == "pass":
            continue
        if check["name"] != "trace_lemmas" or check["status"] != "fail":
            problems.append(f"check {check['name']} is {check['status']}")
            continue
        kinds = {f.get("check") for f in _trace_failures(check)}
        if kinds != {"pigeonhole_pair"}:
            problems.append(f"trace_lemmas failures of kind {sorted(map(str, kinds))}")
    if doc.get("alt_cutoff") != expected_cutoff:
        problems.append(f"alt_cutoff {doc.get('alt_cutoff')!r}, expected {expected_cutoff}")

    components = doc["components"]
    if [c["level"] for c in components] != list(op.levels):
        problems.append("component levels differ from the config")
    subdirect = checks.get("subdirect", {}).get("witnesses", [])
    if len(subdirect) != len(components):
        problems.append("subdirect has no witness per component")
    for w in subdirect:
        if w.get("order") != math.factorial(w.get("extended_degree", -1)):
            problems.append(f"subdirect order of component {w.get('component')} "
                            "is not extended_degree!")
    for w in checks.get("alt_cutoff", {}).get("witnesses", []):
        if w.get("full_alternating") and (
                w["kernel_projection_order"] != math.factorial(w["extended_degree"]) // 2):
            problems.append(f"kernel projection order of component {w['component']} "
                            "is not degree!/2")
    if op.group == "grigorchuk":
        for w, comp in zip(checks.get("perfectness_scan", {}).get("witnesses", []),
                           components):
            level = comp["level"]
            if level >= 3 and w.get("quotient_order") != grigorchuk_quotient_order(level):
                problems.append(f"quotient order at level {level} is "
                                f"{w.get('quotient_order')}")
    return problems


def check_word_output(exit_code, stdout, op):
    """Problems with one ``word`` call: the printed orders must match the
    printed cycles, and the torsion bound must pass."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code!r}, expected 0")
    lines = stdout.splitlines()
    if len(lines) != len(op.levels) + 3:
        return problems + [f"{len(lines)} output lines for {len(op.levels)} components"]
    head = _WORD_RE.match(lines[0])
    if head is None or int(head.group(1)) != op.word_length:
        problems.append(f"bad word line {lines[0]!r}")
    overall = 1
    for index, line in enumerate(lines[1:-2], start=1):
        match = _COMPONENT_RE.match(line)
        if match is None or int(match.group(1)) != index:
            problems.append(f"bad component line {line!r}")
            continue
        lengths = [len(body.split()) for body in _CYCLE_RE.findall(match.group(2))
                   if body.strip()]
        order = math.lcm(*lengths) if lengths else 1
        if int(match.group(3)) != order:
            problems.append(f"component {index} order {match.group(3)} != lcm {order}")
        sizes = [int(x) for x in match.group(4).split(",")]
        if sizes != (sorted(lengths, reverse=True) or [1]):
            problems.append(f"component {index} orbit sizes {sizes} != cycles {lengths}")
        overall = math.lcm(overall, order)
    order_line = _ORDER_RE.match(lines[-2])
    if order_line is None or int(order_line.group(1)) != overall:
        problems.append(f"{lines[-2]!r} is not the lcm {overall} of the cycle lengths")
    if not (lines[-1].startswith("torsion bound:") and lines[-1].endswith("-> pass")):
        problems.append(f"torsion bound line {lines[-1]!r}")
    return problems


def _tamper_json(cert_bytes, edit):
    doc = json.loads(cert_bytes)
    edit({c["name"]: c for c in doc["checks"]})
    return json.dumps(doc).encode("ascii")


def _subdirect_off_by_one(checks):
    checks["subdirect"]["witnesses"][0]["order"] += 1


def _non_pigeonhole_failure(checks):
    _trace_failures(checks["trace_lemmas"])[0]["check"] = "trace_stays_clear"


def _order_plus_one(stdout):
    return "\n".join(
        f"order in truncation: {int(m.group(1)) + 1}"
        if (m := _ORDER_RE.match(line)) else line
        for line in stdout.split("\n"))


def self_test(exit_code, output, op, expected_cutoff):
    """Tampered copies of one good output must each be counted as a failure.

    ``exit_code`` and ``output`` come from a call that passed its check; the
    output is certificate bytes for ``verify`` and stdout for ``word``.
    Returns the names of the tampered cases the checks let through.
    """
    missed = []
    if op.argv[0] == "verify":
        for name, edit in (("subdirect_order_off_by_one", _subdirect_off_by_one),
                           ("non_pigeonhole_failure", _non_pigeonhole_failure)):
            tampered = _tamper_json(output, edit)
            if not check_certificate(exit_code, tampered, op, expected_cutoff):
                missed.append(name)
    elif not check_word_output(exit_code, _order_plus_one(output), op):
        missed.append("word_order_plus_one")
    return missed
