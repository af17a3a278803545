"""Shared test oracles and the acceptance-summary hook.

The oracles here deliberately avoid the library's own code paths: group
closure is plain breadth-first multiplication over image tuples, and
element orders come from explicit permutation images at a deep tree level.
"""

import os
import re
from pathlib import Path

from telescope.perm import Permutation

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env():
    """Environment for a child interpreter that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def brute_closure(generators):
    """All elements of the generated group, as a set of image tuples."""
    degree = generators[0].degree
    gens = [g.images for g in generators]
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for element in frontier:
            for gen in gens:
                product = tuple(gen[x] for x in element)
                if product not in elements:
                    elements.add(product)
                    new.append(product)
        frontier = new
    return elements


def level_image(rec, word, level):
    """Image of a signed word in the level action, composed by hand."""
    action = rec.level_action(level)
    result = Permutation.identity(action.degree)
    for s in word:
        perm = action.perms[abs(s) - 1]
        if s < 0:
            perm = perm.inverse()
        result = result * perm
    return result


_criteria = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if match:
        number = int(match.group(1))
        _criteria[number] = _criteria.get(number, True) and report.passed


def pytest_terminal_summary(terminalreporter):
    if not _criteria:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number in sorted(_criteria):
        verdict = "PASS" if _criteria[number] else "FAIL"
        terminalreporter.write_line(f"  criterion {number}: {verdict}")
