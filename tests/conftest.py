"""Shared test oracles and the acceptance-summary hook.

The oracles here deliberately avoid the library's own code paths: group
closure is plain breadth-first multiplication over image tuples, element
orders come from explicit permutation images at a deep tree level, and the
kernel of the componentwise sign map is built from Schreier generators.
"""

import os
import re
from pathlib import Path

from telescope.perm import Permutation
from telescope.selfsim import WreathRecursion

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


def custom_arity_3():
    """A recursion whose sections carry inverse letters and words of length 2."""
    return WreathRecursion(
        arity=3, names=("x", "y"),
        root_perms=(Permutation((1, 2, 0)), Permutation((1, 0, 2))),
        sections=(((-2,), (1, -2), ()), ((2, -1), (), (-1,))),
        contracting=False)


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


def _tuple_mul(a, b):
    return tuple(x * y for x, y in zip(a, b))


def _tuple_sign(perms):
    return tuple(p.sign() for p in perms)


def schreier_sign_kernel(tg):
    """Generators of the kernel K of the componentwise sign map, built
    explicitly: a breadth-first coset transversal of the finite sign image,
    then every Schreier generator, trivial and repeated ones dropped.

    Returns ``(transversal, kernel_gens)``: the transversal maps each sign
    vector of the image to its representative, so its size is the image
    size, and ``kernel_gens`` are tuples of block permutations generating K.
    """
    gens = [tg.gen_tuple(i) for i in range(tg.generator_count)] + [tg.tau_tuple()]
    identity = tuple(Permutation.identity(c.extended_degree) for c in tg.components)

    transversal = {_tuple_sign(identity): identity}
    queue = [identity]
    while queue:
        element = queue.pop(0)
        for gen in gens:
            grown = _tuple_mul(element, gen)
            vector = _tuple_sign(grown)
            if vector not in transversal:
                transversal[vector] = grown
                queue.append(grown)

    kernel_gens = []
    for vector in sorted(transversal):
        rep = transversal[vector]
        for gen in gens:
            product = _tuple_mul(rep, gen)
            counter = transversal[_tuple_sign(product)]
            candidate = _tuple_mul(product, tuple(p.inverse() for p in counter))
            if any(s != 1 for s in _tuple_sign(candidate)):
                raise AssertionError("Schreier generator escaped the sign kernel")
            if not all(p.is_identity() for p in candidate):
                kernel_gens.append(candidate)
    kernel_gens = list(dict.fromkeys(kernel_gens))  # first occurrences, in order
    return transversal, kernel_gens


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
