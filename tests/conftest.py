"""Shared test oracles and the acceptance-summary hook.

The oracles here deliberately avoid the library's own code paths: group
closure is plain breadth-first multiplication over image tuples, level
transitivity is a breadth-first orbit of point 0 over image tuples,
element orders come from explicit permutation images at a deep tree level,
words are evaluated on the blocks by multiplying permutations one letter at
a time, the kernel of the componentwise sign map is built from Schreier
generators, and the trace and return-bound sweeps walk every point one
letter at a time.  ``cyclic_root_recursions`` draws the recursions that
``WreathRecursion.quotient_orders`` accepts, for the tests that check it
against these oracles.  The ``count_orbits`` fixture counts the orbits
construction computes, so a test can tell which transitivity path it took.
"""

import math
import os
import re
from pathlib import Path

import pytest
from hypothesis import assume, strategies as st

from telescope import tower
from telescope.perm import Permutation, orbit
from telescope.reports import CheckReport
from telescope.selfsim import WreathRecursion

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env():
    """Environment for a child interpreter that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.fixture
def count_orbits(monkeypatch):
    """The number of orbits construction has computed, in a one-item list."""
    computed = [0]

    def counting(*args):
        computed[0] += 1
        return orbit(*args)
    monkeypatch.setattr(tower, "orbit", counting)
    return computed


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


def transitivity_oracle(generators):
    """Breadth-first orbit of point 0 over the generators' image tuples,
    against the degree: the witness fields of a ``transitivity`` row."""
    degree = generators[0].degree
    seen = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = g.images[x]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return {"orbit_of_0": len(seen), "degree": degree, "transitive": len(seen) == degree}


@st.composite
def cyclic_root_recursions(draw):
    """A random recursion of prime arity p (2 or 3) whose root permutations
    are powers of one drawn p-cycle, some of them not the identity, with 1
    to 3 generators and sections of up to 2 letters; contracting or not,
    and its levels are often not transitive."""
    p = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 3))
    cycle = Permutation.from_cycles(p, [draw(st.permutations(range(p)))])
    exponents = [draw(st.integers(0, p - 1)) for _ in range(k)]
    assume(any(exponents))
    letters = st.sampled_from([code for i in range(1, k + 1) for code in (i, -i)])
    sections = [[draw(st.lists(letters, max_size=2)) for _ in range(p)] for _ in range(k)]
    return WreathRecursion(p, [f"g{i}" for i in range(1, k + 1)],
                           [cycle ** e for e in exponents], sections, contracting=False)


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


def block_images(tg, word):
    """A word's image on each block, composed by hand from the component's
    generator images and tau."""
    images = []
    for comp in tg.components:
        result = Permutation.identity(comp.extended_degree)
        for s in word.codes:
            perm = comp.tau if s == 0 else comp.gen_images[abs(s) - 1]
            if s < 0:
                perm = perm.inverse()
            result = result * perm
        images.append(result)
    return tuple(images)


def oracle_bound_reports(word, images, torsion_bound):
    """``verify_orbit_bound``'s and ``verify_torsion_bound``'s reports on a
    word's block images: each point's cycle length found by applying the
    image until the point comes back, the order as the lcm of those lengths,
    and the factorial bound tested on the factorial itself."""
    length = len(word)
    limit = torsion_bound * (length + 1)
    parameters = {"word": str(word), "length": length, "torsion_growth": torsion_bound}
    witnesses = []
    order = 1
    for ci, image in enumerate(images, start=1):
        largest = 1
        for point in range(image.degree):
            m = 1
            current = image(point)
            while current != point:
                current = image(current)
                m += 1
            largest = max(largest, m)
            order = math.lcm(order, m)
        entry = {"component": ci, "largest_orbit": largest, "limit": limit}
        if largest > limit:
            entry["violation"] = True
        witnesses.append(entry)
    orbit = CheckReport(name="orbit_bound", parameters=parameters,
                        passed=not any("violation" in w for w in witnesses),
                        witnesses=witnesses)
    torsion = CheckReport(name="torsion_bound", parameters=dict(parameters),
                          passed=math.factorial(limit) % order == 0,
                          witnesses=[{"order": order, "factorial_of": limit}])
    return orbit, torsion


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


def walk_first_hits(tau, images, p, horizon):
    """``hits[j][x]``: the least i >= 1 such that the last i letters of
    w(horizon, j) = (t g1 ... t gk)^horizon t g1 ... t gj send x to p, or
    None, found by applying the letters to x one at a time."""
    k = len(images)
    reversed_block_atoms = []
    for j in reversed(range(k)):
        reversed_block_atoms.append(images[j])
        reversed_block_atoms.append(tau)

    def first_hit(point, j):
        # reversed atoms of w(horizon, j): partial tail first, then the blocks
        index = 0
        current = point
        for jj in reversed(range(j)):
            for atom in (images[jj], tau):
                index += 1
                current = atom(current)
                if current == p:
                    return index
        for _ in range(horizon):
            for atom in reversed_block_atoms:
                index += 1
                current = atom(current)
                if current == p:
                    return index
        return None

    return [[first_hit(point, j) for point in range(tau.degree)] for j in range(k)]


def walk_fundamental_general(tg, component, gseq, order_mode="global"):
    """``verify_fundamental_general``'s report, each point's return time
    found by applying the block until the point comes back."""
    gseq = list(gseq)
    k = len(gseq)
    n = tower._sequence_order(tg, component, gseq, order_mode)
    bound = n * (k + 1)
    block = tower._block_permutation(*tower._atoms(tg, component, gseq))
    witnesses = []
    for point in range(block.degree):
        m = 1
        current = block(point)
        while current != point:
            current = block(current)
            m += 1
        entry = {"point": point, "m": m}
        if m > bound:
            entry["violation"] = True
        witnesses.append(entry)
    return CheckReport(
        name="fundamental_general",
        parameters={"component": component + 1, "gseq": [str(w) for w in gseq],
                    "order_mode": order_mode, "order": n, "bound": bound},
        passed=not any("violation" in w for w in witnesses),
        witnesses=witnesses)


def walk_trace_lemmas(tg, component, gseq, horizon_factor=2, order_mode="global"):
    """``verify_trace_lemmas``'s report from ``walk_first_hits`` and value
    rows written out in full: for each hitting point, every row of length
    N(k+1) is rescanned for two indices holding the point's full return."""
    gseq = list(gseq)
    k = len(gseq)
    n = tower._sequence_order(tg, component, gseq, order_mode)
    bound = n * (k + 1)
    horizon = horizon_factor * bound
    tau, images = tower._atoms(tg, component, gseq)
    comp = tg.components[component]
    p = comp.basepoint
    degree = comp.extended_degree
    block = tower._block_permutation(tau, images)

    # w(m, j').p for all m < bound and 0 <= j' < k
    value_rows = []
    partial = Permutation.identity(degree)
    for j in range(k):
        row = []
        current = partial(p)
        for _ in range(bound):
            row.append(current)
            current = block(current)
        value_rows.append(row)
        partial = partial * tau * images[j]
    full_return = block ** bound

    violations = []
    hits = 0
    first_hits = walk_first_hits(tau, images, p, horizon)
    for j in range(k):
        coarse = 2 * (n * k + j)
        for point in range(degree):
            hit = first_hits[j][point]
            if hit is not None:
                hits += 1
            if hit is not None and hit > coarse:
                violations.append({"check": "trace_stays_clear", "point": point,
                                   "partial": j, "first_hit": hit,
                                   "allowed_prefix": coarse})
            if point == p and (hit is None or hit > coarse):
                violations.append({"check": "basepoint_returns", "partial": j,
                                   "first_hit": hit})
            if hit is not None:
                target = full_return(point)
                if not any(row.count(target) >= 2 for row in value_rows):
                    violations.append({"check": "pigeonhole_pair", "point": point,
                                       "partial": j, "target": target})
    return CheckReport(
        name="trace_lemmas",
        parameters={"component": component + 1, "gseq": [str(w) for w in gseq],
                    "order_mode": order_mode, "order": n, "bound": bound,
                    "horizon": horizon},
        passed=not violations,
        witnesses=violations or [{"points": degree, "partials": k,
                                  "traces_hitting_basepoint": hits}])


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
