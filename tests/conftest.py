"""Shared test oracles and the acceptance-summary hook.

The oracles here deliberately avoid the library's own code paths: group
closure is plain breadth-first multiplication over image tuples, level
transitivity is a breadth-first orbit of point 0 over image tuples,
element orders come from explicit permutation images at a deep tree level,
words are evaluated on the blocks by multiplying permutations one letter at
a time, the kernel of the componentwise sign map is built from Schreier
generators, and the trace and return-bound sweeps compose tau, the
entries and the block by hand (``hand_case``), take N from
``element_order``, and walk every point one letter at a time, and
``list_sample_words`` draws the seeded word sample by filtering the
alphabet afresh for every letter.
``cyclic_root_recursions`` draws the recursions that
``WreathRecursion.quotient_orders`` accepts, for the tests that check it
against these oracles, and ``scan_cases`` draws small hand-built
telescopes whose stated orders (``FixedOrder``) need not be their block
orders, so their return bounds may fail.  The ``count_orbits`` fixture
counts the orbits construction computes, so a test can pin that each
component is checked by one orbit when it is made, and by none when it
is reused.
The helpers several modules share live here once: ``cyc`` (a permutation
from its cycles), ``write_config`` (a JSON config in a test's directory),
and the ``grig`` and ``grig1234`` fixtures, the Grigorchuk recursion and
its telescope on levels 1..4, made once per test module.
"""

import json
import math
import os
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, strategies as st

from telescope import cli, tower
from telescope.perm import Permutation, orbit
from telescope.reports import CheckReport
from telescope.selfsim import WreathRecursion, grigorchuk
from telescope.words import format_word, reduce_signed

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env():
    """Environment for a child interpreter that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def grig():
    return grigorchuk()


@pytest.fixture(scope="module")
def grig1234(grig):
    return tower.build_telescope(grig, [1, 2, 3, 4])


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


class FixedOrder:
    """Stands in for a recursion's element orders: every product has the
    same drawn order, which need not be its order in the block."""

    def __init__(self, order):
        self.order = order

    def element_order(self, word):
        return self.order


@st.composite
def scan_cases(draw):
    """A hand-built telescope of one to three components on 1..8 base points
    over 1..3 generators, one of them an n-cycle so every base is
    transitive, with a drawn basepoint per component, then a gseq of k =
    1..3 words that may use inverse letters and a horizon factor."""
    gen_count = draw(st.integers(1, 3))
    cycle_at = draw(st.integers(0, gen_count - 1))
    components = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 8))
        relabel = draw(st.permutations(range(degree)))
        perms = [Permutation(draw(st.permutations(range(degree))))
                 for _ in range(gen_count)]
        perms[cycle_at] = Permutation.from_cycles(degree, [relabel])
        components.append(tower.ExtendedAction(perms, draw(st.integers(0, degree - 1))))
    letters = st.integers(1, gen_count).flatmap(lambda g: st.sampled_from((g, -g)))
    gseq = [reduce_signed(draw(st.lists(letters, min_size=1, max_size=3)))
            for _ in range(draw(st.integers(1, 3)))]
    tg = tower.TelescopeGroup(tuple(components),
                              tuple(f"g{i + 1}" for i in range(gen_count)),
                              FixedOrder(draw(st.integers(1, 6))))
    return tg, draw(st.integers(0, len(components) - 1)), gseq, draw(st.integers(1, 3))


def custom_arity_3():
    """A recursion whose sections carry inverse letters and words of length 2."""
    return WreathRecursion(
        arity=3, names=("x", "y"),
        root_perms=(Permutation((1, 2, 0)), Permutation((1, 0, 2))),
        sections=(((-2,), (1, -2), ()), ((2, -1), (), (-1,))),
        contracting=False)


def level_image(rec, word, level):
    """Image of a signed word in the level action, composed by hand."""
    perms = rec.level_action(level)
    result = Permutation.identity(rec.arity ** level)
    for s in word:
        perm = perms[abs(s) - 1]
        if s < 0:
            perm = perm.inverse()
        result = result * perm
    return result


def list_sample_words(count, max_length, gen_count, seed):
    """``cli.sample_words``'s draws: the alphabet t, g1, g1^-1, ... is
    filtered for each next letter by a list comprehension that drops the
    inverse of the previous letter, consuming ``Random.random()`` alike."""
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
        words.append(tuple(codes))
    return words


def spying_sample(monkeypatch):
    """Record every ``cli.sample_words`` call's words, and every word the
    sample checks compose, in call order."""
    drawn, composed = [], []
    sample_words, compose_signed = cli.sample_words, cli.compose_signed

    def drawing(*args):
        words = sample_words(*args)
        drawn.append(words)
        return words

    def composing(word, letters):
        composed.append(word)
        return compose_signed(word, letters)

    monkeypatch.setattr(cli, "sample_words", drawing)
    monkeypatch.setattr(cli, "compose_signed", composing)
    return drawn, composed


def block_images(tg, word):
    """A word's image on each block, composed by hand from the component's
    generator images and tau."""
    images = []
    for comp in tg.components:
        result = Permutation.identity(comp.extended_degree)
        for s in word:
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
    parameters = {"word": format_word(word), "length": length, "torsion_growth": torsion_bound}
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


def assemble_check(name, parameters, reports, rows=()):
    """One check entry folded from every case's full report, with the
    count ``rows`` after its summary and the first failing cases after
    them."""
    failing = [report for report in reports if not report.passed]
    return {"name": name, "parameters": dict(parameters),
            "status": "fail" if failing else "pass",
            "witnesses": [{"cases": len(reports), "failed_cases": len(failing)},
                          *rows,
                          *({"parameters": report.parameters,
                             "failures": report.witnesses[:cli.MAX_FAILURES]}
                            for report in failing[:cli.MAX_FAILURES])]}


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
    gens = [tuple(c.gen_images[i] for c in tg.components) for i in range(tg.generator_count)]
    gens.append(tuple(c.tau for c in tg.components))
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


def return_time(perm, point):
    """The least m >= 1 with perm^m(point) = point, found by applying perm."""
    m = 1
    current = perm(point)
    while current != point:
        current = perm(current)
        m += 1
    return m


def hand_case(tg, component, gseq):
    """N, tau, each entry's image and the block t g1 t g2 ... t gk on one
    component, each image multiplied out one factor at a time from the
    component's generator images.  N is ``tg.rec.element_order`` of
    g1...gk."""
    comp = tg.components[component]
    identity = Permutation.identity(comp.extended_degree)
    images = []
    for word in gseq:
        image = identity
        for s in word:
            perm = comp.gen_images[abs(s) - 1]
            image = image * (perm.inverse() if s < 0 else perm)
        images.append(image)
    block = identity
    for image in images:
        block = block * comp.tau * image
    n = tg.rec.element_order(reduce_signed([s for word in gseq for s in word]))
    return n, comp.tau, images, block


def walk_fundamental_general(tg, component, gseq):
    """``verify_fundamental_general``'s report, each point's return time
    found by applying the hand-composed block until the point comes back:
    every point whose return time exceeds the bound, or else the point
    count and the largest return time."""
    gseq = list(gseq)
    n, _, _, block = hand_case(tg, component, gseq)
    bound = n * (len(gseq) + 1)
    times = [return_time(block, point) for point in range(block.degree)]
    violations = [{"point": point, "m": m} for point, m in enumerate(times) if m > bound]
    return CheckReport(
        name="fundamental_general",
        parameters={"component": component + 1, "gseq": [format_word(w) for w in gseq],
                    "order_mode": "global", "order": n, "bound": bound},
        passed=not violations,
        witnesses=violations or [{"points": block.degree, "largest_return": max(times)}])


def walk_trace_lemmas(tg, component, gseq, horizon_factor=2):
    """``verify_trace_lemmas``'s report from ``walk_first_hits`` and value
    rows written out in full: for each hitting point, every row of length
    N(k+1) is rescanned for two indices holding the point's full return."""
    gseq = list(gseq)
    k = len(gseq)
    n, tau, images, block = hand_case(tg, component, gseq)
    bound = n * (k + 1)
    horizon = horizon_factor * bound
    comp = tg.components[component]
    p = comp.basepoint
    degree = comp.extended_degree

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
        parameters={"component": component + 1, "gseq": [format_word(w) for w in gseq],
                    "order_mode": "global", "order": n, "bound": bound,
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
