"""The telescope construction and its exhaustive verifiers.

Each component extends a finite transitive action by one fresh point q and
the transposition tau = (p, q); the telescope group is generated, across
all components at once, by the diagonal generator images and the tuple of
transpositions.  Every component in a telescope meets the construction's
precondition, so no later check decides it again: each component checks
its base action by a breadth-first orbit of 0 when it is made.  A
recursion keeps each component it was extended to, per level and
basepoint, next to its level actions, so a component and its letter
table are made and checked once and live exactly as long as their
recursion.
Every word here, an entry of a generator sequence or a sampled word, is a
reduced tuple of signed codes, evaluated from a letter table and spelled in
reports by ``words.format_word``.
The truncation acts on the disjoint union of its blocks, block ci taking
the union points ``block_spans[ci]``; ``TelescopeGroup.union_letters`` is
its letter table there, made on first use from the component tables, and
its degree is the union's.
The return bound and the trace facts sweep whole components point by
point, from one case per generator sequence whose block t g1 ... t gk is
evaluated as one word on the union of the blocks, and whose one walk of
the block's cycles gives every point's return time and N(k+1)-fold image;
N is always the order of g1 ... gk in the group.  ``sweep_case`` builds
that case, and is the one place a generator sequence is checked; both
sweep verifiers take the case and read one block of it.  ``verify``
builds each case once and hands it to both sweeps of every component.
Both sample bounds hold for an element whose longest cycle is at most the
limit, and the orbit bound holds for no other, so ``bounds_settled``
compares one longest cycle with the limit: a length's with its largest
block's degree, which settles every draw of it, and an element's own,
found by one walk of its image tuple on the union.  Only an element that
it does not settle reaches the two verifiers, and each decides its own
bound.  The return bound is decided in one place, ``return_bound_holds``,
which its verifier and ``verify`` both call.  ``verify`` counts a passing
return-bound or sample case and builds a verifier's report only for a
failing one.  The trace facts of every block of a case are decided by one
pass over the union (``failing_trace_reports``), which builds a report
only for a block with violations; ``verify_trace_lemmas`` is that pass on
one block.  Extending the truncation only ever adds checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .perm import Permutation, _compose, orbit
from .reports import CheckReport
from .words import LetterTable, compose_signed, format_word, invert_signed, reduce_signed

# Component indices in parameters and witnesses are 1-based throughout, so
# "component i" matches the i-th factor of the product.


@dataclass(frozen=True)
class ExtendedAction:
    """One component: a transitive base action, by its generator images
    ``base``, plus the fresh point, numbered ``base_degree``, and the
    transposition tau = (basepoint, fresh point).

    Construction rejects a base action that is not transitive, by the
    orbit of 0, and then makes ``gen_images``, the base images fixing the
    fresh point, and ``tau`` from ``base`` and ``basepoint``.  ``letters``
    is the component's letter table (tau, each generator, and each inverse
    once it is first used), made once and shared by every word evaluated
    on the component, in every telescope that ``build_telescope`` makes
    from the same recursion; ``level`` is the tree level the base acts on,
    if any.
    """

    base: tuple
    basepoint: int
    level: object = None
    gen_images: tuple = field(init=False, repr=False, compare=False)
    tau: Permutation = field(init=False, repr=False, compare=False)
    letters: LetterTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = tuple(self.base)  # the same object when it is a tuple already
        if not base:
            raise ValueError("an action needs at least one generator image")
        degree = base[0].degree
        if any(p.degree != degree for p in base):
            raise ValueError("generator images must share one degree")
        if not 0 <= self.basepoint < degree:
            raise ValueError(f"basepoint {self.basepoint} outside 0..{degree - 1}")
        reached = len(orbit(base, 0))
        if reached != degree:
            what = "base action" if self.level is None else f"level {self.level} action"
            raise ValueError(f"{what} is not transitive: the orbit of 0 has "
                             f"{reached} of {degree} points")
        gen_images = tuple(p.extended(degree + 1) for p in base)
        tau = Permutation.transposition(degree + 1, self.basepoint, degree)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "gen_images", gen_images)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "letters", LetterTable(gen_images, tau))

    @property
    def extended_degree(self):
        return self.tau.degree

    @property
    def base_degree(self):
        return self.tau.degree - 1


@dataclass(frozen=True)
class TelescopeGroup:
    """A finite truncation: generator tuples acting blockwise on the components."""

    components: tuple
    gen_names: tuple
    rec: object = field(default=None, compare=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("a telescope needs at least one component")
        k = len(self.gen_names)
        for comp in self.components:
            if len(comp.base) != k:
                raise ValueError("every component needs one image per generator")

    @property
    def generator_count(self):
        return len(self.gen_names)

    @cached_property
    def block_spans(self):
        """Each block's points in the disjoint union of the blocks, as
        ``(start, stop)``: block ci's point x is union point start + x."""
        spans = []
        start = 0
        for comp in self.components:
            spans.append((start, start + comp.extended_degree))
            start += comp.extended_degree
        return tuple(spans)

    @cached_property
    def block_of(self):
        """Each union point's block, as a 0-based component index."""
        return tuple(ci for ci, (start, stop) in enumerate(self.block_spans)
                     for _ in range(start, stop))

    @cached_property
    def union_letters(self):
        """One letter table on the disjoint union of the blocks: each letter's
        image is its block images side by side, shifted to the blocks'
        ``block_spans``, so every union image maps each block onto itself.
        Made from the component letter tables on first use and kept as long
        as the telescope."""
        starts = [start for start, _ in self.block_spans]

        def union(code):
            return Permutation._trusted(tuple(
                x + start for comp, start in zip(self.components, starts)
                for x in comp.letters[code]))

        return LetterTable([union(code) for code in range(1, self.generator_count + 1)],
                           union(0))

    @cached_property
    def _entry_blocks(self):
        """Each entry ``sweep_case`` met, mapped to its block t g on the union."""
        return {}

    def evaluate_component(self, codes, ci):
        """Image of a signed code word on block ``ci`` (rightmost letter acting first)."""
        return Permutation._trusted(compose_signed(codes, self.components[ci].letters))

    def evaluate(self, word):
        """Componentwise image of a code word (rightmost letter acting first)."""
        return tuple(self.evaluate_component(word, ci)
                     for ci in range(len(self.components)))


def transitivity_report(tg):
    """Every level action is transitive: each component checked that when it was
    made, so the rows are read off the components and no orbit is computed."""
    return CheckReport(
        name="transitivity",
        parameters={"levels": [comp.level for comp in tg.components]},
        passed=True,
        witnesses=[{"component": ci, "level": comp.level, "orbit_of_0": comp.base_degree,
                    "degree": comp.base_degree, "transitive": True}
                   for ci, comp in enumerate(tg.components, start=1)],
    )


def build_telescope(rec, levels, basepoints=None):
    """Components from strictly increasing tree levels of one recursion.

    Quotient sizes must strictly grow, hence the strict monotonicity.
    A level whose action is not transitive makes ``ExtendedAction`` raise,
    as its orbit of 0 finds.

    Each component is made, and its orbit computed, on the first call that
    names its level and basepoint, and kept on ``rec``; later calls reuse
    it and compute no orbit.  A component that fails its checks is not
    kept.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("a telescope needs at least one level")
    if any(l < 1 for l in levels) or any(a >= b for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing naturals")
    if basepoints is None:
        basepoints = [0] * len(levels)
    basepoints = list(basepoints)
    if len(basepoints) != len(levels):
        raise ValueError("need exactly one basepoint per level")
    made = rec._components
    components = []
    for key in zip(levels, basepoints):
        comp = made.get(key)
        if comp is None:
            level, basepoint = key
            comp = made[key] = ExtendedAction(rec.level_action(level), basepoint, level)
        components.append(comp)
    return TelescopeGroup(tuple(components), rec.names, rec)


# -- verifiers ----------------------------------------------------------------


class SweepCase(NamedTuple):
    """The one case both sweeps read, per generator sequence, on the disjoint
    union of the blocks: every image is a tuple on that domain, block ci
    taking the points ``TelescopeGroup.block_spans[ci]``, and maps each
    block onto itself."""

    names: list  # each entry's name, as the reports print it
    order: int  # N, the order of g1...gk in the group
    bound: int  # N*(k+1)
    tau: tuple  # t
    images: tuple  # each entry's image
    inverses: tuple  # the image of each entry's inverse
    block: tuple  # t g1 t g2 ... t gk
    lengths: list  # each point's return time under the block
    full_return: list  # the block's N(k+1)-fold map
    untails: tuple  # the inverse of the tail t g1 ... t gj of row j = 1..k-1
    longest: tuple  # each block's longest cycle, by 0-based component


def sweep_case(tg, gseq):
    """The ``SweepCase`` of ``gseq`` on the disjoint union of the blocks.

    Each entry and its inverse are composed from the union's letter table
    (``TelescopeGroup.union_letters``), so a one-letter entry is a table
    lookup.  The block t g1 ... t gk is composed from its entries' blocks
    t g, one ``_compose`` per entry after the first.  Each entry's block is
    composed on its first use and kept on the telescope, as its letter
    table is, so a sweep composes it once and a pair's block is one
    ``_compose`` of the two one-entry blocks.  One walk of the block's
    cycles gives every point's return time, the N(k+1)-fold map and each
    block's longest cycle.  The tail of each row of ``_first_hits``
    depends only on gseq, so it is composed here, once for every block.
    N is ``tg.rec.element_order`` of g1...gk, so gseq must be nonempty and
    free of the transposition, on a telescope with a recursion.
    """
    gseq = [tuple(word) for word in gseq]
    if not gseq:
        raise ValueError("the generator sequence must be nonempty")
    if tg.rec is None:
        raise ValueError("the order of g1...gk needs the telescope's recursion")
    if any(0 in word for word in gseq):
        raise ValueError("generator-sequence entries must not contain the transposition")
    n = tg.rec.element_order(reduce_signed([code for word in gseq for code in word]))
    letters = tg.union_letters
    bound = n * (len(gseq) + 1)
    tau = letters[0]
    images = tuple(compose_signed(word, letters) for word in gseq)
    inverses = tuple(compose_signed(invert_signed(word), letters) for word in gseq)
    blocks = tg._entry_blocks
    block = None
    for word in gseq:
        part = blocks.get(word)
        if part is None:
            part = blocks[word] = compose_signed((0, *word), letters)
        block = part if block is None else _compose(block, part)
    lengths, full_return = _cycle_walk(block, bound)
    untails = []
    untail = tuple(range(letters.degree))
    for inverse in inverses[:-1]:
        untail = _compose(inverse, _compose(tau, untail))
        untails.append(untail)
    return SweepCase([format_word(word) for word in gseq], n, bound, tau, images,
                     inverses, block, lengths, full_return, tuple(untails),
                     tuple(max(lengths[start:stop]) for start, stop in tg.block_spans))


def sweep_parameters(component, case):
    """The parameters both sweeps report for ``case`` on 0-based ``component``."""
    return {
        "component": component + 1,
        "gseq": case.names,
        "order_mode": "global",
        "order": case.order,
        "bound": case.bound,
    }


def return_bound_holds(case, component):
    """The return bound on block ``component`` of ``case``: every point comes
    back within N*(k+1) block applications, that is, no block cycle is
    longer."""
    return case.longest[component] <= case.bound


def _check_component(tg, component):
    if type(component) is not int or not 0 <= component < len(tg.components):
        raise ValueError(f"component index {component!r} outside "
                         f"0..{len(tg.components) - 1}")


def _check_horizon_factor(horizon_factor):
    if (isinstance(horizon_factor, bool) or not isinstance(horizon_factor, int)
            or horizon_factor < 1):
        raise ValueError(f"horizon_factor must be an integer >= 1, got {horizon_factor!r}")


def _cycle_walk(images, power=None):
    """One walk of the cycles of the permutation with image tuple ``images``.

    Returns each point's return time (its cycle's length, 1 for a fixed
    point) and, when ``power`` (>= 0) is given, the power-th power's
    images, each point mapped to its cycle's entry ``power`` steps on;
    None otherwise.  A point already walked has a return time above 1, so
    the times mark the walked points.
    """
    times = [1] * len(images)
    powers = None if power is None else list(range(len(images)))
    for start, point in enumerate(images):
        if point == start or times[start] != 1:
            continue
        cycle = [start]
        while point != start:
            cycle.append(point)
            point = images[point]
        size = len(cycle)
        for point in cycle:
            times[point] = size
        if powers is not None:
            shift = power % size
            if shift:  # a whole number of turns leaves the identity images
                for point, target in zip(cycle, cycle[shift:] + cycle[:shift]):
                    powers[point] = target
    return times, powers


def _first_hits(tau, inverses, untails, basepoints, horizon, block):
    """Row j maps each point x that some terminal subword of w(horizon, j)
    sends to its block's basepoint p to the least i >= 1 such that the
    last i letters do; a point that no terminal subword sends to p is
    absent from the row.

    All maps are image tuples on one domain, the union of the blocks, and
    map each block onto itself: ``block`` is the block t g1 ... t gk,
    ``inverses`` are g1^-1, ..., gk^-1, and ``untails[j-1]`` is the
    inverse of row j's tail t g1 ... t gj.  ``basepoints`` holds one p per
    block swept, as a union point.  Every point a walk below meets lies in
    the block of the p it started from, so the blocks share one dict of
    y_r points, one of first hits and one dict per row, and one pass
    decides them all.  Read from the word's end, w(horizon, j) is the
    partial tail g_j, t, ..., g_1, t, then ``horizon`` periods g_k, t, ...,
    g_1, t, each of which acts as the block.  Let y_r be the point that
    the first r atoms of a period send to p.  A point x that leaves the
    tail clear of p meets p at 2k*m + r exactly when block^m(x) = y_r, and
    that m is x's distance to y_r along its block cycle.  Since r <= 2k,
    the least hit comes from the nearest y ahead of x on its cycle, with
    the least r for that y, provided m < horizon; so only the block cycles
    through some y_r are walked, once each, backwards from a y.  In row j
    a point that the tail sends to a hitting point y hits at 2j plus y's
    hit, and the at most 2j points that some prefix of the tail sends to
    each p are patched with the least such prefix length.  A row costs its
    hitting points, whatever the horizon and the degree.
    """
    k = len(inverses)
    undo = []  # inverses of a period's atoms, in acting order g_k, t, ..., g_1, t
    for inverse in reversed(inverses):
        undo += [inverse, tau]
    least = {}  # y_r -> its least r, r = 1..2k
    for p in basepoints:
        for r in range(1, 2 * k + 1):
            point = p
            for inverse in reversed(undo[:r]):
                point = inverse[point]
            least.setdefault(point, r)

    periodic = {}  # the first hit of each point entering the periodic part
    for y in least:
        if y in periodic:
            continue
        cycle = [y]  # y's block cycle, walked forwards from y
        point = block[y]
        while point != y:
            cycle.append(point)
            point = block[point]
        m = r = 0
        for x in cycle[:1] + cycle[:0:-1]:  # y, then backwards round the cycle
            nearer = least.get(x)
            if nearer is not None:
                m, r = 0, nearer
            if m < horizon:
                periodic[x] = 2 * k * m + r
            m += 1

    hits = [periodic]  # row 0 has no tail
    for j, untail in enumerate(untails, start=1):
        row = {untail[y]: 2 * j + hit for y, hit in periodic.items()}
        tail_undo = undo[2 * (k - j):]  # inverses of the tail atoms g_j, t, ..., g_1, t
        for p in basepoints:
            for i in range(2 * j, 0, -1):  # the least prefix length is written last
                point = p
                for inverse in reversed(tail_undo[:i]):
                    point = inverse[point]
                row[point] = i
        hits.append(row)
    return hits


def verify_fundamental_general(tg, component, case):
    """Every point must return to itself within N*(k+1) block applications.

    For each point the least m >= 1 with  (t g1 ... t gk)^m . point = point
    is its cycle length under the block permutation (1 for a fixed point),
    read off the case's one walk of the block's cycles.  The report passes
    when ``return_bound_holds``, with one witness: the block's point count
    and its largest return time.  A failing report lists the (point, m)
    pair of each point of block ``component`` whose m exceeds the bound,
    and only those.  ``component`` is a 0-based index into
    ``tg.components``, and ``case`` is the ``sweep_case`` of a generator
    sequence, whose block is read at ``tg.block_spans[component]``.
    """
    _check_component(tg, component)
    start, stop = tg.block_spans[component]
    bound = case.bound
    passed = return_bound_holds(case, component)
    if passed:
        witnesses = [{"points": stop - start, "largest_return": case.longest[component]}]
    else:
        witnesses = [{"point": point, "m": m}
                     for point, m in enumerate(case.lengths[start:stop]) if m > bound]
    return CheckReport(
        name="fundamental_general",
        parameters=sweep_parameters(component, case),
        passed=passed,
        witnesses=witnesses,
    )


def _trace_pass(tg, components, case, horizon):
    """Every violation of the trace facts on the blocks ``components``
    (0-based) of ``case``, from one pass over the union of the blocks.

    Returns ``(found, hits)``: ``found`` lists ``(component, partial,
    point, violation)``, sorted by component, partial and union point;
    the sort is stable, so one point's violations keep the order in which
    they were found.  ``hits`` counts the row entries of all the blocks.
    See ``verify_trace_lemmas`` for the facts and the method.  A block maps
    onto itself under every image, so every set and dict here holds the
    points of all the blocks at once, and a violation is tagged with the
    block of its point by ``TelescopeGroup.block_of``.
    """
    n, bound, tau, images, block, lengths = (case.order, case.bound, case.tau, case.images,
                                             case.block, case.lengths)
    k = len(images)
    spans = tg.block_spans
    basepoints = [spans[ci][0] + tg.components[ci].basepoint for ci in components]

    # Values that occur twice in some row w(m, j').p, m < bound, 0 <= j' < k
    # (j' = 0 means no partial block).  Row j' starts at the point s that
    # t g1 ... t gj' sends p to, walked atom by atom from gj' back, and
    # walks s's block cycle, of length L, so the value d steps from s
    # occurs at m = d, d + L, ... and twice exactly when d + L < bound.
    repeated = set()
    for p in basepoints:
        for j in range(k):
            current = p
            for image in reversed(images[:j]):
                current = tau[image[current]]
            for _ in range(min(lengths[current], bound - lengths[current])):
                repeated.add(current)
                current = block[current]
    full_return = case.full_return
    block_of = tg.block_of
    is_basepoint = set(basepoints)

    # Only a hitting point, and p, can break a fact, so only they are visited.
    found = []
    hits = 0
    for j, row in enumerate(_first_hits(tau, case.inverses, case.untails, basepoints,
                                        horizon, block)):
        coarse = 2 * (n * k + j)
        hits += len(row)
        for ci, p in zip(components, basepoints):
            if p not in row:
                found.append((ci, j, p, {"check": "basepoint_returns", "partial": j,
                                         "first_hit": None}))
        for point, hit in row.items():
            target = full_return[point]
            if hit <= coarse and target in repeated:
                continue
            ci = block_of[point]
            start = spans[ci][0]
            if hit > coarse:
                found.append((ci, j, point, {
                    "check": "trace_stays_clear",
                    "point": point - start,
                    "partial": j,
                    "first_hit": hit,
                    "allowed_prefix": coarse,
                }))
                if point in is_basepoint:
                    found.append((ci, j, point, {
                        "check": "basepoint_returns",
                        "partial": j,
                        "first_hit": hit,
                    }))
            if target not in repeated:
                found.append((ci, j, point, {
                    "check": "pigeonhole_pair",
                    "point": point - start,
                    "partial": j,
                    "target": target - start,
                }))
    found.sort(key=itemgetter(0, 1, 2))
    return found, hits


def _trace_report(component, case, horizon, witnesses, passed):
    parameters = sweep_parameters(component, case)
    parameters["horizon"] = horizon
    return CheckReport(
        name="trace_lemmas",
        parameters=parameters,
        passed=passed,
        witnesses=witnesses,
    )


def verify_trace_lemmas(tg, component, case, horizon_factor=2):
    """The three trace facts behind the return bound, swept exhaustively.

    With N the order of g1...gk in the group, the basepoint p and traces
    read along terminal subwords of  w(n,j) = (t g1 ... t gk)^n t g1 ... t gj :

    1. a point whose w(N,j)-trace avoids p keeps avoiding p up to the horizon;
    2. the w(N,j)-trace of p itself contains p;
    3. a point whose trace hits p has two indices m1 < m2 < N(k+1) and some
       j' with  w(N(k+1),0).point = w(m1,j').p = w(m2,j').p.

    The horizon is horizon_factor * N * (k+1) block repetitions.
    ``component`` must be a 0-based index into ``tg.components`` and
    ``horizon_factor`` an integer >= 1, checked in that order.  ``case`` is
    the ``sweep_case`` of a generator sequence; the block's points are read
    at ``tg.block_spans[component]`` in the case's domain and reported by
    their number in the block.  The report is the one-block run of the
    pass that ``failing_trace_reports`` makes over every block at once.

    No trace is walked letter by letter.  Read from its end, w(horizon, j)
    is a partial tail of 2j letters and then ``horizon`` periods of 2k
    letters, each acting as the block.  So a point's first hit of p is its
    tail hit, or else the tail length plus the least 2k*m + r (m < horizon)
    for which the point lies m steps before y_r on its block cycle, y_r
    being the point the first r letters of a period send to p
    (``_first_hits``, which walks only the block cycles through some y_r
    and maps each row's tail by the case's one composed permutation).  The
    rows w(m,j').p, m < N(k+1), walk one block cycle each from the point p
    is walked to through the 2j' letters of t g1 ... t gj', so a value
    repeats in a row exactly when its distance d from the row's start
    along the cycle, of length L, has d + L < N(k+1).  Only a hitting
    point, and p, can break a fact, so only they are visited and the
    case's N(k+1)-fold return map is read only at them.  A sweep costs,
    per row, its hitting points, whatever the horizon.  Violations are
    reported by row, then point.

    Fact 3 is checked as stated, and as stated it is false in general.  On
    the one-involution action on {0, 1} extended by the fresh point 2 with
    p = 0 and gseq [g1], N(k+1) = 4 and the block is the 3-cycle (0 1 2):
    the trace of 0 hits p, yet w(4,0).0 = 1 appears only once in the row
    w(m,0).p = 0, 1, 2, 0.  So a ``pigeonhole_pair`` witness is a
    counterexample to the statement, not a fault of the tower.  The return
    bound that fact 3 was meant to support is checked directly by
    ``verify_fundamental_general``.
    """
    _check_component(tg, component)
    _check_horizon_factor(horizon_factor)
    horizon = horizon_factor * case.bound
    found, hits = _trace_pass(tg, [component], case, horizon)
    if found:
        return _trace_report(component, case, horizon,
                             [violation for *_, violation in found], False)
    start, stop = tg.block_spans[component]
    return _trace_report(component, case, horizon, [{
        "points": stop - start,
        "partials": len(case.images),
        "traces_hitting_basepoint": hits,
    }], True)


def failing_trace_reports(tg, case, horizon_factor=2):
    """The ``verify_trace_lemmas`` reports of ``case`` on the blocks that
    break a trace fact, by 0-based component in component order, from one
    pass over the union of all the blocks; a block that keeps every fact
    gets no report.  ``horizon_factor`` is checked as there."""
    _check_horizon_factor(horizon_factor)
    horizon = horizon_factor * case.bound
    found, _ = _trace_pass(tg, range(len(tg.components)), case, horizon)
    return {ci: _trace_report(ci, case, horizon, [violation for *_, violation in rows], False)
            for ci, rows in groupby(found, itemgetter(0))}


def bounds_settled(longest, limit):
    """Whether a longest cycle of ``longest`` points settles both the orbit
    and the torsion bound at ``limit``: whether ``longest <= limit``.

    A permutation whose cycles are all at most the limit has no cyclic
    orbit above it, and its order, the lcm of its cycle lengths, divides
    lcm(1..limit), which divides limit!; so an element whose longest cycle
    is at most the limit passes both bounds.  Conversely an element whose
    longest cycle exceeds the limit breaks the orbit bound by that cycle.
    No cycle is longer than its block, so the largest block's degree (its
    points, the fresh point included) settles every element at once; and
    each block acts as the full symmetric group on its points (its base is
    transitive and tau joins the fresh point to it), so a limit below the
    largest block leaves a cycle through all of it that breaks the bound.
    """
    return longest <= limit


def verify_orbit_bound(word, images, torsion_bound):
    """Cyclic-orbit sizes of a word's block images stay within torsion_bound*(len+1):
    each block's largest cyclic orbit (1 for the identity) against that limit.

    ``word`` is a reduced code word and ``images`` are its images on the
    blocks, as ``TelescopeGroup.evaluate`` gives them.
    """
    length = len(word)
    limit = torsion_bound * (length + 1)
    witnesses = []
    passed = True
    for ci, image in enumerate(images, start=1):
        largest = max(image.cycle_lengths(), default=1)
        entry = {"component": ci, "largest_orbit": largest, "limit": limit}
        if largest > limit:
            entry["violation"] = True
            passed = False
        witnesses.append(entry)
    return CheckReport(
        name="orbit_bound",
        parameters={"word": format_word(word), "length": length,
                    "torsion_growth": torsion_bound},
        passed=passed,
        witnesses=witnesses,
    )


def _prime_factors(value):
    factors = {}
    remaining = value
    prime = 2
    while prime * prime <= remaining:
        while remaining % prime == 0:
            factors[prime] = factors.get(prime, 0) + 1
            remaining //= prime
        prime += 1 if prime == 2 else 2
    if remaining > 1:
        factors[remaining] = factors.get(remaining, 0) + 1
    return factors


def divides_factorial(value, limit):
    """Whether ``value`` divides ``limit!``, via prime valuations.

    The factorial is never materialized: for each prime power p^e of
    ``value``, Legendre's count of p in limit! must reach e.
    """
    if value == 0:
        return False
    for prime, exponent in _prime_factors(value).items():
        available = 0
        power = prime
        while power <= limit:
            available += limit // power
            power *= prime
        if available < exponent:
            return False
    return True


def verify_torsion_bound(word, images, torsion_bound):
    """The word's truncation order, the lcm of the orders of its block
    ``images``, divides (torsion_bound * (len+1))!.

    lcm(1..m) divides m!, so when no cycle is longer than the limit the
    bound holds without factoring the order.
    """
    length = len(word)
    limit = torsion_bound * (length + 1)
    order = math.lcm(*(image.order() for image in images))
    passed = (max((max(image.cycle_lengths(), default=1) for image in images), default=1)
              <= limit or divides_factorial(order, limit))
    return CheckReport(
        name="torsion_bound",
        parameters={"word": format_word(word), "length": length,
                    "torsion_growth": torsion_bound},
        passed=passed,
        witnesses=[{"order": order, "factorial_of": limit}],
    )
