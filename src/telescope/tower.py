"""The telescope construction and its exhaustive verifiers.

Each component extends a finite transitive action by one fresh point q and
the transposition tau = (p, q); the telescope group is generated, across
all components at once, by the diagonal generator images and the tuple of
transpositions.  Every component in a telescope meets the construction's
precondition, so no later check decides it again.  ``build_telescope``
settles it for all levels of a recursion at once when the recursion is
self-replicating (``WreathRecursion.level_transitive``); any other
component checks its base action by a breadth-first orbit when it is made.
Verifiers sweep whole components point by point, so extending the
truncation only ever adds checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .perm import Permutation, orbit
from .reports import CheckReport
from .selfsim import LevelAction
from .words import LetterTable, compose_signed, reduce_signed

# Component indices in parameters and witnesses are 1-based throughout, so
# "component i" matches the i-th factor of the product.


@dataclass(frozen=True)
class ExtendedAction:
    """One component: a transitive base action plus the fresh point and its
    transposition.

    Construction rejects a base action that is not transitive, by the
    orbit of 0; the generator images fix the fresh point, so that orbit
    stays in the base, and with no generator images only a one-point base
    is transitive.  ``_transitive`` (internal) skips the orbit when
    ``build_telescope`` has shown every level of the recursion transitive.
    Tau is checked by one comparison with the transposition's image tuple.
    ``letters`` is the component's letter table (tau, each generator, and
    each inverse once it is first used), made once and shared by every
    word evaluated on the component.
    """

    basepoint: int
    gen_images: tuple
    tau: Permutation
    level: object = None
    letters: LetterTable = field(init=False, repr=False, compare=False)
    _transitive: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        degree = self.tau.degree
        extra = degree - 1
        if not 0 <= self.basepoint < extra:
            raise ValueError("basepoint must lie in the base domain")
        if self.tau.images != _transposition(degree, self.basepoint, extra):
            raise ValueError("tau must swap exactly the basepoint and the fresh point")
        for p in self.gen_images:
            if p.degree != degree or p(extra) != extra:
                raise ValueError("generator images must fix the fresh point")
        if not self._transitive:
            reached = len(orbit(self.gen_images, 0)) if self.gen_images else 1
            if reached != extra:
                what = "base action" if self.level is None else f"level {self.level} action"
                raise ValueError(f"{what} is not transitive: the orbit of 0 has "
                                 f"{reached} of {extra} points")
        object.__setattr__(self, "letters", LetterTable(self.gen_images, self.tau))

    @property
    def extended_degree(self):
        return self.tau.degree

    @property
    def base_degree(self):
        return self.tau.degree - 1

    @property
    def extra_point(self):
        return self.tau.degree - 1


def _transposition(degree, a, b):
    """The image tuple of the transposition (a b) on ``degree`` points."""
    images = list(range(degree))
    images[a], images[b] = b, a
    return tuple(images)


def extend_action(action, basepoint, *, _transitive=False):
    """Append one fresh point to an action and adjoin tau = (basepoint, fresh).

    ``action`` is a LevelAction or a plain sequence of permutations; it
    must be transitive (``ExtendedAction`` raises ValueError otherwise).
    ``_transitive`` is internal: ``build_telescope`` sets it for the levels
    of a recursion that ``level_transitive`` has shown transitive.
    """
    if isinstance(action, LevelAction):
        perms = action.perms
        level = action.level
    else:
        perms = tuple(action)
        level = None
    if not perms:
        raise ValueError("an action needs at least one generator image")
    degree = perms[0].degree
    if any(p.degree != degree for p in perms):
        raise ValueError("generator images must share one degree")
    if not 0 <= basepoint < degree:
        raise ValueError(f"basepoint {basepoint} outside 0..{degree - 1}")
    extended = tuple(p.extended(degree + 1) for p in perms)
    tau = Permutation._trusted(_transposition(degree + 1, basepoint, degree))
    return ExtendedAction(basepoint=basepoint, gen_images=extended, tau=tau, level=level,
                          _transitive=_transitive)


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
            if len(comp.gen_images) != k:
                raise ValueError("every component needs one image per generator")

    @property
    def generator_count(self):
        return len(self.gen_names)

    @property
    def union_degree(self):
        return sum(c.extended_degree for c in self.components)

    def gen_tuple(self, index):
        return tuple(c.gen_images[index] for c in self.components)

    def tau_tuple(self):
        return tuple(c.tau for c in self.components)

    def component_generators(self, ci):
        """Images of the full generating set (generators plus tau) on block ci."""
        comp = self.components[ci]
        return list(comp.gen_images) + [comp.tau]

    def evaluate_component(self, codes, ci):
        """Image of a signed code word on block ``ci`` (rightmost letter acting first)."""
        comp = self.components[ci]
        return Permutation._trusted(compose_signed(codes, comp.letters, comp.extended_degree))

    def evaluate(self, word):
        """Componentwise image of a Word (rightmost letter acting first)."""
        return tuple(self.evaluate_component(word.codes, ci)
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
    When ``rec.level_transitive`` shows every level transitive, no orbit is
    computed; its equality closures may spend at most the vertex count of the
    requested levels, so it never costs much more than the orbits.
    Otherwise a level whose action is not transitive makes
    ``extend_action`` raise, as its orbit finds.
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
    # a level past the step budget counts as its bit length: level_action
    # rejects it anyway, and its vertex count is never formed
    cap = rec.step_budget.bit_length()
    transitive = rec.level_transitive(sum(rec.arity ** min(level, cap) for level in levels))
    components = tuple(extend_action(rec.level_action(level), basepoint,
                                     _transitive=transitive)
                       for level, basepoint in zip(levels, basepoints))
    return TelescopeGroup(components, rec.names, rec)


# -- verifiers ----------------------------------------------------------------


def _check_component(tg, component):
    if (isinstance(component, bool) or not isinstance(component, int)
            or not 0 <= component < len(tg.components)):
        raise ValueError(f"component index {component!r} outside "
                         f"0..{len(tg.components) - 1}")


def _atoms(tg, ci, gseq):
    """Component images of tau and of each generator-sequence entry."""
    tau = tg.components[ci].tau
    images = [tg.evaluate_component(word.codes, ci) for word in gseq]
    return tau, images


def _sequence_order(tg, ci, gseq, order_mode):
    """The order N of g1...gk, globally in the group or locally in one block."""
    product = reduce_signed([code for word in gseq for code in word.codes])
    if order_mode == "global":
        if tg.rec is None:
            raise ValueError("global orders need the telescope's recursion")
        if any(0 in word.codes for word in gseq):
            raise ValueError("generator-sequence entries must not contain the transposition")
        return tg.rec.element_order(product)
    if order_mode == "local":
        return tg.evaluate_component(product, ci).order()
    raise ValueError(f"unknown order mode {order_mode!r}")


def _block_permutation(tau, images):
    """Image of one block  t g1 t g2 ... t gk  (rightmost factor first)."""
    result = Permutation.identity(tau.degree)
    for image in images:
        result = result * tau * image
    return result


def _cycle_labels(perm):
    """Per point: its cycle's name (the cycle's smallest point), its position
    in that cycle and the cycle's length.  A fixed point is a cycle of
    length 1 of its own."""
    degree = perm.degree
    name = list(range(degree))
    position = [0] * degree
    length = [1] * degree
    for cycle in perm.cycles():
        for index, point in enumerate(cycle):
            name[point] = cycle[0]
            position[point] = index
            length[point] = len(cycle)
    return name, position, length


def _first_hits(tau, images, p, horizon, labels):
    """``hits[j][x]``: the least i >= 1 such that the last i letters of
    w(horizon, j) send x to p, or None when no terminal subword does.

    ``labels`` are the ``_cycle_labels`` of the block t g1 ... t gk.  Read
    from the word's end, w(horizon, j) is the partial tail g_j, t, ...,
    g_1, t (walked directly), then ``horizon`` periods g_k, t, ..., g_1, t,
    each of which acts as the block.  Let y_r be the point that the first r
    atoms of a period send to p.  A point x that leaves the tail clear of p
    meets p at 2k*m + r exactly when block^m(x) = y_r, and that m is x's
    distance to y_r along its block cycle; the least such 2k*m + r with
    m < horizon is the hit.  So a sweep costs O(degree * k) label lookups
    plus the tails, whatever the horizon.
    """
    name, position, length = labels
    k = len(images)
    degree = tau.degree
    undo = []  # inverses of a period's atoms, in acting order g_k, t, ..., g_1, t
    for image in reversed(images):
        undo += [image.inverse().images, tau.images]
    pulls = []  # (r, y_r), r = 1..2k
    for r in range(1, 2 * k + 1):
        point = p
        for inverse in reversed(undo[:r]):
            point = inverse[point]
        pulls.append((r, point))

    periodic = []  # the first hit of each point entering the periodic part
    for x in range(degree):
        best = None
        for r, y in pulls:
            if name[y] == name[x]:
                m = (position[y] - position[x]) % length[x]
                hit = 2 * k * m + r
                if m < horizon and (best is None or hit < best):
                    best = hit
        periodic.append(best)

    hits = []
    for j in range(k):
        tail = [atom for jj in reversed(range(j)) for atom in (images[jj].images, tau.images)]
        row = []
        for x in range(degree):
            current = x
            for index, atom in enumerate(tail, start=1):
                current = atom[current]
                if current == p:
                    row.append(index)
                    break
            else:
                hit = periodic[current]
                row.append(None if hit is None else len(tail) + hit)
        hits.append(row)
    return hits


def verify_fundamental_general(tg, component, gseq, order_mode="global"):
    """Every point must return to itself within N*(k+1) block applications.

    For each point the least m >= 1 with  (t g1 ... t gk)^m . point = point
    is its cycle length under the block permutation (1 for a fixed point),
    read off the block's cycles in O(degree); the report lists the
    (point, m) pairs and flags any that exceed the bound.  ``component``
    is a 0-based index into ``tg.components``.
    """
    _check_component(tg, component)
    gseq = list(gseq)
    if not gseq:
        raise ValueError("the generator sequence must be nonempty")
    k = len(gseq)
    n = _sequence_order(tg, component, gseq, order_mode)
    bound = n * (k + 1)
    tau, images = _atoms(tg, component, gseq)
    _, _, lengths = _cycle_labels(_block_permutation(tau, images))
    witnesses = []
    passed = True
    for point, m in enumerate(lengths):
        entry = {"point": point, "m": m}
        if m > bound:
            entry["violation"] = True
            passed = False
        witnesses.append(entry)
    return CheckReport(
        name="fundamental_general",
        parameters={
            "component": component + 1,
            "gseq": [str(w) for w in gseq],
            "order_mode": order_mode,
            "order": n,
            "bound": bound,
        },
        passed=passed,
        witnesses=witnesses,
    )


def verify_trace_lemmas(tg, component, gseq, horizon_factor=2, order_mode="global"):
    """The three trace facts behind the return bound, swept exhaustively.

    With N the order of g1...gk, the basepoint p and traces read along
    terminal subwords of  w(n,j) = (t g1 ... t gk)^n t g1 ... t gj :

    1. a point whose w(N,j)-trace avoids p keeps avoiding p up to the horizon;
    2. the w(N,j)-trace of p itself contains p;
    3. a point whose trace hits p has two indices m1 < m2 < N(k+1) and some
       j' with  w(N(k+1),0).point = w(m1,j').p = w(m2,j').p.

    The horizon is horizon_factor * N * (k+1) block repetitions;
    ``horizon_factor`` must be an integer >= 1 and ``component`` a 0-based
    index into ``tg.components``.

    No trace is walked letter by letter.  Read from its end, w(horizon, j)
    is a partial tail of 2j letters and then ``horizon`` periods of 2k
    letters, each acting as the block.  So a point's first hit of p is its
    tail hit, or else the tail length plus the least 2k*m + r (m < horizon)
    for which the point lies m steps before y_r on its block cycle, y_r
    being the point the first r letters of a period send to p
    (``_first_hits``).  The rows w(m,j').p, m < N(k+1), walk one block
    cycle each, so a value repeats in a row exactly when its distance d
    from the row's start along the cycle, of length L, has d + L < N(k+1).
    A sweep costs O(degree * k) cycle lookups plus the O(degree * k^2)
    tails, whatever the horizon.

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
    if (isinstance(horizon_factor, bool) or not isinstance(horizon_factor, int)
            or horizon_factor < 1):
        raise ValueError(f"horizon_factor must be an integer >= 1, got {horizon_factor!r}")
    gseq = list(gseq)
    if not gseq:
        raise ValueError("the generator sequence must be nonempty")
    k = len(gseq)
    n = _sequence_order(tg, component, gseq, order_mode)
    bound = n * (k + 1)
    horizon = horizon_factor * bound
    tau, images = _atoms(tg, component, gseq)
    comp = tg.components[component]
    p = comp.basepoint
    degree = comp.extended_degree
    block = _block_permutation(tau, images)
    labels = _cycle_labels(block)
    lengths = labels[2]

    # Values that occur twice in some row w(m, j').p, m < bound, 0 <= j' < k
    # (j' = 0 means no partial block).  Row j' starts at the image s of p
    # under t g1 ... t gj' and walks s's block cycle, of length L, so the
    # value d steps from s occurs at m = d, d + L, ... and twice exactly
    # when d + L < bound.
    repeated = set()
    partial = Permutation.identity(degree)
    for j in range(k):
        current = partial(p)
        for _ in range(min(lengths[current], bound - lengths[current])):
            repeated.add(current)
            current = block.images[current]
        partial = partial * tau * images[j]
    full_return = (block ** bound).images

    violations = []
    hits = 0
    for j, row in enumerate(_first_hits(tau, images, p, horizon, labels)):
        coarse = 2 * (n * k + j)
        for point, hit in enumerate(row):
            if hit is not None:
                hits += 1
            if hit is not None and hit > coarse:
                violations.append({
                    "check": "trace_stays_clear",
                    "point": point,
                    "partial": j,
                    "first_hit": hit,
                    "allowed_prefix": coarse,
                })
            if point == p and (hit is None or hit > coarse):
                violations.append({
                    "check": "basepoint_returns",
                    "partial": j,
                    "first_hit": hit,
                })
            if hit is not None and full_return[point] not in repeated:
                violations.append({
                    "check": "pigeonhole_pair",
                    "point": point,
                    "partial": j,
                    "target": full_return[point],
                })
    passed = not violations
    witnesses = violations if violations else [{
        "points": degree,
        "partials": k,
        "traces_hitting_basepoint": hits,
    }]
    return CheckReport(
        name="trace_lemmas",
        parameters={
            "component": component + 1,
            "gseq": [str(w) for w in gseq],
            "order_mode": order_mode,
            "order": n,
            "bound": bound,
            "horizon": horizon,
        },
        passed=passed,
        witnesses=witnesses,
    )


def verify_orbit_bound(word, images, torsion_bound):
    """Cyclic-orbit sizes of a word's block images stay within torsion_bound*(len+1).

    ``images`` are the word's images on the blocks, as ``TelescopeGroup.evaluate``
    gives them.
    """
    length = len(word)
    limit = torsion_bound * (length + 1)
    witnesses = []
    passed = True
    for ci, image in enumerate(images, start=1):
        largest = max((len(c) for c in image.cycles()), default=1)
        entry = {"component": ci, "largest_orbit": largest, "limit": limit}
        if largest > limit:
            entry["violation"] = True
            passed = False
        witnesses.append(entry)
    return CheckReport(
        name="orbit_bound",
        parameters={"word": str(word), "length": length,
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
    ``images``, divides (torsion_bound * (len+1))!."""
    length = len(word)
    limit = torsion_bound * (length + 1)
    order = math.lcm(*(image.order() for image in images))
    passed = divides_factorial(order, limit)
    return CheckReport(
        name="torsion_bound",
        parameters={"word": str(word), "length": length,
                    "torsion_growth": torsion_bound},
        passed=passed,
        witnesses=[{"order": order, "factorial_of": limit}],
    )
