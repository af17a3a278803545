"""The telescope construction and its exhaustive verifiers.

Each component extends a finite transitive action by one fresh point q and
the transposition tau = (p, q); the telescope group is generated, across
all components at once, by the diagonal generator images and the tuple of
transpositions.  A component checks that its base action is transitive
when it is made, so every component in a telescope meets the
construction's precondition and no later check decides it again.
Verifiers sweep whole components point by point, so extending the
truncation only ever adds checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .perm import Permutation, orbit, transitivity
from .reports import CheckReport
from .selfsim import LevelAction
from .words import evaluate_signed, reduce_signed

# Component indices in parameters and witnesses are 1-based throughout, so
# "component i" matches the i-th factor of the product.


@dataclass(frozen=True)
class ExtendedAction:
    """One component: a transitive base action plus the fresh point and its
    transposition.

    Construction rejects a base action that is not transitive.  The
    generator images fix the fresh point, so the orbit of 0 stays in the
    base; with no generator images only a one-point base is transitive.
    """

    basepoint: int
    gen_images: tuple
    tau: Permutation
    level: object = None

    def __post_init__(self):
        degree = self.tau.degree
        extra = degree - 1
        if not 0 <= self.basepoint < extra:
            raise ValueError("basepoint must lie in the base domain")
        moved = [x for x in range(degree) if self.tau(x) != x]
        if moved != sorted((self.basepoint, extra)):
            raise ValueError("tau must swap exactly the basepoint and the fresh point")
        for p in self.gen_images:
            if p.degree != degree or p(extra) != extra:
                raise ValueError("generator images must fix the fresh point")
        reached = len(orbit(self.gen_images, 0)) if self.gen_images else 1
        if reached != extra:
            what = "base action" if self.level is None else f"level {self.level} action"
            raise ValueError(f"{what} is not transitive: the orbit of 0 has "
                             f"{reached} of {extra} points")

    @property
    def extended_degree(self):
        return self.tau.degree

    @property
    def base_degree(self):
        return self.tau.degree - 1

    @property
    def extra_point(self):
        return self.tau.degree - 1


def extend_action(action, basepoint):
    """Append one fresh point to an action and adjoin tau = (basepoint, fresh).

    ``action`` is a LevelAction or a plain sequence of permutations; it
    must be transitive (``ExtendedAction`` raises ValueError otherwise).
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
    tau = Permutation.transposition(degree + 1, basepoint, degree)
    return ExtendedAction(basepoint=basepoint, gen_images=extended, tau=tau, level=level)


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
        return evaluate_signed(codes, self.components[ci].gen_images, self.components[ci].tau)

    def evaluate(self, word):
        """Componentwise image of a Word (rightmost letter acting first)."""
        return tuple(self.evaluate_component(word.codes, ci)
                     for ci in range(len(self.components)))

    def order_in_truncation(self, word):
        """lcm of the component orders of the word's image."""
        import math
        return math.lcm(*(p.order() for p in self.evaluate(word)))


def transitivity_report(rec, levels):
    """Check that every requested level action is transitive."""
    witnesses = [{"component": index, "level": level,
                  **transitivity(rec.level_action(level).perms)}
                 for index, level in enumerate(levels, start=1)]
    return CheckReport(
        name="transitivity",
        parameters={"levels": list(levels)},
        passed=all(w["transitive"] for w in witnesses),
        witnesses=witnesses,
    )


def build_telescope(rec, levels, basepoints=None):
    """Components from strictly increasing tree levels of one recursion.

    Quotient sizes must strictly grow, hence the strict monotonicity; a
    level whose action is not transitive makes ``extend_action`` raise.
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
    components = tuple(extend_action(rec.level_action(level), basepoint)
                       for level, basepoint in zip(levels, basepoints))
    return TelescopeGroup(components, rec.names, rec)


# -- verifiers ----------------------------------------------------------------


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


def verify_fundamental_general(tg, component, gseq, order_mode="global"):
    """Every point must return to itself within N*(k+1) block applications.

    For each point the least m >= 1 with  (t g1 ... t gk)^m . point = point
    is its cycle length under the block permutation; the report lists the
    (point, m) pairs and flags any that exceed the bound.
    """
    gseq = list(gseq)
    if not gseq:
        raise ValueError("the generator sequence must be nonempty")
    k = len(gseq)
    n = _sequence_order(tg, component, gseq, order_mode)
    bound = n * (k + 1)
    tau, images = _atoms(tg, component, gseq)
    block = _block_permutation(tau, images)
    witnesses = []
    passed = True
    for point in range(block.degree):
        m = 1
        current = block(point)
        while current != point:
            current = block(current)
            m += 1
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

    The horizon is horizon_factor * N * (k+1) block repetitions.

    Fact 3 is checked as stated, and as stated it is false in general.  On
    the one-involution action on {0, 1} extended by the fresh point 2 with
    p = 0 and gseq [g1], N(k+1) = 4 and the block is the 3-cycle (0 1 2):
    the trace of 0 hits p, yet w(4,0).0 = 1 appears only once in the row
    w(m,0).p = 0, 1, 2, 0.  So a ``pigeonhole_pair`` witness is a
    counterexample to the statement, not a fault of the tower.  The return
    bound that fact 3 was meant to support is checked directly by
    ``verify_fundamental_general``.
    """
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

    # w(m, j').p for all m < bound and 0 <= j' < k (j' = 0 means no partial
    # block); w(m+1, j') prepends one block, so each row walks under `block`.
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

    # Trace scan: iterate atoms from the word's end; entry i is the image of
    # the point under the last i atoms.  Only the first index hitting p matters.
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

    violations = []
    hits = 0
    for j in range(k):
        coarse = 2 * (n * k + j)
        for point in range(degree):
            hit = first_hit(point, j)
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
            if hit is not None:
                target = full_return(point)
                witness = None
                for jp in range(k):
                    hits_at = [m for m, value in enumerate(value_rows[jp])
                               if value == target]
                    if len(hits_at) >= 2:
                        witness = {"j": jp, "m1": hits_at[0], "m2": hits_at[1]}
                        break
                if witness is None:
                    violations.append({
                        "check": "pigeonhole_pair",
                        "point": point,
                        "partial": j,
                        "target": target,
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


def verify_orbit_bound(tg, word, torsion_bound):
    """Cyclic-orbit sizes of a word's image stay within torsion_bound*(len+1)."""
    length = len(word)
    limit = torsion_bound * (length + 1)
    witnesses = []
    passed = True
    for ci in range(len(tg.components)):
        image = tg.evaluate_component(word.codes, ci)
        largest = max((len(c) for c in image.cycles()), default=1)
        entry = {"component": ci + 1, "largest_orbit": largest, "limit": limit}
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


def verify_torsion_bound(tg, word, torsion_bound):
    """The word's truncation order divides (torsion_bound * (len+1))!."""
    length = len(word)
    limit = torsion_bound * (length + 1)
    order = tg.order_in_truncation(word)
    passed = divides_factorial(order, limit)
    return CheckReport(
        name="torsion_bound",
        parameters={"word": str(word), "length": length,
                    "torsion_growth": torsion_bound},
        passed=passed,
        witnesses=[{"order": order, "factorial_of": limit}],
    )
