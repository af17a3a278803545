"""Product-level certification: subdirectness onto full symmetric groups,
tail injectivity probes, the sign-kernel alternating cutoff, perfectness
scans, and deterministic certificate emission.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .perm import PermGroup, Permutation, normal_alternating_order, transitivity
from .reports import CheckReport

FORMAT_VERSION = 2


def _base_generators(component):
    """Generator images restricted to the base domain (the fresh point drops off)."""
    n = component.base_degree
    return [Permutation(p.images[:n]) for p in component.gen_images]


def _is_symmetric(comp):
    """Whether a block's group, its generator images plus tau = (p q) with
    p the basepoint and q the fresh point, is the full symmetric group.

    Every generator image fixes q.  If the base action is transitive, some
    base element g sends p to any base point x, and g tau g^-1 = (x q) lies
    in the group; these transpositions form a star on all points and
    generate the full symmetric group.  If it is not transitive, the orbit
    of q is q plus the base orbit of p, so the group is not even transitive.
    """
    return transitivity(_base_generators(comp))["transitive"]


def check_subdirect(tg):
    """Each block projection must be the full symmetric group of its degree.

    By ``_is_symmetric`` that holds exactly when the base action is
    transitive (the precondition of the fresh-point extension), and the
    block then reports order m!.  A non-transitive base is reported as a
    precondition failure naming the component.
    """
    witnesses = []
    passed = True
    for ci, comp in enumerate(tg.components, start=1):
        if not _is_symmetric(comp):
            witnesses.append({"component": ci,
                              "error": "base action is not transitive"})
            passed = False
            continue
        witnesses.append({
            "component": ci,
            "extended_degree": comp.extended_degree,
            "order": math.factorial(comp.extended_degree),
            "full_symmetric": True,
        })
    return CheckReport(
        name="subdirect",
        parameters={"components": len(tg.components)},
        passed=passed,
        witnesses=witnesses,
    )


def check_tail_injectivity(tg, radius, start=1, gens=None):
    """Distinct ball elements must have distinct image tuples on components
    ``start..t`` (1-based).  A collision means the probed tail is too shallow
    for this ball, not that anything is broken upstream.
    """
    if tg.rec is None:
        raise ValueError("tail injectivity needs the telescope's recursion")
    if not 1 <= start <= len(tg.components):
        raise ValueError("start component out of range")
    ball = tg.rec.ball(radius, gens)
    tail = range(start - 1, len(tg.components))
    seen = {}
    collisions = []
    for word in ball:
        key = tuple(tg.evaluate_component(word, ci).images for ci in tail)
        if key in seen:
            collisions.append({
                "word": _signed_str(tg, word),
                "collides_with": _signed_str(tg, seen[key]),
                "tail_start": start,
            })
        else:
            seen[key] = word
    passed = not collisions
    witnesses = collisions if collisions else [{"ball_size": len(ball),
                                                "separated": len(seen)}]
    return CheckReport(
        name="tail_injectivity",
        parameters={"ball_radius": radius, "start_component": start,
                    "ball_size": len(ball)},
        passed=passed,
        witnesses=witnesses,
    )


def _signed_str(tg, word):
    names = tg.gen_names
    if not word:
        return "1"
    return " ".join(names[abs(s) - 1] + ("" if s > 0 else "^-1") for s in word)


def sign_vectors(tg):
    """Componentwise signs of every generator tuple and the size they generate.

    The image group sits inside {+1, -1}^t, so its size is a power of two,
    computed by rank over GF(2).
    """
    symbols = list(tg.gen_names) + ["t"]
    tuples = [tg.gen_tuple(i) for i in range(tg.generator_count)] + [tg.tau_tuple()]
    vectors = {}
    witnesses = []
    for symbol, perms in zip(symbols, tuples):
        vector = tuple(p.sign() for p in perms)
        vectors[symbol] = vector
        witnesses.append({"symbol": symbol, "signs": list(vector)})
    basis = []
    for vector in vectors.values():
        bits = 0
        for i, s in enumerate(vector):
            if s < 0:
                bits |= 1 << i
        for b in basis:
            bits = min(bits, bits ^ b)
        if bits:
            basis.append(bits)
    image_size = 2 ** len(basis)
    witnesses.append({"image_size": image_size})
    report = CheckReport(
        name="sign_vectors",
        parameters={"symbols": symbols},
        passed=True,
        witnesses=witnesses,
    )
    return vectors, image_size, report


def _tuple_mul(a, b):
    return tuple(x * y for x, y in zip(a, b))


def _tuple_sign(perms):
    return tuple(p.sign() for p in perms)


def alt_cutoff(tg):
    """Least component index m so that beyond it the even-signed kernel
    projects onto the full alternating groups.

    The kernel K of the sign map is generated exactly by the Schreier
    generators over a breadth-first coset transversal of the finite sign
    image; trivial and repeated ones are dropped.  K is normal, so on a
    block of degree n that is the full Sym(n) its projection is a subgroup
    of Alt(n) normal in Sym(n) (every candidate is checked to be even on
    every block), and ``normal_alternating_order`` decides it from the
    projected generators.  (K also contains the commutator subgroup, so
    such a projection is in fact always Alt(n); deciding it from the
    generators checks the kernel that was computed.)  A block that is not
    the full Sym(n), which ``check_subdirect`` rejects and so only a
    hand-built telescope reaches here, falls back to the stabilizer chain.
    If even the last component fails the recognition, the cutoff lies
    outside this truncation and the report says so.
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

    witnesses = []
    full_flags = []
    for ci, comp in enumerate(tg.components, start=1):
        degree = comp.extended_degree
        projections = [e[ci - 1] for e in kernel_gens]
        if _is_symmetric(comp):
            order = normal_alternating_order(degree, projections)
        else:
            order = PermGroup(projections or [Permutation.identity(degree)]).order()
        full = order == math.factorial(degree) // 2
        full_flags.append(full)
        witnesses.append({
            "component": ci,
            "extended_degree": degree,
            "kernel_projection_order": order,
            "alternating_order": math.factorial(degree) // 2,
            "full_alternating": full,
        })

    cutoff = None
    for index in range(len(full_flags), 0, -1):
        if full_flags[index - 1]:
            cutoff = index
        else:
            break
    passed = cutoff is not None
    if passed:
        witnesses.insert(0, {"cutoff": cutoff})
    else:
        witnesses.insert(0, {"error": "cutoff exceeds truncation"})
    return CheckReport(
        name="alt_cutoff",
        parameters={
            "components": len(tg.components),
            "kernel_generators": len(kernel_gens),
            "sign_image_size": len(transversal),
        },
        passed=passed,
        witnesses=witnesses,
    ), cutoff, kernel_gens


def check_perfect(group):
    """Whether the group equals its commutator subgroup.

    The commutator subgroup is generated by the generator-pair commutators
    together with their normal closure; equality is decided by exact order.
    """
    gens = group.generators
    current = []
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            c = a * b * a.inverse() * b.inverse()
            if not c.is_identity():
                current.append(c)
    if not current:
        return group.order() == 1
    subgroup = PermGroup(current)
    worklist = list(current)
    while worklist:
        h = worklist.pop(0)
        for g in gens:
            conjugate = g * h * g.inverse()
            if not subgroup.contains(conjugate):
                current.append(conjugate)
                worklist.append(conjugate)
                subgroup = PermGroup(current)
    return subgroup.order() == group.order()


def perfectness_scan(tg):
    """Informational: perfectness of each finite base quotient.

    Every level quotient of the telescope's recursion maps onto the level-1
    quotient, the group of its root permutations, and quotients of perfect
    groups are perfect.  So when that small group is not perfect, no base
    quotient is, and ``check_perfect`` runs only when it is (or when the
    telescope carries no recursion).  Quotient orders come from the chain.
    """
    root_perfect = tg.rec is None or check_perfect(PermGroup(tg.rec.root_perms))
    witnesses = []
    for ci, comp in enumerate(tg.components, start=1):
        group = PermGroup(_base_generators(comp))
        witnesses.append({
            "component": ci,
            "quotient_order": group.order(),
            "perfect": root_perfect and check_perfect(group),
        })
    return CheckReport(
        name="perfectness_scan",
        parameters={"informational": True},
        passed=True,
        witnesses=witnesses,
        informational=True,
    )


# -- certificates ---------------------------------------------------------------


@dataclass
class Certificate:
    """Deterministic summary of one verification run."""

    config_digest: str
    components: list
    checks: list
    alt_cutoff: object = None
    torsion_bound_table: list = field(default_factory=list)
    format_version: int = FORMAT_VERSION

    def as_dict(self):
        return {
            "format_version": self.format_version,
            "config_digest": self.config_digest,
            "components": self.components,
            "checks": self.checks,
            "alt_cutoff": self.alt_cutoff,
            "torsion_bound_table": self.torsion_bound_table,
        }

    def to_bytes(self):
        return (json.dumps(self.as_dict(), indent=2, ensure_ascii=True) + "\n").encode("ascii")


def component_table(tg, levels=None):
    rows = []
    for index, comp in enumerate(tg.components):
        level = comp.level if levels is None else levels[index]
        rows.append({
            "component": index + 1,
            "level": level,
            "base_degree": comp.base_degree,
            "extended_degree": comp.extended_degree,
            "basepoint": comp.basepoint,
        })
    return rows


def emit_certificate(config_bytes, components, checks, alt_cutoff_value=None,
                     torsion_bound_table=()):
    """Assemble a certificate; a passing check without witnesses is rejected.

    Re-emitting from the same inputs reproduces the same bytes: keys are in
    fixed order, all numbers are integers, and the digest is the SHA-256 of
    the raw configuration bytes.
    """
    checks = list(checks)
    for check in checks:
        if check["status"] == "pass" and not check["witnesses"]:
            raise ValueError(f"check {check['name']!r} passed without witnesses")
    digest = hashlib.sha256(config_bytes).hexdigest()
    return Certificate(
        config_digest=digest,
        components=list(components),
        checks=checks,
        alt_cutoff=alt_cutoff_value,
        torsion_bound_table=list(torsion_bound_table),
    )
