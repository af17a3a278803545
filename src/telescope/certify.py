"""Product-level certification: subdirectness onto full symmetric groups,
tail injectivity probes, the sign-kernel alternating cutoff, perfectness
scans, and deterministic certificate emission.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .perm import PermGroup, Permutation, transitivity
from .reports import CheckReport

FORMAT_VERSION = 1


def _base_generators(component):
    """Generator images restricted to the base domain (the fresh point drops off)."""
    n = component.base_degree
    return [Permutation(p.images[:n]) for p in component.gen_images]


def check_subdirect(tg):
    """Each block projection must be the full symmetric group of its degree.

    The base action must be transitive (precondition of the fresh-point
    extension); a non-transitive base is reported as a precondition failure
    naming the component.
    """
    witnesses = []
    passed = True
    for ci, comp in enumerate(tg.components, start=1):
        base = _base_generators(comp)
        if not transitivity(base)["transitive"]:
            witnesses.append({"component": ci,
                              "error": "base action is not transitive"})
            passed = False
            continue
        group = PermGroup(tg.component_generators(ci - 1))
        order = group.order()
        full = group.is_full_symmetric()
        witnesses.append({
            "component": ci,
            "extended_degree": comp.extended_degree,
            "order": order,
            "full_symmetric": full,
        })
        passed = passed and full
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


def _union_permutation(perms):
    images = []
    offset = 0
    for p in perms:
        images.extend(offset + x for x in p.images)
        offset += p.degree
    return Permutation(images)


def alt_cutoff(tg):
    """Least component index m so that beyond it the even-signed kernel
    projects onto the full alternating groups.

    The kernel K of the sign map is generated exactly by the Schreier
    generators over a breadth-first coset transversal of the finite sign
    image; generators already inside the kernel group built so far are
    dropped.  If even the last component fails the recognition, the cutoff
    lies outside this truncation and the report says so.
    """
    symbols = list(tg.gen_names) + ["t"]
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
    kernel_group = None
    for vector in sorted(transversal):
        rep = transversal[vector]
        for gen in gens:
            product = _tuple_mul(rep, gen)
            counter = transversal[_tuple_sign(product)]
            candidate = _tuple_mul(product, tuple(p.inverse() for p in counter))
            if any(s != 1 for s in _tuple_sign(candidate)):
                raise AssertionError("Schreier generator escaped the sign kernel")
            union = _union_permutation(candidate)
            if union.is_identity():
                continue
            if kernel_group is not None and kernel_group.contains(union):
                continue
            kernel_gens.append(candidate)
            kernel_group = PermGroup([_union_permutation(e) for e in kernel_gens])

    witnesses = []
    full_flags = []
    for ci, comp in enumerate(tg.components, start=1):
        projections = [e[ci - 1] for e in kernel_gens]
        if not projections:
            projections = [Permutation.identity(comp.extended_degree)]
        group = PermGroup(projections)
        order = group.order()
        full = group.is_full_alternating()
        full_flags.append(full)
        witnesses.append({
            "component": ci,
            "extended_degree": comp.extended_degree,
            "kernel_projection_order": order,
            "alternating_order": math.factorial(comp.extended_degree) // 2,
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
    """Informational: perfectness of each finite base quotient."""
    witnesses = []
    for ci, comp in enumerate(tg.components, start=1):
        group = PermGroup(_base_generators(comp))
        witnesses.append({
            "component": ci,
            "quotient_order": group.order(),
            "perfect": check_perfect(group),
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
