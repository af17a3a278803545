"""Product-level certification: subdirectness onto full symmetric groups,
tail injectivity probes, the sign-kernel alternating cutoff, perfectness
scans, and deterministic certificate emission.

Every component's base action is transitive (``tower.ExtendedAction``
checks it on construction), so every block group is the full symmetric
group and the sign kernel projects onto the full alternating group on
every block.  Subdirectness and the alternating cutoff read those
theorems off without a stabilizer chain or an orbit.  The perfectness scan
reads its quotient orders off one induced polycyclic sequence of the
recursion when the root group is cyclic of prime order, as in both presets;
only on other telescopes does it build chains, one per group whose order
or membership it asks; a perfectness check grows its commutator subgroup's
one chain in place.

``emit_certificate`` lays a certificate out as one document dict, each
check report by its ``as_dict``, and ``certificate_bytes`` writes that
document with a one-pass indent-2 writer whose bytes equal
``json.dumps(doc, indent=2, ensure_ascii=True)`` plus a newline.  CPython
3.10-3.13 run the pure-Python encoder whenever ``indent`` is set; the
writer appends to one chunk list and quotes strings with the C
``encode_basestring_ascii``, and takes well under half its time.
"""

from __future__ import annotations

import hashlib
import math
from json.encoder import encode_basestring_ascii as _quote

from .perm import PermGroup, Permutation
from .reports import CheckReport
from .words import compose_signed, format_word

FORMAT_VERSION = 4


def check_subdirect(tg):
    """Each block projection must be the full symmetric group of its degree.

    A block's group is its generator images, which fix the fresh point q,
    plus tau = (p q) with p the basepoint.  The base action is transitive
    (a component's invariant), so some base element g sends p to any base
    point x, and g tau g^-1 = (x q) lies in the group; these transpositions
    form a star on all points and generate Sym(m), of order m!.
    """
    witnesses = [{
        "component": ci,
        "extended_degree": comp.extended_degree,
        "order": math.factorial(comp.extended_degree),
        "full_symmetric": True,
    } for ci, comp in enumerate(tg.components, start=1)]
    return CheckReport(
        name="subdirect",
        parameters={"components": len(tg.components)},
        passed=True,
        witnesses=witnesses,
    )


def check_tail_injectivity(tg, radius):
    """Distinct ball elements must have distinct image tuples on the
    components.  A collision means the probed tail is too shallow for this
    ball, not that anything is broken upstream.  The tail always starts at
    component 1, which the report records as its start.

    Each ball word is composed once on the disjoint union of the blocks
    (``TelescopeGroup.union_letters``); two words agree there exactly when
    they agree on every component, so the union image is the key.
    """
    if tg.rec is None:
        raise ValueError("tail injectivity needs the telescope's recursion")
    ball = tg.rec.ball(radius)
    letters = tg.union_letters
    seen = {}
    collisions = []
    for word in ball:
        key = compose_signed(word, letters)
        if key in seen:
            collisions.append({
                "word": format_word(word, tg.gen_names),
                "collides_with": format_word(seen[key], tg.gen_names),
                "tail_start": 1,
            })
        else:
            seen[key] = word
    passed = not collisions
    witnesses = collisions if collisions else [{"ball_size": len(ball),
                                                "separated": len(seen)}]
    return CheckReport(
        name="tail_injectivity",
        parameters={"ball_radius": radius, "start_component": 1,
                    "ball_size": len(ball)},
        passed=passed,
        witnesses=witnesses,
    )


def sign_vectors(tg):
    """Componentwise signs of every generator tuple and the size they generate.

    ``vectors`` is a tuple aligned with the report's ``symbols``: one vector
    per generator, then tau's (named "t").  The image group sits inside
    {+1, -1}^t, so its size is a power of two, computed by rank over GF(2).
    """
    symbols = list(tg.gen_names) + ["t"]
    tuples = [*zip(*(c.gen_images for c in tg.components)), [c.tau for c in tg.components]]
    vectors = tuple(tuple(p.sign() for p in perms) for perms in tuples)
    witnesses = [{"symbol": symbol, "signs": list(vector)}
                 for symbol, vector in zip(symbols, vectors)]
    basis = []
    for vector in vectors:
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


def alt_cutoff(tg, sign_image_size):
    """Least component index m so that beyond it the kernel K of the
    componentwise sign map projects onto the full alternating groups.

    Gamma/K embeds in {+1, -1}^t, so it is abelian and K contains the
    commutator subgroup [Gamma, Gamma].  Every element of K is even on every
    block, and every block group is Sym(n) (``check_subdirect``), so K
    projects into Alt(n) and onto [Sym(n), Sym(n)] = Alt(n) on every block:
    the cutoff is 1.  The ``kernel_generators`` parameter counts the kernel
    elements this check built: none since format 3.  ``sign_image_size`` is
    ``sign_vectors``' image size, which the report records.
    """
    witnesses = [{"cutoff": 1}]
    for ci, comp in enumerate(tg.components, start=1):
        order = math.factorial(comp.extended_degree) // 2
        witnesses.append({"component": ci, "extended_degree": comp.extended_degree,
                          "kernel_projection_order": order, "alternating_order": order,
                          "full_alternating": True})
    return CheckReport(
        name="alt_cutoff",
        parameters={
            "components": len(tg.components),
            "kernel_generators": 0,
            "sign_image_size": sign_image_size,
        },
        passed=True,
        witnesses=witnesses,
    ), 1


def check_perfect(group):
    """Whether the group equals its commutator subgroup.

    The commutator subgroup is the normal closure of the generator-pair
    commutators.  One ``PermGroup`` grows to it from the identity: every
    commutator, and every conjugate by a generator of an element that
    extended it, is passed to ``extend``, which grows its one chain in
    place when the element is not yet a member.  Equality is decided by
    exact order.
    """
    gens = group.generators
    subgroup = PermGroup([Permutation.identity(group.degree)])
    pending = [a * b * a.inverse() * b.inverse()
               for i, a in enumerate(gens) for b in gens[i + 1:]]
    for h in pending:  # grows while it is walked
        if subgroup.extend(h):
            pending.extend(g * h * g.inverse() for g in gens)
    return subgroup.order() == group.order()


def _polycyclic_orders(tg):
    """Each component's quotient order from the recursion's induced polycyclic
    sequence, or None where that does not apply.

    It applies when the telescope carries its recursion, the recursion has
    a ``root_cycle`` (a prime arity p and root permutations that are powers
    of one p-cycle), and every component is the action of a tree level of
    it.  One pass at the deepest level gives every order.
    """
    rec = tg.rec
    if rec is None or rec.root_cycle is None:
        return None
    levels = []
    for comp in tg.components:
        if comp.level is None or comp.base != rec.level_action(comp.level):
            return None
        levels.append(comp.level)
    orders = rec.quotient_orders(max(levels))
    return [orders[level - 1] for level in levels]


def perfectness_scan(tg):
    """Informational: the order and perfectness of each finite base quotient.

    Every level quotient of the telescope's recursion maps onto the level-1
    quotient, the group of its root permutations, and quotients of perfect
    groups are perfect.  When the recursion's root group is cyclic of prime
    order p, it is not perfect, so no base quotient is, and every quotient
    order is read off one induced polycyclic sequence
    (``WreathRecursion.quotient_orders``), with no stabilizer chain.  Any
    other telescope (another root group, no recursion, or a component that
    is not a tree level of it) gets its orders from a stabilizer chain per
    component, made from its base action.
    ``check_perfect`` runs only when the root group is perfect or there is
    no recursion.
    """
    orders = _polycyclic_orders(tg)
    if orders is not None:
        witnesses = [{"component": ci, "quotient_order": order, "perfect": False}
                     for ci, order in enumerate(orders, start=1)]
    else:
        root_perfect = tg.rec is None or check_perfect(PermGroup(tg.rec.root_perms))
        witnesses = []
        for ci, comp in enumerate(tg.components, start=1):
            group = PermGroup(comp.base)
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
    )


# -- certificates ---------------------------------------------------------------


def certificate_bytes(doc):
    """``doc`` as JSON: 2-space indent, ASCII with ``\\uXXXX`` escapes and a
    trailing newline, the same bytes as
    ``json.dumps(doc, indent=2, ensure_ascii=True) + "\\n"``.

    An int of more than 4,300 digits raises the ValueError that
    ``json.dumps`` raises; a float or any other type raises TypeError.
    """
    chunks = []
    _write_json(doc, chunks.append, "\n")
    chunks.append("\n")
    return "".join(chunks).encode("ascii")


def _write_json(value, append, newline):
    """Append ``value`` as indent-2 JSON to a chunk list through ``append``.

    ``newline`` is a line break followed by the indent of the line that
    ``value`` starts on.  A nonempty dict, list or tuple puts each item on
    its own line two spaces deeper and closes on a line of its own, as
    ``json.dumps(indent=2)`` does; ``int.__repr__`` refuses an int of more
    than 4,300 digits just as it does there.
    """
    if isinstance(value, str):
        append(_quote(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"certificate keys must be str, not {type(key).__name__}")
            # an int or str value, the commonest kind, joins its key's chunk
            if type(item) is int:
                append(separator + _quote(key) + ": " + int.__repr__(item))
            elif type(item) is str:
                append(separator + _quote(key) + ": " + _quote(item))
            else:
                append(separator + _quote(key) + ": ")
                _write_json(item, append, inner)
            separator = "," + inner
        append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            append(separator)
            _write_json(item, append, inner)
            separator = "," + inner
        append(newline + "]")
    else:
        raise TypeError(f"certificate values must be int, str, bool, None, "
                        f"dict, list or tuple, not {type(value).__name__}")


def component_table(tg):
    return [{
        "component": index,
        "level": comp.level,
        "base_degree": comp.base_degree,
        "extended_degree": comp.extended_degree,
        "basepoint": comp.basepoint,
    } for index, comp in enumerate(tg.components, start=1)]


def emit_certificate(config_bytes, components, checks, alt_cutoff, torsion_bound_table):
    """The certificate document, each check report laid out by its
    ``as_dict``; a passing check without witnesses is rejected.

    Re-emitting from the same inputs reproduces the same bytes: keys are in
    fixed order, all numbers are integers, and the digest is the SHA-256 of
    the raw configuration bytes.
    """
    for report in checks:
        if report.passed and not report.witnesses:
            raise ValueError(f"check {report.name!r} passed without witnesses")
    return {
        "format_version": FORMAT_VERSION,
        "config_digest": hashlib.sha256(config_bytes).hexdigest(),
        "components": list(components),
        "checks": [report.as_dict() for report in checks],
        "alt_cutoff": alt_cutoff,
        "torsion_bound_table": list(torsion_bound_table),
    }
