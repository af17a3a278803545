"""Self-similar groups given by wreath recursions on the d-ary rooted tree.

Group elements are signed code words over the generators (see ``words``):
the tuple ``(1, -2)`` stands for ``g1 * g2^{-1}``; code 0, the
transposition, never occurs here.  Words are only ever freely reduced;
group identities become visible through the recursion itself.

Equality and element orders are exact.  Both rely on the recursion being
contracting (sections of long words eventually shrink), which the caller
asserts when building a recursion; a step budget makes a bad recursion
fail loudly instead of spinning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .perm import Permutation
from .words import (compose_signed, evaluate_signed, invert_signed, letter_images,
                    parse_signed, reduce_signed)


class NotContracting(ValueError):
    """Raised when an operation needs a contracting recursion but got none."""


class BudgetExceeded(RuntimeError):
    """Raised when the recursion step budget runs out.

    This signals a non-contracting or non-torsion input rather than a
    recoverable condition.
    """


@dataclass(frozen=True)
class LevelAction:
    """The action on the d^level vertices of one tree level.

    Vertex ``(x1, ..., xl)`` is the index ``sum(x_j * d^(l-j))``, so the
    first tree letter is the most significant digit.
    """

    level: int
    degree: int
    perms: tuple


class WreathRecursion:
    """A self-similar action: per generator a root permutation and d sections.

    Sections are signed generator words (empty word = identity).  The
    ``contracting`` flag is asserted by whoever defines the recursion; the
    shipped presets are contracting torsion groups.
    """

    def __init__(self, arity, names, root_perms, sections, contracting,
                 step_budget=10**6):
        if arity < 2:
            raise ValueError("tree arity must be at least 2")
        names = tuple(names)
        if not names or len(set(names)) != len(names):
            raise ValueError("generator names must be nonempty and distinct")
        root_perms = tuple(root_perms)
        sections = tuple(tuple(reduce_signed(w) for w in per_gen) for per_gen in sections)
        if len(root_perms) != len(names) or len(sections) != len(names):
            raise ValueError("need one root permutation and one section row per generator")
        k = len(names)
        for perm in root_perms:
            if perm.degree != arity:
                raise ValueError("root permutations must have degree equal to the arity")
        for row in sections:
            if len(row) != arity:
                raise ValueError("each section row needs one word per child")
            for word in row:
                for s in word:
                    if not isinstance(s, int) or s == 0 or abs(s) > k:
                        raise ValueError(f"section letter {s!r} names no generator")
        self.arity = arity
        self.names = names
        self.root_perms = root_perms
        self.sections = sections
        self.contracting = bool(contracting)
        self.step_budget = step_budget
        # letter code -> its image tuple on the root's children
        _, self._root = letter_images([s for g in range(1, k + 1) for s in (g, -g)],
                                      root_perms)
        self._trivial = {}
        self._orders = {}
        self._levels = {}

    @property
    def generator_count(self):
        return len(self.names)

    def parse(self, text):
        """Parse a whitespace-separated word of generator names (``name^-1`` inverts)."""
        return parse_signed(text, {name: i + 1 for i, name in enumerate(self.names)}.get)

    # -- the recursion itself ------------------------------------------------

    def letter_section(self, letter, child):
        if letter > 0:
            return self.sections[letter - 1][child]
        up = self._root[letter][child]
        return invert_signed(self.sections[-letter - 1][up])

    def top_images(self, word):
        """Image tuple of the word's action on the d children of the root."""
        return compose_signed(word, self._root, self.arity)

    def section(self, word, child):
        """The section of the word at one child (rightmost letters act first)."""
        parts = []
        current = child
        for letter in reversed(word):
            parts.append(self.letter_section(letter, current))
            current = self._root[letter][current]
        out = []
        for part in reversed(parts):
            out.extend(part)
        return reduce_signed(out)

    def level_action(self, level):
        """The permutations of the d^level vertices induced by each generator.

        Built from the level below by the recursion: a generator sends vertex
        ``x*d^(level-1) + v`` to ``root(x)*d^(level-1) + s(v)``, where ``s`` is
        the level-(level-1) image of its section at child ``x``.
        """
        if level < 1:
            raise ValueError("levels start at 1")
        cached = self._levels.get(level)
        if cached is not None:
            return cached
        if level == 1:
            perms = self.root_perms
        else:
            below = self.level_action(level - 1)
            n = below.degree
            perms = tuple(
                Permutation([y * n + z
                             for x, y in enumerate(self._root[gen + 1])
                             for z in evaluate_signed(self.sections[gen][x],
                                                      below.perms).images])
                for gen in range(self.generator_count))
        action = LevelAction(level=level, degree=self.arity ** level, perms=perms)
        self._levels[level] = action
        return action

    # -- exact decisions -----------------------------------------------------

    def is_trivial(self, word):
        """Whether the word represents the identity.

        A word is trivial iff every iterated section of it acts trivially on
        the root's children, so we take the closure of the word under taking
        sections and inspect the root actions.  The closure may revisit a
        word through a cycle of sections; such cycles are trivial exactly
        when nothing in the closure moves the first level, which is what the
        sweep decides.
        """
        if not self.contracting:
            raise NotContracting("equality needs a contracting recursion")
        word = reduce_signed(word)
        cached = self._trivial.get(word)
        if cached is not None:
            return cached
        identity = tuple(range(self.arity))
        seen = {word}
        stack = [word]
        steps = 0
        while stack:
            current = stack.pop()
            steps += 1
            if steps > self.step_budget:
                raise BudgetExceeded(
                    f"triviality closure exceeded {self.step_budget} states")
            if self.top_images(current) != identity:
                self._trivial[current] = False
                self._trivial[word] = False
                return False
            for child in range(self.arity):
                section = self.section(current, child)
                if section and section not in seen and self._trivial.get(section) is not True:
                    seen.add(section)
                    stack.append(section)
        for state in seen:
            self._trivial[state] = True
        return True

    def equal(self, u, v):
        """Exact equality of two signed words as group elements."""
        return self.is_trivial(reduce_signed(tuple(u) + invert_signed(v)))

    def element_order(self, word):
        """Exact order of the element, assuming it is torsion.

        The root permutation is split into cycles; a cycle of length c
        contributes c times the order of the product of the sections along
        it, and the order is the lcm of the contributions.

        Section chains may revisit a pending word (Grigorchuk's b, c, d do).
        A revisit reached only through length-1 cycles adds no constraint
        beyond the pending computation itself, so it contributes 1; values
        that relied on such a shortcut are provisional and are not cached
        until the pending frame resolves.  A revisit through a longer cycle
        would force the order to be a proper multiple of itself, so the
        element is not torsion and we fail loudly.
        """
        if not self.contracting:
            raise NotContracting("element orders need a contracting recursion")
        counter = [0]
        depth_of = {}
        multipliers = []  # multipliers[d]: cycle length frame d is descending with

        def rec(w):
            cached = self._orders.get(w)
            if cached is not None:
                return cached, math.inf
            if self.is_trivial(w):
                self._orders[w] = 1
                return 1, math.inf
            if w in depth_of:
                d = depth_of[w]
                if all(m == 1 for m in multipliers[d:]):
                    return 1, d
                raise BudgetExceeded(
                    "order recursion feeds back on itself; the element looks non-torsion")
            counter[0] += 1
            if counter[0] > self.step_budget:
                raise BudgetExceeded(
                    f"order recursion exceeded {self.step_budget} states")
            depth = len(multipliers)
            depth_of[w] = depth
            multipliers.append(1)
            top = self.top_images(w)
            seen = set()
            result = 1
            lowest_link = math.inf
            for start in range(self.arity):
                if start in seen:
                    continue
                cycle = [start]
                seen.add(start)
                point = top[start]
                while point != start:
                    cycle.append(point)
                    seen.add(point)
                    point = top[point]
                parts = [self.section(w, p) for p in cycle]
                around = []
                for part in reversed(parts):
                    around.extend(part)
                multipliers[depth] = len(cycle)
                sub, link = rec(reduce_signed(around))
                lowest_link = min(lowest_link, link)
                result = math.lcm(result, len(cycle) * sub)
            multipliers.pop()
            del depth_of[w]
            if lowest_link >= depth:
                self._orders[w] = result
                return result, math.inf
            return result, lowest_link

        value, _ = rec(reduce_signed(word))
        return value

    # -- balls and torsion growth ---------------------------------------------

    def ball(self, radius, gens=None):
        """One reduced representative per group element of word length <= radius.

        Breadth-first over the Cayley graph with exact deduplication: words
        are bucketed by their action on the first level with at least 64
        vertices and bucket collisions are settled by ``equal``, so the result
        does not depend on that level.
        """
        if radius < 0:
            raise ValueError("ball radius must be non-negative")
        if gens is None:
            gens = range(self.generator_count)
        letters = []
        for g in gens:
            letters.append(g + 1)
            letters.append(-(g + 1))
        hash_level = 1
        while self.arity ** hash_level < 64:
            hash_level += 1
        action = self.level_action(hash_level)
        _, images_of = letter_images(letters, action.perms)
        identity = tuple(range(action.degree))
        reps = [()]
        images = {(): identity}
        buckets = {identity: [()]}
        frontier = [()]
        for _ in range(radius):
            new_frontier = []
            for word in frontier:
                base = images[word]
                for letter in letters:
                    if word and word[-1] == -letter:
                        continue
                    grown = word + (letter,)
                    image = tuple(base[x] for x in images_of[letter])
                    bucket = buckets.get(image)
                    if bucket is not None:
                        if any(self.equal(grown, rep) for rep in bucket):
                            continue
                        bucket.append(grown)
                    else:
                        buckets[image] = [grown]
                    reps.append(grown)
                    images[grown] = image
                    new_frontier.append(grown)
            frontier = new_frontier
        return reps

    def torsion_growth(self, radius, gens=None):
        """Maximum element order over the ball of the given radius."""
        if radius < 1:
            raise ValueError("torsion growth starts at radius 1")
        return max(self.element_order(word) for word in self.ball(radius, gens))

    def __repr__(self):
        return (f"WreathRecursion(arity={self.arity}, "
                f"generators={'/'.join(self.names)})")


def grigorchuk():
    """The first Grigorchuk group: a swaps, b = (a, c), c = (a, d), d = (1, b)."""
    swap = Permutation((1, 0))
    hold = Permutation.identity(2)
    return WreathRecursion(
        arity=2,
        names=("a", "b", "c", "d"),
        root_perms=(swap, hold, hold, hold),
        sections=(
            ((), ()),
            ((1,), (3,)),
            ((1,), (4,)),
            ((), (2,)),
        ),
        contracting=True,
    )


def gupta_sidki_3():
    """The Gupta-Sidki 3-group: a is the root 3-cycle, t = (a, a^-1, t)."""
    rotate = Permutation((1, 2, 0))
    hold = Permutation.identity(3)
    return WreathRecursion(
        arity=3,
        names=("a", "t"),
        root_perms=(rotate, hold),
        sections=(
            ((), (), ()),
            ((1,), (-1,), (2,)),
        ),
        contracting=True,
    )
