"""Self-similar groups given by wreath recursions on the d-ary rooted tree.

Group elements are signed code words over the generators (see ``words``):
the tuple ``(1, -2)`` stands for ``g1 * g2^{-1}``; code 0, the
transposition, never occurs here.  Words are only ever freely reduced;
group identities become visible through the recursion itself.

Every decision goes through one wreath decomposition,
``split(w) = (top, sections)``, psi(w) = (w|0, ..., w|d-1) pi (Nekrashevych,
*Self-Similar Groups*, 2005, 1.3), memoized per recursion next to the
triviality, order and level caches.  Caches live as long as their
recursion; nothing is shared between recursions.  The orders of the level
quotients come from one induced polycyclic sequence when the root group is
cyclic of prime order (``quotient_orders``), and every level is shown
transitive at once when the recursion is self-replicating
(``level_transitive``).

Equality and element orders are exact.  Both rely on the recursion being
contracting (sections of long words eventually shrink), which the caller
asserts when building a recursion; a step budget makes a bad recursion
fail loudly instead of spinning.  Orders are cached by a conjugacy key
(conjugates and inverses have equal orders), and balls skip letters that
can only give duplicates; both are explained where they are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, count, islice
from operator import itemgetter, ne

from .perm import Permutation, _compose, _inverse
from .words import LetterTable, compose_signed, invert_signed, parse_signed, reduce_signed


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
        self._root = LetterTable(root_perms)
        # letter code -> its section at each child; g^-1 at x is (g at g^-1(x))^-1
        self._letter_sections = {}
        for g, row in enumerate(sections, start=1):
            self._letter_sections[g] = row
            self._letter_sections[-g] = tuple(invert_signed(row[up]) for up in self._root[-g])
        self._splits = {}
        self._trivial = {}
        self._orders = {}
        self._levels = {}
        self._quotient_orders = ()
        self._level_transitive = None  # the outcome of a decided test

    @property
    def generator_count(self):
        return len(self.names)

    @cached_property
    def root_cycle(self):
        """The p-cycle whose powers are all the root permutations, or None.

        None unless the arity p is prime and some root permutation moves a
        point; the first such permutation must then have order p, which on
        p points makes it a p-cycle, and every other one must be a power of
        it.  ``quotient_orders`` needs it.
        """
        p = self.arity
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            return None
        moving = [perm for perm in self.root_perms if not perm.is_identity()]
        if not moving or moving[0].order() != p:
            return None
        cycle = moving[0]
        powers = {cycle ** e for e in range(1, p)}
        return cycle if all(perm in powers for perm in moving) else None

    def parse(self, text):
        """Parse a whitespace-separated word of generator names (``name^-1`` inverts)."""
        return parse_signed(text, {name: i + 1 for i, name in enumerate(self.names)}.get)

    # -- the recursion itself ------------------------------------------------

    def split(self, word):
        """The wreath decomposition psi(w) = (w|0, ..., w|d-1) pi of a signed word.

        Returns ``(top, sections)``: ``top`` is the image tuple of pi on the
        root's children and ``sections[x]`` the reduced section w|x.  One pass
        from the rightmost letter moves every child's point and collects the
        letter's section there (w|x lists the leftmost letter's section first).
        Memoized per recursion.
        """
        cached = self._splits.get(word)
        if cached is not None:
            return cached
        points = tuple(range(self.arity))
        steps = []  # per letter, rightmost first: its section at each child's current point
        for letter in reversed(word):
            at = itemgetter(*points)
            steps.append(at(self._letter_sections[letter]))
            points = at(self._root[letter])
        steps.reverse()
        columns = zip(*steps) if steps else [()] * self.arity
        result = points, tuple(reduce_signed(chain.from_iterable(col)) for col in columns)
        self._splits[word] = result
        return result

    def level_action(self, level):
        """The permutations of the d^level vertices induced by each generator.

        Built from the level below by the recursion: a generator sends vertex
        ``x*d^(level-1) + v`` to ``root(x)*d^(level-1) + s(v)``, where ``s`` is
        the level-(level-1) image of its section at child ``x``.  A level of
        more than ``step_budget`` vertices raises BudgetExceeded.
        """
        if level < 1:
            raise ValueError("levels start at 1")
        # arity >= 2, so a level past the budget's bit length is over budget
        # and its vertex count is never formed
        if level > self.step_budget.bit_length() or self.arity ** level > self.step_budget:
            raise BudgetExceeded(
                f"level {level} has more than {self.step_budget} vertices")
        cached = self._levels.get(level)
        if cached is not None:
            return cached
        if level == 1:
            perms = self.root_perms
        else:
            below = self.level_action(level - 1)
            n = below.degree
            below_images = LetterTable(below.perms)

            def lift(gen):
                images = []
                for x, y in enumerate(self._root[gen]):
                    offset = y * n
                    section = self.sections[gen - 1][x]
                    if section:
                        images.extend(map(offset.__add__,
                                          compose_signed(section, below_images, n)))
                    else:
                        images.extend(range(offset, offset + n))
                return Permutation._trusted(tuple(images))

            perms = tuple(lift(gen) for gen in range(1, self.generator_count + 1))
        action = LevelAction(level=level, degree=self.arity ** level, perms=perms)
        self._levels[level] = action
        return action

    def quotient_orders(self, level):
        """The orders |G/St(k)| of the level quotients for k = 1..level.

        Theorem (Kaloujnine, 1948): when the arity p is prime and every root
        permutation is a power of one p-cycle c (``root_cycle``), every
        section acts on the children of its vertex by a power of c, so the
        level-n quotient G_n lies in the iterated wreath product
        C_p wr ... wr C_p, a Sylow p-subgroup of Sym(p^n).  Its orders are
        read off an induced polycyclic sequence (Holt, Eick and O'Brien,
        *Handbook of Computational Group Theory*, 2005, 8.3).

        Elements are leaf image tuples at ``level``, and vertices are ordered
        top level first, left to right within a level.  An element's leader
        is the first vertex at which it acts nontrivially: it fixes that
        vertex and moves its children by some c^e.  Sifting divides out rows
        by leader (noncommutative Gauss); a residue that is not the identity
        becomes a new row, normalized to e = 1, and its p-th power and its
        commutators with every other row are sifted in turn.  Once all of
        them sift to the identity, the normal words in the rows form a
        group, so |G_n| = p^(rows).  The rows whose leader lies at depth k
        or deeper make up the stabilizer of level k, so G_k has order
        p^(rows whose leader lies above depth k).

        One pass at ``level`` gives every shallower order, and the deepest
        pass so far is memoized.  Raises ValueError when ``root_cycle`` is
        None, since G_n then need not be a p-group.
        """
        if level < 1:
            raise ValueError("levels start at 1")
        if self.root_cycle is None:
            raise ValueError("polycyclic quotient orders need a prime arity p and "
                             "root permutations that are powers of one p-cycle")
        if level <= len(self._quotient_orders):
            return self._quotient_orders[:level]
        p = self.arity
        n = p ** level
        leaves = [p ** (level - 1 - d) for d in range(level)]  # under a depth d+1 vertex
        # ancestors[d][x]: the depth-(d+1) vertex above leaf x
        ancestors = [tuple(x // below for x in range(n)) for below in leaves]
        unmoved = [tuple(range(p ** (d + 1))) for d in range(level)]
        place = [0] * p  # place[x] = e with c^e(0) = x
        point = 0
        for e in range(p):
            place[point] = e
            point = self.root_cycle.images[point]
        # leader (depth, vertex) -> (h, h^2, ..., h^(p-1)) and h^-1, h moving by c
        rows = {}

        def sift(depth, g):
            """Divide rows out of ``g``, an element of St(depth): it fixes every
            vertex at ``depth``.

            Returns None for the identity, else the residue, its leader and
            the exponent e of its move there.
            """
            start = 0  # the first depth-(depth+1) vertex not known to be fixed
            while depth < level:
                # g on the depth-(depth+1) vertices, read off their first leaves
                action = _compose(ancestors[depth], g[::leaves[depth]])
                fixed = unmoved[depth]
                if action[start:] == fixed[start:]:
                    depth, start = depth + 1, 0
                    continue
                # the first moved vertex is the first child of the leader
                child = next(compress(count(start), map(ne, islice(action, start, None),
                                                        islice(fixed, start, None))))
                e = place[action[child] % p]
                leader = (depth, child // p)
                row = rows.get(leader)
                if row is None:
                    return g, leader, e
                g = _compose(row[0][p - 1 - e], g)
                start = child + p  # the residue also fixes the leader's children
            return None

        pending = [(0, perm.images) for perm in self.level_action(level).perms]
        while pending:
            found = sift(*pending.pop())
            if found is None:
                continue
            g, (depth, vertex), e = found
            h = g
            for _ in range(pow(e, -1, p) - 1):
                h = _compose(h, g)
            powers = [h]
            for _ in range(p - 2):
                powers.append(_compose(h, powers[-1]))
            h_inverse = _inverse(h)
            # h lies in St(depth), which is normal in the wreath product and
            # whose moves at that depth commute; so h^p lies in St(depth + 1),
            # and its commutator with a row in St(d) lies in St(max(depth, d)),
            # or in St(depth + 1) when d = depth
            pending.append((depth + 1, _compose(h, powers[-1])))
            for (d, _), (other, other_inverse) in rows.items():
                pending.append((max(depth, d) + (d == depth), _compose(
                    h_inverse, _compose(other_inverse, _compose(h, other[0])))))
            rows[depth, vertex] = powers, h_inverse
        per_depth = [0] * level
        for depth, _ in rows:
            per_depth[depth] += 1
        self._quotient_orders = tuple(p ** rows_above for rows_above in accumulate(per_depth))
        return self._quotient_orders

    def level_transitive(self, budget):
        """Whether a theorem shows the action transitive on every level.

        Theorem (Bartholdi, Grigorchuk and Šunić, "Branch groups", 2003;
        Nekrashevych, *Self-Similar Groups*, 2005, 2.8): if G is transitive
        on the first level and self-replicating, that is g -> g|0 maps the
        stabilizer St(0) of vertex 0 onto G, then G is transitive on every
        level.  St(0) then acts on the subtree below 0 as G does on the
        whole tree, and the root orbit carries vertex 0 to every child.

        The test takes a transversal of the root orbit of 0 as words, forms
        the Schreier generators of St(0) from it and takes their sections
        at 0.  By Schreier's lemma those sections generate the image of the
        homomorphism g -> g|0 on St(0), a subgroup of G; the test passes
        when every generator ``equal``s one of them, so the image is G.
        That takes O(k*d) splits and usually no closure at all, since the
        sections tend to be generator letters themselves.

        False means the theorem does not apply, not that some level is
        intransitive: the recursion is not contracting, the root group is
        not transitive, a generator is no section, or the equality closures
        need more than ``budget`` letters in all.  A decided test is
        memoized; after an exhausted budget the next call runs it again.
        """
        if self._level_transitive is None:
            try:
                self._level_transitive = self._self_replicating(budget)
            except BudgetExceeded:
                return False
        return self._level_transitive

    def _self_replicating(self, budget):
        """The test of ``level_transitive``; BudgetExceeded when its closures
        need more than ``budget`` letters."""
        if not self.contracting:
            return False
        gens = range(1, self.generator_count + 1)
        reach = {0: ()}  # root orbit point x -> a word taking 0 to x
        frontier = [0]
        for x in frontier:  # the list grows while it is walked: breadth first
            for g in gens:
                y = self._root[g][x]
                if y not in reach:
                    reach[y] = (g,) + reach[x]
                    frontier.append(y)
        if len(reach) < self.arity:
            return False
        # the sections at 0 of the Schreier generators u_(g x)^-1 g u_x, in order
        sections = dict.fromkeys(
            self.split(reduce_signed(invert_signed(reach[self._root[g][x]]) + (g,) + u))[1][0]
            for x, u in reach.items() for g in gens)
        for g in gens:
            if (g,) in sections:
                continue
            for section in sections:
                if self.split(section)[0] != self._root[g]:
                    continue
                trivial, used = self._closure_trivial(
                    reduce_signed((g,) + invert_signed(section)), budget, per_letter=True)
                budget -= used
                if trivial:
                    break
            else:
                return False
        return True

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
        return self._closure_trivial(reduce_signed(word), self.step_budget)[0]

    def _closure_trivial(self, word, budget, per_letter=False):
        """``is_trivial`` on a reduced word within ``budget``: the verdict and
        what it spent.  A closure state costs 1, or with ``per_letter`` its
        length, since words may grow along the closure of a recursion that
        is not contracting in truth.  Raises BudgetExceeded past the budget."""
        cached = self._trivial.get(word)
        if cached is not None:
            return cached, 0
        identity = tuple(range(self.arity))
        seen = {word}
        stack = [word]
        steps = 0
        while stack:
            current = stack.pop()
            steps += len(current) if per_letter else 1
            if steps > budget:
                raise BudgetExceeded(f"triviality closure exceeded {budget} states")
            top, sections = self.split(current)
            if top != identity:
                self._trivial[current] = False
                self._trivial[word] = False
                return False, steps
            for section in sections:
                if section and section not in seen and self._trivial.get(section) is not True:
                    seen.add(section)
                    stack.append(section)
        for state in seen:
            self._trivial[state] = True
        return True, steps

    def equal(self, u, v):
        """Exact equality of two signed words as group elements."""
        return self.is_trivial(reduce_signed(tuple(u) + invert_signed(v)))

    def element_order(self, word):
        """Exact order of the element, assuming it is torsion.

        The root permutation is split into cycles; a cycle of length c
        contributes c times the order of the product of the sections along
        it, and the order is the lcm of the contributions.

        Conjugates and inverses have equal orders, so every word is replaced
        by a conjugacy key first: cyclically reduced, then the least rotation
        of it or of its inverse.  The order cache and the pending frames are
        keyed on it, so ab and ba, or a word and its inverse, are worked out
        once.

        Section chains may revisit a pending key (Grigorchuk's b, c, d do).
        A revisit reached only through length-1 cycles adds no constraint
        beyond the pending computation itself, so it contributes 1; values
        that relied on such a shortcut are provisional and are not cached
        until the pending frame resolves.  A revisit through a longer cycle
        would force the order to be a proper multiple of itself, so the
        element is not torsion and we fail loudly.  Both arguments use only
        the revisited element's order, so they hold unchanged when the
        revisit is a conjugate or an inverse of the pending word.
        """
        if not self.contracting:
            raise NotContracting("element orders need a contracting recursion")
        counter = [0]
        depth_of = {}
        multipliers = []  # multipliers[d]: cycle length frame d is descending with

        def rec(w):
            w = _conjugacy_key(w)
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
            top, sections = self.split(w)
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
                around = [s for p in reversed(cycle) for s in sections[p]]
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

        Two kinds of candidates are skipped without a bucket lookup, because
        each is equal to a word already kept and would be rejected anyway:
        a letter equal in the group to an earlier letter (Grigorchuk's a^-1
        = a), since the word with the earlier letter was tried first; and a
        letter whose product with the word's last letter is trivial, since
        the word then equals its own prefix.  Both facts are decided from the
        bucketing images first, and by ``equal``/``is_trivial`` only when the
        images agree, which is exactly when the full search would compare
        them too.  The representatives and their order are unchanged.

        Every letter tried after a kept word counts as one step; a search past
        ``step_budget`` steps raises BudgetExceeded.
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
        images_of = LetterTable(action.perms)
        identity = tuple(range(action.degree))
        if radius:
            letters = [letter for i, letter in enumerate(letters)
                       if not any(images_of[letter] == images_of[earlier]
                                  and self.equal((letter,), (earlier,))
                                  for earlier in letters[:i])]
        undoes = {}  # (last letter, letter) -> whether the pair cancels in the group
        reps = [()]
        images = {(): identity}
        buckets = {identity: [()]}
        frontier = [()]
        steps = 0
        for _ in range(radius):
            new_frontier = []
            for word in frontier:
                base = images[word]
                for letter in letters:
                    steps += 1
                    if steps > self.step_budget:
                        raise BudgetExceeded(
                            f"ball exceeded {self.step_budget} candidate words")
                    if word:
                        pair = (word[-1], letter)
                        cancels = undoes.get(pair)
                        if cancels is None:
                            cancels = undoes[pair] = (
                                pair[0] == -letter
                                or (_compose(images_of[pair[0]], images_of[letter]) == identity
                                    and self.is_trivial(pair)))
                        if cancels:
                            continue
                    grown = word + (letter,)
                    image = _compose(base, images_of[letter])
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


def _conjugacy_key(word):
    """A key shared by a reduced word, its cyclic conjugates and its inverse.

    The word is cyclically reduced, then the least rotation of it or of its
    inverse is taken; only rotations that start with the least letter can be
    that one.
    """
    start, end = 0, len(word)
    while end - start >= 2 and word[start] == -word[end - 1]:
        start += 1
        end -= 1
    core = tuple(word[start:end])
    if not core:
        return core
    low = min(min(core), -max(core))
    return min(w[i:] + w[:i] for w in (core, invert_signed(core))
               for i, s in enumerate(w) if s == low)


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
