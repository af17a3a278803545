"""Exact permutation-group engine.

Permutations act on ``{0, ..., degree-1}`` on the left: ``(p * q)(x) =
p(q(x))``, so in any product the rightmost factor is applied first.
Group-level queries (order, membership) go through ``PermGroup``'s
deterministic Schreier-Sims stabilizer chain.  All orders are exact Python
integers.

A ``Permutation`` reads its cycles off its image tuple in one walk,
``cycle_string()``, which formats the decimal names as it goes, caches no
string and fills the cycle type (``cycle_lengths()``) that the order and
the sign are read from.
"""

from __future__ import annotations

import math
from operator import itemgetter


class Permutation:
    """An immutable bijection of {0, ..., degree-1}, stored as its image tuple.

    The public constructors validate their input; ``_trusted`` skips that for
    results that are permutations by construction (products, inverses).
    One walk reads the cycles off ``images``: ``cycle_string()`` writes each
    point's decimal name as it goes and keeps nothing but the cycle
    lengths, since a string is printed once.  Its first run fills the
    cycle type that ``cycle_lengths()``, ``order()`` and ``sign()`` read,
    so none of them walks again.
    """

    __slots__ = ("images", "_lengths")

    def __init__(self, images):
        """Every image must be an int (not a bool) in ``0..n-1``, each once;
        Python would otherwise read -1 as the last point and True as 1.
        """
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for x in images:
            if type(x) is not int or not 0 <= x < n or seen[x]:
                reason = ("repeats" if type(x) is int and 0 <= x < n
                          else f"is not a point of 0..{n - 1}")
                raise ValueError(f"not a permutation: image {x!r} {reason}")
            seen[x] = True
        self.images = images
        self._lengths = None

    @classmethod
    def _trusted(cls, images):
        """A permutation from an image tuple known to be a bijection; unchecked."""
        perm = object.__new__(cls)
        perm.images = images
        perm._lengths = None
        return perm

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def transposition(cls, degree, a, b):
        if (type(a) is not int or type(b) is not int
                or not (0 <= a < degree and 0 <= b < degree) or a == b):
            raise ValueError(f"bad transposition ({a!r} {b!r}) on {degree} points")
        images = list(range(degree))
        images[a], images[b] = b, a
        return cls._trusted(tuple(images))

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Build a permutation from disjoint cycles, e.g. ``[(0, 1, 2), (3, 4)]``.

        Every point must be an int (not a bool) in ``0..degree-1``; Python
        would otherwise read -1 as the last point and True as 1.
        """
        images = list(range(degree))
        touched = set()
        for cycle in cycles:
            for point in cycle:
                if (isinstance(point, bool) or not isinstance(point, int)
                        or not 0 <= point < degree):
                    raise ValueError(f"cycle point {point!r} is not a point of "
                                     f"0..{degree - 1}")
                if point in touched:
                    raise ValueError(f"cycles are not disjoint at point {point}")
                touched.add(point)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        """Composition ``self`` after ``other``: ``(p * q)(x) = p(q(x))``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.images) != len(other.images):
            raise ValueError("cannot compose permutations of different degrees")
        return Permutation._trusted(_compose(self.images, other.images))

    def inverse(self):
        return Permutation._trusted(_inverse(self.images))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        square = self
        while n:
            if n & 1:
                result = result * square
            square = square * square
            n >>= 1
        return result

    def is_identity(self):
        return all(i == x for i, x in enumerate(self.images))

    def cycle_lengths(self):
        """The lengths of the nontrivial cycles, in their ``cycle_string`` order."""
        if self._lengths is None:
            self.cycle_string()
        return self._lengths

    def order(self):
        """Least m >= 1 with p^m = identity: the lcm of the cycle lengths."""
        return math.lcm(*self.cycle_lengths())

    def sign(self):
        """+1 for even permutations, -1 for odd; multiplicative."""
        lengths = self.cycle_lengths()
        return -1 if (sum(lengths) - len(lengths)) % 2 else 1

    def cycle_string(self):
        """The nontrivial cycles, each from its smallest point and ordered by
        it, e.g. ``(0 1)(2 3 4)``; ``()`` for the identity.  Walks ``images``
        itself and keeps only the cycle lengths."""
        images = self.images
        names = _point_names(len(images))
        seen = bytearray(len(images))
        parts = []
        lengths = []
        for start, point in enumerate(images):
            if seen[start] or point == start:
                continue
            cycle = [names[start]]
            seen[start] = 1
            while point != start:
                cycle.append(names[point])
                seen[point] = 1
                point = images[point]
            parts.append(" ".join(cycle))
            lengths.append(len(cycle))
        self._lengths = tuple(lengths)
        return "(" + ")(".join(parts) + ")"

    def extended(self, degree):
        """The same permutation on a larger domain, fixing the new top points."""
        if degree < len(self.images):
            raise ValueError("cannot shrink a permutation")
        return Permutation._trusted(self.images + tuple(range(len(self.images), degree)))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation[{self.degree}] {self.cycle_string()}"


_names = ()  # the decimal strings of 0, 1, ..., for the largest degree formatted so far


def _point_names(degree):
    """A tuple whose entry x is ``str(x)`` for every point x < ``degree``."""
    global _names
    if len(_names) < degree:
        _names = tuple(map(str, range(degree)))
    return _names


def orbit(generators, point):
    """Breadth-first orbit of ``point`` under the generators.

    Returns the points in their (deterministic) discovery order.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("orbit needs at least one generator")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("orbit generators must share one degree")
    if not 0 <= point < degree:
        raise ValueError(f"point {point} outside 0..{degree - 1}")
    found = {point}
    out = [point]
    frontier = [point]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = g.images[x]
                if y not in found:
                    found.add(y)
                    out.append(y)
                    new.append(y)
        frontier = new
    return out


def _compose(p, q):
    """Image tuple of ``p`` after ``q``.  With one index ``itemgetter`` returns a
    bare item, not a tuple, so degrees 0 and 1 take the plain loop."""
    if len(q) > 1:
        return itemgetter(*q)(p)
    return tuple(p[x] for x in q)


def _inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


class _StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain over raw image tuples.

    Base points are the smallest point moved by the permutation that forces
    them, scanning generators in their given order; transversals are grown
    stably (a coset representative, once chosen, is never replaced), which
    lets every Schreier generator be sifted at most once.
    """

    def __init__(self, degree, gens):
        self.degree = degree
        ident = tuple(range(degree))
        self.base = []
        self.level_gens = []  # level_gens[i]: (serial, tuple) inserted at level i
        self.transversals = []  # point -> representative u with u[base[i]] = point
        self.inv_transversals = []  # point -> inverse of the representative
        self._processed = []  # per level: set of (point, serial) pairs already sifted
        self._serial = 0

        for g in dict.fromkeys(gens):
            if g == ident:
                continue
            level = 0
            while level < len(self.base) and g[self.base[level]] == self.base[level]:
                level += 1
            if level == len(self.base):
                self._append_base_point(g)
            self._insert(g, level)

        i = len(self.base) - 1
        while i >= 0:
            self._extend_transversal(i)
            j = self._close_level(i)
            i = i - 1 if j is None else j

    def _append_base_point(self, g):
        moved = next(x for x in range(self.degree) if g[x] != x)
        self.base.append(moved)
        self.level_gens.append([])
        ident = tuple(range(self.degree))
        self.transversals.append({moved: ident})
        self.inv_transversals.append({moved: ident})
        self._processed.append(set())

    def _insert(self, g, level):
        self.level_gens[level].append((self._serial, g))
        self._serial += 1

    def _gens_at(self, level):
        out = []
        for lv in self.level_gens[level:]:
            out.extend(lv)
        out.sort()
        return out

    def _extend_transversal(self, i):
        gens = [g for _, g in self._gens_at(i)]
        trans = self.transversals[i]
        inv_trans = self.inv_transversals[i]
        frontier = list(trans)
        while frontier:
            new = []
            for x in frontier:
                ux = trans[x]
                for g in gens:
                    y = g[x]
                    if y not in trans:
                        rep = _compose(g, ux)
                        trans[y] = rep
                        inv_trans[y] = _inverse(rep)
                        new.append(y)
            frontier = new

    def _sift_from(self, p, start):
        for i in range(start, len(self.base)):
            y = p[self.base[i]]
            inv = self.inv_transversals[i].get(y)
            if inv is None:
                return p, i
            p = _compose(inv, p)
        return p, len(self.base)

    def _close_level(self, i):
        """Sift the unprocessed Schreier generators of level ``i``.

        Returns None once the level is clean, or the level at which a new
        strong generator was inserted (processing restarts from there).
        """
        ident = tuple(range(self.degree))
        processed = self._processed[i]
        while True:
            progress = False
            gens = self._gens_at(i)
            for x in list(self.transversals[i]):
                ux = self.transversals[i][x]
                for serial, g in gens:
                    if (x, serial) in processed:
                        continue
                    processed.add((x, serial))
                    progress = True
                    y = g[x]
                    schreier = _compose(self.inv_transversals[i][y], _compose(g, ux))
                    if schreier == ident:
                        continue
                    residue, j = self._sift_from(schreier, i + 1)
                    if residue == ident:
                        continue
                    if j == len(self.base):
                        self._append_base_point(residue)
                    self._insert(residue, j)
                    return j
            if not progress:
                return None

    def order(self):
        result = 1
        for trans in self.transversals:
            result *= len(trans)
        return result

    def contains(self, p):
        residue, _ = self._sift_from(p, 0)
        return residue == tuple(range(self.degree))


class PermGroup:
    """A permutation group given by generators.

    The stabilizer chain is built lazily on the first order or membership
    query; rebuilding is deterministic and idempotent.
    """

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("a group needs at least one generator")
        degree = generators[0].degree
        if any(g.degree != degree for g in generators):
            raise ValueError("generators must share one degree")
        self.generators = generators
        self._degree = degree
        self._chain = None

    @property
    def degree(self):
        return self._degree

    def build_chain(self):
        if self._chain is None:
            self._chain = _StabilizerChain(
                self._degree, [g.images for g in self.generators]
            )
        return self

    def order(self):
        self.build_chain()
        return self._chain.order()

    def contains(self, p):
        if not isinstance(p, Permutation):
            raise ValueError("membership test expects a Permutation")
        if p.degree != self._degree:
            raise ValueError("membership test needs matching degrees")
        self.build_chain()
        return self._chain.contains(p.images)

    def __contains__(self, p):
        return self.contains(p)

    def is_full_symmetric(self):
        n = self._degree
        if n <= 1:
            return self.order() == 1
        return self.order() == math.factorial(n)

    def __repr__(self):
        gens = ", ".join(g.cycle_string() for g in self.generators)
        return f"PermGroup[{self._degree}] <{gens}>"
