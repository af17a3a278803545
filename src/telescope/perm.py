"""Exact permutation-group engine.

Permutations act on ``{0, ..., degree-1}`` on the left: ``(p * q)(x) =
p(q(x))``, so in any product the rightmost factor is applied first.
Group-level queries (order, membership) go through ``PermGroup``, which
is its own deterministic Schreier-Sims stabilizer chain: made on the first
query, then grown in place by ``extend``.  All orders are exact Python
integers.

A ``Permutation`` reads its cycles off its image tuple in one walk,
``cycle_string()``, over a list copy of the images that it consumes: each
point a cycle reaches past its start has its entry set to itself as the
walk leaves it, and the scan has passed every start, so one test per
start skips fixed and visited points alike.  Each point is written as
one prefixed name, ``"(x"`` opening a cycle or ``" x"`` inside one, from two
tables shared by every degree; the walk caches no string and fills the
cycle type (``cycle_lengths()``) that the order and the sign are read from.
"""

from __future__ import annotations

import math
from operator import itemgetter


class Permutation:
    """An immutable bijection of {0, ..., degree-1}, stored as its image tuple.

    The public constructors validate their input; ``_trusted`` skips that for
    results that are permutations by construction (products, inverses).
    One walk reads the cycles off a consumed copy of ``images``:
    ``cycle_string()`` writes each point's prefixed name as it goes and
    keeps nothing but the cycle lengths, since a string is printed once.
    Its first run fills the cycle type that ``cycle_lengths()``,
    ``order()`` and ``sign()`` read, so none of them walks again.
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
        return cls._trusted(tuple(range(degree)))

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
                if type(point) is not int or not 0 <= point < degree:
                    raise ValueError(f"cycle point {point!r} is not a point of "
                                     f"0..{degree - 1}")
                if point in touched:
                    raise ValueError(f"cycles are not disjoint at point {point}")
                touched.add(point)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls._trusted(tuple(images))

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
        """Least m >= 1 with p^m = identity: the lcm of the distinct cycle lengths."""
        return math.lcm(*set(self.cycle_lengths()))

    def sign(self):
        """+1 for even permutations, -1 for odd; multiplicative."""
        lengths = self.cycle_lengths()
        return -1 if (sum(lengths) - len(lengths)) % 2 else 1

    def cycle_string(self):
        """The nontrivial cycles, each from its smallest point and ordered by
        it, e.g. ``(0 1)(2 3 4)``; ``()`` for the identity.  Walks a list copy
        of ``images``, setting each point's entry to the point as it leaves
        it (a start is never read again), and keeps only the cycle
        lengths."""
        following = list(self.images)
        opening, inner = _point_names(len(following))
        parts = []
        lengths = []
        for start in range(len(following)):
            point = following[start]
            if point == start:
                continue
            mark = len(parts)
            parts.append(opening[start])
            while point != start:
                parts.append(inner[point])
                following[point], point = point, following[point]
            lengths.append(len(parts) - mark)
            parts.append(")")
        self._lengths = tuple(lengths)
        return "".join(parts) or "()"

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


# "(x" and " x" for every point x below the largest degree formatted so far
_names = ((), ())


def _point_names(degree):
    """Two tuples whose entry x is ``"(x"`` and ``" x"``: the decimal name of
    x opening a cycle and following a point, for every point x < ``degree``."""
    global _names
    if len(_names[0]) < degree:
        decimals = tuple(map(str, range(degree)))
        _names = (tuple("(" + name for name in decimals),
                  tuple(" " + name for name in decimals))
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


class PermGroup:
    """A permutation group given by generators, and its deterministic
    Schreier-Sims stabilizer chain over raw image tuples.

    The chain is made on the first ``order``, ``contains`` or ``extend``
    call and from then on only grows: ``extend`` adds an element that is not
    yet a member and closes the chain again from the level its residue
    reaches.  Base points are the smallest point moved by the permutation
    that forces them, scanning generators in their given order;
    transversals grow stably (a coset representative, once chosen, is never
    replaced), so every Schreier generator, keyed by its (point, serial)
    pair, is sifted at most once over the group's whole life.
    """

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("a group needs at least one generator")
        degree = generators[0].degree
        if any(g.degree != degree for g in generators):
            raise ValueError("generators must share one degree")
        self.generators = generators
        self.degree = degree
        self.base = None  # the base points, once the chain is made

    def _make_chain(self):
        """Make the chain unless it exists: each generator is a strong
        generator at the first base point it moves, then the levels are
        closed from the deepest up."""
        if self.base is not None:
            return
        self.base = []
        self._strong = []  # (level, images) per strong generator; its index is its serial
        self._transversals = []  # level i: point x -> (u, u^-1) with u[base[i]] = x
        self._processed = []  # level i: the (point, serial) pairs already sifted
        ident = tuple(range(self.degree))
        for g in dict.fromkeys(p.images for p in self.generators):
            if g != ident:
                self._insert(g, next((i for i, b in enumerate(self.base) if g[b] != b),
                                     len(self.base)))
        self._close_from(len(self.base) - 1)

    def _insert(self, g, level):
        """Add ``g``, which fixes the first ``level`` base points, as a strong
        generator at ``level``; past the last level it opens a new base
        point, the smallest point ``g`` moves."""
        if level == len(self.base):
            moved = next(x for x, y in enumerate(g) if y != x)
            ident = tuple(range(self.degree))
            self.base.append(moved)
            self._transversals.append({moved: (ident, ident)})
            self._processed.append(set())
        self._strong.append((level, g))

    def _close_from(self, i):
        """Close the levels ``i``, ``i - 1``, ..., 0 in turn; a strong
        generator inserted on the way restarts the walk from its level."""
        while i >= 0:
            j = self._close_level(i)
            i = i - 1 if j is None else j

    def _close_level(self, i):
        """Grow level ``i``'s transversal to the orbit of its base point
        under the strong generators at or below it, and sift each Schreier
        generator not sifted before, unless it is the identity.

        Returns None once the level is clean, or the level at which a new
        strong generator was inserted.
        """
        ident = tuple(range(self.degree))
        gens = [(serial, g) for serial, (level, g) in enumerate(self._strong) if level >= i]
        trans = self._transversals[i]
        processed = self._processed[i]
        points = list(trans)
        for x in points:  # grows as the orbit is found, breadth first
            ux = trans[x][0]
            for serial, g in gens:
                if (x, serial) in processed:
                    continue
                processed.add((x, serial))
                y = g[x]
                gx = _compose(g, ux)
                if y not in trans:
                    trans[y] = gx, _inverse(gx)
                    points.append(y)
                    continue
                schreier = _compose(trans[y][1], gx)
                if schreier == ident:
                    continue
                residue, j = self._sift_from(schreier, i + 1)
                if residue != ident:
                    self._insert(residue, j)
                    return j
        return None

    def _sift_from(self, p, start):
        """The residue of the image tuple ``p`` sifted from level ``start``,
        and the level it stopped at."""
        for i in range(start, len(self.base)):
            entry = self._transversals[i].get(p[self.base[i]])
            if entry is None:
                return p, i
            p = _compose(entry[1], p)
        return p, len(self.base)

    def _sift(self, p):
        """Check ``p``, make the chain, and sift ``p`` from the top level."""
        if not isinstance(p, Permutation):
            raise ValueError("membership test expects a Permutation")
        if p.degree != self.degree:
            raise ValueError("membership test needs matching degrees")
        self._make_chain()
        return self._sift_from(p.images, 0)

    def order(self):
        self._make_chain()
        return math.prod(len(trans) for trans in self._transversals)

    def contains(self, p):
        return self._sift(p)[0] == tuple(range(self.degree))

    def extend(self, p):
        """Add ``p`` to the group, growing the chain in place.

        ``p`` is sifted.  A residue other than the identity is inserted at
        the level it stopped at, ``p`` is appended to ``generators``, the
        chain is closed again from that level, and the result is True.  A
        member leaves the group unchanged and gives False.
        """
        residue, level = self._sift(p)
        if residue == tuple(range(self.degree)):
            return False
        self.generators += (p,)
        self._insert(residue, level)
        self._close_from(level)
        return True

    def is_full_symmetric(self):
        return self.order() == math.factorial(self.degree)

    def __repr__(self):
        gens = ", ".join(g.cycle_string() for g in self.generators)
        return f"PermGroup[{self.degree}] <{gens}>"
