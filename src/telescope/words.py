"""Freely reduced words over the group generators and the added transposition.

The one word form is a tuple of signed integer codes: ``0`` is the
transposition t and ``+-(i+1)`` is the generator g_{i+1}^{+-1}.  Words are
written left to right; evaluation applies the rightmost letter first, so
traces walk the terminal subwords from shortest to longest.  Only formal
cancellation is performed -- generator letters carry no group relations.
Because ``-0 == 0``, the transposition is its own inverse and ``t t``
cancels like any inverse pair.  Every word in the package is such a tuple:
``parse_word`` reads one, ``format_word`` spells one, by the default
``t``/``g<k>`` tokens or by a recursion's generator names, and
``compose_signed`` evaluates one from a ``LetterTable``, which holds the
letters' image tuples and their one degree.
"""

from __future__ import annotations

import re

from .perm import _compose, _inverse


def reduce_signed(word):
    """Freely reduce a signed code word."""
    out = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def invert_signed(word):
    return tuple(-s for s in reversed(word))


def format_word(word, names=None):
    """The spelling of a code word: its letters separated by single spaces,
    each inverse generator followed by ``^-1``, and ``1`` for the empty word.

    ``names`` lists the generators' names, g1's first.  By default g_k is
    spelled ``g<k>`` and the transposition ``t``, the tokens ``parse_word``
    reads.  A name table has no name for the transposition, since a
    recursion may name a generator ``t``, so code 0 raises ValueError.
    """
    if not word:
        return "1"
    letters = []
    for code in word:
        if code == 0:
            if names is not None:
                raise ValueError("the transposition letter has no name in a generator table")
            letters.append("t")
        else:
            name = f"g{abs(code)}" if names is None else names[abs(code) - 1]
            letters.append(name if code > 0 else name + "^-1")
    return " ".join(letters)


def build_w(k, n, i):
    """The word ``(t g1 ... t gk)^n t g1 ... t gi`` of length ``2*(n*k + i)``."""
    if k < 1:
        raise ValueError("the word family needs at least one generator slot")
    if n < 0:
        raise ValueError("the repetition count must be non-negative")
    if not 0 <= i < k:
        raise ValueError(f"partial index {i} outside 0..{k - 1}")
    block = [code for j in range(1, k + 1) for code in (0, j)]
    return tuple(block * n + block[:2 * i])


class LetterTable(dict):
    """Image tuples of the letters under one assignment, keyed by signed code.

    ``gen_perms`` assigns generators g1, g2, ...; ``tau``, if given, assigns t.
    ``degree`` is the permutations' common degree, None when none is given.
    An inverse letter's image is built on its first lookup and kept, so a
    table made once serves every later word.  A letter with no assigned
    permutation raises ValueError when it is looked up.
    """

    __slots__ = ("degree",)

    def __init__(self, gen_perms, tau=None):
        gen_perms = tuple(gen_perms)
        perms = gen_perms + ((tau,) if tau is not None else ())
        self.degree = perms[0].degree if perms else None
        if any(p.degree != self.degree for p in perms):
            raise ValueError("assigned permutations must share one degree")
        super().__init__((code, p.images) for code, p in enumerate(gen_perms, start=1))
        if tau is not None:
            self[0] = tau.images

    def __missing__(self, code):
        if code == 0:
            raise ValueError("word uses the transposition letter but none is assigned")
        image = self.get(-code) if code < 0 else None
        if image is None:
            raise ValueError(f"letter {format_word((code,))} has no assigned permutation")
        self[code] = image = _inverse(image)
        return image


def trace(word, point, gen_perms, tau=None):
    """The trace of ``point``: images under the terminal subwords, shortest first.

    Entry ``i`` (1-based) is the word's last ``i`` letters applied to
    ``point``; the last entry is the full word applied to ``point``.
    """
    images = LetterTable(gen_perms, tau)
    if images.degree is not None and not 0 <= point < images.degree:
        raise ValueError(f"point {point} outside 0..{images.degree - 1}")
    out = []
    current = point
    for code in reversed(word):
        current = images[code][current]
        out.append(current)
    return tuple(out)


def compose_signed(codes, table):
    """Image tuple of a code word from a ``LetterTable`` (rightmost letter acting
    first); the empty word gives the identity of the table's degree."""
    if not codes:
        return tuple(range(table.degree))
    result = table[codes[0]]
    for code in codes[1:]:
        result = _compose(result, table[code])
    return result


def parse_signed(text, code_of):
    """Parse whitespace-separated tokens ``name`` or ``name^-1`` into a reduced code word.

    ``code_of(name)`` is the code a name stands for, or None if it names no
    letter; the transposition (code 0) takes no ``^-1``.  The lone token
    ``1`` is the empty word, as ``format_word`` spells it.
    """
    tokens = text.split()
    if tokens == ["1"]:
        return ()
    codes = []
    for token in tokens:
        name, sign = (token[:-3], -1) if token.endswith("^-1") else (token, 1)
        code = code_of(name)
        if code is None or (code == 0 and sign < 0):
            raise ValueError(f"unknown word token {token!r}")
        codes.append(sign * code)
    return reduce_signed(codes)


def parse_word(text, gen_count=None):
    """Parse whitespace-separated tokens ``g<k>``, ``g<k>^-1`` and ``t``, or the
    lone token ``1`` for the empty word, into a reduced code word."""

    def code_of(name):
        if name == "t":
            return 0
        # canonical ASCII decimals only: not '\u00b2' or '\u0661', and not
        # 'g01', which int() would read as g1
        match = re.fullmatch(r"g([1-9][0-9]*)", name)
        if match is None:
            return None
        # a longer decimal is a larger index, so a count is decided before
        # int(), which refuses more digits than the interpreter's limit
        digits = match.group(1)
        if gen_count is not None and (len(digits) > len(str(gen_count))
                                      or int(digits) > gen_count):
            raise ValueError(f"token {name!r} exceeds the {gen_count} available generators")
        return int(digits)

    return parse_signed(text, code_of)
