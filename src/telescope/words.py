"""Freely reduced words over the group generators and the added transposition.

The one word form is a tuple of signed integer codes: ``0`` is the
transposition t and ``+-(i+1)`` is the generator g_{i+1}^{+-1}.  Words are
written left to right; evaluation applies the rightmost letter first, so
traces walk the terminal subwords from shortest to longest.  Only formal
cancellation is performed -- generator letters carry no group relations.
Because ``-0 == 0``, the transposition is its own inverse and ``t t``
cancels like any inverse pair.  ``Letter`` and ``Word`` are a thin public
view over the codes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .perm import Permutation, _compose, _inverse


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


def _code_str(code):
    if code == 0:
        return "t"
    return f"g{abs(code)}" + ("^-1" if code < 0 else "")


@dataclass(frozen=True)
class Letter:
    """One alphabet symbol: generator ``gen`` (0-based) or the transposition.

    ``gen is None`` marks the transposition letter; its sign is forced to +1.
    """

    gen: object = None
    sign: int = 1

    def __post_init__(self):
        if self.gen is None:
            object.__setattr__(self, "sign", 1)
        elif not isinstance(self.gen, int) or self.gen < 0:
            raise ValueError(f"generator index must be a natural number, got {self.gen!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {self.sign!r}")

    @property
    def code(self):
        return 0 if self.gen is None else self.sign * (self.gen + 1)

    def inverse(self):
        return _letter(-self.code)

    def __str__(self):
        return _code_str(self.code)


TAU = Letter(None)


def _letter(code):
    return Letter(abs(code) - 1, 1 if code > 0 else -1) if code else TAU


class Word:
    """A freely reduced word: signed ``codes`` behind a view of ``Letter`` objects.

    The constructor reduces whatever letters it is given.
    """

    __slots__ = ("codes",)

    def __init__(self, letters=()):
        codes = []
        for letter in letters:
            if not isinstance(letter, Letter):
                raise ValueError(f"not a letter: {letter!r}")
            codes.append(letter.code)
        self.codes = reduce_signed(codes)

    @classmethod
    def from_codes(cls, codes):
        word = cls.__new__(cls)
        word.codes = reduce_signed(codes)
        return word

    @property
    def letters(self):
        return tuple(_letter(code) for code in self.codes)

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, index):
        return self.letters[index]

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word.from_codes(self.codes + other.codes)

    def inverse(self):
        return Word.from_codes(invert_signed(self.codes))

    def terminal_subword(self, k):
        """The last ``k`` letters, in order."""
        if not 0 <= k <= len(self.codes):
            raise ValueError(f"terminal subword length {k} outside 0..{len(self.codes)}")
        return Word.from_codes(self.codes[len(self.codes) - k:])

    def __eq__(self, other):
        return isinstance(other, Word) and self.codes == other.codes

    def __hash__(self):
        return hash(self.codes)

    def __str__(self):
        return " ".join(_code_str(code) for code in self.codes)

    def __repr__(self):
        return f"Word({str(self)!r})"


def reduce_word(letters):
    """Freely reduce a letter sequence into a Word (idempotent)."""
    return Word(letters)


def terminal_subword(word, k):
    return word.terminal_subword(k)


def build_v(k, n, i):
    """The word ``(g1 ... gk)^n g1 ... gi`` of length ``n*k + i``."""
    _check_family_args(k, n, i)
    block = list(range(1, k + 1))
    return Word.from_codes(block * n + block[:i])


def build_w(k, n, i):
    """The word ``(t g1 ... t gk)^n t g1 ... t gi`` of length ``2*(n*k + i)``."""
    _check_family_args(k, n, i)
    block = [code for j in range(1, k + 1) for code in (0, j)]
    return Word.from_codes(block * n + block[:2 * i])


def _check_family_args(k, n, i):
    if k < 1:
        raise ValueError("the word family needs at least one generator slot")
    if n < 0:
        raise ValueError("the repetition count must be non-negative")
    if not 0 <= i < k:
        raise ValueError(f"partial index {i} outside 0..{k - 1}")


class LetterTable(dict):
    """Image tuples of the letters under one assignment, keyed by signed code.

    ``gen_perms`` assigns generators g1, g2, ...; ``tau``, if given, assigns t.
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
            raise ValueError(f"letter {_code_str(code)} has no assigned permutation")
        self[code] = image = _inverse(image)
        return image


def trace(word, point, gen_perms, tau=None):
    """The trace of ``point``: images under the terminal subwords, shortest first.

    Entry ``i`` (1-based) is ``terminal_subword(word, i)`` applied to ``point``;
    the last entry is the full word applied to ``point``.
    """
    images = LetterTable(gen_perms, tau)
    if images.degree is not None and not 0 <= point < images.degree:
        raise ValueError(f"point {point} outside 0..{images.degree - 1}")
    out = []
    current = point
    for code in reversed(word.codes):
        current = images[code][current]
        out.append(current)
    return tuple(out)


def compose_signed(codes, images, degree):
    """Image tuple of a code word from each letter's image tuple (rightmost acting
    first); the empty word gives the identity."""
    if not codes:
        return tuple(range(degree))
    result = images[codes[0]]
    for code in codes[1:]:
        result = _compose(result, images[code])
    return result


def evaluate_word(word, gen_perms, tau=None):
    """Interpret the word as a permutation (rightmost letter acting first)."""
    images = LetterTable(gen_perms, tau)
    if images.degree is None:
        raise ValueError("evaluation needs at least one assigned permutation")
    return Permutation._trusted(compose_signed(word.codes, images, images.degree))


def parse_signed(text, code_of):
    """Parse whitespace-separated tokens ``name`` or ``name^-1`` into a reduced code word.

    ``code_of(name)`` is the code a name stands for, or None if it names no
    letter; the transposition (code 0) takes no ``^-1``.
    """
    codes = []
    for token in text.split():
        name, sign = (token[:-3], -1) if token.endswith("^-1") else (token, 1)
        code = code_of(name)
        if code is None or (code == 0 and sign < 0):
            raise ValueError(f"unknown word token {token!r}")
        codes.append(sign * code)
    return reduce_signed(codes)


def parse_word(text, gen_count=None):
    """Parse whitespace-separated tokens ``g<k>``, ``g<k>^-1`` and ``t``."""

    def code_of(name):
        if name == "t":
            return 0
        # canonical ASCII decimals only: not '\u00b2' or '\u0661', and not
        # 'g01', which int() would read as g1
        match = re.fullmatch(r"g([1-9][0-9]*)", name)
        if match is None:
            return None
        index = int(match.group(1))
        if gen_count is not None and index > gen_count:
            raise ValueError(f"token {name!r} exceeds the {gen_count} available generators")
        return index

    return Word.from_codes(parse_signed(text, code_of))
