"""Reduced words in the free group F_n and endomorphisms given by generator images.

A FreeWord is a sequence of (generator index, exponent) pairs with
exponents +-1, kept freely reduced at all times. A FreeAut is determined
by the images of the generators x_1..x_n; composition follows the same
"rightmost acts first" convention as the rest of the package:
``aut_compose(f, g)`` applies g first.

Letters are shared, not copied. One table, ``_INVERSE``, maps each letter
to its inverse and holds both as the same two tuple objects for the life of
the process, two entries per generator. ``invert_letters``, ``mul_letters``
and ``identity_letters`` take their letters from it or from their operands,
so the words of ``aut_rep`` on n strands, however long, share at most 2n
letter objects: a letter costs one pointer in its word's tuple. These three
work on bare letter tuples, the form in which ``reps.aut_images`` builds its
images; ``FreeWord.inverse`` and ``*`` call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import attrgetter, index, itemgetter

from .errors import LetterError, ShapeError, SizeMismatchError, as_count


class _Inverses(dict):
    """letter -> its inverse letter. A letter seen for the first time is entered
    together with its inverse, so a generator has two entries, and every value
    is the very object kept as a key: the inverse of an inverse is the letter
    the table holds."""

    def __missing__(self, letter):
        gen, exp = letter
        inverse = (gen, -exp)
        self[letter], self[inverse] = inverse, letter
        return inverse


_INVERSE = _Inverses()


def _reduce(letters):
    stack = []
    for letter in letters:
        gen, exp = letter
        if stack and stack[-1][0] == gen and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def mul_letters(a, b):
    """The product of two freely reduced letter tuples, freely reduced: the
    longest suffix of a that inverts a prefix of b is cut from both."""
    if not a or not b or _INVERSE[a[-1]] != b[0]:
        return a + b
    cut, most = 1, min(len(a), len(b))
    while cut < most and _INVERSE[a[-1 - cut]] == b[cut]:
        cut += 1
    return a[: len(a) - cut] + b[cut:]


def invert_letters(a):
    """The inverse of a freely reduced letter tuple, its letters from ``_INVERSE``."""
    return tuple([_INVERSE[letter] for letter in reversed(a)])


@dataclass(frozen=True, slots=True, repr=False)
class FreeWord:
    """A freely reduced word in F_n; the rank is implicit in usage context."""

    letters: tuple = ()  # tuple of (generator index, exponent)

    def __post_init__(self):
        try:
            letters = iter(self.letters)
        except TypeError:
            raise ShapeError(f"free-group letters must be a sequence, got {self.letters!r}") from None
        checked = []
        for letter in letters:
            try:
                gen, exp = letter
                gen, exp = index(gen), index(exp)
            except (TypeError, ValueError):
                raise LetterError(f"free-group letter {letter!r} is not two integers") from None
            if gen < 1 or exp not in (1, -1):
                raise LetterError(f"bad free-group letter ({gen}, {exp})")
            checked.append((gen, exp))
        object.__setattr__(self, "letters", _reduce(checked))

    @classmethod
    def generator(cls, i, exp=1):
        return cls([(i, exp)])

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        return _trusted_word(mul_letters(self.letters, other.letters))

    def inverse(self):
        return _trusted_word(invert_letters(self.letters))

    def max_generator(self):
        return max((g for g, _ in self.letters), default=0)

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(f"x{g}" if e == 1 else f"x{g}^-1" for g, e in self.letters)

    def __repr__(self):
        return f"FreeWord({list(self.letters)})"


def _trusted_word(letters):
    """The FreeWord of `letters`, a tuple of (generator, +-1) pairs that is already
    freely reduced; it skips the constructor's checks, so only this module calls it."""
    out = object.__new__(FreeWord)
    object.__setattr__(out, "letters", letters)
    return out


@lru_cache(maxsize=64)
def identity_letters(n):
    """The letter tuples (x_1,), ..., (x_n,) of the identity of F_n, built once per
    n and shared; each letter x_i is the one ``_INVERSE`` keeps."""
    return tuple((_INVERSE[(i, -1)],) for i in range(1, n + 1))


@dataclass(frozen=True, slots=True, repr=False)
class FreeAut:
    """An endomorphism of F_n given by generator images (here always invertible)."""

    n: int
    images: tuple  # tuple of FreeWord

    def __post_init__(self):
        n = as_count(self.n, "rank")
        try:
            images = tuple(self.images)
        except TypeError:
            raise ShapeError(f"images must be a sequence, got {self.images!r}") from None
        if not all(map(isinstance, images, repeat(FreeWord))):
            raise ShapeError("images must be FreeWords")
        if len(images) != n:
            raise SizeMismatchError(f"expected {n} images, got {len(images)}")
        letters = chain.from_iterable(map(attrgetter("letters"), images))
        if max(map(itemgetter(0), letters), default=0) > n:
            raise SizeMismatchError("image mentions a generator beyond the rank")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", images)

    def is_identity(self):
        return all(
            img.letters == ((i, 1),) for i, img in enumerate(self.images, start=1)
        )

    def __str__(self):
        return "\n".join(f"x{i} -> {img}" for i, img in enumerate(self.images, start=1))

    def __repr__(self):
        return f"FreeAut({self.n}, {[str(i) for i in self.images]})"


def aut_of_letters(n, touched):
    """The FreeAut of F_n that sends x_(i+1) to the FreeWord of touched[i], a
    freely reduced tuple of ``_INVERSE``'s letters, and every other generator
    to itself; the tuples are wrapped without the FreeWord checks."""
    identity = identity_letters(n)
    return FreeAut(n, [_trusted_word(touched.get(i, x)) for i, x in enumerate(identity)])


def aut_apply(f: FreeAut, w: FreeWord) -> FreeWord:
    """Substitute generator images into w and freely reduce."""
    if w.max_generator() > f.n:
        raise SizeMismatchError("word mentions a generator beyond the rank")
    # concatenate the images, then freely reduce them in one stack pass,
    # linear in the number of image letters
    letters = []
    for gen, exp in w.letters:
        img = f.images[gen - 1]
        letters += (img if exp == 1 else img.inverse()).letters
    return _trusted_word(_reduce(letters))


def aut_compose(f: FreeAut, g: FreeAut) -> FreeAut:
    """f after g: x_i -> f(g(x_i))."""
    if f.n != g.n:
        raise SizeMismatchError(f"cannot compose automorphisms of ranks {f.n} and {g.n}")
    return FreeAut(f.n, [aut_apply(f, img) for img in g.images])
