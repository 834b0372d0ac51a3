"""Juxtaposition pairing of braid words and the block-swap symmetry words.

`mu` places a second braid to the right of a first one (indices of the
second word shift up by the width of the first). `zeta_block(m, n)` is the
word of virtual crossings moving an m-strand block past an n-strand block:

    z_m ... z_1  z_{m+1} ... z_2  ...  z_{n+m-1} ... z_n

(n descending runs of m letters). `sigma_block` is the same index pattern
with classical crossings, the braiding of the classical braid category.
`_block_indices` is the one definition of that pattern, and the letters of
both words, of `shift` and of `mu` come from `braidword`'s shared table of
generator letters.

Under this package's leftmost-acts-first evaluation convention the
naturality of the symmetry reads

    zeta_block(n, m) . mu(w1, w2) . zeta_block(m, n)  =  mu(w2, w1),

using zeta_block(m, n) * zeta_block(n, m) = 1. `check_naturality` checks
its two words once, joins the letters of each side into a tuple and
compares their Aut keys (`reps.aut_key`, which takes letters), building no
word. The coherence identities:

    B1: zeta_block(m,n) (widened)  +  shift(zeta_block(m,q), n)
            == zeta_block(m, n+q)
    B2: shift(zeta_block(n,q), m)  +  zeta_block(m,q) (widened)
            == zeta_block(m+n, q)

`check_coherence` compares index lists from `_block_indices`, a shift being
+ n or + m on the indices, and builds no word. B1 holds letter for letter.
B2 holds up to interchanging virtual letters with distant indices
(z_i z_j = z_j z_i for |i-j| > 1), e.g. at (m,n,q) = (1,1,2) the sides are
z2 z3 z1 z2 and z2 z1 z3 z2. It is checked by comparing Foata normal forms
in that commutation monoid (Cartier-Foata), one pass over each side: the
cost is O(L log L) for L = (m+n)q letters.
"""

from __future__ import annotations

from .braidword import Flavor, GroupWord, _letter
from .errors import SizeMismatchError, StrandCountError, as_count
from .reps import _require_rep_flavor, aut_key


def _shifted(letters, m):
    return tuple([_letter(lt.kind, lt.index + m, lt.exponent) for lt in letters])


def shift(w: GroupWord, m: int) -> GroupWord:
    """Raise every letter index by m and the strand count by m."""
    m = as_count(m, "shift amount")
    if m < 0:
        raise StrandCountError(f"shift amount must be nonnegative, got {m}")
    return GroupWord(w.flavor, w.n + m, _shifted(w.letters, m))


def widen(w: GroupWord, n: int) -> GroupWord:
    """Same letters on a larger strand count (extra strands on the right)."""
    n = as_count(n)
    if n < w.n:
        raise SizeMismatchError("cannot widen to fewer strands")
    return GroupWord(w.flavor, n, w.letters)


def mu(w1: GroupWord, w2: GroupWord) -> GroupWord:
    """Juxtaposition: w1 on the first strands, w2 shifted past them."""
    if w1.flavor != w2.flavor:
        raise SizeMismatchError("pairing requires words of the same flavor")
    return GroupWord(w1.flavor, w1.n + w2.n, w1.letters + _shifted(w2.letters, w1.n))


def _block_sizes(*sizes):
    sizes = [as_count(k, "block size") for k in sizes]
    if min(sizes) < 0:
        raise StrandCountError(f"block sizes must be nonnegative, got {', '.join(map(str, sizes))}")
    return sizes


def _block_indices(m, n):
    """The indices of the block swap of an m-strand block past an n-strand
    block, in order: for j = 1..n, the run m+j-1, ..., j."""
    return [i for j in range(1, n + 1) for i in range(m + j - 1, j - 1, -1)]


def _block_letters(kind, m, n):
    return [_letter(kind, i, 1) for i in _block_indices(m, n)]


def zeta_block(m: int, n: int) -> GroupWord:
    """The block-swap word of virtual crossings in VB_{m+n}."""
    m, n = _block_sizes(m, n)
    return GroupWord(Flavor.VB, m + n, _block_letters("z", m, n))


def sigma_block(m: int, n: int) -> GroupWord:
    """The block braiding word of classical crossings in Br_{m+n}."""
    m, n = _block_sizes(m, n)
    return GroupWord(Flavor.BR, m + n, _block_letters("s", m, n))


def check_naturality(m: int, n: int, w1: GroupWord, w2: GroupWord) -> bool:
    """Check the symmetry's naturality on (w1, w2) in the Aut F_{m+n} representation.

    Verifies zeta_block(n,m) . mu(w1,w2) . zeta_block(m,n) == mu(w2,w1)
    after applying aut_rep, a necessary condition for the word identity.
    The words must share a flavor that has the representation (vb, bp, br
    or sym; sb and sg raise FlavorError, as `aut_rep` does) and have m and
    n strands. The Aut keys of the two sides' letters are compared.
    """
    m, n = as_count(m, "block size"), as_count(n, "block size")
    if w1.flavor != w2.flavor:
        raise SizeMismatchError("naturality check requires matching flavors")
    _require_rep_flavor(w1)
    if w1.n != m or w2.n != n:
        raise SizeMismatchError("block sizes must match the words' strand counts")
    conjugated = [
        *_block_letters("z", n, m),
        *w1.letters,
        *_shifted(w2.letters, m),
        *_block_letters("z", m, n),
    ]
    swapped = w2.letters + _shifted(w1.letters, n)
    return aut_key(conjugated, m + n) == aut_key(swapped, m + n)


def _foata(indices):
    """The Foata normal form of a word of virtual letters, given by their
    indices, in the commutation monoid of z_i z_j = z_j z_i (|i - j| > 1): the
    sorted (level, index) pairs, where a letter's level is one more than the
    highest level of the letters before it that it does not commute with. Two
    words are equal in the monoid exactly when their forms are."""
    level = {}
    form = []
    for i in indices:
        k = level[i] = 1 + max(level.get(i - 1, 0), level.get(i, 0), level.get(i + 1, 0))
        form.append((k, i))
    form.sort()
    return form


def check_coherence(m: int, n: int, q: int) -> bool:
    """Check B1 as a literal word identity and B2 as a word identity up to
    interchanging distant virtual letters (no other rewriting)."""
    m, n, q = _block_sizes(m, n, q)
    b1_lhs = _block_indices(m, n) + [i + n for i in _block_indices(m, q)]
    if b1_lhs != _block_indices(m, n + q):
        return False
    b2_lhs = [i + m for i in _block_indices(n, q)] + _block_indices(m, q)
    return _foata(b2_lhs) == _foata(_block_indices(m + n, q))
