"""Juxtaposition pairing of braid words and the block-swap symmetry words.

`mu` places a second braid to the right of a first one (indices of the
second word shift up by the width of the first). `zeta_block(m, n)` is the
word of virtual crossings moving an m-strand block past an n-strand block:

    z_m ... z_1  z_{m+1} ... z_2  ...  z_{n+m-1} ... z_n

(n descending runs of m letters). `sigma_block` is the same index pattern
with classical crossings, the braiding of the classical braid category.

Under this package's leftmost-acts-first evaluation convention the
naturality of the symmetry reads

    zeta_block(n, m) . mu(w1, w2) . zeta_block(m, n)  =  mu(w2, w1),

using zeta_block(m, n) * zeta_block(n, m) = 1. The coherence identities:

    B1: zeta_block(m,n) (widened)  +  shift(zeta_block(m,q), n)
            == zeta_block(m, n+q)
    B2: shift(zeta_block(n,q), m)  +  zeta_block(m,q) (widened)
            == zeta_block(m+n, q)

B1 holds letter for letter. B2 holds up to interchanging virtual letters
with distant indices (z_i z_j = z_j z_i for |i-j| > 1), e.g. at
(m,n,q) = (1,1,2) the sides are z2 z3 z1 z2 and z2 z1 z3 z2; it is checked
by comparing lexicographic normal forms in that commutation monoid.
"""

from __future__ import annotations

from .braidword import Flavor, GroupWord, Letter
from .errors import SizeMismatchError, StrandCountError
from .reps import aut_rep


def shift(w: GroupWord, m: int) -> GroupWord:
    """Raise every letter index by m and the strand count by m."""
    if m < 0:
        raise StrandCountError(f"shift amount must be nonnegative, got {m}")
    return GroupWord(
        w.flavor,
        w.n + m,
        tuple(Letter(lt.kind, lt.index + m, lt.exponent) for lt in w.letters),
    )


def widen(w: GroupWord, n: int) -> GroupWord:
    """Same letters on a larger strand count (extra strands on the right)."""
    if n < w.n:
        raise SizeMismatchError("cannot widen to fewer strands")
    return GroupWord(w.flavor, n, w.letters)


def mu(w1: GroupWord, w2: GroupWord) -> GroupWord:
    """Juxtaposition: w1 on the first strands, w2 shifted past them."""
    if w1.flavor != w2.flavor:
        raise SizeMismatchError("pairing requires words of the same flavor")
    m = w1.n
    return widen(w1, m + w2.n).concat(shift(w2, m))


def _block_word(kind: str, flavor: Flavor, m: int, n: int) -> GroupWord:
    if m < 0 or n < 0:
        raise StrandCountError(f"block sizes must be nonnegative, got {m}, {n}")
    letters = []
    for j in range(1, n + 1):
        for i in range(m + j - 1, j - 1, -1):
            letters.append(Letter(kind, i))
    return GroupWord(flavor, m + n, letters)


def zeta_block(m: int, n: int) -> GroupWord:
    """The block-swap word of virtual crossings in VB_{m+n}."""
    return _block_word("z", Flavor.VB, m, n)


def sigma_block(m: int, n: int) -> GroupWord:
    """The block braiding word of classical crossings in Br_{m+n}."""
    return _block_word("s", Flavor.BR, m, n)


def _as_vb(w: GroupWord) -> GroupWord:
    if w.flavor is Flavor.VB:
        return w
    return GroupWord(Flavor.VB, w.n, w.letters)


def check_naturality(m: int, n: int, w1: GroupWord, w2: GroupWord) -> bool:
    """Check the symmetry's naturality on (w1, w2) in the Aut F_{m+n} representation.

    Verifies zeta_block(n,m) . mu(w1,w2) . zeta_block(m,n) == mu(w2,w1)
    after applying aut_rep, a necessary condition for the word identity.
    """
    if w1.flavor != w2.flavor:
        raise SizeMismatchError("naturality check requires matching flavors")
    if w1.n != m or w2.n != n:
        raise SizeMismatchError("block sizes must match the words' strand counts")
    w1, w2 = _as_vb(w1), _as_vb(w2)
    conjugated = zeta_block(n, m).concat(mu(w1, w2)).concat(zeta_block(m, n))
    swapped = mu(w2, w1)
    return aut_rep(conjugated) == aut_rep(swapped)


def _commutation_normal(indices):
    """Lexicographically least word equal to `indices` using only the
    interchanges i j = j i for |i - j| > 1 (trace-monoid normal form)."""
    remaining = list(indices)
    out = []
    while remaining:
        best = None
        for p, idx in enumerate(remaining):
            if any(abs(idx - remaining[k]) <= 1 for k in range(p)):
                continue
            if best is None or idx < remaining[best]:
                best = p
        out.append(remaining.pop(best))
    return tuple(out)


def check_coherence(m: int, n: int, q: int) -> bool:
    """Check B1 as a literal word identity and B2 as a word identity up to
    interchanging distant virtual letters (no other rewriting)."""
    total = m + n + q
    b1_lhs = widen(zeta_block(m, n), total).concat(shift(zeta_block(m, q), n))
    b1_rhs = zeta_block(m, n + q)
    if b1_lhs.letters != b1_rhs.letters:
        return False
    b2_lhs = shift(zeta_block(n, q), m).concat(widen(zeta_block(m, q), total))
    b2_rhs = zeta_block(m + n, q)
    return _commutation_normal(
        lt.index for lt in b2_lhs.letters
    ) == _commutation_normal(lt.index for lt in b2_rhs.letters)
