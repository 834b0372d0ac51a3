"""Representations and projections of virtual braid words.

Evaluation convention, shared by all maps here: in a word l1 l2 ... lk the
LEFTMOST letter acts first, i.e. the word maps to the composition
rho(lk) o ... o rho(l1) (for matrices acting on column vectors, the product
M(lk) ... M(l1)). This is the convention under which the literal generator
matrices and automorphism formulas satisfy all presented relations,
including the braid-permutation relation s_i s_{i+1} z_i = z_{i+1} s_i s_{i+1};
the mirrored convention breaks exactly that relation.

Burau generator images (classical crossing and virtual crossing):

    s_i -> identity with the 2x2 block [[1-t, t], [1, 0]]   at rows i, i+1
    z_i -> identity with the 2x2 block [[0, 1], [1, 0]]     at rows i, i+1

Computed determinants are det(Burau(s_i)) = -t and det(Burau(z_i)) = -1.
(The source presentation of these matrices states the two values with the
attribution swapped; the computed values are used throughout, and the
abelianization onto Z/2 + Z is unaffected.)

Each of `burau`, `aut_rep`, `perm_proj` and `abelianize` is one core plus
an assembly step. The core (`burau_rows`, `aut_images`, `perm_strands`,
`abelian_pair`) computes only what the word changes: the touched Burau rows,
the touched Aut images, the strand order and the pair of counts. The public
function assembles the validated `LPMatrix`, `FreeAut`, `Permutation` or
`AbelianImage` from it. `verify` compares the cores of a relator's two sides
directly, so a relator costs O(letters) there, whatever n is. The Aut core
keeps each image as a freely reduced tuple of letters, multiplied and
inverted by `freegrp.mul_letters` and `invert_letters`; only `aut_rep`
wraps them into FreeWords. `aut_key`, the touched images less those that
have returned to the identity, is the one key of the Aut image: `verify`
and `monoidal` both compare it. `burau_rows`, `aut_images` and `aut_key`
take letters, not a word, and read every letter but z as s: the caller
checks the flavor. That is how `verify` checks the singular flavors
through a_i -> s_i^2, and how `monoidal` compares the two sides of
naturality without building them as words. `burau` and
`perm_proj` import `lpmatrix` and `perm` when they are called, so a caller
of the cores alone, `verify` or `abelianize` loads neither module. The cores
import nothing when called: they run thousands of times per verify sweep.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .braidword import Flavor, GroupWord
from .errors import FlavorError, ParityError
from .freegrp import FreeAut, aut_of_letters, identity_letters, invert_letters, mul_letters
from .laurent import ONE, T, T_INV, ZERO, dot

_REP_FLAVORS = frozenset({Flavor.BR, Flavor.SYM, Flavor.VB, Flavor.BP})


def _require_rep_flavor(w: GroupWord):
    if w.flavor not in _REP_FLAVORS:
        raise FlavorError(
            f"no representation is defined for flavor {w.flavor.value}"
        )


def to_bp(w: GroupWord) -> GroupWord:
    """The epimorphism VB_n -> BP_n: the same letters read in BP."""
    if w.flavor is not Flavor.VB:
        raise FlavorError(f"to_bp expects a vb word, got {w.flavor.value}")
    return GroupWord(Flavor.BP, w.n, w.letters)


_ONE_MINUS_T = ONE - T
_ONE_MINUS_TINV = ONE - T_INV


def _combine(a, ra, b, rb):
    """The sparse row a*ra + b*rb: only nonzero entries are multiplied or kept.

    A column that both rows hold is one `laurent.dot`, which packs the two
    products into one integer at ``*``'s width and canonicalizes the sum
    once, building no value for either product; a column of one row takes
    one product."""
    out = {}
    for c, e in ra.items():
        f = rb.get(c)
        if f is None:
            out[c] = a * e
        else:
            e = dot((a, b), (e, f))
            if e:  # else the two terms cancel
                out[c] = e
    for c, e in rb.items():
        if c not in ra:
            out[c] = b * e
    return out


def burau_rows(letters) -> dict:
    """The rows of the Burau image that a word's letters touch: the core of `burau`.

    Each generator matrix is the identity outside one 2x2 block, so a letter
    at index i rewrites only rows i and i+1 (0-based). Each row the word
    touches is kept as a sparse {column: nonzero entry} map, and only their
    nonzero entries are combined; a row not in the result is the identity
    row r, {r: ONE}. A touched row may have returned to that identity row.
    The cost is O(letters x touched entries), whatever n is. Every letter but
    z is read as s, so the caller checks the flavor.
    """
    # a touched row is never empty (the matrix is invertible), so `or` tells
    # a touched row from an untouched one
    touched = {}
    for lt in letters:
        i = lt.index - 1
        ri = touched.get(i) or {i: ONE}
        rj = touched.get(i + 1) or {i + 1: ONE}
        if lt.kind == "z":
            touched[i], touched[i + 1] = rj, ri
        elif lt.exponent == 1:
            # left-multiply by the s_i block: new row_i = (1-t) r_i + t r_j,
            # new row_{i+1} = r_i
            touched[i], touched[i + 1] = _combine(_ONE_MINUS_T, ri, T, rj), ri
        else:
            # inverse block [[0, 1], [t^-1, 1 - t^-1]]
            touched[i], touched[i + 1] = rj, _combine(T_INV, ri, _ONE_MINUS_TINV, rj)
    return touched


def burau(w: GroupWord) -> LPMatrix:
    """Burau image of a word: the product M(lk) ... M(l1) of generator matrices.

    Assembled from `burau_rows`: every row the word does not touch stays an
    identity row, shared from `identity_rows`, so the cost is that of the
    touched rows plus one O(n^2) copy into the result.
    """
    from .lpmatrix import LPMatrix, identity_rows

    _require_rep_flavor(w)
    touched = burau_rows(w.letters)
    rows = list(identity_rows(w.n))
    zeros = [ZERO] * w.n
    for r, entries in touched.items():
        row = zeros.copy()
        for c, e in entries.items():
            row[c] = e
        rows[r] = row
    return LPMatrix(rows)


def aut_images(letters, n) -> dict:
    """The images of x_1, ..., x_n that a word's letters touch: the core of `aut_rep`.

    Built from the right as acc = acc o rho(l) for l = lk, ..., l1: a letter
    at index i changes only the images a, b of x_i, x_{i+1}, to (b, a) for
    z_i, (b, b^-1 a b) for s_i and (a b a^-1, a) for s_i^-1. Returns
    {i: image of x_(i+1)} for each image touched, as a freely reduced tuple
    of (generator, +-1) letters; any other image is x_(i+1) itself,
    `identity_letters(n)[i]`, and a touched one may have returned to it. The
    cost is that of the images the letters touch, whatever n is. Every
    letter but z is read as s, so the caller checks the flavor.
    """
    identity = identity_letters(n)
    touched = {}
    for lt in reversed(letters):
        i = lt.index - 1
        a, b = touched.get(i, identity[i]), touched.get(i + 1, identity[i + 1])
        if lt.kind == "z":
            touched[i], touched[i + 1] = b, a
        elif lt.exponent == 1:
            touched[i], touched[i + 1] = b, mul_letters(mul_letters(invert_letters(b), a), b)
        else:
            touched[i], touched[i + 1] = mul_letters(mul_letters(a, b), invert_letters(a)), a
    return touched


def aut_key(letters, n) -> dict:
    """i -> image of x_(i+1), as its letter tuple, for each Aut image of a
    word's letters on n strands that is not x_(i+1). The one key of the Aut
    image: two words of the same n have equal `aut_rep` exactly when their
    keys are equal, at the cost of `aut_images`. Like `aut_images`, it reads
    every letter but z as s, so the caller checks the flavor."""
    identity = identity_letters(n)
    return {i: img for i, img in aut_images(letters, n).items() if img != identity[i]}


def aut_rep(w: GroupWord) -> FreeAut:
    """The representation in Aut F_n through the braid-permutation group.

    Assembled from `aut_images`: each touched letter tuple is wrapped into a
    FreeWord once, so the cost is that of the touched images plus one O(n)
    pass and the FreeAut check.
    """
    _require_rep_flavor(w)
    return aut_of_letters(w.n, aut_images(w.letters, w.n))


def perm_strands(w: GroupWord) -> list:
    """The core of `perm_proj`: at[p] is the strand at position p after the
    word, for p in 1..n (at[0] is 0), each letter swapping positions i, i+1."""
    _require_rep_flavor(w)
    at = list(range(w.n + 1))
    for lt in w.letters:
        i = lt.index
        at[i], at[i + 1] = at[i + 1], at[i]
    return at


def perm_proj(w: GroupWord) -> Permutation:
    """Projection onto the symmetric group: every letter to the transposition
    (i, i+1). Assembled from `perm_strands`: strand at[p] ends at position p."""
    from .perm import Permutation

    at = perm_strands(w)
    images = [0] * w.n
    for p in range(1, w.n + 1):
        images[at[p] - 1] = p
    return Permutation(images)


def exp_sum(w: GroupWord) -> int:
    """Signed count of classical crossings; z letters contribute 0."""
    return sum(lt.exponent for lt in w.letters if lt.kind == "s")


def zeta_count(w: GroupWord) -> int:
    return sum(1 for lt in w.letters if lt.kind == "z")


@dataclass(frozen=True, slots=True)
class AbelianImage:
    """An element of Z/2 + Z, the common abelianization of VB_n and its Burau image."""

    zeta_parity: int
    sigma_sum: int

    def __post_init__(self):
        if self.zeta_parity not in (0, 1):
            raise ParityError(f"zeta_parity must be 0 or 1, got {self.zeta_parity}")

    def to_json_obj(self):
        return asdict(self)


def abelian_pair(w: GroupWord) -> tuple:
    """The core of `abelianize`: (zeta_count mod 2, exp_sum)."""
    if w.flavor not in (Flavor.VB, Flavor.BP):
        raise FlavorError(f"abelianize expects vb or bp, got {w.flavor.value}")
    return zeta_count(w) % 2, exp_sum(w)


def abelianize(w: GroupWord) -> AbelianImage:
    return AbelianImage(*abelian_pair(w))
