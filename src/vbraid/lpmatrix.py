"""Square matrices over Z[t, t^-1].

Everything is exact. Determinants and inverses share one forward Bareiss
fraction-free elimination, whose divisions are exact in Z[t, t^-1]; an
inverse then back-substitutes through the triangle it leaves. Inverses
exist only for unit determinants +-t^k.

Every entry computed here is one call of the ring kernel ``laurent.dot``,
which ``+``, ``*`` and ``exact_div`` also call: a product's entry, a Bareiss
update with its exact division by the previous pivot, and a
back-substitution step with its division by the pivot. Each builds its
numerator as one packed integer and divides it once, under the ring's one
width rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat

from .errors import (
    DimensionMismatchError,
    LaurentTermError,
    NonUnitDeterminantError,
    ShapeError,
    as_count,
)
from .laurent import (
    MAX_PACKED_BITS,
    ONE,
    ZERO,
    LaurentPoly,
    dot,
    json_dumps,
    json_loads,
    message_text,
)


@dataclass(frozen=True, slots=True, repr=False)
class LPMatrix:
    """An n x n matrix of LaurentPoly entries."""

    entries: tuple  # n rows, each a tuple of n LaurentPoly
    n: int = field(init=False, compare=False)

    def __post_init__(self):
        try:
            rows = tuple(map(tuple, self.entries))
        except TypeError:
            raise ShapeError("matrix entries must be a sequence of rows") from None
        n = len(rows)
        if not set(map(len, rows)) <= {n}:
            raise DimensionMismatchError("matrix must be square")
        if not all(map(isinstance, chain.from_iterable(rows), repeat(LaurentPoly))):
            raise ShapeError("entries must be LaurentPoly")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def identity(cls, n):
        return cls(identity_rows(as_count(n)))

    def __repr__(self):
        return f"LPMatrix({[[str(e) for e in row] for row in self.entries]})"

    def to_json_obj(self):
        return {
            "n": self.n,
            "entries": [[e.to_json_obj() for e in row] for row in self.entries],
        }

    @classmethod
    def from_json_obj(cls, obj):
        """Decode to_json_obj's form. The entries of an n-row matrix may pack
        into at most n * MAX_PACKED_BITS bits in all, as much as n of the widest
        values: a sparse input would otherwise build up to n^2 of them from a
        few hundred bytes. The entry that passes the budget raises
        LaurentTermError before the rest are decoded. A wrong container or a
        missing key raises ShapeError, and an "n" that is not an integer
        StrandCountError."""
        if not isinstance(obj, dict) or not {"n", "entries"} <= obj.keys():
            raise ShapeError('a matrix is a JSON object with keys "n" and "entries"')
        n, rows = as_count(obj["n"], "matrix dimension"), obj["entries"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ShapeError("matrix entries must be a JSON list of rows")
        budget = len(rows) * MAX_PACKED_BITS
        entries = []
        for row in rows:
            decoded = []
            for e in row:
                entry = LaurentPoly.from_json_obj(e)
                budget -= entry.packed_bits
                if budget < 0:
                    raise LaurentTermError(
                        f"matrix entries pack into more than {len(rows)} x {MAX_PACKED_BITS} bits"
                    )
                decoded.append(entry)
            entries.append(decoded)
        mat = cls(entries)
        if mat.n != n:
            raise DimensionMismatchError("declared dimension disagrees with entries")
        return mat

    def to_json(self):
        return json_dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text):
        """Decode to_json's text; text that is not JSON raises ShapeError, and
        the rest as in from_json_obj."""
        return cls.from_json_obj(json_loads(text, "a matrix's"))


@lru_cache(maxsize=64)
def identity_rows(n):
    """The rows of the n x n identity matrix, built once per n and shared."""
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_mul(a: LPMatrix, b: LPMatrix) -> LPMatrix:
    """The product a b; each entry is one `dot` of a row of a and a column of b."""
    if a.n != b.n:
        raise DimensionMismatchError(f"cannot multiply {a.n}x{a.n} by {b.n}x{b.n}")
    bt = list(zip(*b.entries))
    return LPMatrix([[dot(arow, bcol) for bcol in bt] for arow in a.entries])


def _bareiss(rows):
    """Bareiss fraction-free elimination of `rows` in place; returns the last pivot.

    `rows` holds n lists of LaurentPoly, each at least n long. The pivot of
    column k is the first row from k down with a nonzero entry there,
    swapped in and negated so the determinant of the left n x n block is
    kept. In the rows below the pivot, entries right of column k become
    (pivot * x - row[k] * pivot_row[j]) divided exactly by the previous
    pivot (Sylvester's identity; Bareiss, Math. Comp. 22, 1968), one fused
    `dot`. Without the second term it is the one-pair `dot` of pivot and x
    over the previous pivot, except that a zero stays zero and an entry
    equal to the previous pivot becomes the pivot, with no product or
    division.
    Entries at or left of the pivot column go stale, so rows[i][j] for j > i
    is the upper triangle U, and rows[i][i] the i-th pivot. The last pivot
    is the determinant of the left block, or ZERO when some column has no
    pivot.
    """
    n = len(rows)
    prev = ONE
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return ZERO
        if p != k:
            rows[k], rows[p] = [-e for e in rows[p]], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1:]:
            neg_f = -row[k]
            for j in range(k + 1, len(row)):
                x, y = row[j], pivot_row[j]
                if neg_f and y:
                    row[j] = dot((pivot, neg_f), (x, y), prev)
                elif x:
                    row[j] = pivot if x == prev else dot((pivot,), (x,), prev)
        prev = pivot
    return prev


def mat_det(a: LPMatrix) -> LaurentPoly:
    """Exact determinant by Bareiss fraction-free elimination: O(n^3) ring operations."""
    return _bareiss([list(row) for row in a.entries])


def mat_inverse(a: LPMatrix) -> LPMatrix:
    """Inverse of a matrix whose determinant is a unit +-t^k.

    Forward Bareiss elimination of [A | I] gives [U | B'] with U upper
    triangular and det(A) its last pivot; a determinant that is not a unit
    raises NonUnitDeterminantError before any further work. Every row of
    [U | B'] is a combination of the rows of [A | I], so [U | B'] = C [A | I]
    for one matrix C: U = C A and B' = C, hence U A^-1 = B'. Back-substitution
    solves this from the bottom row up, x_i = (b'_i - sum_{j>i} u_ij x_j) / u_ii,
    each entry one `dot` of [1, -u_i,i+1, ...] with [b'_i, x_i+1, ...] divided
    by u_ii. Each division is exact, as its quotient x_i is a row of A^-1,
    whose entries lie in Z[t, t^-1]; the first, by u_nn = det(A), is a shift.
    """
    n = a.n
    rows = [[*row, *unit] for row, unit in zip(a.entries, identity_rows(n))]
    det = _bareiss(rows)
    if det.is_unit() is None:
        raise NonUnitDeterminantError(
            f"determinant {message_text(det)} is not a unit of Z[t,t^-1]"
        )
    inverse = [None] * n
    for i in reversed(range(n)):
        row = rows[i]
        coefs = [ONE, *(-u for u in row[i + 1:n])]
        inverse[i] = [dot(coefs, col, row[i]) for col in zip(row[n:], *inverse[i + 1:])]
    return LPMatrix(inverse)


def block_diag(a: LPMatrix, b: LPMatrix) -> LPMatrix:
    n = a.n + b.n
    out = [[ZERO] * n for _ in range(n)]
    for i in range(a.n):
        for j in range(a.n):
            out[i][j] = a.entries[i][j]
    for i in range(b.n):
        for j in range(b.n):
            out[a.n + i][a.n + j] = b.entries[i][j]
    return LPMatrix(out)
