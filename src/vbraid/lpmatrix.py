"""Square matrices over Z[t, t^-1].

Everything is exact. Determinants and inverses share one Bareiss
fraction-free elimination, whose divisions are exact in Z[t, t^-1];
inverses exist only for unit determinants +-t^k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat

from .errors import DimensionMismatchError, NonUnitDeterminantError, ShapeError, as_count
from .laurent import ONE, ZERO, LaurentPoly


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
        entries = [[LaurentPoly.from_json_obj(e) for e in row] for row in obj["entries"]]
        mat = cls(entries)
        if mat.n != obj["n"]:
            raise DimensionMismatchError("declared dimension disagrees with entries")
        return mat

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_obj(json.loads(text))


@lru_cache(maxsize=64)
def identity_rows(n):
    """The rows of the n x n identity matrix, built once per n and shared."""
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_mul(a: LPMatrix, b: LPMatrix) -> LPMatrix:
    if a.n != b.n:
        raise DimensionMismatchError(f"cannot multiply {a.n}x{a.n} by {b.n}x{b.n}")
    n = a.n
    bt = list(zip(*b.entries))
    out = []
    for i in range(n):
        arow = a.entries[i]
        row = []
        for j in range(n):
            bcol = bt[j]
            acc = ZERO
            for k in range(n):
                if arow[k] and bcol[k]:
                    acc = acc + arow[k] * bcol[k]
            row.append(acc)
        out.append(row)
    return LPMatrix(out)


def _bareiss(rows, jordan):
    """Bareiss fraction-free elimination of `rows` in place; returns the last pivot.

    `rows` holds n lists of LaurentPoly, each at least n long. The pivot of
    column k is the first row from k down with a nonzero entry there,
    swapped in and negated so the determinant of the left n x n block is
    kept. Entries right of column k become (pivot * x - row[k] * pivot_row[j])
    divided exactly by the previous pivot (Sylvester's identity; Bareiss,
    Math. Comp. 22, 1968), in the rows below the pivot, and with `jordan` in
    those above too, which leaves det(A) * A^-1 in the right block of [A | I].
    Entries at or left of the pivot column go stale. The last pivot is the
    determinant of the left block, or ZERO when some column has no pivot.
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
        for i in range(0 if jordan else k + 1, n):
            if i == k:
                continue
            row = rows[i]
            neg_f = -row[k]
            for j in range(k + 1, len(row)):
                e = pivot * row[j]
                if neg_f and pivot_row[j]:
                    e = e + neg_f * pivot_row[j]
                row[j] = e.exact_div(prev)
        prev = pivot
    return prev


def mat_det(a: LPMatrix) -> LaurentPoly:
    """Exact determinant by Bareiss fraction-free elimination: O(n^3) ring operations."""
    return _bareiss([list(row) for row in a.entries], jordan=False)


def mat_inverse(a: LPMatrix) -> LPMatrix:
    """Inverse of a matrix whose determinant is a unit +-t^k.

    Gauss-Jordan elimination of [A | I] leaves det(A) * A^-1 in the right
    block, which is then multiplied by det(A)^-1.
    """
    n = a.n
    rows = [[*row, *unit] for row, unit in zip(a.entries, identity_rows(n))]
    det = _bareiss(rows, jordan=True)
    unit = det.is_unit()
    if unit is None:
        raise NonUnitDeterminantError(f"determinant {det} is not a unit of Z[t,t^-1]")
    s, k = unit
    det_inv = LaurentPoly({-k: s})  # (s*t^k)^-1 = s*t^-k since s = +-1
    return LPMatrix([[e * det_inv for e in row[n:]] for row in rows])


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
