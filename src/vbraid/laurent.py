"""Exact arithmetic in Z[t, t^-1] with arbitrary-precision integer coefficients.

Values are immutable and kept in canonical form: no zero coefficient is ever
stored, so structural equality of the term mappings is ring equality.
"""

from __future__ import annotations

import json

from .errors import InexactDivisionError


class LaurentPoly:
    """An element of Z[t, t^-1], stored as a mapping exponent -> coefficient.

    The one value type that is not a frozen dataclass: its arithmetic sets
    ``_terms`` of each result directly, and a generated ``__hash__`` cannot
    hash a dict field, so equality and hashing are written out.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canon = {}
        if terms:
            for exp, coef in dict(terms).items():
                if coef:
                    canon[int(exp)] = int(coef)
        self._terms = canon

    @property
    def terms(self):
        return dict(self._terms)

    def is_unit(self):
        """Return (sign, exponent) if self = sign * t^exponent, else None.

        The units of Z[t, t^-1] are exactly the monomials +-t^k.
        """
        if len(self._terms) != 1:
            return None
        (exp, coef), = self._terms.items()
        if coef == 1:
            return (1, exp)
        if coef == -1:
            return (-1, exp)
        return None

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        terms = dict(self._terms)
        for exp, coef in other._terms.items():
            new = terms.get(exp, 0) + coef
            if new:
                terms[exp] = new
            elif exp in terms:
                del terms[exp]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                new = terms.get(e, 0) + c1 * c2
                if new:
                    terms[e] = new
                elif e in terms:
                    del terms[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    def __pow__(self, k):
        if k < 0:
            unit = self.is_unit()
            if unit is None:
                raise InexactDivisionError(f"negative power of the non-unit {self}")
            s, e = unit
            return LaurentPoly({k * e: 1 if (s == 1 or k % 2 == 0) else -1})
        result = ONE
        base = self
        n = k
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, other):
        """Exact division by a nonzero divisor; a remainder raises InexactDivisionError.

        Dense long division over the only possible quotient degrees,
        min(self) - min(other) .. max(self) - max(other), from the top down,
        so it takes at most one step per quotient degree.
        """
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {}
        if not self:
            return out
        lo, hi = min(self._terms), max(self._terms)
        dlo, dhi = min(other._terms), max(other._terms)
        qlo = lo - dlo
        rem = [0] * (hi - lo + 1)
        for e, c in self._terms.items():
            rem[e - lo] = c
        divisor = [(e - dlo, c) for e, c in other._terms.items()]
        dcoef = other._terms[dhi]
        for qe in range(hi - dhi, qlo - 1, -1):
            top = rem[qe + dhi - lo]
            if not top:
                continue
            qc, r = divmod(top, dcoef)
            if r:
                raise InexactDivisionError(f"{self} is not divisible by {other}")
            out._terms[qe] = qc
            base = qe - qlo
            for off, c in divisor:
                rem[base + off] -= qc * c
        if any(rem):
            raise InexactDivisionError(f"{self} is not divisible by {other}")
        return out

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp in sorted(self._terms):
            coef = self._terms[exp]
            parts.append(str(coef) if exp == 0 else f"{coef}*t^{exp}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self._terms!r})"

    def to_json_obj(self):
        """JSON encoding: {exponent-as-string: coefficient-as-string}."""
        return {str(e): str(c) for e, c in sorted(self._terms.items())}

    @classmethod
    def from_json_obj(cls, obj):
        return cls({int(e): int(c) for e, c in obj.items()})

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_obj(json.loads(text))


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
T = LaurentPoly({1: 1})
T_INV = LaurentPoly({-1: 1})

