"""Exact arithmetic in Z[t, t^-1] with arbitrary-precision integer coefficients.

Each value is packed into one Python integer by Kronecker substitution
(Harvey, *Faster polynomial multiplication via multipoint Kronecker
substitution*, 2009): c_0 t^lo + ... + c_m t^(lo+m) is stored as

    lo, v = c_0 + c_1 2^k + ... + c_m 2^(km), k, bits

with balanced signed digits c_i, so ring operations on values become
operations on integers: a sum is one shifted addition, a product one integer
product and an exact quotient one ``divmod``.

- ``k``, the slot width, is the least multiple of 64 with
  ``max |c_i|.bit_length() <= k - 2``; ``c_0 != 0`` unless the value is zero,
  which is ``lo = 0, v = 0, k = 64``. The digits of a packed integer are
  unique, so two values are equal exactly when ``(lo, v, k)`` are.
- ``bits`` is an upper bound on ``max |c_i|.bit_length()``. It is not
  compared or hashed. It is exact in slots wider than 64 bits, and after
  any operation that had to unpack the digits; in 64-bit slots it may be
  loose, since each product and sum adds to its operands' bounds.

**One kernel, one width rule.** Every sum, product and exact quotient is
a call of ``dot``, the sum of products Σ x_i y_i with an optional exact
division: ``a + b`` is ``dot((a, b), (ONE, ONE))``, ``a * b`` is
``dot((a,), (b,))``, ``a.exact_div(d)`` is ``dot((a,), (ONE,), d)``, and
the matrix layer's entries and the Burau rows' shared columns are ``dot``s
of their own. A product with, or a quotient by, a unit +-t^e is a shift of
``lo`` and perhaps a negation of ``v``: the other operand's digits, slots
and ``bits`` carry over unchanged. ``*`` makes that shift itself, without
calling ``dot``; ``dot`` keeps the same fields.

``dot`` builds the numerator as one packed integer: each product is one
integer product at a common slot width k, shifted by k times its ``lo``
less the least ``lo``, and the shifted products are added. Reading the
digits back is exact as long as every digit lies strictly inside its slot,
which holds when its bit length is at most k - 2. A product's
coefficients, each a sum of at most m = min(#digits) terms, have at most
``b1 + b2 + (m - 1).bit_length()`` bits, or the other factor's bits when
one factor is a unit; a sum of n products adds ``(n - 1).bit_length()``
bits to the largest. The sum runs on 64-bit slots when that bound is at
most 62. Where a pair's bound passes, each of its operands in 64-bit slots
first has its ``bits`` lowered to their exact value (one unpack, stored on
the operand) and the bound is taken again: loose bounds compound along a
chain of operations, so values whose coefficients are far below 2^62 would
otherwise be widened. Tightening puts the exact value in place of an upper
bound, so the argument holds with it. Only if the sum's bound still passes
62 are the operands repacked at the width it requires: the same sum at a
wider slot. The numerator is then canonicalized once, unpacked and
repacked at its least width with its exact ``bits`` if its slots are wider
than 64 bits, or shifted once by a unit divisor, or divided once by
``_divide``, which widens its quotient by a rule of its own.

Memory is proportional to the degree span, the highest exponent minus the
lowest: a value of span m takes (m + 1) * k bits however few of its
coefficients are nonzero. So a value or an intermediate whose packed integer
would have more than ``MAX_PACKED_BITS`` bits is refused with
LaurentTermError before it is built: by the constructor and JSON decoding,
by ``dot`` and so by ``+``, ``-``, ``*`` and ``exact_div``, and by
``_divide`` at a width it would try. A two-term input such as
``{0: 1, 10**12: 1}`` would otherwise ask for terabytes, and
``{0: 2**10000, 10**6: 1}``, with its 10048-bit slots, for more than a
gigabyte.
"""

from __future__ import annotations

import struct
from operator import index

from .errors import InexactDivisionError, LaurentTermError, ShapeError

_new = object.__new__

MAX_PACKED_BITS = 1 << 24  # 2 MB: a span of 262,143 at 64-bit slots

_SLOTS64 = MAX_PACKED_BITS // 64  # the most 64-bit slots a packed integer takes


def _width(bits):
    """The least slot width, a multiple of 64, that holds digits of `bits` bits
    with two bits to spare."""
    return (bits + 65) >> 6 << 6


def _bias(n, k):
    """2^(k-1) in each of n slots of k bits."""
    return int.from_bytes((bytes(k // 8 - 1) + b"\x80") * n, "little")


def _unpack(v, k, n):
    """The n balanced base-2^k digits of v, lowest first, or None if v has none.

    Adding 2^(k-1) to every slot turns the digits into the unsigned base-2^k
    digits of one nonnegative integer. Its bytes are read as 64-bit words,
    k / 64 of them to a digit, with no Python loop over carries. At 64-bit
    slots, the biased slots with their top bits flipped back are the digits
    as signed words, read by one struct.unpack.
    """
    bias = _bias(n, k)
    u = v + bias
    if u < 0 or u >> (k * n):
        return None
    if k == 64:
        return struct.unpack(f"<{n}q", (u ^ bias).to_bytes(8 * n, "little"))
    w = k // 64
    words = struct.unpack(f"<{n * w}Q", u.to_bytes(k * n // 8, "little"))
    digits = words[::w]
    for j in range(1, w):
        digits = [d | x << (64 * j) for d, x in zip(digits, words[j::w])]
    half = 1 << (k - 1)
    return [d - half for d in digits]


def _digits(p):
    return _unpack(p._v, p._k, p._v.bit_length() // p._k + 1)


def _exact_bits(digits):
    return max(max(digits), -min(digits)).bit_length()


def _tight_bits(p):
    """p's bits bound, first lowered to its exact value if p sits in 64-bit
    slots; a value in wider slots already carries its exact bits."""
    if p._k == 64:
        p._bits = _exact_bits(_digits(p))
    return p._bits


def _pack(digits, k):
    """The packed integer of balanced digits, lowest first, in k-bit slots.

    Each digit is written as one k-bit two's-complement slot; flipping every
    slot's top bit turns it into digit + 2^(k-1), the biased digit, so taking
    away the bias leaves the packed integer. At 64-bit slots one struct.pack
    writes every slot with no object per slot; wider slots, which
    ``MAX_PACKED_BITS`` makes proportionally fewer, take one bytes each.
    """
    if k == 64:
        raw = struct.pack(f"<{len(digits)}q", *digits)
    else:
        raw = b"".join([c.to_bytes(k // 8, "little", signed=True) for c in digits])
    bias = _bias(len(digits), k)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _at(p, k):
    """p's packed integer at slot width k, which is at least p's own."""
    return p._v if p._k == k else _pack(_digits(p), k)


def _too_big(span, k):
    return LaurentTermError(
        f"exponent span {_int_text(span)} in {k}-bit slots packs into"
        f" {_int_text((span + 1) * k)} bits,"
        f" above the limit of {MAX_PACKED_BITS}"
    )


def _not_divisible(a, d):
    return InexactDivisionError(f"{message_text(a)} is not divisible by {message_text(d)}")


def _make(lo, v, k, bits):
    out = _new(LaurentPoly)
    out._lo, out._v, out._k, out._bits = lo, v, k, bits
    return out


def _strip(lo, v, k):
    """lo and v with the zero low digits of a nonzero v taken off."""
    zeros = ((v & -v).bit_length() - 1) // k
    return lo + zeros, v >> k * zeros


def _canonical(lo, v, k, bits):
    """The value whose base-2^k digits from exponent lo are those of v.

    Every digit has at most `bits` <= k - 2 bits. Zero low digits are
    stripped, and a slot wider than 64 bits is narrowed to the least width
    that holds the digits' exact bits.
    """
    if not v:
        return ZERO
    if not v & ((1 << k) - 1):
        lo, v = _strip(lo, v, k)
    if k > 64:
        digits = _unpack(v, k, v.bit_length() // k + 1)
        bits = _exact_bits(digits)
        narrow = _width(bits)
        if narrow < k:
            v, k = _pack(digits, narrow), narrow
    return _make(lo, v, k, bits)


def _divide(a, d):
    """a divided exactly by d, for a packed numerator a and a divisor d that is
    neither zero nor a unit; a remainder raises InexactDivisionError.

    a is a numerator built by ``dot``: it carries a LaurentPoly's fields with
    a nonzero lowest digit, but its slots may be wider than its digits need
    and its ``bits`` may be a loose bound.

    Write A = a and D = d shifted to start at t^0, and X = 2^k for a slot
    width k. A = Q * D gives A(X) = Q(X) * D(X), so a nonzero remainder of
    the packed integers proves the division inexact at any width. When the
    remainder is zero, the integer quotient q is unpacked into balanced
    digits Q'. If ``bits(Q') + bits(D) + (min(#digits) - 1).bit_length() <=
    k - 2``, Q' * D has no carry between slots, so its digits are those of
    its packed integer q * D(X) = A(X), which are A's: Q' * D = A, and Q' is
    the quotient.

    The test is made first at the operands' own width, 64 bits for any
    coefficients below 2^62. While it fails, the division is redone at twice
    the width, up to a width where a true quotient must pass: by the
    Landau-Mignotte bound, every coefficient of an exact quotient has
    |q_i| <= 2^deg(Q) * ||A||_2, and ||A||_2 <= sqrt(#digits(A)) * 2^bits(A).
    Failing at that width proves the division inexact. A width at which A
    would pack into more than MAX_PACKED_BITS bits raises LaurentTermError
    instead.
    """
    na = a._v.bit_length() // a._k + 1
    nd = d._v.bit_length() // d._k + 1
    nq = na - nd + 1
    if nq > 0:
        spread = (min(nq, nd) - 1).bit_length()
        k = max(a._k, d._k)
        if k == 64:
            # the first pass on both operands' own 64-bit slots, with no
            # repacking
            q, r = divmod(a._v, d._v)
            if r:
                raise _not_divisible(a, d)
            digits = _unpack(q, 64, nq)
            if digits is not None:
                bits = _exact_bits(digits)
                if bits + d._bits + spread <= 62:
                    return _make(a._lo - d._lo, q, 64, bits)
        bound = nq - 1 + a._bits + ((na - 1).bit_length() + 1) // 2
        last = max(k, _width(bound + d._bits + spread))
        if k == 64:
            if last == 64:
                raise _not_divisible(a, d)
            k = 128
        while True:
            if na * k > MAX_PACKED_BITS:
                raise _too_big(na - 1, k)
            q, r = divmod(_at(a, k), _at(d, k))
            if r:
                break
            digits = _unpack(q, k, nq)
            if digits is not None:
                bits = _exact_bits(digits)
                if bits + d._bits + spread <= k - 2:
                    return _canonical(a._lo - d._lo, q, k, bits)
            if k == last:
                break
            k = min(2 * k, last)
    raise _not_divisible(a, d)


def message_text(p):
    """p as an error message shows it: its text when that takes at most 200
    characters, else its lowest exponent, span and coefficient bits. The text
    is built only for a value of at most 4096 packed bits, so a message stays
    short, and quick to build, however large p is."""
    v, lo = p._v, p._lo
    if v.bit_length() <= 4096 and abs(lo).bit_length() <= 64:
        text = str(p)
        if len(text) <= 200:
            return text
    start = lo if abs(lo).bit_length() <= 64 else f"({abs(lo).bit_length()}-bit exponent)"
    return (
        f"a Laurent polynomial of span {v.bit_length() // p._k} from t^{start}"
        f" with coefficients of at most {p._bits} bits"
    )


def _int_text(n):
    """str(n), exact past the interpreter's limit on int-to-str digits.

    Past it, n is converted by ``decimal``, imported only then, as
    hi * 2^h + lo split on its bits: libmpdec converts one int in quadratic
    time (17 s for 10^6 digits on a 2-vCPU VM), the split in 0.6 s, and a
    coefficient may have the ~5M digits that MAX_PACKED_BITS admits.
    """
    try:
        return str(n)
    except ValueError:
        pass
    import decimal

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)

    def to_decimal(m):
        if m.bit_length() <= 8192:
            return decimal.Decimal(m)
        h = m.bit_length() >> 1
        return ctx.fma(to_decimal(m >> h), ctx.power(2, h), to_decimal(m & ((1 << h) - 1)))

    return ("-" if n < 0 else "") + str(to_decimal(abs(n)))


def _digits_int(s):
    """int(s) for a string of ASCII digits, split into halves where it passes
    the interpreter's limit on str-to-int digits: exact, in subquadratic time."""
    try:
        return int(s)
    except ValueError:
        half = len(s) // 2
        return _digits_int(s[:-half]) * 10**half + _digits_int(s[-half:])


def _json_int(x):
    """A JSON exponent or coefficient: a string spelling an integer, or an integer."""
    if not isinstance(x, str):
        return x
    try:
        return int(x)
    except ValueError:
        body = x.strip()
        sign = -1 if body.startswith("-") else 1
        if body.startswith(("+", "-")):
            body = body[1:]
        if body.isascii() and body.isdigit():  # too many digits for int()
            return sign * _digits_int(body)
        raise LaurentTermError(f"JSON term {x!r} is not an integer") from None


# json is imported by the JSON codecs when called, so a run that prints no
# JSON does not load it


def json_loads(text, what):
    """json.loads for the decoder of `what`: text that is not JSON raises ShapeError."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ShapeError(f"{what} text is not JSON: {exc}") from None


def json_dumps(obj):
    """json.dumps with sorted keys, the form of every encoder's text."""
    import json

    return json.dumps(obj, sort_keys=True)


class LaurentPoly:
    """An element of Z[t, t^-1], built from a mapping exponent -> coefficient.

    Exponents and coefficients must be integers (``operator.index``); anything
    else, or a value too wide to pack (``MAX_PACKED_BITS``), raises
    LaurentTermError.
    The one value type that is not a frozen dataclass: its arithmetic builds
    each result's packed fields directly, and its equality compares the
    packed form but not the ``bits`` bound.
    """

    __slots__ = ("_lo", "_v", "_k", "_bits")

    def __init__(self, terms=None):
        canon = {}
        if terms:
            for exp, coef in dict(terms).items():
                try:
                    exp, coef = index(exp), index(coef)
                except TypeError:
                    raise LaurentTermError(
                        f"term {exp!r}: {coef!r} has a non-integer exponent or coefficient"
                    ) from None
                if coef:
                    canon[exp] = coef
        if not canon:
            self._lo, self._v, self._k, self._bits = 0, 0, 64, 0
            return
        lo, hi = min(canon), max(canon)
        bits = max(abs(c) for c in canon.values()).bit_length()
        k = _width(bits)
        if (hi - lo + 1) * k > MAX_PACKED_BITS:
            raise _too_big(hi - lo, k)
        digits = [canon.get(e, 0) for e in range(lo, hi + 1)]
        self._lo, self._v, self._k, self._bits = lo, _pack(digits, k), k, bits

    @property
    def terms(self):
        if not self._v:
            return {}
        return {self._lo + i: c for i, c in enumerate(_digits(self)) if c}

    @property
    def packed_bits(self):
        """The bits this value's packed integer takes: one slot per exponent of
        its span, which ``MAX_PACKED_BITS`` bounds."""
        return (self._v.bit_length() // self._k + 1) * self._k

    def is_unit(self):
        """Return (sign, exponent) if self = sign * t^exponent, else None.

        The units of Z[t, t^-1] are exactly the monomials +-t^k.
        """
        if self._v == 1 or self._v == -1:
            return (self._v, self._lo)
        return None

    def __bool__(self):
        return bool(self._v)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._v == other._v and self._lo == other._lo and self._k == other._k

    def __hash__(self):
        return hash((self._lo, self._v))

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return dot((self, other), (ONE, ONE))

    def __neg__(self):
        return _make(self._lo, -self._v, self._k, self._bits)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if other is ONE:  # a Burau row update meets the identity rows' ONE often
            return self
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # a unit +-t^e shifts the other factor and maybe flips its signs
        v1, v2 = self._v, other._v
        if v2 and (v1 == 1 or v1 == -1):
            return _make(self._lo + other._lo, v1 * v2, other._k, other._bits)
        if v1 and (v2 == 1 or v2 == -1):
            return _make(self._lo + other._lo, v1 * v2, self._k, self._bits)
        return dot((self,), (other,))

    def __pow__(self, k):
        # an exponent that is a bool or not an integer gets Python's own TypeError
        if isinstance(k, bool):
            return NotImplemented
        try:
            k = index(k)
        except TypeError:
            return NotImplemented
        if k < 0:
            unit = self.is_unit()
            if unit is None:
                raise InexactDivisionError(f"negative power of the non-unit {message_text(self)}")
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
        """Exact division by a nonzero divisor: ``dot((self,), (ONE,), other)``.

        A remainder raises InexactDivisionError and a zero divisor
        ZeroDivisionError. A unit divisor +-t^e is a shift; any other divides
        through ``_divide``, whose docstring proves the division exact.
        """
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"cannot divide a LaurentPoly by {type(other).__name__}")
        return dot((self,), (ONE,), other)

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        return " + ".join(
            _int_text(coef) if exp == 0 else f"{_int_text(coef)}*t^{_int_text(exp)}"
            for exp, coef in terms.items()
        )

    def __repr__(self):
        terms = ", ".join(f"{_int_text(e)}: {_int_text(c)}" for e, c in self.terms.items())
        return f"LaurentPoly({{{terms}}})"

    def to_json_obj(self):
        """JSON encoding: {exponent-as-string: coefficient-as-string}."""
        return {_int_text(e): _int_text(c) for e, c in self.terms.items()}

    @classmethod
    def from_json_obj(cls, obj):
        """Decode to_json_obj's form. A term that is not an integer, or a value
        too wide to pack (MAX_PACKED_BITS), raises LaurentTermError; an object
        that is not a JSON object raises ShapeError."""
        if not isinstance(obj, dict):
            raise ShapeError(f"a Laurent polynomial is a JSON object, got {type(obj).__name__}")
        return cls({_json_int(e): _json_int(c) for e, c in obj.items()})

    def to_json(self):
        return json_dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text):
        """Decode to_json's text; text that is not JSON raises ShapeError, and
        bad terms raise as in from_json_obj."""
        return cls.from_json_obj(json_loads(text, "a Laurent polynomial's"))


def dot(xs, ys, divisor=None):
    """The sum of xs[i] * ys[i], divided exactly by `divisor` when one is given.

    xs and ys are equally long sequences of LaurentPoly; a pair with a zero
    factor is skipped. A division with a remainder raises
    InexactDivisionError, and a zero divisor ZeroDivisionError.

    This is the ring's one kernel: ``+``, ``*`` and ``exact_div`` call it,
    as do the matrix layer and the Burau rows. The numerator is built as one
    packed integer and canonicalized once or, with a divisor, divided once
    by ``_divide``; no value is built for a product or a partial sum. Its
    slot width, and why no digit carries, is in the module docstring. A
    numerator that would pack into more than MAX_PACKED_BITS bits raises
    LaurentTermError, and no integer past that limit is built.
    """
    if divisor is not None and not divisor._v:
        raise ZeroDivisionError("division by the zero polynomial")
    limit = 62 - (len(xs) - 1).bit_length()
    m = lo = hi = top = v = 0
    for x, y in zip(xs, ys):
        vx, vy = x._v, y._v
        if vx and vy:
            e = x._lo + y._lo
            sx, sy = vx.bit_length() // x._k, vy.bit_length() // y._k
            spread = (sx if sx < sy else sy).bit_length()
            if x._bits + y._bits + spread > limit:
                _tight_bits(x)
                _tight_bits(y)
            # a product's bound: a unit factor keeps the other's
            if vx == 1 or vx == -1:
                bits = y._bits
            elif vy == 1 or vy == -1:
                bits = x._bits
            else:
                bits = x._bits + y._bits + spread
            if bits > top:
                top = bits
            # the sum at 64-bit slots, kept while it packs within the limit;
            # a sum that needs wider slots is rebuilt below
            if not m:
                lo = hi = e
            if e + sx + sy > hi:
                hi = e + sx + sy
            if e < lo:
                if hi - e < _SLOTS64:
                    v <<= 64 * (lo - e)
                lo = e
            if hi - lo < _SLOTS64:
                v += (vx * vy) << (64 * (e - lo))
            m += 1
    if not m:
        return ZERO
    bits = top + (m - 1).bit_length()
    k = _width(bits)
    if (hi - lo + 1) * k > MAX_PACKED_BITS:
        raise _too_big(hi - lo, k)
    if k > 64:
        v = 0
        for x, y in zip(xs, ys):
            if x._v and y._v:
                v += (_at(x, k) * _at(y, k)) << (k * (x._lo + y._lo - lo))
    if not v:
        return ZERO
    if divisor is None:
        return _canonical(lo, v, k, bits)
    if divisor._v == 1 or divisor._v == -1:  # a unit divisor is a shift
        return _canonical(lo - divisor._lo, v * divisor._v, k, bits)
    if not v & ((1 << k) - 1):
        lo, v = _strip(lo, v, k)
    return _divide(_make(lo, v, k, bits), divisor)


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
T = LaurentPoly({1: 1})
T_INV = LaurentPoly({-1: 1})
