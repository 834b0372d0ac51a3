import json
import math
import random

import pytest
from conftest import d_add, d_exact_div, d_mul, d_neg
from hypothesis import given, settings
from hypothesis import strategies as st

from vbraid import laurent
from vbraid.errors import InexactDivisionError, LaurentTermError
from vbraid.laurent import MAX_PACKED_BITS, ONE, T, T_INV, ZERO, LaurentPoly


def poly(d):
    return LaurentPoly(d)


polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-20, max_value=20),
    max_size=6,
).map(LaurentPoly)


class TestAdd:
    def test_cancellation(self):
        assert poly({0: 1, 1: -1}) + T == ONE

    def test_additive_identity(self):
        one_minus_t = poly({0: 1, 1: -1})
        assert ZERO + one_minus_t == one_minus_t

    def test_partial_cancellation(self):
        assert poly({-1: 1, 1: 1}) + poly({1: -1}) == T_INV


class TestMul:
    def test_unit_times_inverse(self):
        assert poly({1: -1}) * poly({-1: -1}) == ONE

    def test_multiplicative_identity(self):
        one_minus_t = poly({0: 1, 1: -1})
        assert one_minus_t * ONE == one_minus_t

    def test_square(self):
        # (1 - t)^2 = 1 - 2t + t^2, convolved by hand
        one_minus_t = poly({0: 1, 1: -1})
        assert one_minus_t * one_minus_t == poly({0: 1, 1: -2, 2: 1})


class TestIsUnit:
    def test_minus_t(self):
        assert poly({1: -1}).is_unit() == (-1, 1)

    def test_one(self):
        assert ONE.is_unit() == (1, 0)

    def test_two_terms_not_a_unit(self):
        assert poly({0: 1, 1: -1}).is_unit() is None

    def test_non_unit_coefficient(self):
        assert poly({3: 2}).is_unit() is None

    def test_unit_times_its_inverse_is_one(self):
        rng = random.Random(7)
        for _ in range(50):
            s, k = rng.choice((1, -1)), rng.randrange(-5, 6)
            a = LaurentPoly({k: s})
            sk = a.is_unit()
            assert sk == (s, k)
            assert a * LaurentPoly({-k: s}) == ONE


def test_canonical_form_never_stores_zero():
    rng = random.Random(1)
    for _ in range(200):
        a = LaurentPoly({rng.randrange(-5, 6): rng.randrange(-3, 4) for _ in range(4)})
        b = LaurentPoly({rng.randrange(-5, 6): rng.randrange(-3, 4) for _ in range(4)})
        for result in (a + b, a * b, -a, a - b):
            assert all(c != 0 for c in result.terms.values())


def test_ring_axioms_randomized():
    rng = random.Random(2)

    def rand():
        return LaurentPoly(
            {rng.randrange(-4, 5): rng.randrange(-9, 10) for _ in range(rng.randrange(5))}
        )

    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def degree_span(p):
    return max(p.terms) - min(p.terms)


@given(polys, polys)
def test_product_degree_span(a, b):
    if not a or not b:
        assert not a * b
    else:
        p = a * b
        if p:
            assert degree_span(p) <= degree_span(a) + degree_span(b)


@given(polys)
def test_json_round_trip(a):
    assert LaurentPoly.from_json(a.to_json()) == a


def test_json_encoding_shape():
    one_minus_t = poly({0: 1, 1: -1})
    assert json.loads(one_minus_t.to_json()) == {"0": "1", "1": "-1"}


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(poly({0: 1, 1: -1})) == "1 + -1*t^1"
    assert str(poly({-2: 3})) == "3*t^-2"


BIG = 10**5000 + 7  # 5001 digits, past the interpreter's default of 4300
BIG_TEXT = "1" + "0" * 4999 + "7"


def test_big_coefficients_as_text():
    """Coefficients and exponents with more digits than int() and str() take
    by default are legal values: str, repr and JSON write them exactly, JSON
    reads them back, and error messages write them too."""
    p = LaurentPoly({-3: -BIG, 0: 2, 5: BIG})
    assert str(p) == f"-{BIG_TEXT}*t^-3 + 2 + {BIG_TEXT}*t^5"
    assert repr(p) == f"LaurentPoly({{-3: -{BIG_TEXT}, 0: 2, 5: {BIG_TEXT}}})"
    assert json.loads(p.to_json()) == {"-3": "-" + BIG_TEXT, "0": "2", "5": BIG_TEXT}
    far = LaurentPoly({BIG: -1})
    assert str(far) == f"-1*t^{BIG_TEXT}"
    for value in (p, far):
        assert LaurentPoly.from_json(value.to_json()) == value
    assert LaurentPoly.from_json_obj({"0": " +" + BIG_TEXT}) == LaurentPoly({0: BIG})
    for bad in ("1.5" + BIG_TEXT, BIG_TEXT + "x", "--" + BIG_TEXT, "\u00b2" * 5000):
        with pytest.raises(LaurentTermError, match="not an integer"):
            LaurentPoly.from_json_obj({"0": bad})
    # a span too wide to pack is refused with its size written out
    with pytest.raises(LaurentTermError, match=f"exponent span {BIG_TEXT} in 64-bit slots"):
        LaurentPoly({0: 1, BIG: 1})


def test_exact_div():
    a = poly({0: 1, 1: -2, 2: 1})
    b = poly({0: 1, 1: -1})
    assert a.exact_div(b) == b
    with pytest.raises(ValueError):
        poly({0: 1, 1: 1}).exact_div(poly({0: 2}))
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)


def test_exact_div_inexact_raises():
    # non-monomial divisors whose division leaves a remainder, including
    # dividends of smaller span than the divisor
    for a, b in (
        (ONE, ONE - T),
        (poly({0: 1, 1: 1}), poly({0: 1, 1: -1})),
        (poly({-3: 2, 2: 5}), poly({0: 1, 1: 1, 2: 1})),
        (poly({0: 1, 2: 1}), poly({0: 2, 1: 2})),
        # 2^64 / 2 is exact in Z, so the packed integers divide, but t / 2 is
        # not in Z[t, t^-1]
        (T, poly({0: 2})),
        (poly({3: 1, 4: 5}), poly({0: 2**31})),
    ):
        with pytest.raises(ValueError):
            a.exact_div(b)


def test_inexact_division_raises_typed_error():
    with pytest.raises(InexactDivisionError):
        ONE.exact_div(ONE - T)


def test_inexact_division_message_stays_short():
    # short operands are written out; a 10^5-digit one is described by its
    # span and bits, so the message stays short and quick to build
    with pytest.raises(InexactDivisionError, match=r"^1 \+ 1\*t\^10 is not divisible by 3 \+ 1\*t\^1$"):
        poly({0: 1, 10: 1}).exact_div(poly({0: 3, 1: 1}))
    big = poly({0: 10**100000 + 1, 1: 1})
    for fail in (lambda: big.exact_div(poly({0: 2, 1: 1})), lambda: big**-1):
        with pytest.raises(InexactDivisionError) as info:
            fail()
        assert len(str(info.value)) < 500
        assert "span 1 from t^0 with coefficients of at most 332193 bits" in str(info.value)


def test_exact_div_remainder_in_64_bit_slots_raises():
    # (1 + t)(1 - 2t + 3t^2) + 1: the packed integers leave a remainder on the
    # operands' own 64-bit slots, before any wider width is tried
    d = poly({0: 1, 1: 1})
    a = d * poly({0: 1, 1: -2, 2: 3}) + ONE
    assert a._k == d._k == 64
    with pytest.raises(InexactDivisionError):
        a.exact_div(d)
    assert (a - ONE).exact_div(d) == poly({0: 1, 1: -2, 2: 3})


@given(polys, polys)
def test_exact_div_inverts_mul(a, b):
    if b:
        assert (a * b).exact_div(b) == a


def test_pow():
    assert T**3 == poly({3: 1})
    assert poly({1: -1}) ** -2 == poly({-2: 1})
    assert poly({1: -1}) ** -3 == poly({-3: -1})
    with pytest.raises(ValueError):
        poly({0: 1, 1: 1}) ** -1


def test_negative_power_of_non_unit_raises_typed_error():
    with pytest.raises(InexactDivisionError):
        poly({0: 1, 1: 1}) ** -1


@pytest.mark.parametrize("exponent", [True, False, 1.5, "2", None], ids=repr)
def test_power_needs_an_integer_exponent(exponent):
    """A bool, like any exponent that is not an integer, gets Python's own
    TypeError for ** instead of counting as 1 or 0."""
    with pytest.raises(TypeError, match=r"for \*\* or pow\(\)"):
        T**exponent


# Coefficients that stress the packed form: small ones, ones up to 2^200 that
# need slots wider than 64 bits, and ones at the 2^61..2^63 boundary where a
# 64-bit slot stops holding a digit with room to spare.
wide_coefs = st.one_of(
    st.integers(-20, 20),
    st.integers(-(2**200), 2**200),
    st.builds(lambda m, s: s * m, st.integers(2**61 - 4, 2**63 + 4), st.sampled_from((1, -1))),
)
wide_terms = st.dictionaries(st.integers(-40, 40), wide_coefs, max_size=8).map(
    lambda d: {e: c for e, c in d.items() if c}
)


def _div_outcome(div, a, b):
    try:
        return div(a, b)
    except InexactDivisionError as exc:
        return type(exc)


@settings(max_examples=300)
@given(wide_terms, wide_terms)
def test_arithmetic_matches_dict_oracle(a, b):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    assert pa.terms == a
    # == compares the packed form, so a result in a non-canonical slot fails
    assert pa + pb == LaurentPoly(d_add(a, b))
    assert pa - pb == LaurentPoly(d_add(a, d_neg(b)))
    assert -pa == LaurentPoly(d_neg(a))
    assert pa * pb == LaurentPoly(d_mul(a, b))
    if b:
        assert (pa * pb).exact_div(pb) == pa
        oracle = _div_outcome(d_exact_div, a, b)
        packed = _div_outcome(lambda x, y: LaurentPoly(x).exact_div(LaurentPoly(y)).terms, a, b)
        assert packed == oracle


@given(wide_terms, wide_terms)
def test_one_value_one_form(a, b):
    """A value reached by the constructor, by arithmetic and by JSON is one value."""
    direct = LaurentPoly(d_add(a, b))
    by_arithmetic = (LaurentPoly(a) * T + LaurentPoly(b) * T) * T_INV
    by_json = LaurentPoly.from_json(direct.to_json())
    for other in (by_arithmetic, by_json):
        assert other == direct and hash(other) == hash(direct)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaurentPoly({0.5: 1.7}),
        lambda: LaurentPoly({0: 1.0}),
        lambda: LaurentPoly({0: "3"}),
        lambda: LaurentPoly({"1": 3}),
        lambda: LaurentPoly.from_json_obj({"0": "x"}),
        lambda: LaurentPoly.from_json_obj({"x": "1"}),
        lambda: LaurentPoly.from_json_obj({"0": 1.5}),
        lambda: LaurentPoly.from_json('{"0": "0.5"}'),
    ],
    ids=["float_exponent", "float_coefficient", "str_coefficient", "str_exponent",
         "json_word", "json_word_exponent", "json_float", "json_fraction_string"],
)
def test_non_integer_terms_raise_typed_error(build):
    with pytest.raises(LaurentTermError):
        build()


def test_mixed_type_arithmetic_raises_type_error():
    for op in (
        lambda: ONE + 1,
        lambda: 1 + ONE,
        lambda: ONE - 1,
        lambda: ONE * 2,
        lambda: 2 * ONE,
        lambda: ONE.exact_div(1),
    ):
        with pytest.raises(TypeError):
            op()


def test_slot_boundary_products():
    """Products and sums whose coefficients reach the 62-bit limit of a 64-bit slot."""
    wide = 0
    for m in (1, 2, 3, 4):
        for b1 in range(1, 66):
            for b2 in range(max(1, 56 - b1), 67 - b1):
                for sign in (1, -1):
                    a = {i: 2**b1 - 1 for i in range(m)}
                    b = {i: sign * (2**b2 - 1) for i in range(m)}
                    pa, pb = LaurentPoly(a), LaurentPoly(b)
                    product = pa * pb
                    assert product == LaurentPoly(d_mul(a, b))
                    assert pa + pa == LaurentPoly(d_add(a, a))
                    assert product.exact_div(pa) == pb
                    wide += product._k > 64
    # the constructor's bounds are exact, so these products take wider slots
    assert wide > 0


def test_exact_div_quotient_larger_than_dividend(monkeypatch):
    # (1 - t^10)^10 / (1 - t)^10 = (1 + t + ... + t^9)^10: the quotient's
    # coefficients are 21 bits wider than the dividend's, and the scale 2^36
    # leaves the dividend in 64-bit slots and puts the quotient past them, so
    # the division is redone at 128 bits
    d = LaurentPoly({i: (-1) ** i * math.comb(10, i) for i in range(11)})
    q = LaurentPoly(
        {e: 2**36 * c for e, c in (LaurentPoly({i: 1 for i in range(10)}) ** 10).terms.items()}
    )
    a = q * d
    assert max(map(abs, a.terms.values())).bit_length() <= 62
    assert max(map(abs, q.terms.values())).bit_length() > 62
    widths = spy_widths(monkeypatch)
    assert a.exact_div(d) == q
    assert widths == [128, 128]
    with pytest.raises(InexactDivisionError):
        (a + ONE).exact_div(d)


def test_value_too_wide_to_pack_is_refused_before_building():
    """A sparse input, sum or product whose packed integer would pass
    MAX_PACKED_BITS raises instead of packing one slot per exponent of its
    span."""
    span = MAX_PACKED_BITS // 64 - 1  # the widest span at 64-bit slots
    far = T ** 10**12
    assert far.terms == {10**12: 1}
    widest = ONE + T**span
    assert widest - T**span == ONE
    assert (widest * (ONE + ONE)).exact_div(ONE + ONE) == widest
    assert widest * T == T + T ** (span + 1)
    for build in (
        lambda: LaurentPoly.from_json_obj({"0": "1", "1000000000000": "1"}),
        lambda: LaurentPoly.from_json('{"0": "1", "262144": "-3"}'),
        lambda: LaurentPoly({0: 2**62, span // 2 + 1: 1}),
        lambda: ONE + far,
        lambda: far - ONE,
        lambda: widest + T_INV,
        lambda: widest * (ONE + T),
        lambda: widest * LaurentPoly({0: 2**62}),
    ):
        with pytest.raises(LaurentTermError, match="packs into"):
            build()


def spy_widths(monkeypatch):
    """The slot widths at which `laurent._at` repacks an operand from now on:
    the widths the division loop tries past the operands' own 64 bits."""
    widths = []
    at = laurent._at
    monkeypatch.setattr(laurent, "_at", lambda p, k: widths.append(k) or at(p, k))
    return widths


def test_exact_div_widens_within_the_packing_limit(monkeypatch):
    """A quotient too big for the dividend's slots is found at a doubled width,
    far below the Landau-Mignotte width that would pass MAX_PACKED_BITS at
    this span; an inexact division that divides as packed integers at every
    width up to the limit raises LaurentTermError."""
    q = LaurentPoly({e: 2**40 + e for e in range(5000)})
    d = ONE + LaurentPoly({1: 2**20})
    product = q * d
    widths = spy_widths(monkeypatch)
    assert product.exact_div(d) == q
    assert widths == [128, 128]
    with pytest.raises(LaurentTermError, match="packs into"):
        LaurentPoly({0: 2, 1: 1, 5000: 1}).exact_div(LaurentPoly({0: 2}))
    assert widths[-1] == 2048


def exact_bits(p):
    return max((abs(c).bit_length() for c in p.terms.values()), default=0)


# short polynomials with small coefficients, whose products' bounds outgrow
# their exact bits within a few steps
small_terms = st.dictionaries(
    st.integers(-1, 1), st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=2, max_size=3
)
# each step: an operation and its operands, counted back from the newest value
chain_ops = st.lists(
    st.tuples(st.sampled_from("**+/"), st.integers(0, 2), st.integers(0, 5)),
    min_size=1,
    max_size=32,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(small_terms, wide_terms), min_size=2, max_size=4), chain_ops)
def test_chains_keep_bits_a_bound_and_match_dict_oracle(starts, ops):
    """Chains of +, * and exact_div, whose products carry loose `bits` bounds
    that a later operation may tighten in place: every value keeps a bound at
    least its exact coefficient bits, and it and its hash stay those of the
    dict oracle's value."""
    pool = [(LaurentPoly(t), t) for t in starts]
    for op, i, j in ops:
        (a, ta), (b, tb) = pool[-1 - i % len(pool)], pool[-1 - j % len(pool)]
        if op == "+":
            out, oracle = a + b, d_add(ta, tb)
        elif op == "*":
            out, oracle = a * b, d_mul(ta, tb)
        elif not b:
            continue
        else:
            assert (a * b).exact_div(b) == a  # exact; a / b may not be
            oracle = _div_outcome(d_exact_div, ta, tb)
            if oracle is InexactDivisionError:
                with pytest.raises(InexactDivisionError):
                    a.exact_div(b)
                continue
            out = a.exact_div(b)
        for value, terms in ((a, ta), (b, tb), (out, oracle)):
            assert value._bits >= exact_bits(value)
            direct = LaurentPoly(terms)
            assert value == direct and hash(value) == hash(direct)
        if out.terms and max(out.terms) - min(out.terms) <= 100:
            pool.append((out, oracle))


def test_loose_bounds_tightened_before_widening(monkeypatch):
    """Two products whose bounds add up past 62 bits, though their exact bits
    do not, multiply on 64-bit slots; the bounds drop to the exact bits, and
    the values and their hashes are unchanged."""
    a = (ONE - T) ** 10  # largest coefficient 252: 8 bits
    b = (ONE + T + T**2) ** 8  # largest coefficient 1107: 11 bits
    assert a._k == b._k == 64
    assert a._bits + b._bits > 62  # the bounds alone would ask for 128-bit slots
    hashes = hash(a), hash(b)
    widths = spy_widths(monkeypatch)
    product = a * b
    assert widths == [] and product._k == 64
    assert (a._bits, b._bits) == (8, 11)
    assert (hash(a), hash(b)) == hashes
    assert a == LaurentPoly(a.terms) and b == LaurentPoly(b.terms)
    assert product == LaurentPoly(d_mul(a.terms, b.terms))


@pytest.mark.parametrize("unit", [T, -T, T_INV, -ONE, LaurentPoly({5: -1})], ids=str)
def test_unit_factor_shifts_the_other(unit):
    """A product with +-t^e, or a quotient by it, keeps the other factor's
    slots and bound and equals the dict oracle's value."""
    p = LaurentPoly({-2: 2**100, 0: 3, 7: -1})
    s, e = unit.is_unit()
    for out in (p * unit, unit * p):
        assert out == LaurentPoly({x + e: s * c for x, c in p.terms.items()})
        assert (out._k, out._bits) == (p._k, p._bits)
    quotient = p.exact_div(unit)
    assert quotient == LaurentPoly({x - e: s * c for x, c in p.terms.items()})
    assert (quotient._k, quotient._bits) == (p._k, p._bits)


# laurent.dot, the one sum-of-products kernel of the matrix layer and the
# Burau rows, against the dict oracle


def _dict_dot(xs, ys):
    acc = {}
    for x, y in zip(xs, ys):
        acc = d_add(acc, d_mul(x, y))
    return acc


# small coefficients keep a sum in 64-bit slots; wide ones take wider slots
dot_terms = st.one_of(
    st.dictionaries(st.integers(-6, 6), st.integers(-20, 20).filter(bool), max_size=5),
    wide_terms,
)
dot_pairs = st.lists(st.tuples(dot_terms, dot_terms), max_size=6)


@settings(max_examples=200, deadline=None)
@given(dot_pairs, dot_terms)
def test_dot_matches_dict_oracle(pairs, d):
    """dot(xs, ys) is the oracle's sum of products; with a divisor it is the
    oracle's exact quotient, or raises InexactDivisionError as the oracle
    does. A multiple of the divisor, x * d, always divides."""
    xs = [LaurentPoly(x) for x, _ in pairs]
    ys = [LaurentPoly(y) for _, y in pairs]
    total = _dict_dot([x for x, _ in pairs], [y for _, y in pairs])
    assert laurent.dot(xs, ys) == LaurentPoly(total)
    if not d:
        with pytest.raises(ZeroDivisionError):
            laurent.dot(xs, ys, ZERO)
        return
    pd = LaurentPoly(d)
    assert laurent.dot([x * pd for x in xs], ys, pd) == LaurentPoly(total)
    oracle = _div_outcome(d_exact_div, total, d)
    packed = _div_outcome(lambda a, b: laurent.dot(a, ys, b).terms, xs, pd)
    assert packed == oracle


def test_dot_zeros_units_and_cancellation():
    p, q = LaurentPoly({-1: 3, 2: -5}), LaurentPoly({0: 2**70, 1: 1})
    dot = laurent.dot
    assert dot((), ()) == ZERO
    assert dot((ZERO, p), (q, ZERO)) == ZERO
    assert dot((ZERO, p), (q, ONE)) == p
    assert dot((T, -T_INV), (p, q)) == T * p - T_INV * q
    # the products cancel: the sum is zero, and so is its quotient
    assert dot((p, -p), (q, q)) == ZERO
    assert dot((p, -p), (q, q), p) == ZERO
    # cancelling low terms leave a value that starts higher
    assert dot((ONE + T, -ONE), (ONE, ONE)) == T
    assert dot((ONE + T, -ONE), (p, p), T) == p
    # a unit divisor is a shift, exact at any width
    assert dot((p, q), (q, p), -T) == (p * q + q * p).exact_div(-T)


def test_dot_wide_slots(monkeypatch):
    """Coefficients past 2^62 run in slots wider than 64 bits, and the
    result is narrowed to its least width."""
    big = LaurentPoly({0: 2**100 + 1, 3: -(2**90)})
    small = LaurentPoly({0: 3, 1: -1})
    out = laurent.dot((big, small), (small, big))
    assert out == LaurentPoly(d_mul(d_mul(big.terms, small.terms), {0: 2}))
    assert out._k == 128
    assert laurent.dot((big, -big), (big, big)) == ZERO
    assert laurent.dot((big,), (small,), small) == big
    # a sum past 2^62 whose quotient fits 64-bit slots comes back narrowed
    q = laurent.dot((big, big), (ONE, ONE), big + big)
    assert q == ONE and q._k == 64
    # loose 64-bit bounds are tightened before any widening: no operand is
    # repacked, and the bounds drop to the exact bits
    a, b = (ONE - T) ** 10, (ONE + T + T**2) ** 8
    assert a._bits + b._bits > 62
    widths = spy_widths(monkeypatch)
    out = laurent.dot((a, b), (b, a))
    assert widths == [] and out._k == 64
    assert (a._bits, b._bits) == (8, 11)
    assert out == LaurentPoly(d_add(d_mul(a.terms, b.terms), d_mul(b.terms, a.terms)))


def test_dot_inexact_divisor_raises():
    p = LaurentPoly({0: 1, 1: 1})
    with pytest.raises(InexactDivisionError):
        laurent.dot((p, ONE), (p, ONE), p)
    with pytest.raises(InexactDivisionError):
        laurent.dot((p,), (LaurentPoly({0: 2**80}),), LaurentPoly({0: 3, 2: 2**70}))
    with pytest.raises(ZeroDivisionError):
        laurent.dot((p,), (p,), ZERO)


def test_dot_too_wide_is_refused_before_building():
    """Two terms 10^9 exponents apart would pack into 64 Gbit: refused
    before any product or shift is taken."""
    far = LaurentPoly({10**9: 1})
    with pytest.raises(LaurentTermError, match="packs into"):
        laurent.dot((ONE, ONE), (ONE, far))
    with pytest.raises(LaurentTermError, match="packs into"):
        laurent.dot((far, ONE), (ONE, ONE), ONE + T)
