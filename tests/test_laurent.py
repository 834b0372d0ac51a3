import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vbraid.errors import InexactDivisionError
from vbraid.laurent import ONE, T, T_INV, ZERO, LaurentPoly


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
    ):
        with pytest.raises(ValueError):
            a.exact_div(b)


def test_inexact_division_raises_typed_error():
    with pytest.raises(InexactDivisionError):
        ONE.exact_div(ONE - T)


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
