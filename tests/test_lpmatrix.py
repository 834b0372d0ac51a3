import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    burau_generator,
    chained_bareiss,
    chained_det,
    chained_inverse,
    chained_mat_mul,
    gauss_jordan_inverse,
    random_word,
    rep_words,
)

from vbraid.braidword import Flavor, GroupWord, Letter, invert_word
from vbraid.errors import (
    DimensionMismatchError,
    LaurentTermError,
    NonUnitDeterminantError,
    ShapeError,
    StrandCountError,
)
from vbraid.laurent import ONE, T, T_INV, ZERO, LaurentPoly
from vbraid.lpmatrix import (
    LPMatrix,
    _bareiss,
    block_diag,
    identity_rows,
    mat_det,
    mat_inverse,
    mat_mul,
)
from vbraid.reps import burau, exp_sum, zeta_count

ONE_MINUS_T = ONE - T


def sigma1_2x2():
    return LPMatrix([[ONE_MINUS_T, T], [ONE, ZERO]])


def zeta1_2x2():
    return LPMatrix([[ZERO, ONE], [ONE, ZERO]])


class TestMul:
    def test_identity(self):
        m = sigma1_2x2()
        assert mat_mul(LPMatrix.identity(2), m) == m

    def test_zeta_squared_is_identity(self):
        z = zeta1_2x2()
        assert mat_mul(z, z) == LPMatrix.identity(2)

    def test_inverse_pair(self):
        s = sigma1_2x2()
        s_inv = burau_generator(Letter("s", 1, -1), 2)
        assert mat_mul(s, s_inv) == LPMatrix.identity(2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mat_mul(LPMatrix.identity(2), LPMatrix.identity(3))


class TestDet:
    def test_sigma_block(self):
        # cofactor expansion by hand: (1-t)*0 - t*1 = -t
        assert mat_det(sigma1_2x2()) == LaurentPoly({1: -1})

    def test_zeta_block(self):
        assert mat_det(zeta1_2x2()) == LaurentPoly({0: -1})

    def test_identity(self):
        for n in range(1, 6):
            assert mat_det(LPMatrix.identity(n)) == ONE

    def test_singular(self):
        m = LPMatrix([[ONE_MINUS_T, T], [ONE_MINUS_T, T]])
        assert mat_det(m) == ZERO

    def test_multiplicative_on_random_unit_det_matrices(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randrange(2, 6)
            a = _random_burau_product(rng, n)
            b = _random_burau_product(rng, n)
            assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


def subset_dp_det(a):
    """Reference determinant: Laplace expansion memoized over column subsets.

    minors[mask] is the determinant of rows 0..k-1 restricted to the columns
    in mask; about n * 2^n ring operations and no division.
    """
    n = a.n
    minors = {0: ONE}
    for k in range(n):
        row = a.entries[k]
        new = {}
        for mask, sub in minors.items():
            if not sub:
                continue
            # expanding along local row k: entry sign is (-1)^(k + local column)
            sign = 1 if k % 2 == 0 else -1
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    sign = -sign
                    continue
                if row[j]:
                    term = sub * row[j] if sign > 0 else -(sub * row[j])
                    new[mask | bit] = new.get(mask | bit, ZERO) + term
        minors = new
    return minors.get((1 << n) - 1, ZERO)


def _random_poly(rng):
    return LaurentPoly(
        {rng.randrange(-2, 3): rng.randrange(-3, 4) for _ in range(rng.randrange(3))}
    )


def _random_matrix(rng, n, kind):
    if kind == "unit":
        # a Burau product with its rows permuted and scaled by units
        m = _random_burau_product(rng, n, length=8) if n > 1 else LPMatrix([[T]])
        rows = list(m.entries)
        rng.shuffle(rows)
        units = [LaurentPoly({rng.randrange(-2, 3): rng.choice((1, -1))}) for _ in rows]
        return LPMatrix([[e * u for e in row] for row, u in zip(rows, units)])
    rows = [[_random_poly(rng) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        # the last row a combination of earlier rows, or zero when there are none
        a, b = _random_poly(rng), _random_poly(rng)
        x, y = rows[0], rows[max(n - 2, 0)]
        rows[-1] = [a * p + b * q for p, q in zip(x, y)] if n > 1 else [ZERO]
    return LPMatrix(rows)


@pytest.mark.parametrize("kind", ["unit", "nonunit", "singular"])
def test_det_matches_subset_dp(kind):
    rng = random.Random(f"det:{kind}")
    for n in range(1, 8):
        for _ in range(12 if n < 6 else 4):
            m = _random_matrix(rng, n, kind)
            d = mat_det(m)
            assert d == subset_dp_det(m), (kind, n)
            if kind == "unit":
                assert d.is_unit() is not None
            if kind == "singular":
                assert d == ZERO


def test_det_closed_form_at_n24():
    # det Burau(w) = (-t)^exp_sum * (-1)^zeta_count, far past the subset DP's reach
    rng = random.Random(24)
    for _ in range(3):
        w = random_word(rng, Flavor.VB, 24, 60)
        expected = LaurentPoly({exp_sum(w): (-1) ** (exp_sum(w) + zeta_count(w))})
        assert mat_det(burau(w)) == expected


def _random_burau_product(rng, n, length=6):
    m = LPMatrix.identity(n)
    for _ in range(length):
        kind = rng.choice("sz")
        lt = Letter(kind, rng.randrange(1, n), rng.choice((1, -1)) if kind == "s" else 1)
        m = mat_mul(m, burau_generator(lt, n))
    return m


class TestInverse:
    def test_burau_sigma_inverse(self):
        # adjugate over det, then checked against the explicit block
        expected = LPMatrix([[ZERO, ONE], [T_INV, ONE - T_INV]])
        assert mat_inverse(sigma1_2x2()) == expected

    def test_identity(self):
        for n in (1, 2, 4):
            assert mat_inverse(LPMatrix.identity(n)) == LPMatrix.identity(n)

    def test_singular_raises(self):
        m = LPMatrix([[ONE_MINUS_T, T], [ONE_MINUS_T, T]])
        with pytest.raises(NonUnitDeterminantError):
            mat_inverse(m)

    def test_non_unit_determinant_raises(self):
        for m in (LPMatrix([[ONE + T]]), LPMatrix([[ONE, T], [T, ONE]])):
            with pytest.raises(NonUnitDeterminantError):
                mat_inverse(m)

    def test_non_unit_determinant_message_stays_short(self):
        with pytest.raises(NonUnitDeterminantError, match=r"^determinant 1 \+ 1\*t\^1 is not a unit"):
            mat_inverse(LPMatrix([[ONE + T]]))
        with pytest.raises(NonUnitDeterminantError) as info:
            mat_inverse(LPMatrix([[LaurentPoly({0: 10**100000})]]))
        assert len(str(info.value)) < 500

    @pytest.mark.parametrize("n", [8, 12])
    def test_burau_inverse_is_burau_of_inverse_word(self, n):
        rng = random.Random(n)
        for _ in range(3):
            w = random_word(rng, Flavor.VB, n, 40)
            assert mat_inverse(burau(w)) == burau(invert_word(w))

    def test_left_and_right_inverse_on_random(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(2, 5)
            a = _random_burau_product(rng, n)
            inv = mat_inverse(a)
            assert mat_mul(a, inv) == LPMatrix.identity(n)
            assert mat_mul(inv, a) == LPMatrix.identity(n)


small_polys = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3).map(LaurentPoly)


@st.composite
def unit_det_matrices(draw, max_n=6):
    """Products of elementary matrices I + c e_ij with Laurent c, rows then
    scaled by units +-t^e and permuted: the determinant is a unit, and the
    matrix is in general no Burau matrix."""
    n = draw(st.integers(1, max_n))
    rows = [list(row) for row in identity_rows(n)]
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), small_polys)
    for i, j, c in draw(st.lists(steps, max_size=12)):
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    unit = st.builds(lambda e, s: LaurentPoly({e: s}), st.integers(-2, 2), st.sampled_from((1, -1)))
    units = draw(st.lists(unit, min_size=n, max_size=n))
    scaled = [[e * u for e in row] for row, u in zip(rows, units)]
    return LPMatrix([scaled[i] for i in draw(st.permutations(range(n)))])


@settings(max_examples=60, deadline=None)
@given(rep_words(("vb", "bp", "br"), max_n=8, max_len=30))
def test_inverse_matches_gauss_jordan_on_burau(w):
    b = burau(w)
    assert mat_inverse(b) == gauss_jordan_inverse(b)


@settings(max_examples=80, deadline=None)
@given(unit_det_matrices())
def test_inverse_matches_gauss_jordan_on_unit_det_products(m):
    inv = mat_inverse(m)
    assert inv == gauss_jordan_inverse(m)
    assert mat_mul(m, inv) == LPMatrix.identity(m.n)


@settings(max_examples=80, deadline=None)
@given(unit_det_matrices(), st.integers(0, 5), small_polys, st.booleans())
def test_inverse_refuses_singular_and_non_unit_determinants(m, r, c, singular):
    """Row r becomes c times another row, or zero (singular), or c times
    itself for a c that is no unit (determinant c times a unit)."""
    n = m.n
    rows = [list(row) for row in m.entries]
    i = r % n
    if singular:
        rows[i] = [c * e for e in rows[(i + 1) % n]] if n > 1 else [ZERO]
    elif c and c.is_unit() is None:
        rows[i] = [c * e for e in rows[i]]
    else:
        return
    bad = LPMatrix(rows)
    assert mat_det(bad).is_unit() is None
    for invert in (mat_inverse, gauss_jordan_inverse):
        with pytest.raises(NonUnitDeterminantError):
            invert(bad)


def test_det_and_inverse_with_wide_coefficients():
    """A unipotent matrix whose entries have ~100-bit coefficients, so the
    elimination runs on slots wider than 64 bits: det 1 and an exact inverse."""
    rng = random.Random(11)
    n = 4

    def entry():
        return LaurentPoly({e: rng.randrange(-(2**100), 2**100) for e in range(-1, 2)})

    lower = LPMatrix([[ONE if i == j else entry() if j < i else ZERO for j in range(n)]
                      for i in range(n)])
    upper = LPMatrix([[ONE if i == j else entry() if j > i else ZERO for j in range(n)]
                      for i in range(n)])
    m = mat_mul(lower, upper)
    assert m == chained_mat_mul(lower, upper)
    assert mat_det(m) == ONE
    assert subset_dp_det(m) == ONE
    assert mat_inverse(m) == chained_inverse(m)
    assert mat_mul(m, mat_inverse(m)) == LPMatrix.identity(n)
    assert mat_mul(mat_inverse(m), m) == LPMatrix.identity(n)



# The matrix layer against the chained loops that `laurent.dot` replaced


@settings(max_examples=60, deadline=None)
@given(rep_words(("vb", "bp", "br"), max_n=8, max_len=40))
def test_matrix_layer_matches_chained_loops_on_burau(w):
    b = burau(w)
    inv = mat_inverse(b)
    assert mat_det(b) == chained_det(b)
    assert inv == chained_inverse(b)
    assert mat_mul(b, inv) == chained_mat_mul(b, inv) == LPMatrix.identity(w.n)


@settings(max_examples=80, deadline=None)
@given(unit_det_matrices())
def test_matrix_layer_matches_chained_loops_on_unit_det_products(m):
    inv = mat_inverse(m)
    assert mat_det(m) == chained_det(m)
    assert inv == chained_inverse(m)
    assert mat_mul(inv, m) == chained_mat_mul(inv, m)


@pytest.mark.parametrize("kind", ["unit", "nonunit", "singular"])
def test_bareiss_rows_match_chained_loop(kind):
    """Every entry _bareiss leaves in [A | I], stale ones included, is the
    chained loop's, and so is the product of two random matrices."""
    rng = random.Random(f"bareiss:{kind}")
    for n in range(1, 7):
        for _ in range(6):
            m = _random_matrix(rng, n, kind)
            rows = [[*row, *unit] for row, unit in zip(m.entries, identity_rows(n))]
            chained = [list(row) for row in rows]
            assert _bareiss(rows) == chained_bareiss(chained)
            assert rows == chained
            other = _random_matrix(rng, n, "nonunit")
            assert mat_mul(m, other) == chained_mat_mul(m, other)


class TestBlockDiag:
    def test_identities(self):
        assert block_diag(LPMatrix.identity(2), LPMatrix.identity(3)) == LPMatrix.identity(5)

    def test_right_padding_matches_generator(self):
        # s_1 in 2 strands padded below-right equals s_1 in 3 strands
        s1_vb2 = burau_generator(Letter("s", 1), 2)
        assert block_diag(s1_vb2, LPMatrix.identity(1)) == burau_generator(
            Letter("s", 1), 3
        )

    def test_left_padding_matches_generator(self):
        s1_vb2 = burau_generator(Letter("s", 1), 2)
        assert block_diag(LPMatrix.identity(1), s1_vb2) == burau_generator(
            Letter("s", 2), 3
        )

    def test_associative(self):
        rng = random.Random(11)
        a = _random_burau_product(rng, 2)
        b = _random_burau_product(rng, 3)
        c = _random_burau_product(rng, 2)
        assert block_diag(block_diag(a, b), c) == block_diag(a, block_diag(b, c))


def test_json_round_trip():
    m = sigma1_2x2()
    assert LPMatrix.from_json(m.to_json()) == m
    # a Burau matrix of 40 positive letters on 7 strands, as in the benchmark
    rng = random.Random(7)
    for flavor in ("vb", "bp", "br"):
        kinds = "s" if flavor == "br" else "sz"
        letters = [Letter(rng.choice(kinds), rng.randrange(1, 7)) for _ in range(40)]
        w = GroupWord(flavor, 7, letters)
        b = burau(w)
        assert LPMatrix.from_json(b.to_json()) == b


def test_json_round_trip_with_5000_digit_coefficients():
    big = 10**5000 + 7  # past the interpreter's default limit of 4300 digits
    m = LPMatrix([[LaurentPoly({0: big, 2: -1}), ZERO], [ONE, LaurentPoly({-1: -big})]])
    assert LPMatrix.from_json(m.to_json()) == m
    assert repr(m).startswith("LPMatrix([['1" + "0" * 4999 + "7 + -1*t^2', '0']")


def test_json_sparse_entries_refused_past_the_matrix_budget(monkeypatch):
    """461 bytes of JSON ask for 16 entries of MAX_PACKED_BITS each; the fifth
    passes the 4 x MAX_PACKED_BITS budget and raises before the rest are built."""
    text = json.dumps({"n": 4, "entries": [[{"0": "1", "262143": "1"}] * 4] * 4})
    assert len(text) == 461
    decoded = []
    decode = LaurentPoly.from_json_obj
    monkeypatch.setattr(
        LaurentPoly, "from_json_obj", lambda obj: decoded.append(obj) or decode(obj)
    )
    with pytest.raises(LaurentTermError, match="matrix entries"):
        LPMatrix.from_json(text)
    assert len(decoded) == 5


# each: a decoder, its malformed JSON text, the typed error it must raise
ONE_ENTRY = '"entries": [[{"0": "1"}]]'
MALFORMED_JSON = [
    (LPMatrix.from_json, "{" + ONE_ENTRY + "}", ShapeError),  # no "n"
    (LPMatrix.from_json, '{"n": 1}', ShapeError),  # no "entries"
    (LPMatrix.from_json, '{"n": 1, "entries": 5}', ShapeError),
    (LPMatrix.from_json, '{"n": 1, "entries": [5]}', ShapeError),  # a row not a list
    (LPMatrix.from_json, '{"n": 1, "entries": [[5]]}', ShapeError),  # an entry not an object
    (LPMatrix.from_json, "[1]", ShapeError),
    (LPMatrix.from_json, "5", ShapeError),
    (LPMatrix.from_json, '"x"', ShapeError),
    (LPMatrix.from_json, '{"n": 1.0, ' + ONE_ENTRY + "}", StrandCountError),
    (LPMatrix.from_json, '{"n": "1", ' + ONE_ENTRY + "}", StrandCountError),
    (LPMatrix.from_json, '{"n": true, ' + ONE_ENTRY + "}", StrandCountError),
    (LaurentPoly.from_json, "[1]", ShapeError),
    (LaurentPoly.from_json, "5", ShapeError),
    (LaurentPoly.from_json, '"x"', ShapeError),
    (LPMatrix.from_json, "{", ShapeError),  # not JSON at all
    (LaurentPoly.from_json, "{", ShapeError),
]


@pytest.mark.parametrize(
    "decode, text, error",
    MALFORMED_JSON,
    ids=[f"{decode.__self__.__name__}:{text}" for decode, text, _ in MALFORMED_JSON],
)
def test_malformed_json_raises_typed_errors(decode, text, error):
    with pytest.raises(error) as raised:
        decode(text)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        # the parser's own error is not chained onto the typed one
        assert raised.value.__suppress_context__
        return
    with pytest.raises(error):
        decode.__self__.from_json_obj(obj)


def test_non_square_rejected():
    with pytest.raises(DimensionMismatchError):
        LPMatrix([[ONE, ZERO]])
