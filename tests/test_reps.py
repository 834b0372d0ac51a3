import random
from collections import Counter
from pathlib import Path

import pytest
from conftest import (
    aut_product,
    burau_generator,
    burau_product,
    chained_burau,
    chained_combine,
    dense_burau,
    freeword_aut_images,
    p_compose,
    p_transposition,
    random_word,
    rep_words,
)
from hypothesis import given, settings

from vbraid import reps
from vbraid.braidword import (
    Flavor,
    GroupWord,
    Letter,
    S,
    Z,
    invert_word,
    parse_word,
    relators,
)
from vbraid.errors import FlavorError, ParityError
from vbraid.freegrp import _INVERSE, FreeWord, aut_apply, aut_compose
from vbraid.laurent import ONE, T, T_INV, ZERO, LaurentPoly
from vbraid.lpmatrix import LPMatrix, mat_det, mat_inverse, mat_mul
from vbraid.perm import Permutation
from vbraid.reps import (
    AbelianImage,
    abelianize,
    aut_images,
    aut_key,
    aut_rep,
    burau,
    exp_sum,
    perm_proj,
    to_bp,
    zeta_count,
)

ONE_MINUS_T = ONE - T


def burau_of_letter(lt, n):
    return burau(GroupWord(Flavor.VB, n, [lt]))


class TestBurauGenerator:
    def test_sigma_block_n2(self):
        expected = LPMatrix([[ONE_MINUS_T, T], [ONE, ZERO]])
        assert burau_of_letter(S(1), 2) == expected

    def test_sigma_inverse_block_n2(self):
        expected = LPMatrix([[ZERO, ONE], [T_INV, ONE - T_INV]])
        assert burau_of_letter(S(1, -1), 2) == expected

    def test_zeta_block_n2(self):
        expected = LPMatrix([[ZERO, ONE], [ONE, ZERO]])
        assert burau_of_letter(Z(1), 2) == expected

    def test_padding_at_n4(self):
        m = burau_of_letter(S(2), 4)
        assert m.entries[0][0] == ONE and m.entries[3][3] == ONE
        assert m.entries[1][1] == ONE_MINUS_T
        assert m.entries[1][2] == T
        assert m.entries[2][1] == ONE
        assert m.entries[2][2] == ZERO
        assert m.entries[0][1] == ZERO and m.entries[3][2] == ZERO


class TestBurauWord:
    def test_empty_word(self):
        assert burau(parse_word("", "vb", 3)) == LPMatrix.identity(3)

    def test_single_letter_matches_generator(self):
        for lt in (S(1), S(1, -1), Z(1), S(2), Z(2)):
            assert burau_of_letter(lt, 3) == burau_generator(lt, 3)

    def test_inverse_pair_is_identity(self):
        assert burau(parse_word("s1 s1^-1", "vb", 2)) == LPMatrix.identity(2)
        assert burau(parse_word("z2 z2", "vb", 3)) == LPMatrix.identity(3)

    def test_antihomomorphism_order(self):
        # leftmost letter acts first: burau(u v) = burau(v) * burau(u)
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randrange(2, 6)
            u = random_word(rng, Flavor.VB, n, rng.randrange(0, 8))
            v = random_word(rng, Flavor.VB, n, rng.randrange(0, 8))
            assert burau(u.concat(v)) == mat_mul(burau(v), burau(u))

    def test_braid_permutation_relation_holds(self):
        lhs = parse_word("s1 s2 z1", "bp", 3)
        rhs = parse_word("z2 s1 s2", "bp", 3)
        assert burau(lhs) == burau(rhs)

    def test_monoid_flavors_rejected(self):
        with pytest.raises(FlavorError):
            burau(parse_word("a1", "sb", 2))
        with pytest.raises(FlavorError):
            burau(parse_word("a1", "sg", 2))


REP_FLAVORS = ("vb", "bp", "br", "sym")


@settings(max_examples=80, deadline=None)
@given(rep_words(REP_FLAVORS, max_n=12, max_len=20))
def test_burau_matches_dense_rows_and_generator_product(w):
    m = burau(w)
    assert m == dense_burau(w)
    assert m == burau_product(w)


@settings(max_examples=60, deadline=None)
@given(rep_words(REP_FLAVORS, max_n=9, max_len=60))
def test_burau_matches_chained_combine(w):
    """burau_rows' shared-column sums, one `dot` each, are those of the
    chained `out[c] + b * e` loop, however long the word."""
    assert burau(w) == chained_burau(w)


def test_combine_matches_chained_loop_on_wide_and_cancelling_rows():
    rng = random.Random(27)
    entries = [ONE, T, -T_INV, LaurentPoly({0: 2**80, 2: -3}), LaurentPoly({-1: 5, 1: 2**63})]
    for _ in range(200):
        ra = {c: rng.choice(entries) for c in rng.sample(range(6), rng.randrange(1, 6))}
        rb = {c: rng.choice(entries) for c in rng.sample(range(6), rng.randrange(1, 6))}
        a, b = rng.choice(entries), rng.choice(entries)
        assert reps._combine(a, ra, b, rb) == chained_combine(a, ra, b, rb)
    # the shared column cancels and is dropped
    assert reps._combine(T, {0: ONE, 1: T}, -ONE, {0: T}) == {1: T * T}


@settings(max_examples=40, deadline=None)
@given(rep_words(REP_FLAVORS, max_n=12, max_len=12, far_end=True))
def test_burau_far_end_letters(w):
    m = burau(w)
    assert m == dense_burau(w) == burau_product(w)
    assert m.entries[: w.n - 2] == LPMatrix.identity(w.n).entries[: w.n - 2]


@settings(max_examples=40, deadline=None)
@given(rep_words(REP_FLAVORS, max_n=12, max_len=8, cancelling=True))
def test_burau_rows_cancel_back_to_identity(w):
    assert burau(w) == dense_burau(w) == LPMatrix.identity(w.n)
    assert aut_rep(w).is_identity()


@pytest.mark.parametrize("flavor", REP_FLAVORS)
def test_empty_word_images_are_identities(flavor):
    for n in (0, 1, 2, 12):
        w = GroupWord(flavor, n)
        assert burau(w) == dense_burau(w) == LPMatrix.identity(n)
        assert aut_rep(w) == aut_product(w) and aut_rep(w).is_identity()


@settings(max_examples=60, deadline=None)
@given(rep_words(REP_FLAVORS, max_n=12, max_len=10))
def test_aut_rep_matches_fresh_generator_product(w):
    assert aut_rep(w) == aut_product(w)


@settings(max_examples=30, deadline=None)
@given(rep_words(REP_FLAVORS, max_n=12, max_len=10, far_end=True))
def test_aut_rep_far_end_letters(w):
    assert aut_rep(w) == aut_product(w)


def assert_aut_images_match_oracle(w):
    """aut_images' letter tuples are the FreeWord oracle's images, letter for
    letter and built of the letters _INVERSE keeps, and aut_key keeps exactly
    the images that are not the generator itself."""
    got, want = aut_images(w.letters, w.n), freeword_aut_images(w)
    assert got == {i: img.letters for i, img in want.items()}, w
    assert all(letter is _INVERSE[_INVERSE[letter]] for img in got.values() for letter in img)
    moved = {i: img.letters for i, img in want.items() if img != FreeWord.generator(i + 1)}
    assert aut_key(w.letters, w.n) == moved, w


@pytest.mark.parametrize("flavor", REP_FLAVORS)
def test_aut_images_match_oracle_on_relator_sides(flavor):
    for n in range(2, 11):
        for rel in relators(flavor, n).relators:
            assert_aut_images_match_oracle(rel.lhs)
            assert_aut_images_match_oracle(rel.rhs)


@pytest.mark.parametrize("seed", [1, 31415926])
def test_aut_images_match_oracle_on_invariants_words(seed, monkeypatch):
    """The aut words of the benchmark's invariants workload at the seed."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import ref
    import workloads

    specs = workloads.Invariants().generate(random.Random(f"invariants:{seed}"))
    words = [parse_word(ref.word_text(s["word"]), s["flavor"], s["n"]) for s in specs if s["aut"]]
    assert words
    for w in words:
        assert_aut_images_match_oracle(w)


def test_work_does_not_grow_with_untouched_strands(monkeypatch):
    """burau and aut_rep of a 3-letter word do the same work at n = 5 and n = 200:
    the same number of Laurent products, of free-group products and of checked
    FreeWord constructions."""
    calls = Counter()
    mul, post_init = LaurentPoly.__mul__, FreeWord.__post_init__
    mul_letters = reps.mul_letters

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counting_mul_letters(a, b):
        calls["mul_letters"] += 1
        return mul_letters(a, b)

    def counting_post_init(self):
        calls["post_init"] += 1
        post_init(self)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    monkeypatch.setattr(reps, "mul_letters", counting_mul_letters)
    monkeypatch.setattr(FreeWord, "__post_init__", counting_post_init)
    work = {}
    for n in (5, 200):
        w = parse_word("s2 z3 s2^-1", "vb", n)
        calls.clear()
        burau(w)
        products = calls["mul"]
        calls.clear()
        aut_rep(w)
        work[n] = (products, calls["mul_letters"], calls["post_init"])
    assert work[5][0] > 0 and work[5][1] > 0
    assert work[5] == work[200]


class TestDeterminantLaw:
    def test_generators(self):
        for n in range(2, 8):
            for i in range(1, n):
                assert mat_det(burau_of_letter(S(i), n)) == LaurentPoly({1: -1})
                assert mat_det(burau_of_letter(Z(i), n)) == LaurentPoly({0: -1})

    def test_random_words(self):
        rng = random.Random(22)
        minus_t = LaurentPoly({1: -1})
        minus_one = LaurentPoly({0: -1})
        for _ in range(150):
            n = rng.randrange(2, 7)
            w = random_word(rng, Flavor.VB, n, rng.randrange(0, 25))
            expected = minus_t ** exp_sum(w) * minus_one ** zeta_count(w)
            assert mat_det(burau(w)) == expected


@settings(max_examples=60, deadline=None)
@given(rep_words(("vb", "bp", "br"), max_n=6, max_len=30))
def test_burau_det_closed_form_and_inverse(w):
    expected = LaurentPoly({1: -1}) ** exp_sum(w) * LaurentPoly({0: -1}) ** zeta_count(w)
    m = burau(w)
    assert mat_det(m) == expected
    assert mat_inverse(m) == burau(invert_word(w))


class TestAutRep:
    def test_sigma_images(self):
        f = aut_rep(parse_word("s1", "vb", 2))
        assert aut_apply(f, FreeWord.generator(1)) == FreeWord.generator(2)
        conj = FreeWord([(2, -1), (1, 1), (2, 1)])
        assert aut_apply(f, FreeWord.generator(2)) == conj

    def test_zeta_images(self):
        f = aut_rep(parse_word("z1", "vb", 3))
        assert aut_apply(f, FreeWord.generator(1)) == FreeWord.generator(2)
        assert aut_apply(f, FreeWord.generator(2)) == FreeWord.generator(1)
        assert aut_apply(f, FreeWord.generator(3)) == FreeWord.generator(3)

    def test_sigma_inverse(self):
        f = aut_rep(parse_word("s1 s1^-1", "vb", 2))
        assert f.is_identity()

    def test_antihomomorphism_order(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randrange(2, 5)
            u = random_word(rng, Flavor.VB, n, rng.randrange(0, 6))
            v = random_word(rng, Flavor.VB, n, rng.randrange(0, 6))
            assert aut_rep(u.concat(v)) == aut_compose(aut_rep(v), aut_rep(u))

    def test_permutes_conjugacy_classes_of_generators(self):
        # every generator image is a conjugate of a generator (BP property)
        rng = random.Random(24)
        for _ in range(40):
            n = rng.randrange(2, 5)
            w = random_word(rng, Flavor.VB, n, rng.randrange(0, 8))
            f = aut_rep(w)
            for k in range(1, n + 1):
                img = aut_apply(f, FreeWord.generator(k))
                core = [(g, e) for g, e in img.letters]
                # peel conjugation: u x u^-1 has odd length with the
                # generator in the exact middle
                mid = core[len(core) // 2]
                assert len(core) % 2 == 1
                assert mid[1] == 1
                left = core[: len(core) // 2]
                right = core[len(core) // 2 + 1 :]
                inv_right = [(g, -e) for g, e in reversed(right)]
                assert left == inv_right


class TestPermProj:
    def test_single_sigma(self):
        assert perm_proj(parse_word("s1", "vb", 2)) == Permutation([2, 1])

    def test_leftmost_first(self):
        # s1 then s2: 1 -> 2 -> 3, so the image is [3, 1, 2]
        assert perm_proj(parse_word("s1 s2", "vb", 3)) == Permutation([3, 1, 2])

    def test_exponent_blind(self):
        assert perm_proj(parse_word("s1^-1", "vb", 2)) == Permutation([2, 1])

    def test_virtual_letters_count(self):
        assert perm_proj(parse_word("z1 s2", "vb", 3)) == Permutation([3, 1, 2])

    def test_symmetric_group_section(self):
        # words in virtual letters only: perm_proj of the inclusion into VB_n
        # equals direct evaluation of the transposition product
        rng = random.Random(25)
        for _ in range(200):
            n = rng.randrange(2, 8)
            indices = [rng.randrange(1, n) for _ in range(rng.randrange(0, 12))]
            w = GroupWord(Flavor.VB, n, [Z(i) for i in indices])
            direct = Permutation.identity(n)
            for i in indices:
                direct = p_compose(p_transposition(i, n), direct)
            assert perm_proj(w) == direct


class TestAbelianize:
    def test_values(self):
        w = parse_word("s1 z1 s2^-1 s1 z2", "vb", 3)
        assert abelianize(w) == AbelianImage(zeta_parity=0, sigma_sum=1)

    def test_homomorphism(self):
        rng = random.Random(26)
        for _ in range(300):
            n = rng.randrange(2, 6)
            u = random_word(rng, Flavor.VB, n, rng.randrange(0, 12))
            v = random_word(rng, Flavor.VB, n, rng.randrange(0, 12))
            a, b, ab = abelianize(u), abelianize(v), abelianize(u.concat(v))
            assert ab.zeta_parity == (a.zeta_parity + b.zeta_parity) % 2
            assert ab.sigma_sum == a.sigma_sum + b.sigma_sum

    def test_t_degree_of_det_is_exp_sum(self):
        rng = random.Random(27)
        for _ in range(100):
            n = rng.randrange(2, 6)
            w = random_word(rng, Flavor.VB, n, rng.randrange(0, 20))
            d = mat_det(burau(w))
            assert list(d.terms) == [exp_sum(w)]

    def test_flavor_guard(self):
        with pytest.raises(FlavorError):
            abelianize(parse_word("s1", "br", 2))

    def test_parity_out_of_range(self):
        with pytest.raises(ParityError):
            AbelianImage(2, 0)

    def test_json_shape(self):
        assert abelianize(parse_word("z1", "vb", 2)).to_json_obj() == {
            "zeta_parity": 1,
            "sigma_sum": 0,
        }


class TestToBp:
    def test_reinterprets_letters(self):
        w = parse_word("s1 z2", "vb", 3)
        b = to_bp(w)
        assert b.flavor is Flavor.BP and b.letters == w.letters

    def test_compatible_with_all_maps(self):
        rng = random.Random(28)
        for _ in range(60):
            n = rng.randrange(2, 6)
            w = random_word(rng, Flavor.VB, n, rng.randrange(0, 10))
            b = to_bp(w)
            assert burau(w) == burau(b)
            assert aut_rep(w) == aut_rep(b)
            assert perm_proj(w) == perm_proj(b)
            assert abelianize(w) == abelianize(b)

    def test_rejects_non_vb(self):
        with pytest.raises(FlavorError):
            to_bp(parse_word("s1", "bp", 2))


def test_all_relators_collapse_under_all_maps():
    for flavor in (Flavor.VB, Flavor.BP):
        for n in range(2, 6):
            for rel in relators(flavor, n).relators:
                assert burau(rel.lhs) == burau(rel.rhs), (flavor, n, rel.name)
                assert perm_proj(rel.lhs) == perm_proj(rel.rhs)
                assert exp_sum(rel.lhs) == exp_sum(rel.rhs)
                assert abelianize(rel.lhs) == abelianize(rel.rhs)


def test_exp_sum_and_zeta_count():
    w = parse_word("s1 s1^-1 z1 s2 z2", "vb", 3)
    assert exp_sum(w) == 1
    assert zeta_count(w) == 2
