import random

import pytest
from conftest import random_word, rep_words
from hypothesis import given, settings
from hypothesis import strategies as st

from vbraid.braidword import relators
from vbraid.errors import LetterError, SizeMismatchError
from vbraid.freegrp import FreeAut, FreeWord, _reduce, aut_apply, aut_compose
from vbraid.reps import aut_rep


def x(i, e=1):
    return FreeWord.generator(i, e)


def identity_aut(n):
    return FreeAut(n, [x(k) for k in range(1, n + 1)])


class TestConcat:
    def test_inverse_pair_cancels(self):
        assert x(1) * x(1, -1) == FreeWord()

    def test_empty_is_identity(self):
        v = FreeWord([(2, -1), (1, 1)])
        assert FreeWord() * v == v
        assert v * FreeWord() == v

    def test_full_cancellation(self):
        u = FreeWord([(2, -1), (1, 1)])
        v = FreeWord([(1, -1), (2, 1)])
        assert u * v == FreeWord()


free_letters = st.tuples(st.integers(1, 3), st.sampled_from((1, -1)))
free_words = st.lists(free_letters, max_size=10).map(FreeWord)


@st.composite
def free_word_pairs(draw):
    """(a, b) at random, or with b = a^-1 c, so that a * b cancels all of a."""
    a, c = draw(free_words), draw(free_words)
    return (a, a.inverse() * c) if draw(st.booleans()) else (a, c)


@given(free_word_pairs())
def test_product_reduces_the_concatenation(pair):
    a, b = pair
    assert (a * b).letters == _reduce(a.letters + b.letters)


@given(free_words)
def test_inverse_reverses_and_negates(w):
    assert w.inverse().letters == tuple((g, -e) for g, e in reversed(w.letters))
    assert (w * w.inverse()).letters == (w.inverse() * w).letters == ()


@settings(max_examples=60, deadline=None)
@given(rep_words(("vb", "bp", "br", "sym"), max_n=7, max_len=40))
def test_aut_images_share_their_letters(w):
    """Images are built from the identity images by inverses and products,
    which reuse letter objects: at most one per generator and sign."""
    images = aut_rep(w).images
    assert len({id(letter) for img in images for letter in img.letters}) <= 2 * w.n


def test_construction_reduces():
    assert FreeWord([(1, 1), (1, -1), (2, 1)]) == x(2)
    assert FreeWord([(1, 1), (2, 1), (2, -1), (1, -1)]) == FreeWord()


def test_bad_letter_raises_letter_error():
    with pytest.raises(LetterError):
        FreeWord([(0, 1)])


def test_reduction_confluence_random():
    rng = random.Random(9)
    for _ in range(300):
        letters = [(rng.randrange(1, 4), rng.choice((1, -1))) for _ in range(12)]
        w = FreeWord(letters)
        # reduce is idempotent
        assert FreeWord(w.letters) == w
        # association order does not matter
        cut = rng.randrange(13)
        left, right = FreeWord(letters[:cut]), FreeWord(letters[cut:])
        assert left * right == w


def sigma_aut(i, n):
    images = [x(k) for k in range(1, n + 1)]
    images[i - 1] = x(i + 1)
    images[i] = x(i + 1, -1) * x(i) * x(i + 1)
    return FreeAut(n, images)


def sigma_inv_aut(i, n):
    images = [x(k) for k in range(1, n + 1)]
    images[i - 1] = x(i) * x(i + 1) * x(i, -1)
    images[i] = x(i)
    return FreeAut(n, images)


def zeta_aut(i, n):
    images = [x(k) for k in range(1, n + 1)]
    images[i - 1] = x(i + 1)
    images[i] = x(i)
    return FreeAut(n, images)


class TestApply:
    def test_sigma_on_xi(self):
        assert aut_apply(sigma_aut(1, 2), x(1)) == x(2)

    def test_sigma_on_xi_plus_one(self):
        expected = FreeWord([(2, -1), (1, 1), (2, 1)])
        assert aut_apply(sigma_aut(1, 2), x(2)) == expected

    def test_identity(self):
        w = FreeWord([(1, 1), (2, -1), (1, 1)])
        assert aut_apply(identity_aut(2), w) == w

    def test_rank_mismatch(self):
        with pytest.raises(SizeMismatchError):
            aut_apply(identity_aut(2), x(3))


def concat_aut_apply(f, w):
    """aut_apply as first written: one FreeWord product per letter, which re-copies
    the accumulated word each time (quadratic in the image length)."""
    out = FreeWord()
    for gen, exp in w.letters:
        img = f.images[gen - 1]
        out = out * (img if exp == 1 else img.inverse())
    return out


def concat_aut_rep(w):
    """aut_rep built from the test's own generator automorphisms and the
    concatenating substitution."""
    acc = identity_aut(w.n)
    for lt in w.letters:
        if lt.kind == "z":
            g = zeta_aut(lt.index, w.n)
        elif lt.exponent == 1:
            g = sigma_aut(lt.index, w.n)
        else:
            g = sigma_inv_aut(lt.index, w.n)
        acc = FreeAut(w.n, [concat_aut_apply(g, img) for img in acc.images])
    return acc


def compose_aut_rep(w):
    """aut_rep as first written: a full generator automorphism per letter,
    composed onto the accumulated one with aut_compose (all n images
    substituted per letter)."""
    acc = identity_aut(w.n)
    for lt in w.letters:
        images = [x(k) for k in range(1, w.n + 1)]
        xi, xi1 = x(lt.index), x(lt.index + 1)
        if lt.kind == "z":
            images[lt.index - 1], images[lt.index] = xi1, xi
        elif lt.exponent == 1:
            images[lt.index - 1], images[lt.index] = xi1, xi1.inverse() * xi * xi1
        else:
            images[lt.index - 1], images[lt.index] = xi * xi1 * xi.inverse(), xi
        acc = aut_compose(FreeAut(w.n, images), acc)
    return acc


@settings(max_examples=60, deadline=None)
@given(rep_words(("vb", "bp", "br", "sym"), max_n=7, max_len=40))
def test_aut_rep_matches_concatenating_substitution(w):
    assert aut_rep(w) == compose_aut_rep(w) == concat_aut_rep(w)


def test_aut_rep_matches_composition_on_relators():
    # every relator side, bare and between seeded random words
    rng = random.Random(15)
    for flavor in ("vb", "bp", "br", "sym"):
        for n in range(2, 11):
            for rel in relators(flavor, n).relators:
                u, v = (random_word(rng, flavor, n, rng.randrange(0, 4)) for _ in range(2))
                for side in (rel.lhs, rel.rhs):
                    assert aut_rep(side) == compose_aut_rep(side), (flavor, n, rel.name)
                    w = u.concat(side).concat(v)
                    assert aut_rep(w) == compose_aut_rep(w), (flavor, n, rel.name)


def test_apply_matches_concatenating_substitution():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randrange(2, 5)
        f = FreeAut(n, [
            FreeWord([(rng.randrange(1, n + 1), rng.choice((1, -1))) for _ in range(5)])
            for _ in range(n)
        ])
        w = FreeWord([(rng.randrange(1, n + 1), rng.choice((1, -1))) for _ in range(8)])
        assert aut_apply(f, w) == concat_aut_apply(f, w)


class TestCompose:
    def test_identity(self):
        f = sigma_aut(1, 3)
        assert aut_compose(f, identity_aut(3)) == f
        assert aut_compose(identity_aut(3), f) == f

    def test_sigma_and_its_inverse(self):
        for n in (2, 3, 4):
            for i in range(1, n):
                f, g = sigma_aut(i, n), sigma_inv_aut(i, n)
                assert aut_compose(f, g) == identity_aut(n)
                assert aut_compose(g, f) == identity_aut(n)

    def test_zeta_involution(self):
        for n in (2, 4):
            for i in range(1, n):
                z = zeta_aut(i, n)
                assert aut_compose(z, z) == identity_aut(n)


def test_apply_distributes_over_concat():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(2, 5)
        f = rng.choice([sigma_aut, sigma_inv_aut, zeta_aut])(rng.randrange(1, n), n)
        u = FreeWord([(rng.randrange(1, n + 1), rng.choice((1, -1))) for _ in range(6)])
        v = FreeWord([(rng.randrange(1, n + 1), rng.choice((1, -1))) for _ in range(6)])
        assert aut_apply(f, u * v) == aut_apply(f, u) * aut_apply(f, v)


def test_bp_relators_hold_in_aut():
    # the defining property of the braid-permutation group inside Aut F_n
    for n in range(2, 8):
        for rel in relators("bp", n).relators:
            assert aut_rep(rel.lhs) == aut_rep(rel.rhs), (n, rel.name)


def test_free_word_text_round_trip():
    w = FreeWord([(1, 1), (2, -1), (1, 1)])
    assert str(w) == "x1 x2^-1 x1"
    assert str(FreeWord()) == "1"
