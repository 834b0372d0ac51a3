import itertools
import random

import pytest
from conftest import aut_naturality, commutation_normal, random_word, word_coherence
from hypothesis import given, settings
from hypothesis import strategies as st

from vbraid import braidword, monoidal
from vbraid.braidword import Flavor, GroupWord, Letter, S, Z, parse_word
from vbraid.errors import FlavorError, SizeMismatchError, StrandCountError
from vbraid.lpmatrix import LPMatrix, block_diag
from vbraid.monoidal import (
    _foata,
    check_coherence,
    check_naturality,
    mu,
    shift,
    sigma_block,
    widen,
    zeta_block,
)
from vbraid.perm import Permutation
from vbraid.reps import aut_rep, burau, perm_proj


class TestShiftWiden:
    def test_shift(self):
        w = parse_word("s1 z2", "vb", 3)
        s = shift(w, 2)
        assert s.n == 5 and s.letters == (S(3), Z(4))

    def test_widen(self):
        w = parse_word("s1", "vb", 2)
        v = widen(w, 4)
        assert v.n == 4 and v.letters == w.letters

    def test_widen_cannot_shrink(self):
        with pytest.raises(SizeMismatchError):
            widen(parse_word("s1", "vb", 3), 2)

    def test_negative_shift(self):
        with pytest.raises(ValueError):
            shift(parse_word("s1", "vb", 2), -1)

    def test_negative_sizes_typed(self):
        with pytest.raises(StrandCountError):
            shift(parse_word("s1", "vb", 2), -1)
        with pytest.raises(StrandCountError):
            zeta_block(-1, 2)
        for sizes in ((-1, 1, 1), (1, -1, 1), (1, 1, -1)):
            with pytest.raises(StrandCountError):
                check_coherence(*sizes)

    def test_letter_table_stays_bounded(self):
        """Shifting one word by 10,000 distinct amounts asks the shared letter
        table for 30,000 distinct letters; it fills up to its bound and no further."""
        w = parse_word("s1 z2 s1^-1", "vb", 3)
        for m in range(10_000):
            shifted = shift(w, m)
        assert shifted.letters == (S(10_000), Z(10_001), S(10_000, -1))
        info = braidword._letter.cache_info()
        assert info.maxsize == 4096
        assert info.currsize <= info.maxsize

    @pytest.mark.parametrize(
        "call",
        [
            lambda w: check_coherence(2.5, 1, 1),
            lambda w: zeta_block(2.0, 1),
            lambda w: check_naturality(2.0, 2, w, w),
            lambda w: zeta_block(True, 2),
            lambda w: shift(w, 1.5),
        ],
        ids=[
            "check_coherence(2.5, 1, 1)",
            "zeta_block(2.0, 1)",
            "check_naturality(2.0, 2, w, w)",
            "zeta_block(True, 2)",
            "shift(w, 1.5)",
        ],
    )
    def test_non_integer_sizes_typed(self, call):
        """A block size or shift amount that is a float or a bool raises
        StrandCountError, not a bare TypeError, and is never accepted."""
        with pytest.raises(StrandCountError):
            call(parse_word("s1", "vb", 2))


class TestMu:
    def test_letters(self):
        w1 = parse_word("s1", "vb", 2)
        w2 = parse_word("z1 s2", "vb", 3)
        paired = mu(w1, w2)
        assert paired.n == 5
        assert paired.letters == (S(1), Z(3), S(4))

    def test_flavor_mismatch(self):
        with pytest.raises(SizeMismatchError):
            mu(parse_word("s1", "vb", 2), parse_word("s1", "bp", 2))

    def test_associative_on_letters(self):
        rng = random.Random(31)
        for _ in range(50):
            ws = [
                random_word(rng, Flavor.VB, rng.randrange(2, 5), rng.randrange(0, 6))
                for _ in range(3)
            ]
            assert mu(mu(ws[0], ws[1]), ws[2]) == mu(ws[0], mu(ws[1], ws[2]))

    def test_burau_is_block_diagonal(self):
        rng = random.Random(32)
        for _ in range(100):
            w1 = random_word(rng, Flavor.VB, rng.randrange(2, 5), rng.randrange(0, 8))
            w2 = random_word(rng, Flavor.VB, rng.randrange(2, 5), rng.randrange(0, 8))
            assert burau(mu(w1, w2)) == block_diag(burau(w1), burau(w2))


class TestBlocks:
    def test_small_zeta_blocks(self):
        assert zeta_block(1, 1).letters == (Z(1),)
        assert zeta_block(2, 1).letters == (Z(2), Z(1))
        assert zeta_block(1, 2).letters == (Z(1), Z(2))
        assert zeta_block(2, 2).letters == (Z(2), Z(1), Z(3), Z(2))

    def test_degenerate_blocks_are_empty(self):
        assert zeta_block(0, 3).letters == ()
        assert zeta_block(3, 0).letters == ()

    def test_sigma_block_same_index_pattern(self):
        for m in range(4):
            for n in range(4):
                zs = zeta_block(m, n)
                ss = sigma_block(m, n)
                assert ss.flavor is Flavor.BR
                assert [lt.index for lt in ss.letters] == [lt.index for lt in zs.letters]

    def test_block_permutation_swaps_blocks(self):
        # the underlying permutation sends the first m strands past the last n
        for m in range(1, 4):
            for n in range(1, 4):
                images = list(range(n + 1, n + m + 1)) + list(range(1, n + 1))
                assert perm_proj(zeta_block(m, n)) == Permutation(images)
                vb = GroupWord(Flavor.VB, m + n, sigma_block(m, n).letters)
                assert perm_proj(vb) == Permutation(images)

    def test_zeta_block_pair_is_identity(self):
        for m in range(0, 5):
            for n in range(0, 5 - m + 1):
                w = zeta_block(m, n).concat(zeta_block(n, m))
                if w.n == 0:
                    continue
                assert perm_proj(w) == Permutation.identity(m + n)
                assert burau(w) == LPMatrix.identity(m + n)
                assert aut_rep(w).is_identity()


class TestNaturality:
    def test_single_generators(self):
        for m in range(2, 4):
            for n in range(2, 4):
                for lt1 in [S(i) for i in range(1, m)] + [Z(i) for i in range(1, m)]:
                    w1 = GroupWord(Flavor.VB, m, [lt1])
                    for lt2 in [S(i) for i in range(1, n)] + [Z(i) for i in range(1, n)]:
                        w2 = GroupWord(Flavor.VB, n, [lt2])
                        assert check_naturality(m, n, w1, w2)

    def test_random_pairs(self):
        rng = random.Random(33)
        for _ in range(60):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 5)
            w1 = random_word(rng, Flavor.VB, m, rng.randrange(0, 6)) if m > 1 else GroupWord(Flavor.VB, 1, [])
            w2 = random_word(rng, Flavor.VB, n, rng.randrange(0, 6)) if n > 1 else GroupWord(Flavor.VB, 1, [])
            assert check_naturality(m, n, w1, w2)

    def test_size_guard(self):
        with pytest.raises(SizeMismatchError):
            check_naturality(3, 2, parse_word("s1", "vb", 2), parse_word("s1", "vb", 2))

    def test_agrees_with_aut_rep_oracle(self):
        rng = random.Random(34)
        for _ in range(150):
            m, n = rng.randrange(1, 6), rng.randrange(1, 6)
            flavor = rng.choice((Flavor.VB, Flavor.BP, Flavor.BR, Flavor.SYM))
            w1, w2 = (
                random_word(rng, flavor, k, rng.randrange(0, 9)) if k > 1 else GroupWord(flavor, 1, [])
                for k in (m, n)
            )
            assert check_naturality(m, n, w1, w2) == aut_naturality(m, n, w1, w2), (m, n, w1, w2)

    def test_key_comparison_is_not_vacuous(self, monkeypatch):
        """With the block swaps taken out of the one block pattern, the two
        sides are mu(w1, w2) and mu(w2, w1), whose Aut images differ: the
        check must then fail."""
        w1, w2 = parse_word("s1", "vb", 2), parse_word("s1 s2", "vb", 3)
        assert check_naturality(2, 3, w1, w2)
        monkeypatch.setattr(monoidal, "_block_indices", lambda m, n: [])
        assert not check_naturality(2, 3, w1, w2)

    @pytest.mark.parametrize(
        "flavor, text1, text2",
        [("sb", "s1", "s1"), ("sg", "s1^-1", "s2"), ("sb", "s1", "a1 s2"), ("sg", "a1^-1", "a2")],
    )
    def test_singular_flavors_raise_flavor_error(self, flavor, text1, text2):
        """sb and sg have no Aut F_n representation: naturality raises
        FlavorError itself, as aut_rep does, whether or not an a letter occurs,
        and not a LetterNotAllowedError about a word the caller never built."""
        w1, w2 = parse_word(text1, flavor, 2), parse_word(text2, flavor, 3)
        with pytest.raises(FlavorError) as raised:
            check_naturality(2, 3, w1, w2)
        with pytest.raises(FlavorError) as by_aut_rep:
            aut_rep(w2)
        assert raised.type is by_aut_rep.type is FlavorError


def test_monoidal_checks_build_no_words(monkeypatch):
    """After one warm-up call, check_coherence and check_naturality construct
    no GroupWord and no Letter: they compute on index lists and on the shared
    generator letters."""
    w1, w2 = parse_word("s1 z2 s1^-1", "vb", 3), parse_word("z1 s2 z3", "vb", 4)
    check_coherence(3, 2, 4)
    check_naturality(3, 4, w1, w2)
    built = {"GroupWord": 0, "Letter": 0}
    for cls in (GroupWord, Letter):

        def counting(self, post_init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    assert check_coherence(3, 2, 4)
    assert check_naturality(3, 4, w1, w2)
    assert built == {"GroupWord": 0, "Letter": 0}
    zeta_block(3, 2)  # the counting does see a public word
    assert built == {"GroupWord": 1, "Letter": 0}


class TestCoherence:
    def test_literal_identities(self):
        # the index-level check and the word-level oracle both hold
        for m in range(6):
            for n in range(6):
                for q in range(6):
                    assert check_coherence(m, n, q) and word_coherence(m, n, q), (m, n, q)


@st.composite
def index_word_pairs(draw):
    """Two words over the indices 1..4. Half of the pairs are a word and the
    word after a few swaps of adjacent letters, distant or not, so that equal
    and unequal pairs both occur; the other half are two independent words."""
    index_words = st.lists(st.integers(1, 4), max_size=8)
    first = draw(index_words)
    if draw(st.booleans()):
        return first, draw(index_words)
    second = list(first)
    if len(second) > 1:
        for p in draw(st.lists(st.integers(0, len(second) - 2), max_size=4)):
            second[p], second[p + 1] = second[p + 1], second[p]
    return first, second


class TestFoata:
    @settings(max_examples=300)
    @given(index_word_pairs())
    def test_equality_agrees_with_greedy_oracle(self, pair):
        a, b = pair
        assert (_foata(a) == _foata(b)) == (commutation_normal(a) == commutation_normal(b))

    def test_agrees_with_greedy_oracle_on_all_short_words(self):
        # equal words are rearrangements of each other, so each word is
        # compared with every rearrangement of it
        for length in range(5):
            for a in itertools.product(range(1, 5), repeat=length):
                for b in set(itertools.permutations(a)):
                    assert (_foata(a) == _foata(b)) == (
                        commutation_normal(a) == commutation_normal(b)
                    ), (a, b)

    def test_distant_and_adjacent_swaps(self):
        # the B2 sides at (m, n, q) = (1, 1, 2): z2 z3 z1 z2 and z2 z1 z3 z2
        assert _foata([2, 3, 1, 2]) == _foata([2, 1, 3, 2])
        assert _foata([1, 3]) == _foata([3, 1])
        assert _foata([1, 2]) != _foata([2, 1])
        assert _foata([1, 2, 1]) != _foata([2, 1, 2])
