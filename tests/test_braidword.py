import random

import pytest
from conftest import random_word

from vbraid.braidword import (
    Flavor,
    GroupWord,
    Letter,
    S,
    Z,
    bfs_equal,
    free_reduce,
    invert_word,
    parse_word,
    relators,
    replay_witness,
    rewrite_rules,
)
from vbraid.errors import (
    FlavorError,
    IndexOutOfRangeError,
    InverseNotAllowedError,
    LetterNotAllowedError,
    MonoidHasNoInversesError,
    SizeMismatchError,
    WordSyntaxError,
)


class TestParse:
    def test_basic(self):
        w = parse_word("s1 s2^-1 z1", "vb", 3)
        assert w.letters == (S(1), S(2, -1), Z(1))

    def test_zeta_inverse_normalized(self):
        assert parse_word("z1^-1", "vb", 2).letters == (Z(1),)

    def test_monoid_inverse_rejected(self):
        with pytest.raises(InverseNotAllowedError):
            parse_word("a1^-1", "sb", 2)

    def test_sg_allows_a_inverse(self):
        w = parse_word("a1^-1", "sg", 2)
        assert w.letters == (Letter("a", 1, -1),)

    def test_syntax_error_reports_position(self):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("s1 q9", "vb", 3)
        assert exc.value.position == 3

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            parse_word("s3", "vb", 3)

    def test_kind_not_in_flavor(self):
        with pytest.raises(LetterNotAllowedError):
            parse_word("z1", "br", 3)
        with pytest.raises(LetterNotAllowedError):
            parse_word("a1", "vb", 3)

    def test_empty(self):
        assert parse_word("", "vb", 2).letters == ()


class TestFreeReduce:
    def test_sigma_pair(self):
        assert free_reduce(parse_word("s1 s1^-1", "vb", 2)).letters == ()

    def test_zeta_pair(self):
        assert free_reduce(parse_word("z1 z1", "vb", 2)).letters == ()

    def test_nested(self):
        assert free_reduce(parse_word("z1 s2 s2^-1 z1", "vb", 3)).letters == ()

    def test_monoid_a_letters_never_cancel(self):
        w = parse_word("a1 a1", "sb", 2)
        assert free_reduce(w) == w

    def test_sg_a_pair_cancels(self):
        assert free_reduce(parse_word("a1 a1^-1", "sg", 2)).letters == ()

    def test_idempotent_and_length_nonincreasing(self):
        rng = random.Random(12)
        for _ in range(300):
            flavor = rng.choice(list(Flavor))
            n = rng.randrange(2, 6)
            w = random_word(rng, flavor, n, rng.randrange(0, 15))
            r = free_reduce(w)
            assert len(r) <= len(w)
            assert free_reduce(r) == r


class TestRelators:
    def test_vb3_contains_mixed(self):
        pres = relators("vb", 3)
        pairs = {(r.lhs.letters, r.rhs.letters) for r in pres.relators}
        assert ((Z(1), Z(2), S(1)), (S(2), Z(1), Z(2))) in pairs

    def test_vb3_excludes_forbidden_move(self):
        pres = relators("vb", 3)
        pairs = {(r.lhs.letters, r.rhs.letters) for r in pres.relators}
        forbidden = ((S(1), S(2), Z(1)), (Z(2), S(1), S(2)))
        assert forbidden not in pairs
        assert (forbidden[1], forbidden[0]) not in pairs

    def test_bp3_contains_forbidden_shape(self):
        pres = relators("bp", 3)
        pairs = {(r.lhs.letters, r.rhs.letters) for r in pres.relators}
        assert ((S(1), S(2), Z(1)), (Z(2), S(1), S(2))) in pairs

    @pytest.mark.parametrize("n", range(2, 8))
    def test_vb_schema_counts(self, n):
        pres = relators("vb", n)
        by_schema = {}
        for rel in pres.relators:
            by_schema.setdefault(rel.name.split(":")[0], []).append(rel)
        far = (n - 2) * (n - 3) // 2 if n >= 4 else 0  # index pairs with |i-j| > 1
        assert len(by_schema["zeta_sq"]) == n - 1
        assert len(by_schema.get("zeta_braid", ())) == n - 2
        assert len(by_schema.get("zeta_comm", ())) == far
        assert len(by_schema.get("sigma_comm", ())) == far
        assert len(by_schema.get("sigma_braid", ())) == n - 2
        assert len(by_schema.get("mixed_comm", ())) == 2 * far
        assert len(by_schema.get("mixed_zzs", ())) == n - 2

    @pytest.mark.parametrize("n", range(2, 8))
    def test_bp_has_one_extra_schema(self, n):
        vb = relators("vb", n)
        bp = relators("bp", n)
        assert len(bp.relators) == len(vb.relators) + (n - 2)

    def test_sb_schema_counts(self):
        pres = relators("sb", 4)
        by_schema = {}
        for rel in pres.relators:
            by_schema.setdefault(rel.name.split(":")[0], []).append(rel)
        assert len(by_schema["as_comm"]) == 5  # |i-j| != 1 among 3x3 index pairs
        assert len(by_schema["ssa"]) == 2
        assert len(by_schema["ssa_rev"]) == 2
        assert len(by_schema["sigma_inv_r"]) == 3
        assert len(by_schema["sigma_inv_l"]) == 3

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            relators("vb", 1)


@pytest.mark.parametrize("flavor", list(Flavor))
def test_rewrite_rules_distinct_by_content(flavor):
    for n in range(2, 8):
        rules = rewrite_rules(flavor, n)
        pairs = {(r.lhs.letters, r.rhs.letters) for r in rules}
        assert len(pairs) == len(rules), n


class TestInvert:
    def test_mixed_word(self):
        w = parse_word("s1 z1", "vb", 2)
        assert invert_word(w).letters == (Z(1), S(1, -1))

    def test_empty(self):
        w = parse_word("", "vb", 2)
        assert invert_word(w) == w

    def test_monoid_rejected(self):
        with pytest.raises(MonoidHasNoInversesError):
            invert_word(parse_word("a1", "sb", 2))

    def test_inverse_reduces_to_identity(self):
        rng = random.Random(13)
        for _ in range(100):
            flavor = rng.choice([Flavor.BR, Flavor.SYM, Flavor.VB, Flavor.BP, Flavor.SG])
            n = rng.randrange(2, 6)
            w = random_word(rng, flavor, n, rng.randrange(0, 10))
            assert free_reduce(w.concat(invert_word(w))).letters == ()


class TestBfsEqual:
    def test_symmetric_braid_relation_depth_one(self):
        w1 = parse_word("z1 z2 z1", "sym", 3)
        w2 = parse_word("z2 z1 z2", "sym", 3)
        result = bfs_equal(w1, w2, 1)
        assert result.equal
        assert len(result.witness) == 1

    def test_identical_words_empty_witness(self):
        w = parse_word("s1 z2 s1^-1", "vb", 3)
        result = bfs_equal(w, w, 0)
        assert result.equal and result.witness == ()

    def test_forbidden_pair_unknown_at_depth_4(self):
        w1 = parse_word("s1 s2 z1", "vb", 3)
        w2 = parse_word("z2 s1 s2", "vb", 3)
        result = bfs_equal(w1, w2, 4)
        assert not result.equal
        assert result.witness is None

    def test_free_cancellation_found(self):
        w1 = parse_word("s1 s1^-1", "vb", 2)
        w2 = parse_word("", "vb", 2)
        assert bfs_equal(w1, w2, 1).equal

    def test_every_relator_equal_at_low_depth(self):
        for flavor in Flavor:
            for n in range(2, 5):
                for rel in relators(flavor, n).relators:
                    assert bfs_equal(rel.lhs, rel.rhs, 2).equal, (flavor, n, rel.name)

    def test_witness_replays_exactly(self):
        rng = random.Random(14)
        for flavor in (Flavor.VB, Flavor.BP, Flavor.SB):
            rules = rewrite_rules(flavor, 4)
            for _ in range(30):
                w1 = random_word(rng, flavor, 4, rng.randrange(1, 6))
                # scramble w1 by a couple of legal rewrites to get w2
                w2 = w1
                result = bfs_equal(w1, w2, 0)
                assert result.equal
                rel = rng.choice(relators(flavor, 4).relators)
                w2 = w1.concat(rel.lhs)
                w3 = w1.concat(rel.rhs)
                res = bfs_equal(w2, w3, 2)
                assert res.equal
                assert replay_witness(w2, res.witness, rules) == w3

    def test_mismatch_rejected(self):
        with pytest.raises(SizeMismatchError):
            bfs_equal(parse_word("s1", "vb", 2), parse_word("s1", "vb", 3), 1)
        with pytest.raises(SizeMismatchError):
            bfs_equal(parse_word("s1", "vb", 2), parse_word("s1", "br", 2), 1)


def test_flavor_letter_validation():
    with pytest.raises(FlavorError):
        GroupWord("br", 3, [Z(1)])
    with pytest.raises(FlavorError):
        GroupWord("sb", 3, [Letter("a", 1, -1)])


def test_word_text_round_trip():
    rng = random.Random(15)
    for _ in range(100):
        flavor = rng.choice(list(Flavor))
        n = rng.randrange(2, 6)
        w = random_word(rng, flavor, n, rng.randrange(0, 8))
        assert parse_word(str(w), flavor, n) == w
