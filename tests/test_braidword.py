import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import random_letter, random_word, relator_side_faults, validated_presentation
from hypothesis import given, settings
from hypothesis import strategies as st

from vbraid import braidword
from vbraid.braidword import (
    A,
    EqualityResult,
    Flavor,
    GroupWord,
    Letter,
    Relator,
    RewriteStep,
    S,
    Z,
    bfs_equal,
    free_reduce,
    invert_word,
    parse_word,
    relators,
    replay_witness,
    rewrite_engine,
    rewrite_rules,
)
from vbraid.errors import (
    FlavorError,
    IndexOutOfRangeError,
    InverseNotAllowedError,
    LetterError,
    LetterNotAllowedError,
    MonoidHasNoInversesError,
    NegativeDepthError,
    ShapeError,
    SizeMismatchError,
    StrandCountError,
    UnknownFlavorError,
    WitnessError,
    WordSyntaxError,
)
from vbraid.verify import verify_range


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

    @pytest.mark.parametrize("token", ["s0", "s00"])
    def test_zero_index_is_a_syntax_error(self, token):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word(f"s1 {token}", "vb", 3)
        assert type(exc.value) is WordSyntaxError and exc.value.position == 3

    def test_leading_zeros_dropped(self):
        assert parse_word("s01", "vb", 3).letters == (S(1),)

    def test_group_word_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError) as exc:
            GroupWord("vb", 3, [S(1), Z(2), S(3)])
        assert exc.value.position == 2

    def test_kind_not_in_flavor(self):
        with pytest.raises(LetterNotAllowedError):
            parse_word("z1", "br", 3)
        with pytest.raises(LetterNotAllowedError):
            parse_word("a1", "vb", 3)

    def test_empty(self):
        assert parse_word("", "vb", 2).letters == ()

    def test_negative_strand_count(self):
        with pytest.raises(StrandCountError):
            GroupWord("vb", -1)

    def test_bad_letter_fields(self):
        for kind, index, exponent in (("s", 0, 1), ("q", 1, 1), ("s", 1, 2), ("z", 1, -1)):
            with pytest.raises(LetterError):
                Letter(kind, index, exponent)


_ORACLE_TOKEN_RE = re.compile(r"([sza])0*([1-9][0-9]*)(\^-1)?$")


def finditer_parse_word(text, flavor, n):
    """The parser that parse_word replaced, kept as its oracle: tokens from
    re.finditer with their offsets, one regex match and one Letter per token."""
    letters, starts = [], []
    for match in re.finditer(r"\S+", text):
        m = _ORACLE_TOKEN_RE.match(match.group(0))
        if m is None:
            raise WordSyntaxError(f"cannot parse token {match.group(0)!r}", match.start())
        kind, index, inv = m.groups()
        letters.append(Letter(kind, int(index), -1 if inv and kind != "z" else 1))
        starts.append(match.start())
    try:
        return GroupWord(flavor, n, letters)
    except WordSyntaxError as exc:
        raise type(exc)(exc.message, starts[exc.position]) from None


# separators that str.split and \s both take as whitespace; letters, some of
# which a flavor or n refuses; malformed tokens, several of them substrings of
# letters
SEPARATORS = (" ", "\t", "\n", "\x1c", "\u00a0", "\u3000", "\r\n", " \x85\t")
LETTER_TOKENS = ("s1", "s2^-1", "s01", "z1", "z2^-1", "a1", "a2^-1", "s5")
MALFORMED_TOKENS = (
    "s", "z", "s1^", "s1^-", "q9", "s0", "s1^-2", "S1", "z1^1", "s1\u200b", "s\u00b2", "s1^-1^-1"
)


@st.composite
def word_texts(draw):
    """Letters, then letters and malformed tokens mixed, each token followed by
    a separator."""
    tokens = draw(st.lists(st.sampled_from(LETTER_TOKENS), max_size=8))
    tokens += draw(st.lists(st.sampled_from(LETTER_TOKENS + MALFORMED_TOKENS), max_size=8))
    parts = [draw(st.sampled_from(("",) + SEPARATORS))]
    for token in tokens:
        parts += [token, draw(st.sampled_from(SEPARATORS))]
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(word_texts(), st.sampled_from([f.value for f in Flavor]), st.integers(0, 6))
def test_parse_word_matches_finditer_oracle(text, flavor, n):
    try:
        expected = finditer_parse_word(text, flavor, n)
    except WordSyntaxError as exc:
        with pytest.raises(WordSyntaxError) as got:
            parse_word(text, flavor, n)
        assert type(got.value) is type(exc)
        assert (got.value.position, str(got.value)) == (exc.position, str(exc))
    else:
        assert parse_word(text, flavor, n) == expected


def test_parse_word_builds_one_letter_per_distinct_token():
    n = 40
    w = random_word(random.Random(40), "vb", n, 600)
    parsed = parse_word(str(w), "vb", n)
    assert parsed == w
    assert len({id(lt) for lt in parsed.letters}) <= 3 * (n - 1)


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

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_sides_are_the_validating_constructors_words(self, flavor):
        for n in range(2, 13):
            pres = relators(flavor, n)
            assert relator_side_faults(pres) == []
            assert pres == validated_presentation(pres)

    # the letter tables each flavor's schemas use: s, z, a, s^-1, a^-1
    TABLES = {"br": 1, "sym": 1, "vb": 2, "bp": 2, "sb": 3, "sg": 4}

    @pytest.mark.parametrize("flavor", sorted(TABLES))
    def test_each_letter_table_checked_once(self, monkeypatch, flavor):
        # GroupWord checks each table's letters once; no relator side is
        # checked again, so the checks do not grow with the relator count
        checked = []
        check = GroupWord.__post_init__

        def counting(self):
            checked.append(1)
            check(self)

        monkeypatch.setattr(GroupWord, "__post_init__", counting)
        pres = relators(flavor, 7)
        assert len(pres.relators) > self.TABLES[flavor]
        assert len(checked) <= self.TABLES[flavor]

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            relators("vb", 1)

    def test_small_n_typed(self):
        with pytest.raises(StrandCountError):
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
        # no presentation exists at n < 2, but identical words need none
        for n in (0, 1):
            w = GroupWord("vb", n, [])
            assert bfs_equal(w, w) == EqualityResult(True, ())

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

    def test_engine_rules_replay_through_the_engine_map(self, monkeypatch):
        # the tuple rewrite_rules returns is looked up in its engine's name
        # map; any other rule sequence is mapped on each call
        w1, w2 = parse_word("s1 s2 s1", "vb", 3), parse_word("s2 s1 s2", "vb", 3)
        witness = bfs_equal(w1, w2, 2).witness
        engine = rewrite_engine("vb", 3)
        looked_up = []

        class Counting(dict):
            def get(self, name):
                looked_up.append(name)
                return super().get(name)

        monkeypatch.setattr(engine, "by_name", Counting(engine.by_name))
        assert replay_witness(w1, witness, rewrite_rules("vb", 3)) == w2
        assert looked_up == [step.rule for step in witness]
        used = {step.rule for step in witness}
        own = (list(engine.rules), tuple(r for r in engine.rules if r.name in used), rewrite_rules("vb", 4))
        for rules in own:
            assert replay_witness(w1, witness, rules) == w2
        assert len(looked_up) == len(witness)

    def test_replay_below_two_strands_builds_no_engine(self):
        built = braidword._rewrite_engine.cache_info().currsize
        for n in (0, 1):
            w = GroupWord("vb", n)
            assert replay_witness(w, (), []) == w
            assert replay_witness(w, [RewriteStep("empty", 1, 0)], [Relator("empty", w, w)]) == w
        assert braidword._rewrite_engine.cache_info().currsize == built

    def test_unknown_rule_in_witness(self):
        w = parse_word("s1 s1^-1", "vb", 2)
        rules = rewrite_rules("vb", 2)
        step = RewriteStep("nope", 1, 0)
        with pytest.raises(WitnessError):
            replay_witness(w, (step,), rules)

    def test_mismatched_step_in_witness(self):
        w = parse_word("s1 s2", "vb", 3)
        rules = rewrite_rules("vb", 3)
        step = RewriteStep("zeta_sq:i=1", 1, 0)
        with pytest.raises(WitnessError):
            replay_witness(w, (step,), rules)
        # a plain ValueError handler still catches it
        with pytest.raises(ValueError):
            replay_witness(w, (step,), rules)

    @pytest.mark.parametrize("direction, position", [(-1, -1), (0, 0), (2, 0)])
    def test_step_out_of_range_rejected(self, direction, position):
        # a negative position would splice from the word's end, and a
        # direction 0 would replay as -1
        with pytest.raises(WitnessError):
            RewriteStep("zeta_sq:i=1", direction, position)

    @pytest.mark.parametrize(
        "rule, direction, position",
        [("zeta_sq:i=1", True, 0), ("zeta_sq:i=1", 1, False), ("zeta_sq:i=1", 1, 1.0),
         ("zeta_sq:i=1", "1", 0), (None, 1, 0)],
    )
    def test_step_of_wrong_type_rejected(self, rule, direction, position):
        with pytest.raises(ShapeError):
            RewriteStep(rule, direction, position)

    def test_step_past_the_word_end(self):
        w = parse_word("s1 s2", "vb", 3)
        rules = rewrite_rules("vb", 3)
        assert replay_witness(w, [RewriteStep("zeta_sq:i=1", -1, 2)], rules) == (
            parse_word("s1 s2 z1 z1", "vb", 3)
        )
        for position in (3, 99):
            with pytest.raises(WitnessError):
                replay_witness(w, [RewriteStep("zeta_sq:i=1", -1, position)], rules)

    @pytest.mark.parametrize("witness", [None, 5, [("zeta_sq:i=1", -1, 0)], [None]])
    def test_witness_not_a_sequence_of_steps(self, witness):
        w = parse_word("s1 s2", "vb", 3)
        with pytest.raises(ShapeError):
            replay_witness(w, witness, rewrite_rules("vb", 3))

    def test_negative_depth_rejected(self):
        w = parse_word("s1 s1^-1", "vb", 2)
        with pytest.raises(NegativeDepthError):
            bfs_equal(w, parse_word("", "vb", 2), -1)
        # a plain ValueError handler still catches it
        with pytest.raises(ValueError):
            bfs_equal(w, w, -1)

    @pytest.mark.parametrize("depth", [2.5, "3", None, True], ids=repr)
    def test_non_integer_depth_rejected(self, depth):
        """A depth that is not an integer raised a bare TypeError from the
        search, and True searched depth 1."""
        w1, w2 = parse_word("s1 s2 s1", "vb", 3), parse_word("s2 s1 s2", "vb", 3)
        with pytest.raises(ShapeError):
            bfs_equal(w1, w2, depth)

    def test_mismatch_rejected(self):
        with pytest.raises(SizeMismatchError):
            bfs_equal(parse_word("s1", "vb", 2), parse_word("s1", "vb", 3), 1)
        with pytest.raises(SizeMismatchError):
            bfs_equal(parse_word("s1", "vb", 2), parse_word("s1", "br", 2), 1)


# ---------------------------------------------------------------------------
# The compiled search against the search it replaced
# ---------------------------------------------------------------------------


def _reference_neighbors(letters, rules, max_len):
    for rule in rules:
        for src, dst, direction in (
            (rule.lhs.letters, rule.rhs.letters, 1),
            (rule.rhs.letters, rule.lhs.letters, -1),
        ):
            if len(letters) - len(src) + len(dst) > max_len:
                continue
            for p in range(len(letters) - len(src) + 1):
                if letters[p : p + len(src)] == src:
                    yield (
                        letters[:p] + dst + letters[p + len(src) :],
                        RewriteStep(rule.name, direction, p),
                    )


def reference_bfs_equal(w1, w2, depth=6, max_len=None):
    """bfs_equal as first written: every rule scanned at every position, and
    each visited word stores its whole path of RewriteSteps."""
    if w1.flavor != w2.flavor or w1.n != w2.n:
        raise SizeMismatchError("words must share flavor and strand count")
    if max_len is None:
        max_len = max(len(w1), len(w2)) + 2 * depth
    rules = rewrite_rules(w1.flavor, w1.n)

    if w1.letters == w2.letters:
        return EqualityResult(True, ())

    fwd = {w1.letters: ()}
    bwd = {w2.letters: ()}
    frontier_f = [w1.letters]
    frontier_b = [w2.letters]
    used = 0

    while used < depth and (frontier_f or frontier_b):
        expand_forward = len(frontier_f) <= len(frontier_b)
        frontier = frontier_f if expand_forward else frontier_b
        seen = fwd if expand_forward else bwd
        other = bwd if expand_forward else fwd
        new_frontier = []
        for letters in frontier:
            path = seen[letters]
            for nxt, step in _reference_neighbors(letters, rules, max_len):
                if nxt in seen:
                    continue
                seen[nxt] = path + (step,)
                if nxt in other:
                    if expand_forward:
                        fpath, bpath = seen[nxt], other[nxt]
                    else:
                        fpath, bpath = other[nxt], seen[nxt]
                    witness = fpath + tuple(
                        s.inverted() for s in reversed(bpath)
                    )
                    return EqualityResult(True, witness)
                new_frontier.append(nxt)
        if expand_forward:
            frontier_f = new_frontier
        else:
            frontier_b = new_frontier
        used += 1

    return EqualityResult(False, None)


def _random_rewrites(rng, w, steps):
    """w after up to `steps` rewrites, each picked at random among all matches."""
    rules = rewrite_rules(w.flavor, w.n)
    letters = w.letters
    for _ in range(steps):
        moves = list(_reference_neighbors(letters, rules, len(letters) + 2))
        if moves:
            letters = rng.choice(moves)[0]
    return w.replace(letters)


def _insert_letter(rng, w):
    """w with one random letter inserted: the length parity differs, so no
    word of the last layer can hit and the search prunes all of it."""
    p = rng.randint(0, len(w))
    return w.replace(w.letters[:p] + (random_letter(rng, w.flavor, w.n),) + w.letters[p:])


# (n, w1, w2, depth) searched beside the random pairs
FIXED_SEARCHES = {
    # the forbidden move: a relator in bp, not derivable in vb
    Flavor.BP: [(3, "s1 s2 z1", "z2 s1 s2", 5)],
    # the only rewrite that meets w2 is at the second of two overlapping
    # occurrences of its source, at positions 0 and 2
    Flavor.BR: [(3, "s1 s2 s1 s2 s1", "s1 s2 s2 s1 s2", 1)],
    Flavor.SYM: [(3, "z1 z2 z1 z2 z1", "z1 z2 z2 z1 z2", 1)],
    Flavor.VB: [
        (3, "s1 s2 z1", "z2 s1 s2", 5),
        # z1 z1 occurs at 0 and 1; the witness takes the first
        (3, "z1 z1 z1 s2", "z1 s2", 1),
        # from n = 44 on, the letters of index 43 are past Latin-1
        (44, "z42 z43 s42", "s43 z42 z43", 2),
        (44, "s43 s42 s43", "s42 s43 s42 z43 z43", 2),
        (44, "s43 s41", "s41 s43", 1),
        (44, "s43 z43", "z43 s43 s42", 2),
        (44, "s43 z41", "z43 s41", 2),
    ],
}


@pytest.mark.parametrize("flavor", list(Flavor))
def test_compiled_search_matches_reference(flavor):
    rng = random.Random(f"compiled-search:{flavor.value}")
    insert_rng = random.Random(f"compiled-search-insert:{flavor.value}")
    answers = set()
    for n in range(2, 7):
        for depth in range(5):
            for _ in range(2):
                w1 = random_word(rng, flavor, n, rng.randrange(0, 4))
                for w2 in (
                    _random_rewrites(rng, w1, rng.randrange(1, 4)),
                    random_word(rng, flavor, n, rng.randrange(0, 4)),
                    _insert_letter(insert_rng, w1),
                ):
                    expected = reference_bfs_equal(w1, w2, depth)
                    assert bfs_equal(w1, w2, depth) == expected, (n, depth, w1, w2)
                    answers.add((expected.equal, bool(expected.witness)))
    for n, text1, text2, depth in FIXED_SEARCHES.get(flavor, ()):
        w1, w2 = parse_word(text1, flavor, n), parse_word(text2, flavor, n)
        expected = reference_bfs_equal(w1, w2, depth)
        assert bfs_equal(w1, w2, depth) == expected, (n, depth, text1, text2)
        answers.add((expected.equal, bool(expected.witness)))
    # both answers, and witnesses with steps, came up
    assert answers == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize(
    "flavor, n, text1, text2, depth",
    [
        ("sym", 2, "", "z1 z1", 1),  # forward insertion of zeta_sq
        ("vb", 3, "s2", "s1^-1 s1 s2", 2),  # backward search inserts
        ("sg", 3, "a1", "a1 a2 a2^-1", 3),
        ("br", 4, "s1 s3", "s3 s1 s2 s2^-1", 3),
        ("bp", 4, "s1 z2", "s1 z2", 0),  # identical: answered at depth 0
        ("vb", 3, "s1", "s2", 0),  # distinct words at depth 0: unknown
        ("sb", 3, "s1 s1^-1 a2", "a2", 0),
    ],
)
def test_compiled_search_insertions_and_depth_zero(flavor, n, text1, text2, depth):
    w1, w2 = parse_word(text1, flavor, n), parse_word(text2, flavor, n)
    result = bfs_equal(w1, w2, depth)
    assert result == reference_bfs_equal(w1, w2, depth)
    if len(w1) < len(w2):
        # w2 is longer, so some step inserts an empty-source side
        rules = {r.name: r for r in rewrite_rules(flavor, n)}
        assert any(
            s.direction == -1 and not rules[s.rule].rhs.letters
            for s in result.witness
        )
        assert replay_witness(w1, result.witness, rules.values()) == w2


def test_engine_compiled_once_per_flavor_and_n():
    engine = rewrite_engine("vb", 3)
    assert rewrite_engine("vb", 3) is engine
    assert rewrite_engine(Flavor.VB, 3) is engine
    assert rewrite_engine("vb", 4) is not engine
    assert engine.rules is rewrite_rules(Flavor.VB, 3)
    assert rewrite_rules("vb", 3) is engine.rules
    built = braidword._rewrite_engine.cache_info().misses
    w1, w2 = parse_word("s1 s2 s1", "vb", 3), parse_word("s2 s1 s2", "vb", 3)
    assert bfs_equal(w1, w2, 2).equal and bfs_equal(w2, w1, 2).equal
    assert braidword._rewrite_engine.cache_info().misses == built


def test_import_compiles_nothing():
    code = (
        "import vbraid, vbraid.braidword as b; "
        "assert b._rewrite_engine.cache_info().currsize == 0"
    )
    src = str(Path(braidword.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# each letter fault: text with the bad token at character 3, the same letters,
# the error both must raise
LETTER_FAULTS = {
    "kind": ("br", 3, "s1 z1", [S(1), Z(1)], LetterNotAllowedError),
    "index": ("vb", 3, "s1 s3", [S(1), S(3)], IndexOutOfRangeError),
    "monoid_inverse": ("sb", 3, "a1 a1^-1", [A(1), A(1, -1)], InverseNotAllowedError),
}


@pytest.mark.parametrize("fault", sorted(LETTER_FAULTS))
def test_letter_fault_same_error_from_parse_and_construct(fault):
    flavor, n, text, letters, error = LETTER_FAULTS[fault]
    with pytest.raises(WordSyntaxError) as parsed:
        parse_word(text, flavor, n)
    with pytest.raises(WordSyntaxError) as built:
        GroupWord(flavor, n, letters)
    assert type(parsed.value) is type(built.value) is error
    assert parsed.value.position == 3 and built.value.position == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_word("s1", "xx", 3),
        lambda: GroupWord("xx", 3),
        lambda: relators("xx", 3),
        lambda: rewrite_rules("xx", 3),
        lambda: verify_range("xx", 2, 3),
    ],
    ids=["parse_word", "GroupWord", "relators", "rewrite_rules", "verify_range"],
)
def test_unknown_flavor_typed_error(call):
    with pytest.raises(UnknownFlavorError, match="br, sym, vb, bp, sb, sg"):
        call()


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
