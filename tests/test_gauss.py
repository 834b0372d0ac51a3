import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbraid.braidword import GroupWord, Letter, parse_word
from vbraid.errors import (
    FlavorError,
    GaussSyntaxError,
    LabelCountError,
    NotAKnotError,
)
from vbraid.gauss import OVER, UNDER, GaussCode, closure_code, parse_gauss
from vbraid.perm import Permutation
from vbraid.reps import perm_proj


class TestParse:
    def test_trefoil(self):
        code = parse_gauss("O1U2O3U1O2U3")
        assert code.visits == (
            ("O", 1),
            ("U", 2),
            ("O", 3),
            ("U", 1),
            ("O", 2),
            ("U", 3),
        )
        assert code.crossings == 3

    def test_whitespace_ignored(self):
        assert parse_gauss("O1 U1") == parse_gauss("O1U1")

    def test_empty(self):
        assert parse_gauss("").visits == ()

    def test_bad_token(self):
        with pytest.raises(GaussSyntaxError):
            parse_gauss("O1X2")

    def test_label_seen_twice_as_over(self):
        with pytest.raises(LabelCountError):
            parse_gauss("O1O1")

    def test_unbalanced_label(self):
        with pytest.raises(LabelCountError):
            parse_gauss("O1U1O2")

    def test_labels_must_be_dense(self):
        with pytest.raises(LabelCountError):
            parse_gauss("O1U1O3U3")

    def test_labels_must_follow_first_visit_order(self):
        with pytest.raises(LabelCountError):
            parse_gauss("O2U1O1U2")

    @pytest.mark.parametrize(
        "visits",
        [
            "O1U1",  # a string, so each visit is one character
            [("O",)],
            [("O", 1, 2), ("U", 1, 2)],
            [("O", 1.0), ("U", 1.0)],
            [("O", "1"), ("U", "1")],
            [("O", None), ("U", None)],
            [("X", 1), ("U", 1)],
        ],
        ids=repr,
    )
    def test_malformed_visit_is_a_syntax_error(self, visits):
        with pytest.raises(GaussSyntaxError) as info:
            GaussCode(visits)
        assert type(info.value) is GaussSyntaxError

    def test_render_round_trip(self):
        text = "O1U2O3U1O2U3"
        assert str(parse_gauss(text)) == text


class TestRotation:
    def test_rotations_are_canonical(self):
        code = parse_gauss("O1U2O3U1O2U3")
        for rot in code.rotations():
            # every rotation is itself a valid canonical code
            assert GaussCode(rot.visits) == rot

    def test_equality_up_to_rotation(self):
        code = parse_gauss("O1U2O3U1O2U3")
        # rotate by one visit: U.O.U.O.U.O relabeled in first-visit order
        rotated = parse_gauss("U1O2U3O1U2O3")
        assert code.equals_up_to_rotation(rotated)

    def test_inequality(self):
        trefoil = parse_gauss("O1U2O3U1O2U3")
        figure_like = parse_gauss("O1U2O2U1")
        assert not trefoil.equals_up_to_rotation(figure_like)


class TestClosurePermutation:
    def test_exponent_blind(self):
        # closure_code walks the strands by perm_proj, so an inverse letter
        # closes up exactly as its positive twin does
        w = parse_word("s1^-1", "vb", 2)
        assert perm_proj(w) == Permutation([2, 1])
        assert len(closure_code(w).visits) == len(
            closure_code(parse_word("s1", "vb", 2)).visits
        )


class TestClosureCode:
    def test_trefoil(self):
        w = parse_word("s1 s1 s1", "vb", 2)
        expected = parse_gauss("O1U2O3U1O2U3")
        assert closure_code(w).equals_up_to_rotation(expected)

    def test_single_crossing(self):
        assert closure_code(parse_word("s1", "vb", 2)) == parse_gauss("O1U1")

    def test_negative_crossing_swaps_passages(self):
        assert closure_code(parse_word("s1^-1", "vb", 2)) == parse_gauss("U1O1")

    def test_virtual_crossings_not_recorded(self):
        # z1 s1 z1 closes to a knot whose only recorded crossing is classical
        w = parse_word("s1 z1 s1", "vb", 2)
        code = closure_code(w)
        assert code.crossings == 2

    def test_unknot_with_virtual_only(self):
        w = parse_word("z1", "vb", 2)
        assert closure_code(w).visits == ()

    def test_multi_component_rejected(self):
        with pytest.raises(NotAKnotError):
            closure_code(parse_word("s1 s1", "vb", 2))
        with pytest.raises(NotAKnotError):
            closure_code(parse_word("", "vb", 2))

    def test_monoid_flavor_rejected(self):
        with pytest.raises(FlavorError):
            closure_code(parse_word("a1", "sb", 2))

    def test_each_crossing_visited_over_and_under(self):
        w = parse_word("s1 s2 s1 z2", "vb", 3)
        code = closure_code(w)
        # validated by construction: would raise otherwise; also check count
        s_letters = sum(1 for lt in w.letters if lt.kind == "s")
        assert code.crossings == s_letters


def walk_closure_code(w):
    """closure_code as first written: the whole word is scanned once per
    strand, O(n*L)."""
    labels = {}
    visits = []
    pos = 1
    for _ in range(w.n):
        for step, lt in enumerate(w.letters):
            i = lt.index
            if pos not in (i, i + 1):
                continue
            if lt.kind == "s":
                if step not in labels:
                    labels[step] = len(labels) + 1
                entering_low = pos == i
                over = entering_low if lt.exponent == 1 else not entering_low
                visits.append((OVER if over else UNDER, labels[step]))
            pos = i + 1 if pos == i else i
    return GaussCode(tuple(visits))


def random_knot_word(rng, n, length, flavor="vb"):
    """u c reversed(u), c a product of s_1..s_{n-1} in random order: the
    permutation is a conjugate of a Coxeter element, an n-cycle. A br word
    has no z letters."""

    def letter(i):
        if flavor != "br" and rng.random() < 0.3:
            return Letter("z", i)
        return Letter("s", i, rng.choice((1, -1)))

    u = [letter(rng.randrange(1, n)) for _ in range(length)]
    order = list(range(1, n))
    rng.shuffle(order)
    v = [letter(lt.index) for lt in reversed(u)]
    return GroupWord(flavor, n, u + [letter(i) for i in order] + v)


@settings(max_examples=200)
@given(st.sampled_from(("vb", "bp", "br")), st.integers(2, 8), st.integers(0, 12), st.randoms())
def test_closure_code_passes_the_validating_constructor(flavor, n, length, rng):
    # closure_code builds its result without GaussCode's checks
    code = closure_code(random_knot_word(rng, n, length, flavor))
    assert GaussCode(code.visits) == code
    assert type(code.visits) is tuple


def test_closure_code_matches_strand_by_strand_walk():
    rng = random.Random(16)
    for n in list(range(2, 12)) + [20, 30, 40]:
        for _ in range(8):
            w = random_knot_word(rng, n, rng.randrange(0, 40))
            assert closure_code(w) == walk_closure_code(w), (n, str(w))


def first_written_check(visits):
    """GaussCode's validation as first written: label counts, then labels 1..k,
    then first-visit order checked on a list, O(k^2)."""
    over = {}
    under = {}
    for passage, label in visits:
        if passage not in (OVER, UNDER):
            raise GaussSyntaxError(f"bad passage {passage!r}")
        bucket = over if passage == OVER else under
        bucket[label] = bucket.get(label, 0) + 1
    labels = set(over) | set(under)
    for label in labels:
        if over.get(label, 0) != 1 or under.get(label, 0) != 1:
            raise LabelCountError(f"label {label} must appear exactly once as O and once as U")
    k = len(labels)
    if labels and labels != set(range(1, k + 1)):
        raise LabelCountError(f"labels must be 1..{k}")
    order = []
    for _, label in visits:
        if label not in order:
            order.append(label)
    if order != sorted(order):
        raise LabelCountError("labels must be numbered in first-visit order")


def rejection(check, visits):
    """The class of GaussSyntaxError `check` raises on `visits`, or None."""
    try:
        check(visits)
    except GaussSyntaxError as err:
        return type(err)
    return None


@st.composite
def mutated_closure_codes(draw):
    """Visits of a random knot's closure code, then at most one mutation."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    w = random_knot_word(rng, draw(st.integers(2, 8)), draw(st.integers(0, 10)))
    visits = list(closure_code(w).visits)
    mutation = draw(st.sampled_from(("none", "swap", "relabel", "flip", "drop", "rotate")))
    if not visits or mutation == "none":
        return tuple(visits)
    i, j = (draw(st.integers(0, len(visits) - 1)) for _ in range(2))
    passage, label = visits[i]
    if mutation == "swap":
        visits[i], visits[j] = visits[j], visits[i]
    elif mutation == "relabel":
        visits[i] = (passage, draw(st.integers(0, len(visits) // 2 + 1)))
    elif mutation == "flip":
        visits[i] = (UNDER if passage == OVER else OVER, label)
    elif mutation == "drop":
        del visits[i]
    else:  # rotate, keeping the old labels
        visits = visits[i:] + visits[:i]
    return tuple(visits)


small_visit_lists = st.lists(
    st.tuples(st.sampled_from((OVER, UNDER)), st.integers(0, 4)), max_size=8
).map(tuple)


@settings(max_examples=400)
@given(st.one_of(mutated_closure_codes(), small_visit_lists))
def test_validation_agrees_with_first_written_check(visits):
    expected = rejection(first_written_check, visits)
    assert rejection(GaussCode, visits) is expected
    if expected is None:
        assert GaussCode(visits).visits == visits


def test_rotations_of_closure_codes_are_canonical_and_equivalent():
    rng = random.Random(23)
    for n in (2, 3, 5, 8, 13, 20, 40):
        for _ in range(3):
            code = closure_code(random_knot_word(rng, n, rng.randrange(0, 25)))
            rotations = code.rotations()
            assert len(rotations) == max(len(code.visits), 1)
            assert rotations[0] == code
            for rot in rotations:
                assert rejection(first_written_check, rot.visits) is None
            # each call builds every rotation, so check a few in both directions
            for rot in rng.sample(rotations, min(3, len(rotations))):
                assert code.equals_up_to_rotation(rot)
                assert rot.equals_up_to_rotation(code)
