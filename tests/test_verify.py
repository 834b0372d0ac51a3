import dataclasses
from collections import Counter

import pytest
from conftest import IMAGE_MAPS, image_detail, image_verify_presentation
from hypothesis import given, settings
from hypothesis import strategies as st

from vbraid.braidword import Flavor, GroupWord, Letter, Presentation, Relator, parse_word, relators
from vbraid.errors import (
    CheckNotApplicableError,
    ShapeError,
    StrandCountError,
    UnknownFlavorError,
)
from vbraid.freegrp import FreeAut
from vbraid.lpmatrix import LPMatrix
from vbraid.perm import Permutation
from vbraid.reps import AbelianImage, burau
from vbraid.verify import (
    _MAPS,
    CHECKS_BY_FLAVOR,
    CheckRecord,
    _record,
    verify_presentation,
    verify_range,
)


def test_all_flavors_pass_small():
    for flavor in Flavor:
        records = verify_range(flavor, 2, 4)
        assert records and all(r.passed for r in records), flavor


def test_presentation_fields_are_checked():
    # a bad flavor, n or relator sequence raises a typed error when the
    # Presentation is built, and a str flavor is taken through Flavor
    for args, error in (
        (("xx", 3, ()), UnknownFlavorError),
        ((Flavor.VB, "3", ()), StrandCountError),
        ((Flavor.VB, 3, 5), ShapeError),
        ((Flavor.VB, 3, [1]), ShapeError),
    ):
        with pytest.raises(error):
            verify_presentation(Presentation(*args))
    rels = relators("vb", 3).relators
    pres = Presentation("vb", 3, list(rels))
    assert (pres.flavor, pres.relators) == (Flavor.VB, rels) and type(pres.relators) is tuple
    assert verify_presentation(pres) == verify_presentation(relators("vb", 3))
    with pytest.raises(CheckNotApplicableError):
        verify_presentation(pres, ["sigma_sq"])


def test_record_line_format():
    rec = CheckRecord(3, "sigma_braid:1", "burau", True)
    assert rec.line() == "n=3 sigma_braid:1 burau PASS"
    assert CheckRecord(3, "x", "aut", False).line() == "n=3 x aut FAIL"


def test_record_builder_matches_the_constructor():
    # verify_presentation builds its records without the frozen constructor
    for fields in ((3, "sigma_braid:i=1", "burau", True, None), (4, "bogus:1", "perm", False, "strand at position 1")):
        rec, built = _record(*fields), CheckRecord(*fields)
        assert type(rec) is CheckRecord
        assert rec == built and hash(rec) == hash(built) and repr(rec) == repr(built)
        assert rec.to_json_obj() == built.to_json_obj() and rec.line() == built.line()
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.passed = not rec.passed


def test_record_json_shape():
    rec = CheckRecord(2, "zeta_sq:1", "perm", True)
    assert rec.to_json_obj() == {
        "n": 2,
        "relator": "zeta_sq:1",
        "check": "perm",
        "passed": True,
    }


def test_check_subset():
    records = verify_range("vb", 3, 3, checks=("perm",))
    assert {r.check for r in records} == {"perm"}
    assert len(records) == len(relators("vb", 3).relators)


def test_inapplicable_check_typed():
    with pytest.raises(CheckNotApplicableError):
        verify_range("sb", 3, 3, checks=("burau",))
    # an empty selection would pass vacuously
    for empty in ((), [], iter(())):
        with pytest.raises(CheckNotApplicableError):
            verify_range("vb", 2, 4, checks=empty)
        with pytest.raises(CheckNotApplicableError):
            verify_presentation(relators("vb", 3), empty)
    # a repeated check would print each of its records twice
    with pytest.raises(CheckNotApplicableError, match=r"\['burau'\] selected more than once"):
        verify_range("vb", 2, 4, checks=("burau", "perm", "burau"))
    with pytest.raises(CheckNotApplicableError, match="more than once"):
        verify_presentation(relators("vb", 3), ["perm", "perm"])
    # a bare string is not a sequence of names: "perm" is not p, e, r, m
    for not_names in ("perm", "", 5):
        with pytest.raises(ShapeError):
            verify_range("vb", 2, 4, checks=not_names)
        with pytest.raises(ShapeError):
            verify_presentation(relators("vb", 3), not_names)


def test_checks_read_once():
    """An iterator of checks is taken once, and serves every n of a range."""
    want = verify_range("vb", 2, 4, checks=("perm",))
    assert len(want) == 19
    assert verify_range("vb", 2, 4, checks=iter(["perm"])) == want
    assert verify_presentation(relators("vb", 3), iter(["perm"])) == [
        r for r in want if r.n == 3
    ]


def test_bad_strand_range_typed():
    with pytest.raises(StrandCountError):
        verify_range("vb", 1, 3)
    with pytest.raises(StrandCountError):
        verify_range("vb", 5, 2)
    # a count that is not an integer is refused before it is compared or counted
    calls = [(relators, 2.5), (relators, "3"), (verify_range, 2, 3.5), (verify_range, "2", 3)]
    for f, *counts in calls:
        with pytest.raises(StrandCountError, match="must be an integer"):
            f("vb", *counts)


def test_inapplicable_check_rejected():
    with pytest.raises(ValueError):
        verify_range("sb", 3, 3, checks=("burau",))
    for name in ("sigma_sq", "bfs"):
        with pytest.raises(ValueError):
            verify_range("vb", 3, 3, checks=(name,))


def corrupted(flavor, n, lhs, rhs):
    """The flavor's presentation on n strands plus the relator bogus:1, lhs = rhs."""
    bad = Relator("bogus:1", parse_word(lhs, flavor, n), parse_word(rhs, flavor, n))
    pres = relators(flavor, n)
    return Presentation(pres.flavor, n, pres.relators + (bad,))


def test_injected_fault_is_detected():
    # a deliberately wrong relator must produce FAIL records, not crash
    pres = corrupted("vb", 3, "s1 s2", "s2 s1")
    records = verify_presentation(pres)
    assert records == image_verify_presentation(pres)
    bogus = [r for r in records if r.relator == "bogus:1"]
    assert bogus
    assert not all(r.passed for r in bogus)
    # the maps that cannot see the difference still pass
    by_check = {r.check: r.passed for r in bogus}
    assert by_check["exp_sum"] and by_check["abelianize"]
    assert not by_check["burau"] and not by_check["perm"]
    # a FAIL names the first component that differs; a PASS names none
    detail = {r.check: r.detail for r in bogus}
    assert detail == {
        "burau": "Burau row 1",
        "aut": "Aut image of x1",
        "perm": "strand at position 1",
        "exp_sum": None,
        "abelianize": None,
    }
    fail = next(r for r in bogus if r.check == "perm")
    assert fail.line() == "n=3 bogus:1 perm FAIL (strand at position 1)"
    assert fail.to_json_obj()["detail"] == "strand at position 1"
    assert "detail" not in next(r for r in bogus if r.passed).to_json_obj()
    # the counts name the value on each side
    pres = corrupted("vb", 4, "s1 s3 z2", "s1^-1 s3^-1 z2")
    bogus = {r.check: r for r in verify_presentation(pres) if r.relator == "bogus:1"}
    assert verify_presentation(pres) == image_verify_presentation(pres)
    assert bogus["exp_sum"].detail == "exp_sum 2 vs -2"
    assert bogus["abelianize"].detail == "sigma_sum 2 vs -2"
    assert bogus["perm"].passed and bogus["perm"].detail is None
    pres = corrupted("bp", 3, "z1 s2", "s2")
    bogus = {r.check: r for r in verify_presentation(pres) if r.relator == "bogus:1"}
    assert bogus["abelianize"].detail == "zeta_parity 1 vs 0"
    assert bogus["exp_sum"].passed
    # sb and sg are checked through the Burau image of a_i -> s_i^2
    wrong = [("a1 s2", "s2 a1"), ("a1 a2", "a2 a1"), ("a1 s1 s2", "s1 s2 a1"), ("a1", "a2")]
    for flavor in ("sb", "sg"):
        for lhs, rhs in wrong:
            pres = corrupted(flavor, 3, lhs, rhs)
            bogus = [r for r in verify_presentation(pres) if r.relator == "bogus:1"]
            assert [r.line() for r in bogus] == ["n=3 bogus:1 sigma_sq FAIL (Burau row 1)"]
            assert bogus[0].detail == "Burau row 1"
            assert verify_presentation(pres) == image_verify_presentation(pres)
    pres = corrupted("sg", 4, "a3", "a3^-1")
    bogus = [r for r in verify_presentation(pres) if r.relator == "bogus:1"]
    assert [r.line() for r in bogus] == ["n=4 bogus:1 sigma_sq FAIL (Burau row 3)"]


@pytest.mark.parametrize("flavor", [f.value for f in Flavor])
def test_records_match_image_oracle(flavor):
    """Comparing the touched rows, images and points gives the records that
    comparing the whole public images gives."""
    for n in range(2, 9):
        pres = relators(flavor, n)
        assert verify_presentation(pres) == image_verify_presentation(pres)


@st.composite
def word_pairs(draw):
    """Two words of one flavor on 2..12 strands. The second is drawn
    independently, as the first with its letters shuffled, or as the first with
    l l^-1 or z_i z_i inserted, which touches rows and images that return to
    the identity. With `last` every letter sits on the last three strands."""
    flavor = draw(st.sampled_from(list(Flavor)))
    n = draw(st.integers(2, 12))
    kinds = {Flavor.BR: "s", Flavor.SYM: "z", Flavor.SB: "sa", Flavor.SG: "sa"}.get(flavor, "sz")
    # z is an involution, and a has no inverse in the monoid sb
    fixed = "za" if flavor is Flavor.SB else "z"
    low = max(1, n - 2) if draw(st.booleans()) else 1
    letter = st.builds(
        lambda kind, i, e: Letter(kind, i, 1 if kind in fixed else e),
        st.sampled_from(kinds),
        st.integers(low, n - 1),
        st.sampled_from([1, -1]),
    )
    first = draw(st.lists(letter, max_size=8))
    how = draw(st.sampled_from(("independent", "shuffled", "inserted")))
    if how == "independent":
        second = draw(st.lists(letter, max_size=8))
    elif how == "shuffled":
        second = draw(st.permutations(first))
    else:
        second = list(first)
        for lt in draw(st.lists(letter, min_size=1, max_size=3)):
            if lt.kind == "a" and flavor is Flavor.SB:
                continue
            at = draw(st.integers(0, len(second)))
            second[at:at] = [lt, lt.inverse()]
    return GroupWord(flavor, n, first), GroupWord(flavor, n, second)


@settings(max_examples=400, deadline=None)
@given(word_pairs())
def test_keys_equal_exactly_when_images_do(pair):
    w1, w2 = pair
    for check in CHECKS_BY_FLAVOR[w1.flavor]:
        key, describe = _MAPS[check]
        image = IMAGE_MAPS[check]
        a, b = image(w1), image(w2)
        k1, k2 = key(w1), key(w2)
        assert (k1 == k2) == (a == b), check
        if k1 != k2:
            assert describe(k1, k2) == image_detail(check, a, b)


def test_verify_builds_no_images(monkeypatch):
    """A relator is decided from what its sides touch: verifying VB_30 builds
    no n x n matrix, no n images and no n-point permutation."""
    pres = relators("vb", 30)
    built = Counter()
    for cls in (LPMatrix, FreeAut, Permutation, AbelianImage):

        def counting(self, post_init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    records = verify_presentation(pres)
    assert records and all(r.passed for r in records)
    assert not built
    burau(pres.relators[0].lhs)  # the counting does see a public image
    assert built == {"LPMatrix": 1}


def test_records_in_database_order_and_deterministic():
    a = verify_range("bp", 2, 4)
    b = verify_range("bp", 2, 4)
    assert a == b
    ns = [r.n for r in a]
    assert ns == sorted(ns)
