import pytest

from vbraid.braidword import Flavor, Presentation, Relator, parse_word, relators
from vbraid.errors import CheckNotApplicableError, StrandCountError
from vbraid.verify import CheckRecord, verify_presentation, verify_range


def test_all_flavors_pass_small():
    for flavor in Flavor:
        records = verify_range(flavor, 2, 4)
        assert records and all(r.passed for r in records), flavor


def test_record_line_format():
    rec = CheckRecord(3, "sigma_braid:1", "burau", True)
    assert rec.line() == "n=3 sigma_braid:1 burau PASS"
    assert CheckRecord(3, "x", "aut", False).line() == "n=3 x aut FAIL"


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


def test_bad_strand_range_typed():
    with pytest.raises(StrandCountError):
        verify_range("vb", 1, 3)
    with pytest.raises(StrandCountError):
        verify_range("vb", 5, 2)


def test_inapplicable_check_rejected():
    with pytest.raises(ValueError):
        verify_range("sb", 3, 3, checks=("burau",))
    with pytest.raises(ValueError):
        verify_range("vb", 3, 3, checks=("bfs",))


def test_injected_fault_is_detected():
    # a deliberately wrong relator must produce FAIL records, not crash
    bad = Relator(
        "bogus:1",
        parse_word("s1 s2", "vb", 3),
        parse_word("s2 s1", "vb", 3),
    )
    pres = relators("vb", 3)
    corrupted = Presentation(Flavor.VB, 3, pres.relators + (bad,))
    records = verify_presentation(corrupted)
    bogus = [r for r in records if r.relator == "bogus:1"]
    assert bogus
    assert not all(r.passed for r in bogus)
    # the maps that cannot see the difference still pass
    by_check = {r.check: r.passed for r in bogus}
    assert by_check["exp_sum"] and by_check["abelianize"]
    assert not by_check["burau"] and not by_check["perm"]


def test_records_in_database_order_and_deterministic():
    a = verify_range("bp", 2, 4)
    b = verify_range("bp", 2, 4)
    assert a == b
    ns = [r.n for r in a]
    assert ns == sorted(ns)
