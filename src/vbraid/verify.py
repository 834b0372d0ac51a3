"""Relation verification harness.

Runs every relator of a presentation through every applicable map and
reports exact pass/fail per (relator, check). vb, bp, br and sym are checked
under their representations. sb and sg have one check, `sigma_sq`: the Burau
image of the word with each a_i read as sigma_i^2. a_i -> sigma_i^2 is a
homomorphism SG_n -> Br_n, and SB_n sits inside SG_n (Fenn-Keyman-Rourke).

A relator side has a few letters and touches a few of its n strands, so a
map's check compares keys built from the cores in `reps`, never the n x n
images: the Burau rows and the Aut images the side touches, less those that
have returned to the identity, the strand order and the abelian counts.
Untouched rows and images are the identity on both sides, so two keys are
equal exactly when the two images are, and a relator costs O(letters) per
check. On a FAIL the record's detail names the first component that differs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .braidword import Flavor, Presentation, relators
from .errors import CheckNotApplicableError, ShapeError, StrandCountError, as_count
from .laurent import ONE
from .reps import abelian_pair, aut_key, burau_rows, exp_sum, perm_strands


def _burau_key(letters):
    """row -> sparse row for each Burau row that is not the identity row."""
    return {r: row for r, row in burau_rows(letters).items() if row != {r: ONE}}


def _sigma_sq_key(w):
    """The Burau key of w with each a_i^+-1 read as s_i^+-1 s_i^+-1: each a
    letter goes in twice, and `burau_rows` reads it as s."""
    return _burau_key([x for lt in w.letters for x in ((lt, lt) if lt.kind == "a" else (lt,))])


def _first_diff(a, b):
    """The least index at which two keys differ: dicts over the union of their
    indices (an absent index is the identity), sequences position by position."""
    if isinstance(a, dict):
        return min(i for i in a.keys() | b.keys() if a.get(i) != b.get(i))
    return next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)


def _burau_detail(a, b):
    return f"Burau row {_first_diff(a, b) + 1}"


def _abelian_detail(a, b):
    i = _first_diff(a, b)
    return f"{('zeta_parity', 'sigma_sum')[i]} {a[i]} vs {b[i]}"


# every check compares a key of a relator's two sides under a map, built
# from the map's core in `reps`; key equality is image equality. The second
# function names the first differing component of two unequal keys.
_MAPS = {
    "burau": (lambda w: _burau_key(w.letters), _burau_detail),
    "sigma_sq": (_sigma_sq_key, _burau_detail),
    "aut": (lambda w: aut_key(w.letters, w.n), lambda a, b: f"Aut image of x{_first_diff(a, b) + 1}"),
    "perm": (perm_strands, lambda a, b: f"strand at position {_first_diff(a, b)}"),
    "exp_sum": (exp_sum, lambda a, b: f"exp_sum {a} vs {b}"),
    "abelianize": (abelian_pair, _abelian_detail),
}

CHECKS_BY_FLAVOR = {
    Flavor.VB: ("burau", "aut", "perm", "exp_sum", "abelianize"),
    Flavor.BP: ("burau", "aut", "perm", "exp_sum", "abelianize"),
    Flavor.BR: ("burau", "aut", "perm", "exp_sum"),
    Flavor.SYM: ("burau", "aut", "perm", "exp_sum"),
    Flavor.SB: ("sigma_sq",),
    Flavor.SG: ("sigma_sq",),
}


@dataclass(frozen=True, slots=True)
class CheckRecord:
    n: int
    relator: str
    check: str
    passed: bool
    detail: str | None = None  # on a FAIL, the first component that differs

    def to_json_obj(self):
        obj = asdict(self)
        if self.detail is None:
            del obj["detail"]
        return obj

    def line(self):
        if self.passed:
            return f"n={self.n} {self.relator} {self.check} PASS"
        detail = "" if self.detail is None else f" ({self.detail})"
        return f"n={self.n} {self.relator} {self.check} FAIL{detail}"


_SET_N, _SET_RELATOR, _SET_CHECK, _SET_PASSED, _SET_DETAIL = (
    CheckRecord.__dict__[name].__set__ for name in ("n", "relator", "check", "passed", "detail")
)


def _record(n, relator, check, passed, detail):
    """CheckRecord(n, relator, check, passed, detail), its fields set through
    their slot descriptors. A CheckRecord has nothing to check, and
    `verify_presentation` builds one per relator and check, thousands a
    sweep: this takes ~0.44 us a record against ~0.82 us for the frozen
    constructor, which sets each field through object.__setattr__ (timeit,
    CPython 3.11 on a 2-vCPU VM)."""
    out = object.__new__(CheckRecord)
    _SET_N(out, n)
    _SET_RELATOR(out, relator)
    _SET_CHECK(out, check)
    _SET_PASSED(out, passed)
    _SET_DETAIL(out, detail)
    return out


def _select_checks(flavor, checks):
    """The checks to run, as a tuple: the flavor's default set for None.

    Raises ShapeError for a bare string or a value that is not iterable, and
    CheckNotApplicableError for an empty selection, a check named twice or a
    check the flavor does not have.
    """
    if checks is None:
        return CHECKS_BY_FLAVOR[flavor]
    if isinstance(checks, str):
        raise ShapeError(f"checks must be a sequence of check names, got the string {checks!r}")
    try:
        checks = tuple(checks)
    except TypeError:
        raise ShapeError(f"checks must be a sequence of check names, got {checks!r}") from None
    if not checks:
        raise CheckNotApplicableError("no checks selected")
    allowed = CHECKS_BY_FLAVOR[flavor]
    bad = [c for c in checks if c not in allowed]
    if bad:
        raise CheckNotApplicableError(f"checks {bad} not applicable to flavor {flavor.value}")
    repeated = sorted({c for c in checks if checks.count(c) > 1})
    if repeated:
        raise CheckNotApplicableError(f"checks {repeated} selected more than once")
    return checks


def verify_presentation(pres: Presentation, checks=None):
    """Run the chosen checks on every relator; records in database order."""
    maps = [(name, *_MAPS[name]) for name in _select_checks(pres.flavor, checks)]
    records = []
    for rel in pres.relators:
        for name, key, describe in maps:
            a, b = key(rel.lhs), key(rel.rhs)
            passed = a == b
            detail = None if passed else describe(a, b)
            records.append(_record(pres.n, rel.name, name, passed, detail))
    return records


def verify_range(flavor, n_lo: int, n_hi: int, checks=None):
    """Verify the flavor's presentations for every n in [n_lo, n_hi].

    Raises StrandCountError for a bound that is not an integer, an empty
    range or one that starts below 2.
    """
    flavor = Flavor(flavor)
    n_lo, n_hi = as_count(n_lo), as_count(n_hi)
    if n_lo > n_hi:
        raise StrandCountError(f"empty strand range {n_lo}..{n_hi}")
    checks = _select_checks(flavor, checks)
    records = []
    for n in range(n_lo, n_hi + 1):
        records.extend(verify_presentation(relators(flavor, n), checks))
    return records
