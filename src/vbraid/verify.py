"""Relation verification harness.

Runs every relator of a presentation through every applicable map and
reports exact pass/fail per (relator, check). Group flavors with
representations are checked there; the monoid flavors, which carry no
matrix or automorphism image here, are checked by the bounded rewrite
search instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .braidword import Flavor, Presentation, bfs_equal, relators
from .errors import CheckNotApplicableError, StrandCountError
from .reps import abelianize, aut_rep, burau, exp_sum, perm_proj

# every check but "bfs" compares the images of a relator's two sides under a map
_MAPS = {
    "burau": burau,
    "aut": aut_rep,
    "perm": perm_proj,
    "exp_sum": exp_sum,
    "abelianize": abelianize,
}

CHECKS_BY_FLAVOR = {
    Flavor.VB: ("burau", "aut", "perm", "exp_sum", "abelianize"),
    Flavor.BP: ("burau", "aut", "perm", "exp_sum", "abelianize"),
    Flavor.BR: ("burau", "aut", "perm", "exp_sum"),
    Flavor.SYM: ("burau", "aut", "perm", "exp_sum"),
    Flavor.SB: ("bfs",),
    Flavor.SG: ("bfs",),
}


@dataclass(frozen=True, slots=True)
class CheckRecord:
    n: int
    relator: str
    check: str
    passed: bool

    def to_json_obj(self):
        return asdict(self)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"n={self.n} {self.relator} {self.check} {status}"


def verify_presentation(pres: Presentation, checks=None):
    """Run the chosen checks on every relator; records in database order."""
    if checks is None:
        checks = CHECKS_BY_FLAVOR[pres.flavor]
    else:
        allowed = set(CHECKS_BY_FLAVOR[pres.flavor])
        bad = [c for c in checks if c not in allowed]
        if bad:
            raise CheckNotApplicableError(
                f"checks {bad} not applicable to flavor {pres.flavor.value}"
            )
    records = []
    for rel in pres.relators:
        for name in checks:
            if name == "bfs":
                passed = bool(bfs_equal(rel.lhs, rel.rhs, depth=2))
            else:
                f = _MAPS[name]
                passed = f(rel.lhs) == f(rel.rhs)
            records.append(CheckRecord(pres.n, rel.name, name, passed))
    return records


def verify_range(flavor, n_lo: int, n_hi: int, checks=None):
    """Verify the flavor's presentations for every n in [n_lo, n_hi].

    Raises StrandCountError for an empty range or one that starts below 2.
    """
    flavor = Flavor(flavor)
    if n_lo > n_hi:
        raise StrandCountError(f"empty strand range {n_lo}..{n_hi}")
    records = []
    for n in range(n_lo, n_hi + 1):
        records.extend(verify_presentation(relators(flavor, n), checks))
    return records
