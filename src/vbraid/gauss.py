"""Gauss codes: parsing, validation, and extraction from virtual braid closures.

A Gauss code is the cyclic sequence of over/under crossing visits of a knot
diagram, written as concatenated tokens like "O1U2O3U1O2U3". Virtual
crossings are not recorded: a Gauss diagram encodes classical crossings only.

Crossing convention for closures (fixed here, matching a positive crossing
with the strand entering at the lower-numbered position on top): at s_i the
strand entering at position i passes over; at s_i^-1 it passes under.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index

from .braidword import GroupWord
from .errors import GaussSyntaxError, LabelCountError, NotAKnotError, ShapeError
from .perm import p_is_cycle
from .reps import perm_proj

OVER = "O"
UNDER = "U"


def _first_visit(visits):
    """The visits with their labels renumbered 1, 2, ... in order of first appearance."""
    numbers = {}
    return tuple((p, numbers.setdefault(label, len(numbers) + 1)) for p, label in visits)


@dataclass(frozen=True, slots=True)
class GaussCode:
    """Sequence of (passage, label) visits, checked in one pass: each visit is an
    O or U passage with an integer label (else GaussSyntaxError), and each label
    appears once as O and once as U, numbered 1, 2, ... in first-visit order
    (else LabelCountError)."""

    visits: tuple  # tuple of (passage in {"O", "U"}, label int)

    def __post_init__(self):
        try:
            given = iter(self.visits)
        except TypeError:
            raise ShapeError(f"visits must be a sequence, got {self.visits!r}") from None
        seen = {OVER: set(), UNDER: set()}
        visits = []
        for visit in given:
            try:
                passage, label = visit
                label, labels = index(label), seen[passage]
            except (TypeError, ValueError, KeyError):
                raise GaussSyntaxError(f"bad visit {visit!r}: want (O or U, integer)") from None
            if label in labels:
                raise LabelCountError(f"label {label} appears twice as {passage}")
            labels.add(label)
            visits.append((passage, label))
        if seen[OVER] != seen[UNDER]:
            label = min(seen[OVER] ^ seen[UNDER])
            raise LabelCountError(f"label {label} must appear exactly once as O and once as U")
        visits = tuple(visits)
        if visits != _first_visit(visits):
            raise LabelCountError("labels must be numbered 1, 2, ... in first-visit order")
        object.__setattr__(self, "visits", visits)

    @property
    def crossings(self):
        return len(self.visits) // 2

    def __str__(self):
        return "".join(f"{p}{l}" for p, l in self.visits)

    def rotations(self):
        """All cyclic rotations, each relabeled to canonical form."""
        v = self.visits
        return [GaussCode(_first_visit(v[i:] + v[:i])) for i in range(max(len(v), 1))]

    def equals_up_to_rotation(self, other) -> bool:
        return other in self.rotations()


def _trusted_code(visits):
    """The GaussCode of `visits`, a tuple of (O or U, int label) visits in which
    each label appears once as O and once as U, numbered 1, 2, ... in
    first-visit order; it skips the constructor's checks, so only this module
    calls it."""
    out = object.__new__(GaussCode)
    object.__setattr__(out, "visits", visits)
    return out


_GAUSS_TOKEN = re.compile(r"([OU])([0-9]+)")


def parse_gauss(text: str) -> GaussCode:
    """Parse concatenated O<k>/U<k> tokens; whitespace is ignored."""
    compact = "".join(text.split())
    visits = []
    pos = 0
    while pos < len(compact):
        m = _GAUSS_TOKEN.match(compact, pos)
        if m is None:
            raise GaussSyntaxError(f"cannot parse Gauss code at offset {pos}: {compact[pos:]!r}")
        visits.append((m.group(1), int(m.group(2))))
        pos = m.end()
    return GaussCode(tuple(visits))


def closure_code(w: GroupWord) -> GaussCode:
    """Gauss code of the closure of a virtual braid word, which must be a knot.

    The closed diagram is traversed from the top of strand position 1;
    each classical crossing is recorded twice (over and under), virtual
    crossings are skipped. Labels follow first-visit order. Raises
    FlavorError, from perm_proj, for a flavor without a permutation image.

    The walk passes each letter once on each of its two positions, so every
    classical crossing is visited once over and once under, and the code is
    built by ``_trusted_code`` with no second check.
    """
    if not p_is_cycle(perm_proj(w)):
        raise NotAKnotError("closure has more than one component")

    # after[step] = (next step touching position i, next touching i + 1) for
    # the letter at step on positions i, i + 1; first[p] = first step touching p
    letters, n = w.letters, w.n
    first = [None] * (n + 2)
    after = [None] * len(letters)
    for step in reversed(range(len(letters))):
        i = letters[step].index
        after[step] = (first[i], first[i + 1])
        first[i] = first[i + 1] = step

    visits = []  # each crossing labelled by its step in the word until renumbered
    pos = 1
    step = first[pos]
    passes = 0
    # the closure permutation is an n-cycle, so the walker passes through
    # the braid exactly n times before returning to the start
    while passes < n:
        if step is None:  # bottom of the braid: close up to the top
            passes += 1
            step = first[pos]
            continue
        lt = letters[step]
        i = lt.index
        if lt.kind == "s":
            entering_low = pos == i
            over = entering_low if lt.exponent == 1 else not entering_low
            visits.append((OVER if over else UNDER, step))
        pos = i + 1 if pos == i else i
        step = after[step][pos - i]
    return _trusted_code(_first_visit(visits))
