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

from .braidword import GroupWord
from .errors import GaussSyntaxError, LabelCountError, NotAKnotError
from .perm import p_is_cycle
from .reps import perm_proj

OVER = "O"
UNDER = "U"


@dataclass(frozen=True, slots=True)
class GaussCode:
    """Sequence of (passage, label) visits; labels canonical in first-visit order."""

    visits: tuple  # tuple of (passage in {"O", "U"}, label int)

    def __post_init__(self):
        object.__setattr__(self, "visits", tuple(self.visits))
        over = {}
        under = {}
        for passage, label in self.visits:
            if passage not in (OVER, UNDER):
                raise GaussSyntaxError(f"bad passage {passage!r}")
            bucket = over if passage == OVER else under
            bucket[label] = bucket.get(label, 0) + 1
        labels = set(over) | set(under)
        for label in labels:
            if over.get(label, 0) != 1 or under.get(label, 0) != 1:
                raise LabelCountError(
                    f"label {label} must appear exactly once as O and once as U"
                )
        k = len(labels)
        if labels and labels != set(range(1, k + 1)):
            raise LabelCountError(f"labels must be 1..{k}")
        # canonical form: labels numbered in first-visit order
        order = []
        for _, label in self.visits:
            if label not in order:
                order.append(label)
        if order != sorted(order):
            raise LabelCountError("labels must be numbered in first-visit order")

    @property
    def crossings(self):
        return len(self.visits) // 2

    def __str__(self):
        return "".join(f"{p}{l}" for p, l in self.visits)

    def rotations(self):
        """All cyclic rotations, each relabeled to canonical form."""
        k = len(self.visits)
        out = []
        for start in range(max(k, 1)):
            rotated = self.visits[start:] + self.visits[:start]
            relabel = {}
            canon = []
            for passage, label in rotated:
                if label not in relabel:
                    relabel[label] = len(relabel) + 1
                canon.append((passage, relabel[label]))
            out.append(GaussCode(tuple(canon)))
        return out

    def equals_up_to_rotation(self, other) -> bool:
        return other in self.rotations()


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

    labels = {}  # crossing, identified by its letter index in the word -> label
    visits = []
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
            if step not in labels:
                labels[step] = len(labels) + 1
            entering_low = pos == i
            over = entering_low if lt.exponent == 1 else not entering_low
            visits.append((OVER if over else UNDER, labels[step]))
        pos = i + 1 if pos == i else i
        step = after[step][pos - i]
    return GaussCode(tuple(visits))
