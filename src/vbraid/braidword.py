"""Words over the generator alphabets of Br_n, Sigma_n, VB_n, BP_n, SB_n, SG_n.

Provides the relator database for each presentation, free reduction, and a
bounded bidirectional search for word equality with replayable witnesses.

Letter grammar (whitespace-separated): ``s``/``z``/``a`` + index + optional
``^-1``, e.g. ``"s1 s2^-1 z1"``. Virtual letters ``z`` are involutions, so
``z_i^-1`` is normalized to ``z_i`` at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import index

from .errors import (
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
    as_count,
)


class Flavor(str, Enum):
    BR = "br"    # classical braid group
    SYM = "sym"  # symmetric group (virtual letters only)
    VB = "vb"    # virtual braid group
    BP = "bp"    # braid-permutation group
    SB = "sb"    # singular braid (Baez-Birman) monoid
    SG = "sg"    # singular braid group

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(f.value for f in cls)
        raise UnknownFlavorError(f"unknown flavor {value!r}; expected one of {names}")


# kinds: "s" classical crossing, "z" virtual crossing / welded letter,
# "a" singular generator
_ALLOWED_KINDS = {
    Flavor.BR: frozenset("s"),
    Flavor.SYM: frozenset("z"),
    Flavor.VB: frozenset("sz"),
    Flavor.BP: frozenset("sz"),
    Flavor.SB: frozenset("sa"),
    Flavor.SG: frozenset("sa"),
}

GROUP_FLAVORS = frozenset({Flavor.BR, Flavor.SYM, Flavor.VB, Flavor.BP, Flavor.SG})


@dataclass(frozen=True, slots=True)
class Letter:
    kind: str  # "s", "z" or "a"
    index: int
    exponent: int = 1

    def __post_init__(self):
        if self.kind not in ("s", "z", "a"):
            raise LetterError(f"unknown letter kind {self.kind!r}")
        try:  # checked, not converted: an integer-like value equals and hashes as its int
            i, e = index(self.index), index(self.exponent)
        except TypeError:
            raise LetterError(
                f"letter index and exponent must be integers: {self.index!r}, {self.exponent!r}"
            ) from None
        if i < 1:
            raise LetterError(f"letter index must be >= 1, got {i}")
        if e not in (1, -1):
            raise LetterError(f"letter exponent must be +-1, got {e}")
        if self.kind == "z" and e != 1:
            raise LetterError("z letters are involutions; exponent must be +1")

    def inverse(self):
        if self.kind == "z":
            return self
        return Letter(self.kind, self.index, -self.exponent)

    def __str__(self):
        suffix = "" if self.exponent == 1 else "^-1"
        return f"{self.kind}{self.index}{suffix}"


@lru_cache(maxsize=4096)
def _letter(kind, i, e):
    """The checked letter (kind, i, e), built on first use and then shared: the
    one table of generator letters that relators, block words and shifts take
    their letters from. Bounded, so shifting by ever new amounts cannot grow it."""
    return Letter(kind, i, e)


def S(i, e=1):
    return Letter("s", i, e)


def Z(i):
    return Letter("z", i)


def A(i, e=1):
    return Letter("a", i, e)


@dataclass(frozen=True, slots=True, repr=False)
class GroupWord:
    """A word in the given flavor on n strands. Construction is the one check of
    its letters against the flavor and n; each fault carries its letter's offset."""

    flavor: Flavor
    n: int
    letters: tuple = ()  # tuple of Letter

    def __post_init__(self):
        flavor = Flavor(self.flavor)
        n = as_count(self.n)
        try:
            letters = tuple(self.letters)
        except TypeError:
            raise ShapeError(f"letters must be a sequence, got {self.letters!r}") from None
        allowed = _ALLOWED_KINDS[flavor]
        for pos, lt in enumerate(letters):
            if not isinstance(lt, Letter):
                raise ShapeError(f"letter {lt!r} at position {pos} is not a Letter")
            if lt.kind not in allowed:
                raise LetterNotAllowedError(
                    f"letter kind {lt.kind!r} not allowed in flavor {flavor.value}", pos
                )
            if lt.index > n - 1:
                raise IndexOutOfRangeError(
                    f"letter index {lt.index} out of range for n={n} strands", pos
                )
            if flavor is Flavor.SB and lt.kind == "a" and lt.exponent != 1:
                raise InverseNotAllowedError(
                    "a letters have no inverses in the monoid flavor", pos
                )
        if n < 0:  # checked last, so a nonempty word reports its first letter
            raise StrandCountError(f"strand count must be nonnegative, got {n}")
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return " ".join(str(lt) for lt in self.letters)

    def __repr__(self):
        return f"GroupWord({self.flavor.value!r}, {self.n}, {str(self)!r})"

    def replace(self, letters):
        return GroupWord(self.flavor, self.n, letters)

    def concat(self, other):
        if self.flavor != other.flavor or self.n != other.n:
            raise SizeMismatchError("flavor or strand count mismatch in concat")
        return self.replace(self.letters + other.letters)


def _trusted_word(flavor, n, letters):
    """The GroupWord of `letters`, a tuple of letters that ``GroupWord(flavor,
    n, ...)`` admits, for a Flavor and an int n >= 0; it skips the
    constructor's checks, so only this module calls it."""
    out = object.__new__(GroupWord)
    object.__setattr__(out, "flavor", flavor)
    object.__setattr__(out, "n", n)
    object.__setattr__(out, "letters", letters)
    return out


_TOKEN_RE = re.compile(r"([sza])0*([1-9][0-9]*)(\^-1)?$")


def parse_word(text: str, flavor, n: int) -> GroupWord:
    """Tokenize word text; GroupWord then checks the letters against flavor and n.

    Each distinct token is matched and built into a Letter once per call, and
    the letters it stands for are that one object. Every WordSyntaxError carries
    the 0-based character position of its token; a malformed token is reported
    before any letter fault.
    """
    letters, seen = [], {}
    for token in text.split():
        letter = seen.get(token)
        if letter is None:
            m = _TOKEN_RE.match(token)
            if m is None:
                raise WordSyntaxError(
                    f"cannot parse token {token!r}", _token_start(text, len(letters))
                )
            kind, index, inv = m.groups()
            # z^2 = 1, so z^-1 = z
            letter = seen[token] = Letter(kind, int(index), -1 if inv and kind != "z" else 1)
        letters.append(letter)
    try:
        return GroupWord(flavor, n, letters)
    except WordSyntaxError as exc:
        raise type(exc)(exc.message, _token_start(text, exc.position)) from None


def _token_start(text: str, k: int) -> int:
    """Character offset of the k-th whitespace-separated token of text. A token
    holds no whitespace, so its first occurrence past the previous token's end
    is where it starts."""
    end = 0
    for token in text.split()[: k + 1]:
        start = text.index(token, end)
        end = start + len(token)
    return start


def free_reduce(w: GroupWord) -> GroupWord:
    """Cancel adjacent inverse pairs (and adjacent equal z letters) to a fixed point.

    In the monoid flavor, a letters carry no inverses and never cancel.
    """
    stack = []
    for lt in w.letters:
        if stack and _cancels(stack[-1], lt):
            stack.pop()
        else:
            stack.append(lt)
    return w.replace(stack)


def _cancels(a: Letter, b: Letter) -> bool:
    if a.kind != b.kind or a.index != b.index:
        return False
    if a.kind == "z":
        return True
    return a.exponent == -b.exponent


def invert_word(w: GroupWord) -> GroupWord:
    if w.flavor not in GROUP_FLAVORS:
        raise MonoidHasNoInversesError(
            f"flavor {w.flavor.value} is a monoid; words have no inverses"
        )
    return w.replace(tuple(lt.inverse() for lt in reversed(w.letters)))


@dataclass(frozen=True, slots=True)
class Relator:
    """A named pair of words asserted equal in the presentation."""

    name: str
    lhs: GroupWord
    rhs: GroupWord


@dataclass(frozen=True, slots=True)
class Presentation:
    flavor: Flavor
    n: int
    relators: tuple  # tuple of Relator


def relators(flavor, n: int) -> Presentation:
    """Every instance of every relation schema of the presentation, for given n.

    The letters come from tables of s, z, a, s^-1 and a^-1 at indices
    1..n-1, only those the flavor's schemas use. ``GroupWord`` checks each
    table's letters once, as one word; every relator side is a tuple of
    those letters and is built by ``_trusted_word``, with no check of its
    own. Not cached: each call builds a new Presentation.
    """
    flavor = Flavor(flavor)
    n = as_count(n)
    if n < 2:
        raise StrandCountError(f"presentations require n >= 2, got {n}")

    rels = []

    def add(name, lhs, rhs):
        rels.append(
            Relator(name, _trusted_word(flavor, n, lhs), _trusted_word(flavor, n, rhs))
        )

    def table(kind, e=1):
        # the letters come from the shared table, so relator sets share them;
        # GroupWord admits them once here, for every side built from them
        letters = GroupWord(flavor, n, [_letter(kind, i, e) for i in range(1, n)]).letters
        return dict(enumerate(letters, 1))

    # only the tables the flavor's schemas use: sb and sg use s^-1, sg a^-1
    allowed = _ALLOWED_KINDS[flavor]
    s = table("s") if "s" in allowed else None
    z = table("z") if "z" in allowed else None

    if "z" in allowed:
        for i in range(1, n):
            add(f"zeta_sq:i={i}", (z[i], z[i]), ())
        for i in range(1, n):
            for j in range(i + 2, n):
                add(f"zeta_comm:i={i},j={j}", (z[i], z[j]), (z[j], z[i]))
        for i in range(1, n - 1):
            add(
                f"zeta_braid:i={i}",
                (z[i], z[i + 1], z[i]),
                (z[i + 1], z[i], z[i + 1]),
            )

    if "s" in allowed:
        for i in range(1, n):
            for j in range(i + 2, n):
                add(f"sigma_comm:i={i},j={j}", (s[i], s[j]), (s[j], s[i]))
        for i in range(1, n - 1):
            add(
                f"sigma_braid:i={i}",
                (s[i], s[i + 1], s[i]),
                (s[i + 1], s[i], s[i + 1]),
            )

    if flavor in (Flavor.VB, Flavor.BP):
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) > 1:
                    add(f"mixed_comm:i={i},j={j}", (s[i], z[j]), (z[j], s[i]))
        for i in range(1, n - 1):
            add(
                f"mixed_zzs:i={i}",
                (z[i], z[i + 1], s[i]),
                (s[i + 1], z[i], z[i + 1]),
            )
    if flavor is Flavor.BP:
        for i in range(1, n - 1):
            add(
                f"mixed_ssz:i={i}",
                (s[i], s[i + 1], z[i]),
                (z[i + 1], s[i], s[i + 1]),
            )

    if "a" in allowed:
        a, s_inv = table("a"), table("s", -1)
        for i in range(1, n):
            for j in range(i + 2, n):
                add(f"a_comm:i={i},j={j}", (a[i], a[j]), (a[j], a[i]))
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) != 1:
                    add(f"as_comm:i={i},j={j}", (a[i], s[j]), (s[j], a[i]))
        for i in range(1, n - 1):
            add(
                f"ssa:i={i}",
                (s[i], s[i + 1], a[i]),
                (a[i + 1], s[i], s[i + 1]),
            )
            add(
                f"ssa_rev:i={i}",
                (s[i + 1], s[i], a[i + 1]),
                (a[i], s[i + 1], s[i]),
            )
        # sigma^-1 is a presentation generator of the monoid, so its
        # inverse relations are genuine relators here
        for i in range(1, n):
            add(f"sigma_inv_r:i={i}", (s[i], s_inv[i]), ())
            add(f"sigma_inv_l:i={i}", (s_inv[i], s[i]), ())
        if flavor is Flavor.SG:
            a_inv = table("a", -1)
            for i in range(1, n):
                add(f"a_inv_r:i={i}", (a[i], a_inv[i]), ())
                add(f"a_inv_l:i={i}", (a_inv[i], a[i]), ())

    return Presentation(flavor, n, tuple(rels))


# ---------------------------------------------------------------------------
# Bounded word-equality search
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """One rewrite: replace rule.lhs (direction=+1) or rule.rhs (-1) at position.

    A rule that is not a ``str``, or a direction or position that is not an
    integer (a bool included), raises ShapeError; a direction other than
    +-1 or a negative position raises WitnessError.
    """

    rule: str
    direction: int  # +1 applies lhs -> rhs, -1 applies rhs -> lhs
    position: int

    def __post_init__(self):
        d, p = self.direction, self.position
        try:  # checked, not converted, as Letter's fields are; a bool is refused
            if not isinstance(self.rule, str) or isinstance(d, bool) or isinstance(p, bool):
                raise TypeError
            d, p = index(d), index(p)
        except TypeError:
            raise ShapeError(
                f"a step needs a str rule and integer direction and position: {self!r}"
            ) from None
        if d not in (1, -1):
            raise WitnessError(f"step direction must be +-1, got {d}")
        if p < 0:
            raise WitnessError(f"step position must be >= 0, got {p}")

    def inverted(self):
        return RewriteStep(self.rule, -self.direction, self.position)


@dataclass(frozen=True, slots=True)
class EqualityResult:
    equal: bool
    witness: tuple | None = None  # tuple of RewriteStep when equal

    def __bool__(self):
        return self.equal


def rewrite_rules(flavor, n: int):
    """Relators plus the free-cancellation rules of invertible generators.

    Cancellation pairs are explicit rules so every search step is a pure
    subword splice; witnesses then replay exactly by splicing. Built once
    per (flavor, n), with its engine; every call for that pair returns the
    same tuple.
    """
    return rewrite_engine(flavor, n).rules


def _splice(w: GroupWord, step: RewriteStep, rule: Relator | None) -> GroupWord:
    if rule is None:
        raise WitnessError(f"step {step} names no rewrite rule")
    src, dst = (rule.lhs, rule.rhs) if step.direction == 1 else (rule.rhs, rule.lhs)
    p, k = step.position, len(src)
    if p + k > len(w) or w.letters[p : p + k] != src.letters:
        raise WitnessError(f"step {step} does not match word {w}")
    return w.replace(w.letters[:p] + dst.letters + w.letters[p + k :])


def replay_witness(w: GroupWord, witness, rules) -> GroupWord:
    """Apply the steps in order. Raises ShapeError if witness is not a
    sequence of RewriteSteps, and WitnessError if a step names no rule or its
    source is not at its position in the word (a position past the word's end
    included). The rule tuple that ``rewrite_rules`` returns for w's flavor
    and n is looked up in its engine's name map, built once with the engine;
    any other rule sequence is mapped by name on each call. At n >= 2 the
    engine of w's flavor and n is built if no search has built it yet."""
    # presentations, and so engines, start at two strands
    engine = _rewrite_engine(w.flavor, w.n) if w.n >= 2 else None
    if engine is not None and rules is engine.rules:
        by_name = engine.by_name
    else:
        by_name = {r.name: r for r in rules}
    try:
        steps = iter(witness)
    except TypeError:
        raise ShapeError(f"witness must be a sequence of RewriteSteps, got {witness!r}") from None
    for step in steps:
        if not isinstance(step, RewriteStep):
            raise ShapeError(f"witness step {step!r} is not a RewriteStep")
        w = _splice(w, step, by_name.get(step.rule))
    return w


_KIND_CODE = {"s": 0, "z": 1, "a": 2}


def _char(lt: Letter) -> str:
    """One character for every letter: distinct letters get distinct characters."""
    return chr(lt.index * 6 + _KIND_CODE[lt.kind] * 2 + (lt.exponent < 0))


def _chars(letters) -> str:
    return "".join(map(_char, letters))


class RewriteEngine:
    """The rewrite rules of one (flavor, n), compiled for the search.

    Move ``2*k`` applies rule k left to right and move ``2*k + 1`` right to
    left; both rewrite search words, which are ``str``s of one character per
    letter, so that each caches its hash and is sliced and joined in C. The
    moves are one list in move order, ``(move, src, dst, growth)``, where
    growth is ``len(dst) - len(src)``. ``fitting`` gives the moves whose growth
    is in a given set, still in move order; there are at most
    ``2**len(growths)`` such sets, and each list is built once per engine.
    ``by_name`` maps each rule's name to the rule, for ``replay_witness``.
    """

    __slots__ = ("rules", "by_name", "moves", "growths", "_fitting")

    def __init__(self, rules):
        self.rules = rules
        self.by_name = {r.name: r for r in rules}
        self.moves = []  # (move, src, dst, growth) in move order
        for k, rule in enumerate(rules):
            lhs, rhs = _chars(rule.lhs.letters), _chars(rule.rhs.letters)
            for move, src, dst in ((2 * k, lhs, rhs), (2 * k + 1, rhs, lhs)):
                self.moves.append((move, src, dst, len(dst) - len(src)))
        self.growths = frozenset(growth for *_, growth in self.moves)
        self._fitting = {}  # frozenset of growths -> the moves with one of them

    def fitting(self, fits):
        """The moves whose growth is in the frozenset fits, in move order."""
        moves = self._fitting.get(fits)
        if moves is None:
            moves = self._fitting[fits] = [m for m in self.moves if m[3] in fits]
        return moves

    def step(self, move, position, inverted=False):
        direction = -1 if move & 1 else 1
        return RewriteStep(
            self.rules[move >> 1].name,
            -direction if inverted else direction,
            position,
        )


def rewrite_engine(flavor, n: int) -> RewriteEngine:
    """The compiled rules of (flavor, n); built on first use, then shared."""
    return _rewrite_engine(Flavor(flavor), n)


@lru_cache(maxsize=None)
def _rewrite_engine(flavor, n):
    rules = list(relators(flavor, n).relators)
    # z cancellation is the zeta_sq relator, and the singular flavors carry
    # their cancellations as sigma_inv_* and a_inv_* relators
    if flavor in (Flavor.BR, Flavor.VB, Flavor.BP):
        empty = GroupWord(flavor, n)
        for i in range(1, n):
            for side, seq in (("r", [S(i), S(i, -1)]), ("l", [S(i, -1), S(i)])):
                lhs = GroupWord(flavor, n, seq)
                rules.append(Relator(f"cancel_s_{side}:i={i}", lhs, empty))
    return RewriteEngine(tuple(rules))


def _links_to_root(seen, node):
    """The (move, position) links from node back to its search root."""
    links = []
    while (link := seen[node]) is not None:
        node, move, p = link
        links.append((move, p))
    return links


def bfs_equal(w1: GroupWord, w2: GroupWord, depth: int = 6) -> EqualityResult:
    """Bidirectional breadth-first search over the rewrite graph.

    Returns Equal with a witness replaying w1 into w2, or Unknown if no
    derivation of at most `depth` rewrite steps exists whose words stay within
    max(len(w1), len(w2)) + 2 * depth letters.
    Unknown is never a claim of inequality. The search words are ``str``s,
    one character per letter. Each word is rewritten by one scan: the
    engine's moves in database order, and for each move its positions left
    to right. A move's source is found with ``str.find`` from one past its
    last occurrence, so overlapping occurrences are all tried, and a move
    with an empty source inserts at every position 0..len(word). That scan
    order is the exploration order and makes the witness deterministic.
    Only the moves whose result has a wanted length are scanned: one within
    the length bound, and in the last layer, which is only looked up in the
    other side's map, one that map holds. The moves skipped cannot hit, so
    the witness and its step order are those of the full search.
    Raises ShapeError if depth is not an integer (a bool included), as
    RewriteStep does, and NegativeDepthError if depth < 0.
    """
    if w1.flavor != w2.flavor or w1.n != w2.n:
        raise SizeMismatchError("words must share flavor and strand count")
    try:  # checked, not converted; a bool is refused
        if isinstance(depth, bool):
            raise TypeError
        depth = index(depth)
    except TypeError:
        raise ShapeError(f"search depth must be an integer, got {depth!r}") from None
    if depth < 0:
        raise NegativeDepthError(f"search depth must be >= 0, got {depth}")
    if w1.letters == w2.letters:
        return EqualityResult(True, ())
    stored = range(max(len(w1), len(w2)) + 2 * depth + 1)
    engine = rewrite_engine(w1.flavor, w1.n)

    start_f = _chars(w1.letters)
    start_b = _chars(w2.letters)
    # each visited word maps to (parent, move, position), roots to None
    fwd = {start_f: None}
    bwd = {start_b: None}
    frontier_f = [start_f]
    frontier_b = [start_b]
    used = 0

    while used < depth and (frontier_f or frontier_b):
        # expand the smaller frontier; ties expand forward for determinism
        expand_forward = len(frontier_f) <= len(frontier_b)
        frontier = frontier_f if expand_forward else frontier_b
        seen = fwd if expand_forward else bwd
        other = bwd if expand_forward else fwd
        new_frontier = []
        # the last layer is never expanded, so its words are only looked up
        # in the other map, and only lengths that map holds can hit; a word
        # already seen cannot be there, or the search would have stopped
        # when it entered the second map
        last = used == depth - 1
        lengths = set(map(len, other)) if last else stored
        by_size = {}  # word length -> the moves onto a wanted length
        for word in frontier:
            size = len(word)
            moves = by_size.get(size)
            if moves is None:
                fits = frozenset(g for g in engine.growths if size + g in lengths)
                moves = by_size[size] = engine.fitting(fits)
            for move, src, dst, _ in moves:
                # every occurrence of src, overlapping ones included, left to
                # right; an empty src is inserted at each of 0..size
                k = len(src)
                if k:
                    if src not in word:
                        continue
                    positions = [p := word.find(src)]
                    while (p := word.find(src, p + 1)) >= 0:
                        positions.append(p)
                else:
                    positions = range(size + 1)
                for p in positions:
                    nxt = word[:p] + dst + word[p + k :]
                    if last:
                        if nxt not in other:
                            continue
                    elif nxt in seen:
                        continue
                    seen[nxt] = (word, move, p)
                    if nxt in other:
                        # w1 to nxt by the forward links, then nxt back to w2
                        # by undoing the backward links
                        witness = [
                            engine.step(m, q)
                            for m, q in reversed(_links_to_root(fwd, nxt))
                        ]
                        witness += [
                            engine.step(m, q, inverted=True)
                            for m, q in _links_to_root(bwd, nxt)
                        ]
                        return EqualityResult(True, tuple(witness))
                    new_frontier.append(nxt)
        if expand_forward:
            frontier_f = new_frontier
        else:
            frontier_b = new_frontier
        used += 1

    return EqualityResult(False, None)
