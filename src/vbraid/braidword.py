"""Words over the generator alphabets of Br_n, Sigma_n, VB_n, BP_n, SB_n, SG_n.

Provides the relator database for each presentation, free reduction, and a
bounded bidirectional search for word equality with replayable witnesses.
The presentations are one table, ``_SCHEMAS``, of relation types over the
shared generators; one instantiator builds ``relators`` and the search's
rewrite rules from its rows.

Letter grammar (whitespace-separated): ``s``/``z``/``a`` + index + optional
``^-1``, e.g. ``"s1 s2^-1 z1"``. Virtual letters ``z`` are involutions, so
``z_i^-1`` is normalized to ``z_i`` at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from operator import index, itemgetter

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
    _SET_FLAVOR(out, flavor)
    _SET_N(out, n)
    _SET_LETTERS(out, letters)
    return out


# the slot setters of GroupWord's fields, which its frozen __setattr__ refuses
_SET_FLAVOR, _SET_N, _SET_LETTERS = (
    GroupWord.__dict__[field].__set__ for field in ("flavor", "n", "letters")
)


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
    """The relators of a flavor on n strands. Construction takes the flavor
    through ``Flavor``, n through ``as_count`` and the relators as a tuple,
    each a ``Relator`` (else ShapeError); the relators' own fields are not
    checked."""

    flavor: Flavor
    n: int
    relators: tuple  # tuple of Relator

    def __post_init__(self):
        flavor = Flavor(self.flavor)
        n = as_count(self.n)
        try:
            rels = tuple(self.relators)
        except TypeError:
            raise ShapeError(f"relators must be a sequence, got {self.relators!r}") from None
        for pos, rel in enumerate(rels):
            if not isinstance(rel, Relator):
                raise ShapeError(f"relator {rel!r} at position {pos} is not a Relator")
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "relators", rels)


# The relation types of the presentations, one row each, in relator order:
# (use, flavors, index form, schemas); "rule" rows are rewrite rules of the
# search, not relators. At each index pair, a row builds its schemas in order:
# (name, lhs, rhs), each side letters of kind, index i or j, and ' for an
# inverse. VB_n's relation types are BP_n's less mixed_ssz (Fenn-Rimanyi-Rourke 1997).
_SCHEMAS = (
    ("relator", "sym vb bp", "i", [("zeta_sq", "zi zi", "")]),
    ("relator", "sym vb bp", "far", [("zeta_comm", "zi zj", "zj zi")]),
    ("relator", "sym vb bp", "adjacent", [("zeta_braid", "zi zj zi", "zj zi zj")]),
    ("relator", "br vb bp sb sg", "far", [("sigma_comm", "si sj", "sj si")]),
    ("relator", "br vb bp sb sg", "adjacent", [("sigma_braid", "si sj si", "sj si sj")]),
    ("relator", "vb bp", "apart", [("mixed_comm", "si zj", "zj si")]),
    ("relator", "vb bp", "adjacent", [("mixed_zzs", "zi zj si", "sj zi zj")]),
    ("relator", "bp", "adjacent", [("mixed_ssz", "si sj zi", "zj si sj")]),
    ("relator", "sb sg", "far", [("a_comm", "ai aj", "aj ai")]),
    ("relator", "sb sg", "not-adjacent", [("as_comm", "ai sj", "sj ai")]),
    ("relator", "sb sg", "adjacent",
     [("ssa", "si sj ai", "aj si sj"), ("ssa_rev", "sj si aj", "ai sj si")]),
    # sigma^-1 is a generator of the monoid, so its inverse relations are relators there
    ("relator", "sb sg", "i", [("sigma_inv_r", "si si'", ""), ("sigma_inv_l", "si' si", "")]),
    ("relator", "sg", "i", [("a_inv_r", "ai ai'", ""), ("a_inv_l", "ai' ai", "")]),
    # free cancellation, so that every search step is a subword splice; z
    # cancellation is zeta_sq, and sb and sg carry theirs as relators
    ("rule", "br vb bp", "i", [("cancel_s_r", "si si'", ""), ("cancel_s_l", "si' si", "")]),
)

# index form -> (its index pairs (i, j) at n strands, a pair's label in names)
_INDEX_FORMS = {
    "i": (lambda n: [(i, i) for i in range(1, n)], "{0}"),
    "adjacent": (lambda n: [(i, i + 1) for i in range(1, n - 1)], "{0}"),
    "far": (lambda n: [(i, j) for i in range(1, n) for j in range(i + 2, n)], "{0},j={1}"),
    "apart": (
        lambda n: [(i, j) for i, j in product(range(1, n), repeat=2) if abs(i - j) > 1],
        "{0},j={1}",
    ),
    "not-adjacent": (
        lambda n: [(i, j) for i, j in product(range(1, n), repeat=2) if abs(i - j) != 1],
        "{0},j={1}",
    ),
}


def _compile(table):
    """flavor -> its rows of table, in order, each (is a rule, form, letters,
    schemas): the distinct (kind, exponent, 0 for i or 1 for j) its sides use,
    and (name prefix, lhs, rhs), a side the getter of its letters' positions."""
    rows = {flavor: [] for flavor in Flavor}
    for use, flavors, form, schemas in table:
        refs = {t: (t[0], -1 if t.endswith("'") else 1, "ij".index(t[1]))
                for _, *sides in schemas for side in sides for t in side.split()}
        letters = list(dict.fromkeys(refs.values()))

        def getter(side):
            at = [letters.index(refs[t]) for t in side.split()]
            if len(at) > 1:
                return itemgetter(*at)
            # itemgetter of one position or none gives no tuple; a slice does
            return itemgetter(slice(at[0], at[0] + 1) if at else slice(0))

        row = (use == "rule", form, letters,
               [(f"{name}:i=", getter(lhs), getter(rhs)) for name, lhs, rhs in schemas])
        for flavor in flavors.split():
            rows[Flavor(flavor)].append(row)
    return rows


_ROWS = _compile(_SCHEMAS)


def _instances(flavor, n, rules=False):
    """The relators of (flavor, n), then with rules the search's other rules:
    the flavor's rows of _SCHEMAS, each at its index pairs. The letters come
    from ``_letter`` in tables of one (kind, exponent), those the rows use;
    ``GroupWord`` checks each table once, and ``_trusted_word`` builds every
    side from them with no check of its own."""
    flavor = Flavor(flavor)
    n = as_count(n)
    if n < 2:
        raise StrandCountError(f"presentations require n >= 2, got {n}")
    tables, forms, out = {}, {}, []
    for is_rule, form, letters, schemas in _ROWS[flavor]:
        if is_rule and not rules:
            continue
        if form not in forms:  # the form's pairs as the is and the js, and their labels
            pairs, label = _INDEX_FORMS[form]
            ij = list(zip(*pairs(n))) or [(), ()]
            forms[form] = (list(map(label.format, *ij)), ij)
        labels, ij = forms[form]
        if not labels:
            continue
        columns = []
        for kind, e, k in letters:
            table = tables.get((kind, e))
            if table is None:
                word = GroupWord(flavor, n, [_letter(kind, i, e) for i in range(1, n)])
                table = tables[kind, e] = (None, *word.letters)
            columns.append(map(table.__getitem__, ij[k]))
        # at each pair, all of the row's schemas in order, then the next pair
        for label, at in zip(labels, zip(*columns)):
            for prefix, lhs, rhs in schemas:
                left, right = _trusted_word(flavor, n, lhs(at)), _trusted_word(flavor, n, rhs(at))
                out.append(Relator(prefix + label, left, right))
    return tuple(out)


def relators(flavor, n: int) -> Presentation:
    """Every instance of every relation schema of the presentation, for given n:
    the flavor's relator rows of ``_SCHEMAS``, in table order. Not cached: each
    call builds a new Presentation."""
    return Presentation(flavor, n, _instances(flavor, n))


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
    return RewriteEngine(_instances(flavor, n, rules=True))


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
