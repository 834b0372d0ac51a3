import random

from hypothesis import strategies as st

from vbraid.braidword import Flavor, GroupWord, Letter, Presentation, Relator, parse_word
from vbraid.errors import InexactDivisionError, NonUnitDeterminantError, SizeMismatchError
from vbraid.freegrp import FreeAut, FreeWord, aut_compose
from vbraid.laurent import ONE, T, T_INV, ZERO, LaurentPoly
from vbraid.lpmatrix import LPMatrix, identity_rows, mat_mul
from vbraid.monoidal import mu, shift, widen, zeta_block
from vbraid.perm import Permutation
from vbraid.reps import abelianize, aut_rep, burau, exp_sum, perm_proj
from vbraid.verify import CHECKS_BY_FLAVOR, CheckRecord


def random_letter(rng, flavor, n):
    flavor = Flavor(flavor)
    kinds = {
        Flavor.BR: "s",
        Flavor.SYM: "z",
        Flavor.VB: "sz",
        Flavor.BP: "sz",
        Flavor.SB: "sa",
        Flavor.SG: "sa",
    }[flavor]
    kind = rng.choice(kinds)
    index = rng.randrange(1, n)
    if kind == "z":
        return Letter("z", index)
    if kind == "a" and flavor is Flavor.SB:
        return Letter("a", index)
    return Letter(kind, index, rng.choice((1, -1)))


def random_word(rng, flavor, n, length):
    return GroupWord(flavor, n, [random_letter(rng, flavor, n) for _ in range(length)])


def validated_presentation(pres):
    """pres rebuilt with every relator side passed through the validating
    GroupWord constructor: the presentation as GroupWord would check it."""
    def check(w):
        return GroupWord(w.flavor, w.n, w.letters)

    return Presentation(
        pres.flavor, pres.n, tuple(Relator(r.name, check(r.lhs), check(r.rhs)) for r in pres.relators)
    )


def relator_side_faults(pres):
    """A line for each relator side of pres that is not the validating
    constructor's word of its own fields, in value or in field types (a str
    flavor or a list of letters would compare equal); empty when all are."""
    faults = []
    for rel in pres.relators:
        for side, w in (("lhs", rel.lhs), ("rhs", rel.rhs)):
            checked = GroupWord(w.flavor, w.n, w.letters)
            types = (type(w.flavor), type(w.n), type(w.letters))
            if w != checked or types != (Flavor, int, tuple):
                faults.append(f"{pres.flavor.value} n={pres.n} {rel.name} {side}: {w!r} {types}")
    return faults


def reference_relators(flavor, n):
    """The relators of (flavor, n) as per-flavor loops build them, each side
    through the validating GroupWord constructor: the oracle for the schema
    table that ``relators`` instantiates."""
    flavor = Flavor(flavor)
    allowed = {
        Flavor.BR: "s", Flavor.SYM: "z", Flavor.VB: "sz",
        Flavor.BP: "sz", Flavor.SB: "sa", Flavor.SG: "sa",
    }[flavor]
    rels = []

    def add(name, lhs, rhs):
        rels.append(Relator(name, GroupWord(flavor, n, lhs), GroupWord(flavor, n, rhs)))

    s = {i: Letter("s", i) for i in range(1, n)}
    z = {i: Letter("z", i) for i in range(1, n)}
    a = {i: Letter("a", i) for i in range(1, n)}
    s_inv = {i: Letter("s", i, -1) for i in range(1, n)}
    a_inv = {i: Letter("a", i, -1) for i in range(1, n)}

    if "z" in allowed:
        for i in range(1, n):
            add(f"zeta_sq:i={i}", (z[i], z[i]), ())
        for i in range(1, n):
            for j in range(i + 2, n):
                add(f"zeta_comm:i={i},j={j}", (z[i], z[j]), (z[j], z[i]))
        for i in range(1, n - 1):
            add(f"zeta_braid:i={i}", (z[i], z[i + 1], z[i]), (z[i + 1], z[i], z[i + 1]))

    if "s" in allowed:
        for i in range(1, n):
            for j in range(i + 2, n):
                add(f"sigma_comm:i={i},j={j}", (s[i], s[j]), (s[j], s[i]))
        for i in range(1, n - 1):
            add(f"sigma_braid:i={i}", (s[i], s[i + 1], s[i]), (s[i + 1], s[i], s[i + 1]))

    if flavor in (Flavor.VB, Flavor.BP):
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) > 1:
                    add(f"mixed_comm:i={i},j={j}", (s[i], z[j]), (z[j], s[i]))
        for i in range(1, n - 1):
            add(f"mixed_zzs:i={i}", (z[i], z[i + 1], s[i]), (s[i + 1], z[i], z[i + 1]))
    if flavor is Flavor.BP:
        for i in range(1, n - 1):
            add(f"mixed_ssz:i={i}", (s[i], s[i + 1], z[i]), (z[i + 1], s[i], s[i + 1]))

    if "a" in allowed:
        for i in range(1, n):
            for j in range(i + 2, n):
                add(f"a_comm:i={i},j={j}", (a[i], a[j]), (a[j], a[i]))
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) != 1:
                    add(f"as_comm:i={i},j={j}", (a[i], s[j]), (s[j], a[i]))
        for i in range(1, n - 1):
            add(f"ssa:i={i}", (s[i], s[i + 1], a[i]), (a[i + 1], s[i], s[i + 1]))
            add(f"ssa_rev:i={i}", (s[i + 1], s[i], a[i + 1]), (a[i], s[i + 1], s[i]))
        for i in range(1, n):
            add(f"sigma_inv_r:i={i}", (s[i], s_inv[i]), ())
            add(f"sigma_inv_l:i={i}", (s_inv[i], s[i]), ())
        if flavor is Flavor.SG:
            for i in range(1, n):
                add(f"a_inv_r:i={i}", (a[i], a_inv[i]), ())
                add(f"a_inv_l:i={i}", (a_inv[i], a[i]), ())

    return tuple(rels)


def reference_rewrite_rules(flavor, n):
    """reference_relators plus the free cancellation of s letters in br, vb
    and bp: the oracle for ``rewrite_rules``. z cancellation is the zeta_sq
    relator, and sb and sg carry their cancellations as relators."""
    flavor = Flavor(flavor)
    rules = list(reference_relators(flavor, n))
    if flavor in (Flavor.BR, Flavor.VB, Flavor.BP):
        empty = GroupWord(flavor, n)
        for i in range(1, n):
            for side, seq in (("r", [Letter("s", i), Letter("s", i, -1)]),
                              ("l", [Letter("s", i, -1), Letter("s", i)])):
                rules.append(Relator(f"cancel_s_{side}:i={i}", GroupWord(flavor, n, seq), empty))
    return tuple(rules)


def make_rng(seed=0):
    return random.Random(seed)


@st.composite
def rep_words(draw, flavors, max_n, max_len, far_end=False, cancelling=False):
    """Words of the flavors with representations, on 2..max_n strands.

    With `far_end` every letter sits at the last index, n - 1; with
    `cancelling` each drawn letter is followed by its inverse, so every row
    and image the word touches returns to the identity.
    """
    flavor = Flavor(draw(st.sampled_from(flavors)))
    n = draw(st.integers(2, max_n))
    kinds = {Flavor.BR: "s", Flavor.SYM: "z"}.get(flavor, "sz")
    letter = st.builds(
        lambda kind, i, e: Letter(kind, i, 1 if kind == "z" else e),
        st.sampled_from(kinds),
        st.just(n - 1) if far_end else st.integers(1, n - 1),
        st.sampled_from([1, -1]),
    )
    letters = draw(st.lists(letter, max_size=max_len))
    if cancelling:
        letters = [x for lt in letters for x in (lt, lt.inverse())]
    return GroupWord(flavor, n, letters)


def burau_generator(letter, n):
    """Oracle: the full n x n Burau image of one generator letter, written out."""
    i = letter.index
    m = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    r0, r1 = i - 1, i
    if letter.kind == "z":
        block = ((ZERO, ONE), (ONE, ZERO))
    elif letter.exponent == 1:
        block = ((ONE - T, T), (ONE, ZERO))
    else:
        block = ((ZERO, ONE), (T_INV, ONE - T_INV))
    m[r0][r0], m[r0][r1] = block[0]
    m[r1][r0], m[r1][r1] = block[1]
    return LPMatrix(m)


def burau_product(w):
    """Oracle: the Burau image as the product M(lk) ... M(l1) of generator matrices."""
    m = LPMatrix.identity(w.n)
    for lt in w.letters:
        m = mat_mul(burau_generator(lt, w.n), m)
    return m


def dense_burau(w):
    """Oracle: the Burau image by dense row updates of the full n x n identity,
    every entry of both rows combined per letter, zeros included."""
    n = w.n
    rows = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for lt in w.letters:
        i = lt.index - 1
        ri, rj = rows[i], rows[i + 1]
        if lt.kind == "z":
            rows[i], rows[i + 1] = rj, ri
        elif lt.exponent == 1:
            rows[i] = [(ONE - T) * a + T * b for a, b in zip(ri, rj)]
            rows[i + 1] = ri
        else:
            rows[i] = rj
            rows[i + 1] = [T_INV * a + (ONE - T_INV) * b for a, b in zip(ri, rj)]
    return LPMatrix(rows)


def gauss_jordan_inverse(a):
    """Oracle: mat_inverse as first written. Bareiss elimination of [A | I]
    updates the rows above each pivot as well as those below (Gauss-Jordan),
    which leaves det(A) * A^-1 in the right block; that block is then
    multiplied by det(A)^-1."""
    n = a.n
    rows = [[*row, *unit] for row, unit in zip(a.entries, identity_rows(n))]
    prev = ONE
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            raise NonUnitDeterminantError("singular matrix")
        if p != k:
            rows[k], rows[p] = [-e for e in rows[p]], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = rows[i]
            neg_f = -row[k]
            for j in range(k + 1, 2 * n):
                e = pivot * row[j]
                if neg_f and pivot_row[j]:
                    e = e + neg_f * pivot_row[j]
                row[j] = e.exact_div(prev)
        prev = pivot
    unit = prev.is_unit()
    if unit is None:
        raise NonUnitDeterminantError(f"determinant {prev} is not a unit")
    s, k = unit
    det_inv = LaurentPoly({-k: s})
    return LPMatrix([[e * det_inv for e in row[n:]] for row in rows])


# Oracles: the chained loops that `laurent.dot` replaced in `lpmatrix` and
# `reps`, run on the dict ring below (d_add, d_neg, d_mul, d_exact_div) over
# each entry's `.terms`: one product, sum or quotient at a time. They do no
# LaurentPoly arithmetic, which is all built on `dot`, so comparing the
# matrix layer with them does not compare `dot` with itself.


def _dict_rows(m):
    return [[e.terms for e in row] for row in m.entries]


def _matrix(rows):
    return LPMatrix([[LaurentPoly(e) for e in row] for row in rows])


def chained_mat_mul(a, b):
    """mat_mul with one product and one sum per nonzero term of each entry."""
    bt = list(zip(*_dict_rows(b)))
    out = []
    for arow in _dict_rows(a):
        row = []
        for bcol in bt:
            acc = {}
            for x, y in zip(arow, bcol):
                if x and y:
                    acc = d_add(acc, d_mul(x, y))
            row.append(acc)
        out.append(row)
    return _matrix(out)


def _dict_bareiss(rows):
    """lpmatrix._bareiss on dict rows, each entry update (pivot*x + neg_f*y) / prev."""
    n = len(rows)
    prev = {0: 1}
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return {}
        if p != k:
            rows[k], rows[p] = [d_neg(e) for e in rows[p]], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1:]:
            neg_f = d_neg(row[k])
            for j in range(k + 1, len(row)):
                x, y = row[j], pivot_row[j]
                if neg_f and y:
                    row[j] = d_exact_div(d_add(d_mul(pivot, x), d_mul(neg_f, y)), prev)
                elif x:
                    row[j] = pivot if x == prev else d_exact_div(d_mul(pivot, x), prev)
        prev = pivot
    return prev


def chained_bareiss(rows):
    """_dict_bareiss on rows of LaurentPoly, whose entries it replaces in place."""
    terms = [[e.terms for e in row] for row in rows]
    prev = _dict_bareiss(terms)
    rows[:] = [[LaurentPoly(e) for e in row] for row in terms]
    return LaurentPoly(prev)


def chained_det(a):
    return LaurentPoly(_dict_bareiss(_dict_rows(a)))


def chained_inverse(a):
    """mat_inverse with _dict_bareiss and a back-substitution that keeps
    each row's partial sums in an `acc` list, then divides each entry."""
    n = a.n
    rows = [[*row, *({0: 1} if i == j else {} for j in range(n))]
            for i, row in enumerate(_dict_rows(a))]
    det = _dict_bareiss(rows)
    if len(det) != 1 or abs(*det.values()) != 1:
        raise NonUnitDeterminantError(f"determinant {det} is not a unit")
    inverse = [None] * n
    for i in reversed(range(n)):
        row = rows[i]
        acc = row[n:]
        for j in range(i + 1, n):
            if row[j]:
                neg_u = d_neg(row[j])
                acc = [d_add(e, d_mul(neg_u, x)) if x else e for e, x in zip(acc, inverse[j])]
        inverse[i] = [d_exact_div(e, row[i]) for e in acc]
    return _matrix(inverse)


def _dict_combine(a, ra, b, rb):
    """reps._combine on dict entries, each shared column's sum out[c] + b * e."""
    out = {c: d_mul(a, e) for c, e in ra.items()}
    for c, e in rb.items():
        e = d_add(out[c], d_mul(b, e)) if c in out else d_mul(b, e)
        if e:
            out[c] = e
        else:
            del out[c]
    return out


def chained_combine(a, ra, b, rb):
    """_dict_combine on LaurentPoly factors and sparse rows {column: LaurentPoly}."""
    ra, rb = ({c: e.terms for c, e in r.items()} for r in (ra, rb))
    return {c: LaurentPoly(e) for c, e in _dict_combine(a.terms, ra, b.terms, rb).items()}


def chained_burau(w):
    """burau by sparse dict row updates through _dict_combine."""
    one_minus_t, t, t_inv, one_minus_t_inv = {0: 1, 1: -1}, {1: 1}, {-1: 1}, {0: 1, -1: -1}
    touched = {}
    for lt in w.letters:
        i = lt.index - 1
        ri = touched.get(i) or {i: {0: 1}}
        rj = touched.get(i + 1) or {i + 1: {0: 1}}
        if lt.kind == "z":
            touched[i], touched[i + 1] = rj, ri
        elif lt.exponent == 1:
            touched[i], touched[i + 1] = _dict_combine(one_minus_t, ri, t, rj), ri
        else:
            touched[i], touched[i + 1] = rj, _dict_combine(t_inv, ri, one_minus_t_inv, rj)
    rows = [[{0: 1} if r == c else {} for c in range(w.n)] for r in range(w.n)]
    for r, entries in touched.items():
        rows[r] = [entries.get(c, {}) for c in range(w.n)]
    return _matrix(rows)


def aut_generator(letter, n):
    """Oracle: the automorphism of one generator letter, from fresh generator images."""
    images = [FreeWord.generator(k) for k in range(1, n + 1)]
    i = letter.index
    if letter.kind == "z":
        images[i - 1], images[i] = FreeWord.generator(i + 1), FreeWord.generator(i)
    elif letter.exponent == 1:
        images[i - 1], images[i] = FreeWord.generator(i + 1), FreeWord([(i + 1, -1), (i, 1), (i + 1, 1)])
    else:
        images[i - 1], images[i] = FreeWord([(i, 1), (i + 1, 1), (i, -1)]), FreeWord.generator(i)
    return FreeAut(n, images)


def aut_product(w):
    """Oracle: rho(lk) o ... o rho(l1), each rho(l) built from fresh generator images."""
    f = FreeAut(w.n, [FreeWord.generator(k) for k in range(1, w.n + 1)])
    for lt in w.letters:
        f = aut_compose(aut_generator(lt, w.n), f)
    return f


def _free_product(*words):
    """The product of FreeWords, its letters joined and reduced by the checked
    FreeWord constructor (not by `freegrp.mul_letters`)."""
    return FreeWord([letter for w in words for letter in w.letters])


def _free_inverse(w):
    """The inverse of a FreeWord, its letters listed in reverse with each
    exponent negated (not by `freegrp.invert_letters`)."""
    return FreeWord([(g, -e) for g, e in reversed(w.letters)])


def freeword_aut_images(w):
    """Oracle: `reps.aut_images` as first written, each image a FreeWord, with
    products and inverses of its own that share no code with `freegrp`'s
    letter-tuple product and inverse."""
    identity = [FreeWord.generator(k) for k in range(1, w.n + 1)]
    touched = {}
    for lt in reversed(w.letters):
        i = lt.index - 1
        a, b = touched.get(i, identity[i]), touched.get(i + 1, identity[i + 1])
        if lt.kind == "z":
            touched[i], touched[i + 1] = b, a
        elif lt.exponent == 1:
            touched[i], touched[i + 1] = b, _free_product(_free_inverse(b), a, b)
        else:
            touched[i], touched[i + 1] = _free_product(a, b, _free_inverse(a)), a
    return touched


def commutation_normal(indices):
    """Oracle: the lexicographically least word equal to `indices` using only the
    interchanges i j = j i for |i - j| > 1, by a greedy rescan of the remaining
    letters for each output letter (O(L^3))."""
    remaining = list(indices)
    out = []
    while remaining:
        best = None
        for p, idx in enumerate(remaining):
            if any(abs(idx - remaining[k]) <= 1 for k in range(p)):
                continue
            if best is None or idx < remaining[best]:
                best = p
        out.append(remaining.pop(best))
    return tuple(out)


def word_coherence(m, n, q):
    """Oracle: `check_coherence` as first written, on words built by `shift`,
    `widen` and `concat`, B2 compared by `commutation_normal`."""
    total = m + n + q
    b1_lhs = widen(zeta_block(m, n), total).concat(shift(zeta_block(m, q), n))
    if b1_lhs.letters != zeta_block(m, n + q).letters:
        return False
    b2_lhs = shift(zeta_block(n, q), m).concat(widen(zeta_block(m, q), total))
    b2_rhs = zeta_block(m + n, q)
    return commutation_normal(lt.index for lt in b2_lhs.letters) == commutation_normal(
        lt.index for lt in b2_rhs.letters
    )


def aut_naturality(m, n, w1, w2):
    """Oracle: `check_naturality` as first written, comparing the `aut_rep` of
    zeta_block(n, m) . mu(w1, w2) . zeta_block(m, n) and of mu(w2, w1) built
    by `concat` and `mu` from the words read in vb."""
    w1, w2 = (GroupWord(Flavor.VB, w.n, w.letters) for w in (w1, w2))
    conjugated = zeta_block(n, m).concat(mu(w1, w2)).concat(zeta_block(m, n))
    return aut_rep(conjugated) == aut_rep(mu(w2, w1))


def sigma_sq_word(w):
    """Oracle: the Br_n word of an sb or sg word with each a_i^e written out
    as s_i^e s_i^e, substituted in its text and parsed again."""
    tokens = [f"s{t[1:]} s{t[1:]}" if t[0] == "a" else t for t in str(w).split()]
    return parse_word(" ".join(tokens), "br", w.n)


IMAGE_MAPS = {
    "burau": burau,
    "sigma_sq": lambda w: burau(sigma_sq_word(w)),
    "aut": aut_rep,
    "perm": perm_proj,
    "exp_sum": exp_sum,
    "abelianize": abelianize,
}


def image_detail(check, a, b):
    """Oracle: the first component in which the unequal public images a and b
    of a check's map differ, read off the images themselves."""
    if check in ("burau", "sigma_sq"):
        r = next(r for r, (x, y) in enumerate(zip(a.entries, b.entries), start=1) if x != y)
        return f"Burau row {r}"
    if check == "aut":
        i = next(i for i, (x, y) in enumerate(zip(a.images, b.images), start=1) if x != y)
        return f"Aut image of x{i}"
    if check == "perm":
        # the inverse sends a position to the strand that ends there
        a, b = a.inverse(), b.inverse()
        p = next(p for p in range(1, a.n + 1) if a(p) != b(p))
        return f"strand at position {p}"
    if check == "exp_sum":
        return f"exp_sum {a} vs {b}"
    name = next(f for f in ("zeta_parity", "sigma_sum") if getattr(a, f) != getattr(b, f))
    return f"{name} {getattr(a, name)} vs {getattr(b, name)}"


def image_verify_presentation(pres, checks=None):
    """Oracle: verify_presentation as first written. Each check compares the
    public images of a relator's two sides (an n x n LPMatrix, a FreeAut of n
    images, an n-point Permutation), and a FAIL's detail is read off them."""
    records = []
    for rel in pres.relators:
        for check in checks or CHECKS_BY_FLAVOR[pres.flavor]:
            f = IMAGE_MAPS[check]
            a, b = f(rel.lhs), f(rel.rhs)
            passed = a == b
            detail = None if passed else image_detail(check, a, b)
            records.append(CheckRecord(pres.n, rel.name, check, passed, detail))
    return records


def p_compose(f, g):
    """Oracle: f after g, the permutation x -> f(g(x))."""
    if f.n != g.n:
        raise SizeMismatchError(f"cannot compose permutations of sizes {f.n} and {g.n}")
    return Permutation(f(g(x)) for x in range(1, f.n + 1))


def p_transposition(i, n):
    """Oracle: the transposition swapping i and i+1 in {1..n}."""
    if not 1 <= i <= n - 1:
        raise IndexError(f"transposition index {i} out of range for n={n}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(images)


# Oracle: Laurent polynomial arithmetic on {exponent: coefficient} dicts that
# never store a zero coefficient, one term at a time.


def d_add(a, b):
    terms = dict(a)
    for exp, coef in b.items():
        new = terms.get(exp, 0) + coef
        if new:
            terms[exp] = new
        elif exp in terms:
            del terms[exp]
    return terms


def d_neg(a):
    return {e: -c for e, c in a.items()}


def d_mul(a, b):
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            new = terms.get(e, 0) + c1 * c2
            if new:
                terms[e] = new
            elif e in terms:
                del terms[e]
    return terms


def d_exact_div(a, b):
    """Dense long division from the top down; a remainder raises InexactDivisionError."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    out = {}
    if not a:
        return out
    lo, hi = min(a), max(a)
    dlo, dhi = min(b), max(b)
    qlo = lo - dlo
    rem = [0] * (hi - lo + 1)
    for e, c in a.items():
        rem[e - lo] = c
    divisor = [(e - dlo, c) for e, c in b.items()]
    for qe in range(hi - dhi, qlo - 1, -1):
        top = rem[qe + dhi - lo]
        if not top:
            continue
        qc, r = divmod(top, b[dhi])
        if r:
            raise InexactDivisionError("remainder")
        out[qe] = qc
        for off, c in divisor:
            rem[qe - qlo + off] -= qc * c
    if any(rem):
        raise InexactDivisionError("remainder")
    return out
