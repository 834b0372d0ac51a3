import random

from hypothesis import strategies as st

from vbraid.braidword import Flavor, GroupWord, Letter
from vbraid.errors import InexactDivisionError, SizeMismatchError
from vbraid.laurent import ONE, T, T_INV, ZERO
from vbraid.lpmatrix import LPMatrix
from vbraid.perm import Permutation


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


def make_rng(seed=0):
    return random.Random(seed)


@st.composite
def rep_words(draw, flavors, max_n, max_len):
    """Words of the flavors with representations, on 2..max_n strands."""
    flavor = Flavor(draw(st.sampled_from(flavors)))
    n = draw(st.integers(2, max_n))
    kinds = {Flavor.BR: "s", Flavor.SYM: "z"}.get(flavor, "sz")
    letter = st.builds(
        lambda kind, i, e: Letter(kind, i, 1 if kind == "z" else e),
        st.sampled_from(kinds),
        st.integers(1, n - 1),
        st.sampled_from([1, -1]),
    )
    return GroupWord(flavor, n, draw(st.lists(letter, max_size=max_len)))


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
