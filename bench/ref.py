"""The benchmark's own reference mathematics, written apart from vbraid.

Words are tuples of letters ``(kind, index, exponent)`` with kind in
``"s" "z" "a"``; ``z`` letters always carry exponent +1.  Everything here
follows the conventions vbraid documents (leftmost letter acts first), but
shares no code with it, so the output checks compare the program against an
independent computation.  Nothing in this module imports vbraid.
"""

from __future__ import annotations


def letter_text(letter):
    kind, index, exp = letter
    return f"{kind}{index}" + ("^-1" if exp == -1 else "")


def word_text(word):
    return " ".join(letter_text(lt) for lt in word)


def parse_text(text):
    out = []
    for tok in text.split():
        exp = -1 if tok.endswith("^-1") else 1
        out.append((tok[0], int(tok[1:].split("^")[0]), exp))
    return tuple(out)


def invert(word):
    return tuple((k, i, 1 if k == "z" else -e) for k, i, e in reversed(word))


def free_reduce(word):
    """Cancel x x^-1 pairs and z z pairs; a letters cancel only against a^-1."""
    stack = []
    for k, i, e in word:
        if stack and stack[-1][:2] == (k, i) and (k == "z" or stack[-1][2] == -e):
            stack.pop()
        else:
            stack.append((k, i, e))
    return tuple(stack)


# ---------------------------------------------------------------------------
# Permutation, exponent sum, virtual count
# ---------------------------------------------------------------------------


def strand_perm(word, n):
    """Images of points 1..n: each letter swaps the strands at positions i, i+1."""
    at = list(range(n + 1))  # at[p] = strand now at position p
    for _, i, _ in word:
        at[i], at[i + 1] = at[i + 1], at[i]
    images = [0] * n
    for p in range(1, n + 1):
        images[at[p] - 1] = p
    return tuple(images)


def cycle_labels(images):
    """label[x] for x in 1..n (index 0 unused): points of one cycle share a label."""
    label = [0] * (len(images) + 1)
    for start in range(1, len(images) + 1):
        x = start
        while not label[x]:
            label[x] = start
            x = images[x - 1]
    return label


def is_n_cycle(images):
    return len(set(cycle_labels(images)[1:])) == 1


def exponent_sum(word):
    return sum(e for k, _, e in word if k == "s")


def virtual_count(word):
    return sum(1 for k, _, _ in word if k == "z")


def classical_count(word):
    return sum(1 for k, _, _ in word if k == "s")


# ---------------------------------------------------------------------------
# Burau matrix over Z[t, t^-1], polynomials as {exponent: coefficient}
# ---------------------------------------------------------------------------

_ONE = {0: 1}
# generator blocks [[a, b], [c, d]] on rows i, i+1 (documented images)
_BLOCKS = {
    ("s", 1): (({0: 1, 1: -1}, {1: 1}), (_ONE, {})),
    ("s", -1): (({}, _ONE), ({-1: 1}, {0: 1, -1: -1})),
    ("z", 1): (({}, _ONE), (_ONE, {})),
}


def _pmul_add(acc, p, q):
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            c = acc.get(e, 0) + c1 * c2
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)


def burau_dict(word, n):
    """Rows of M(l_k) ... M(l_1) as lists of {exp: coef} dicts."""
    rows = [[dict(_ONE) if r == c else {} for c in range(n)] for r in range(n)]
    for k, i, e in word:
        (a, b), (c, d) = _BLOCKS[(k, e)]
        ri, rj = rows[i - 1], rows[i]
        new_i, new_j = [], []
        for x, y in zip(ri, rj):
            p, q = {}, {}
            _pmul_add(p, a, x)
            _pmul_add(p, b, y)
            _pmul_add(q, c, x)
            _pmul_add(q, d, y)
            new_i.append(p)
            new_j.append(q)
        rows[i - 1], rows[i] = new_i, new_j
    return rows


def burau_terms(rows):
    return sum(len(p) for row in rows for p in row)


def det_terms(word):
    """det Burau(w) = (-t)^e (-1)^z as {e: sign}."""
    e, z = exponent_sum(word), virtual_count(word)
    return {e: -1 if (e + z) % 2 else 1}


# ---------------------------------------------------------------------------
# Aut F_n images, free words as tuples of (generator, exponent)
# ---------------------------------------------------------------------------


def _gen_images(letter, n):
    k, i, e = letter
    images = {g: ((g, 1),) for g in range(1, n + 1)}
    xi, xj = (i, 1), (i + 1, 1)
    if k == "z":
        images[i], images[i + 1] = (xj,), (xi,)
    elif e == 1:
        images[i], images[i + 1] = (xj,), ((i + 1, -1), xi, xj)
    else:
        images[i], images[i + 1] = (xi, xj, (i, -1)), (xi,)
    return images


def _substitute(word, images):
    out = []
    for g, e in word:
        img = images[g] if e == 1 else [(h, -f) for h, f in reversed(images[g])]
        for h, f in img:
            if out and out[-1] == (h, -f):
                out.pop()
            else:
                out.append((h, f))
    return tuple(out)


def _aut_steps(word, n):
    """Images of x_1..x_n after each letter, freely reduced."""
    acc = [((g, 1),) for g in range(1, n + 1)]
    yield acc
    for letter in word:
        gen = _gen_images(letter, n)
        acc = [_substitute(img, gen) for img in acc]
        yield acc


def aut_images(word, n):
    """Images of x_1..x_n under rho(l_k) o ... o rho(l_1)."""
    for acc in _aut_steps(word, n):
        pass
    return acc


def aut_work(word, n, limit):
    """Image letters summed over all steps (what a step-by-step substitution
    rewrites), or None once past limit."""
    work = 0
    for acc in _aut_steps(word, n):
        work += sum(map(len, acc))
        if work > limit:
            return None
    return work


def is_freely_reduced(fword):
    return all(a != (b[0], -b[1]) for a, b in zip(fword, fword[1:]))


def free_abelian(fword, n):
    vec = [0] * n
    for g, e in fword:
        vec[g - 1] += e
    return tuple(vec)


# ---------------------------------------------------------------------------
# Presentations: relator schemas and rewrite rules
# ---------------------------------------------------------------------------

KINDS = {"br": "s", "sym": "z", "vb": "sz", "bp": "sz", "sb": "sa", "sg": "sa"}
GROUP_FLAVORS = ("br", "sym", "vb", "bp", "sg")
# checks verify runs per relator, by flavor (vbraid's documented check sets)
CHECKS_PER_RELATOR = {"vb": 5, "bp": 5, "br": 4, "sym": 4, "sb": 1, "sg": 1}


def _s(i, e=1):
    return ("s", i, e)


def _z(i):
    return ("z", i, 1)


def _a(i, e=1):
    return ("a", i, e)


def relator_schemas(flavor, n):
    """Every instance of every relation of the presentation, as name -> (lhs, rhs)."""
    kinds = KINDS[flavor]
    rels = {}

    def add(name, lhs, rhs):
        rels[name] = (tuple(lhs), tuple(rhs))

    pairs_far = [(i, j) for i in range(1, n) for j in range(i + 2, n)]
    if "z" in kinds:
        for i in range(1, n):
            add(f"zeta_sq:i={i}", [_z(i), _z(i)], [])
        for i, j in pairs_far:
            add(f"zeta_comm:i={i},j={j}", [_z(i), _z(j)], [_z(j), _z(i)])
        for i in range(1, n - 1):
            add(f"zeta_braid:i={i}", [_z(i), _z(i + 1), _z(i)], [_z(i + 1), _z(i), _z(i + 1)])
    if "s" in kinds:
        for i, j in pairs_far:
            add(f"sigma_comm:i={i},j={j}", [_s(i), _s(j)], [_s(j), _s(i)])
        for i in range(1, n - 1):
            add(f"sigma_braid:i={i}", [_s(i), _s(i + 1), _s(i)], [_s(i + 1), _s(i), _s(i + 1)])
    if flavor in ("vb", "bp"):
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) > 1:
                    add(f"mixed_comm:i={i},j={j}", [_s(i), _z(j)], [_z(j), _s(i)])
        for i in range(1, n - 1):
            add(f"mixed_zzs:i={i}", [_z(i), _z(i + 1), _s(i)], [_s(i + 1), _z(i), _z(i + 1)])
    if flavor == "bp":
        for i in range(1, n - 1):
            add(f"mixed_ssz:i={i}", [_s(i), _s(i + 1), _z(i)], [_z(i + 1), _s(i), _s(i + 1)])
    if "a" in kinds:
        for i, j in pairs_far:
            add(f"a_comm:i={i},j={j}", [_a(i), _a(j)], [_a(j), _a(i)])
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) != 1:
                    add(f"as_comm:i={i},j={j}", [_a(i), _s(j)], [_s(j), _a(i)])
        for i in range(1, n - 1):
            add(f"ssa:i={i}", [_s(i), _s(i + 1), _a(i)], [_a(i + 1), _s(i), _s(i + 1)])
            add(f"ssa_rev:i={i}", [_s(i + 1), _s(i), _a(i + 1)], [_a(i), _s(i + 1), _s(i)])
        for i in range(1, n):
            add(f"sigma_inv_r:i={i}", [_s(i), _s(i, -1)], [])
            add(f"sigma_inv_l:i={i}", [_s(i, -1), _s(i)], [])
        if flavor == "sg":
            for i in range(1, n):
                add(f"a_inv_r:i={i}", [_a(i), _a(i, -1)], [])
                add(f"a_inv_l:i={i}", [_a(i, -1), _a(i)], [])
    return rels


def rewrite_schemas(flavor, n):
    """Relators plus the named free-cancellation rules of a group flavor."""
    rules = relator_schemas(flavor, n)
    if flavor in GROUP_FLAVORS:
        for kind in "sa":
            if kind in KINDS[flavor]:
                for i in range(1, n):
                    rules.setdefault(f"cancel_{kind}_r:i={i}", (((kind, i, 1), (kind, i, -1)), ()))
                    rules.setdefault(f"cancel_{kind}_l:i={i}", (((kind, i, -1), (kind, i, 1)), ()))
    return rules


def splice(word, rules, name, direction, position):
    """One rewrite step by name; None when the pattern is not at the position."""
    lhs, rhs = rules[name]
    src, dst = (lhs, rhs) if direction == 1 else (rhs, lhs)
    if tuple(word[position:position + len(src)]) != src:
        return None
    return tuple(word[:position]) + dst + tuple(word[position + len(src):])


def record_count(flavor, n):
    return len(relator_schemas(flavor, n)) * CHECKS_PER_RELATOR[flavor]
