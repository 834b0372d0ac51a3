"""The four workloads: seeded inputs, the timed operation and its output check.

Each workload class provides
  generate(rng)         -> specs, plain data made only from the seed
  texts(specs)          -> (word text, flavor, n) triples that set-up parses
  prepare(specs, tr)    -> the program objects each operation takes (set-up)
  run(item, tr)         -> the output of one operation (timed)
  check(spec, out)      -> list of error strings, empty when the output is right
  counts(specs, outs)   -> exact per-round counts for the traced run
  BUSY                  -> per-layer busy-time metric -> span name
Every check compares against ref.py, the benchmark's own mathematics, or
against a property the mathematics guarantees.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys

import ref
from vbraid import (
    abelianize,
    aut_rep,
    bfs_equal,
    burau,
    check_coherence,
    check_naturality,
    closure_code,
    mat_det,
    mat_inverse,
    mat_mul,
    parse_word,
    perm_proj,
    relators,
    replay_witness,
    rewrite_rules,
    verify_presentation,
)
from vbraid.errors import NotAKnotError

PARSE_SPAN = "braidword.parse_word"


def random_letter(rng, n, kind, pinv=0.5):
    """Random index in 1..n-1; s/a inverted with probability pinv."""
    index = 1 + int(rng.random() * (n - 1))
    return (kind, index, 1 if kind == "z" or rng.random() >= pinv else -1)


def random_word(rng, n, kinds, pinv=0.5):
    return tuple(random_letter(rng, n, k, pinv) for k in kinds)


def shuffled_kinds(rng, counts):
    kinds = [k for k, c in counts for _ in range(c)]
    rng.shuffle(kinds)
    return kinds


def composition(flavor, length, s_share=0.6):
    if len(ref.KINDS[flavor]) == 1:
        return [(ref.KINDS[flavor], length)]
    ks = round(length * s_share)
    other = "z" if "z" in ref.KINDS[flavor] else "a"
    return [("s", ks), (other, length - ks)]


def knot_word(rng, flavor, n, length, pinv=0.5):
    """A random word extended until its closure is a knot.

    Appending a letter whose strands i, i+1 lie in different cycles of the
    closure permutation merges the two cycles, so at most n - 1 letters are
    added before the permutation is an n-cycle.
    """
    kinds = ref.KINDS[flavor].replace("a", "")
    word = list(random_word(rng, n, shuffled_kinds(rng, composition(flavor, length)), pinv))
    while True:
        label = ref.cycle_labels(ref.strand_perm(word, n))
        joins = [i for i in range(1, n) if label[i] != label[i + 1]]
        if not joins:
            return tuple(word)
        kind, _, exp = random_letter(rng, n, kinds[int(rng.random() * len(kinds))], pinv)
        word.append((kind, rng.choice(joins), exp))


def link_word(rng, flavor, n, length, pinv=0.5):
    """A random word whose closure has more than one component."""
    kinds = shuffled_kinds(rng, composition(flavor, length))
    while True:
        word = random_word(rng, n, kinds, pinv)
        if not ref.is_n_cycle(ref.strand_perm(word, n)):
            return word


def closure_word(rng, flavor, n, length, want_knot):
    return (knot_word if want_knot else link_word)(rng, flavor, n, length)


def banded_word(rng, flavor, n, counts, pinv, size, band):
    """A random word whose size(word) lies in band (None counts as too big):
    this fixes the cost of a cliff operation instead of leaving it to the seed."""
    lo, hi = band
    for _ in range(5000):
        word = random_word(rng, n, shuffled_kinds(rng, counts), pinv)
        value = size(word)
        if value is not None and lo <= value <= hi:
            return word
    raise RuntimeError(f"no {flavor} word at n={n} in band {band}")


def letters_of(group_word):
    return tuple((lt.kind, lt.index, lt.exponent) for lt in group_word.letters)


def _terms(matrix):
    return [[e.terms for e in row] for row in matrix.entries]


def _identity_terms(n):
    return [[{0: 1} if r == c else {} for c in range(n)] for r in range(n)]


def _closure_or_none(w):
    try:
        return closure_code(w)
    except NotAKnotError:
        return None


def _prepare_words(specs, tr, keys):
    return [
        (spec,) + tuple(
            tr.call(PARSE_SPAN, parse_word, ref.word_text(spec[k]), spec["flavor"], spec["n"])
            for k in keys
        )
        for spec in specs
    ]


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


class Invariants:
    """Full invariant profile of seeded vb/bp/br words (flavors in turn).

    Strata (counts per round), cheapest first:
      small   30  n=3, 12 letters (+1 to close a knot), half knots
      medium  90  n=4 positive words, 2400-3200 Aut image letters summed
                  over the steps of the substitution
      aut     10  n=4 positive words, 5000-6500 such letters
      long    14  n=40, 600 letters extended to a knot: perm_proj,
                  abelianize and closure_code only
      matrix  10  n=7, 40 positive letters, Burau with 190-210 nonzero terms;
                  no Aut image, whose size at n=7 the band does not bound
    The median falls in the middle of `medium`, the 90th percentile in the
    middle of `long`, whose cost its size fixes.  Each stratum is one kind of
    word, and the bands keep each cliff operation's cost from swinging with
    the seed, so the percentiles move with the program, not with the seed.
    """

    name = "invariants"
    FLAVORS = ("vb", "bp", "br")
    BUSY = {
        "reps.aut_rep.busy_s": "reps.aut_rep",
        "lpmatrix.mat_det.busy_s": "lpmatrix.mat_det",
        "lpmatrix.mat_inverse.busy_s": "lpmatrix.mat_inverse",
        "lpmatrix.mat_mul.busy_s": "lpmatrix.mat_mul",
        "reps.burau.busy_s": "reps.burau",
        "reps.perm_proj.busy_s": "reps.perm_proj",
        "reps.abelianize.busy_s": "reps.abelianize",
        "gauss.closure_code.busy_s": "gauss.closure_code",
    }
    COUNTS = ("reps.aut_rep.calls", "freegrp.image_letters", "reps.burau.calls", "laurent.terms")

    def generate(self, rng):
        specs = []

        def add(stratum, flavor, n, word, matrices=True, aut=True):
            specs.append(dict(stratum=stratum, flavor=flavor, n=n, word=word,
                              matrices=matrices, aut=aut))

        for i in range(30):
            flavor = self.FLAVORS[i % 3]
            add("small", flavor, 3, closure_word(rng, flavor, 3, 12, i % 2 == 0))
        for stratum, count, band in (("medium", 90, (2400, 3200)), ("aut", 10, (5000, 6500))):
            for i in range(count):
                flavor = self.FLAVORS[i % 3]
                letters = 18 if stratum == "medium" else 21
                counts = [("s", letters + 6)] if flavor == "br" else [("s", letters), ("z", letters // 2)]
                word = banded_word(rng, flavor, 4, counts, 0.0,
                                   lambda w: ref.aut_work(w, 4, band[1]), band)
                add(stratum, flavor, 4, word)
        for i in range(14):
            flavor = self.FLAVORS[i % 3]
            add("long", flavor, 40, knot_word(rng, flavor, 40, 600), matrices=False, aut=False)
        for i in range(10):
            flavor = self.FLAVORS[i % 3]
            word = banded_word(rng, flavor, 7, composition(flavor, 40, 0.7), 0.0,
                               lambda w: ref.burau_terms(ref.burau_dict(w, 7)), (190, 210))
            add("matrix", flavor, 7, word, aut=False)
        return specs

    def texts(self, specs):
        return [(ref.word_text(s["word"]), s["flavor"], s["n"]) for s in specs]

    def prepare(self, specs, tr):
        return _prepare_words(specs, tr, ("word",))

    def run(self, item, tr):
        spec, w = item
        out = {}
        if spec["matrices"]:
            b = out["burau"] = tr.call("reps.burau", burau, w)
            out["det"] = tr.call("lpmatrix.mat_det", mat_det, b)
            inv = out["inverse"] = tr.call("lpmatrix.mat_inverse", mat_inverse, b)
            out["product"] = tr.call("lpmatrix.mat_mul", mat_mul, b, inv)
        if spec["aut"]:
            out["aut"] = tr.call("reps.aut_rep", aut_rep, w)
        out["perm"] = tr.call("reps.perm_proj", perm_proj, w)
        if spec["flavor"] != "br":
            out["abelian"] = tr.call("reps.abelianize", abelianize, w)
        out["closure"] = tr.call("gauss.closure_code", _closure_or_none, w)
        return out

    def check(self, spec, out):
        word, n = spec["word"], spec["n"]
        perm = ref.strand_perm(word, n)
        errors = []
        if spec["matrices"]:
            if out["det"].terms != ref.det_terms(word):
                errors.append("det(burau) is not (-t)^e (-1)^z")
            b = _terms(out["burau"])
            at_one = [[sum(p.values()) for p in row] for row in b]
            if at_one != [[int(r == perm[c] - 1) for c in range(n)] for r in range(n)]:
                errors.append("burau at t=1 is not the permutation matrix")
            if b != ref.burau_dict(word, n):
                errors.append("burau differs from the generator-block product")
            if _terms(out["product"]) != _identity_terms(n):
                errors.append("B * mat_inverse(B) is not I")
            if _terms(out["inverse"]) != ref.burau_dict(ref.invert(word), n):
                errors.append("mat_inverse(B) is not burau(w^-1)")
        if spec["aut"]:
            images = [img.letters for img in out["aut"].images]
            for j, img in enumerate(images):
                if not ref.is_freely_reduced(img):
                    errors.append(f"aut image of x{j + 1} is not freely reduced")
                unit = tuple(int(g == perm[j]) for g in range(1, n + 1))
                if ref.free_abelian(img, n) != unit:
                    errors.append(f"aut image of x{j + 1} does not abelianize to x{perm[j]}")
            if images != ref.aut_images(word, n):
                errors.append("aut images differ from the substitution")
        if out["perm"].images != perm:
            errors.append("perm_proj differs from the strand swaps")
        if "abelian" in out:
            got = (out["abelian"].zeta_parity, out["abelian"].sigma_sum)
            if got != (ref.virtual_count(word) % 2, ref.exponent_sum(word)):
                errors.append("abelianize is not (z mod 2, e)")
        knot = ref.is_n_cycle(perm)
        if (out["closure"] is not None) != knot:
            errors.append(f"closure_code produced={out['closure'] is not None}, knot={knot}")
        elif knot and len(out["closure"].visits) != 2 * ref.classical_count(word):
            errors.append("closure code does not visit each crossing twice")
        return errors

    def counts(self, specs, outs):
        return {
            "reps.aut_rep.calls": sum(1 for o in outs if "aut" in o),
            "freegrp.image_letters": sum(
                len(img) for o in outs if "aut" in o for img in o["aut"].images
            ),
            "reps.burau.calls": sum(1 for o in outs if "burau" in o),
            "laurent.terms": sum(
                len(e.terms) for o in outs if "burau" in o
                for row in o["burau"].entries for e in row
            ),
        }


# ---------------------------------------------------------------------------
# word_problem
# ---------------------------------------------------------------------------


def rewrite_walk(rng, flavor, n, word, steps, max_len):
    """Apply `steps` random named rewrites by the benchmark's own splicing."""
    rules = ref.rewrite_schemas(flavor, n)
    for _ in range(steps):
        moves = {}
        for name, (lhs, rhs) in rules.items():
            for src, dst, d in ((lhs, rhs, 1), (rhs, lhs, -1)):
                if len(word) - len(src) + len(dst) > max_len:
                    continue
                for p in range(len(word) - len(src) + 1):
                    if word[p:p + len(src)] == src:
                        moves.setdefault((name, d), []).append(p)
        name, d = rng.choice(sorted(moves))
        word = ref.splice(word, rules, name, d, rng.choice(moves[(name, d)]))
    return word


def equal_pair(rng, flavor, n, length, steps):
    """(w1, w2) with w2 != w1 made from w1 by `steps` random rewrites; a w1
    whose walks all come back to it is replaced by a fresh one."""
    while True:
        w1 = random_word(rng, n, shuffled_kinds(rng, composition(flavor, length)))
        w2 = rewrite_walk(rng, flavor, n, w1, steps, length + 2)
        if w2 != w1:
            return w1, w2


def replay_errors(w1, w2, steps, flavor, n, depth):
    """Replay (rule, direction, position) steps by the benchmark's own splicing."""
    if len(steps) > depth:
        return [f"witness has {len(steps)} steps, depth is {depth}"]
    rules = ref.rewrite_schemas(flavor, n)
    word = w1
    for rule, direction, position in steps:
        if rule not in rules:
            return [f"witness names unknown rule {rule}"]
        word = ref.splice(word, rules, rule, direction, position)
        if word is None:
            return [f"witness step {rule} does not match at {position}"]
    return [] if word == w2 else ["witness does not replay w1 to w2"]


FORBIDDEN = (ref.parse_text("s1 s2 z1"), ref.parse_text("z2 s1 s2"))


class WordProblem:
    """bfs_equal queries on seeded pairs in vb, bp, br and sg (flavors in turn).

    Kinds (counts per round):
      near       24  n=4, depth 4, w2 = one random named rewrite of w1 (5 letters)
      equal      72  n=4..6, depth 4 or 5, w2 = two random rewrites of w1
      diff       24  n=4..5, depth 4, w2 = w1 (4 letters) plus one letter, so
                     the permutations differ and the search exhausts its depth
      forbidden   2  s1 s2 z1 vs z2 s1 s2 at n=3, depth 5, in bp and in vb
    The median falls among the equal pairs, the 90th percentile in the middle
    of the pairs that exhaust the depth.  Each kind has a fixed make-up of
    flavors, n and depth, so the percentiles do not move with the seed.
    """

    name = "word_problem"
    FLAVORS = ("vb", "bp", "br", "sg")
    BUSY = {
        "braidword.bfs_equal.equal.busy_s": "braidword.bfs_equal.equal",
        "braidword.bfs_equal.unknown.busy_s": "braidword.bfs_equal.unknown",
        "braidword.rewrite_rules.busy_s": "braidword.rewrite_rules",
        "braidword.replay_witness.busy_s": "braidword.replay_witness",
    }
    COUNTS = ("braidword.bfs_equal.calls", "braidword.witness_steps")

    def generate(self, rng):
        specs = []
        for kind, count in (("near", 24), ("equal", 72)):
            for i in range(count):
                flavor = self.FLAVORS[i % 4]
                n, depth, steps = (4, 4, 1) if kind == "near" else (4 + (i // 4) % 3, 4 + (i // 12) % 2, 2)
                w1, w2 = equal_pair(rng, flavor, n, 5, steps)
                specs.append(dict(kind=kind, flavor=flavor, n=n, depth=depth, w1=w1, w2=w2))
        for i in range(24):
            flavor, n = self.FLAVORS[i % 4], 4 + (i // 4) % 2
            w1 = random_word(rng, n, shuffled_kinds(rng, composition(flavor, 4)))
            extra = random_word(rng, n, shuffled_kinds(rng, composition(flavor, 1)))
            p = rng.randint(0, len(w1))
            specs.append(dict(kind="diff", flavor=flavor, n=n, depth=4, w1=w1,
                              w2=w1[:p] + extra + w1[p:]))
        for flavor in ("bp", "vb"):
            specs.append(dict(kind="forbidden", flavor=flavor, n=3, depth=5,
                              w1=FORBIDDEN[0], w2=FORBIDDEN[1]))
        return specs

    def texts(self, specs):
        return [(ref.word_text(s[k]), s["flavor"], s["n"]) for s in specs for k in ("w1", "w2")]

    def prepare(self, specs, tr):
        return _prepare_words(specs, tr, ("w1", "w2"))

    def run(self, item, tr):
        spec, w1, w2 = item
        result = tr.call("braidword.bfs_equal", bfs_equal, w1, w2, spec["depth"])
        tr.rename_last("braidword.bfs_equal." + ("equal" if result.equal else "unknown"))
        replayed = None
        if result.equal:
            rules = tr.call("braidword.rewrite_rules", rewrite_rules, w1.flavor, w1.n)
            replayed = tr.call("braidword.replay_witness", replay_witness, w1, result.witness, rules)
        return result, replayed

    @staticmethod
    def expect_equal(spec):
        return spec["kind"] in ("near", "equal") or (spec["kind"] == "forbidden" and spec["flavor"] == "bp")

    def check(self, spec, out):
        result, replayed = out
        if not self.expect_equal(spec):
            return ["answered equal for a pair the invariants separate"] if result.equal else []
        if not result.equal:
            return ["constructed-equal pair not answered equal"]
        steps = [(s.rule, s.direction, s.position) for s in result.witness]
        errors = replay_errors(spec["w1"], spec["w2"], steps, spec["flavor"], spec["n"], spec["depth"])
        if letters_of(replayed) != spec["w2"]:
            errors.append("replay_witness does not reach w2")
        return errors

    def counts(self, specs, outs):
        return {
            "braidword.bfs_equal.calls": len(outs),
            "braidword.witness_steps": sum(len(r.witness) for r, _ in outs if r.equal),
        }


# ---------------------------------------------------------------------------
# verify_sweep
# ---------------------------------------------------------------------------


class VerifySweep:
    """Relator verification and monoidal checks (counts per round):
      verify      46  verify_presentation(relators(f, n)): vb/bp/br/sym n=2..10,
                      sb/sg n=2..6
      coherence   27  check_coherence(m, n, q), m, n, q in 1..3
      naturality  27  check_naturality on seeded 6-letter vb words, m, n in 1..3
    Only the naturality words depend on the seed.
    """

    name = "verify_sweep"
    VERIFY_FLAVORS = ("vb", "bp", "br", "sym", "sb", "sg")
    BUSY = {
        **{f"verify.verify_presentation.{f}.busy_s": f"verify.verify_presentation.{f}"
           for f in VERIFY_FLAVORS},
        "braidword.relators.busy_s": "braidword.relators",
        "monoidal.check_coherence.busy_s": "monoidal.check_coherence",
        "monoidal.check_naturality.busy_s": "monoidal.check_naturality",
    }
    COUNTS = ("verify.records",)

    def generate(self, rng):
        specs = []
        for flavor in self.VERIFY_FLAVORS:
            for n in range(2, 7 if flavor in ("sb", "sg") else 11):
                specs.append(dict(kind="verify", flavor=flavor, n=n))
        for m in range(1, 4):
            for n in range(1, 4):
                for q in range(1, 4):
                    specs.append(dict(kind="coherence", m=m, n=n, q=q))
        for m in range(1, 4):
            for n in range(1, 4):
                for _ in range(3):
                    w1, w2 = (random_word(rng, k, shuffled_kinds(rng, composition("vb", 6)))
                              if k > 1 else () for k in (m, n))
                    specs.append(dict(kind="naturality", m=m, n=n, w1=w1, w2=w2))
        return specs

    def texts(self, specs):
        return [(ref.word_text(s[k]), "vb", s[size]) for s in specs
                if s["kind"] == "naturality" for k, size in (("w1", "m"), ("w2", "n"))]

    def prepare(self, specs, tr):
        items = []
        for spec in specs:
            if spec["kind"] == "naturality":
                spec = dict(spec, flavor="vb")
                items.append((spec,
                              tr.call(PARSE_SPAN, parse_word, ref.word_text(spec["w1"]), "vb", spec["m"]),
                              tr.call(PARSE_SPAN, parse_word, ref.word_text(spec["w2"]), "vb", spec["n"])))
            else:
                items.append((spec,))
        return items

    def run(self, item, tr):
        spec = item[0]
        if spec["kind"] == "verify":
            pres = tr.call("braidword.relators", relators, spec["flavor"], spec["n"])
            return tr.call(f"verify.verify_presentation.{spec['flavor']}", verify_presentation, pres)
        if spec["kind"] == "coherence":
            return tr.call("monoidal.check_coherence", check_coherence, spec["m"], spec["n"], spec["q"])
        return tr.call("monoidal.check_naturality", check_naturality,
                       spec["m"], spec["n"], item[1], item[2])

    def check(self, spec, out):
        if spec["kind"] != "verify":
            return [] if out is True else [f"{spec['kind']} check does not hold"]
        errors = [f"record {r.relator} {r.check} fails" for r in out if not r.passed]
        want = ref.record_count(spec["flavor"], spec["n"])
        if len(out) != want:
            errors.append(f"{len(out)} records, the relator schemas give {want}")
        return errors

    def counts(self, specs, outs):
        return {"verify.records": sum(len(o) for s, o in zip(specs, outs) if s["kind"] == "verify")}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_SUBCOMMANDS = ("reduce", "burau", "det", "perm", "abelianize", "closure-gauss", "verify", "equal")
EXIT_OK, EXIT_PRECONDITION, EXIT_UNKNOWN = 0, 4, 10
_STEP_LINE = re.compile(r"  (\S+) (->|<-) at (\d+)$")


def cli_env():
    env = dict(os.environ)
    env.pop("VBRAID_BFS_DEPTH", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def invoke(argv, env):
    # no timeout, which would make the wait poll and quantize the time
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def _det_text(word, as_json):
    (e, c), = ref.det_terms(word).items()
    if as_json:
        return json.dumps({str(e): str(c)}, sort_keys=True)
    return str(c) if e == 0 else f"{c}*t^{e}"


def _burau_json(word, n):
    rows = ref.burau_dict(word, n)
    entries = [[{str(e): str(c) for e, c in sorted(p.items())} for p in row] for row in rows]
    return json.dumps({"n": n, "entries": entries}, sort_keys=True)


def _verify_lines(flavor, lo, hi):
    return sum(ref.record_count(flavor, n) for n in range(lo, hi + 1))


class Cli:
    """Cold `python -m vbraid.cli` runs: 13 per subcommand per round, 104 in all.

    Inputs are small (n=3..5, a few letters) so start-up and import dominate;
    --json alternates with plain output.  `equal` mixes constructed-equal
    pairs (exit 0) with the vb forbidden move (exit 10); `closure-gauss`
    mixes knots (exit 0) with links (exit 4).
    """

    name = "cli"
    BUSY = {}
    COUNTS = ()
    TIMES_MS = ("cli.interpreter_ms", "cli.import_ms") + tuple(f"cli.{sub}.p50_ms" for sub in CLI_SUBCOMMANDS)
    PER_SUBCOMMAND = 13

    def generate(self, rng):
        specs = []
        for i in range(self.PER_SUBCOMMAND):
            as_json = i % 2 == 1
            n = 3 + i % 3

            def vb_word(length):
                return random_word(rng, n, shuffled_kinds(rng, composition("vb", length)))

            base = vb_word(4)
            specs.append(dict(sub="reduce", json=False, flavor="vb", n=n,
                              word=base + ref.invert(base[2:]) + vb_word(3)))
            for sub in ("burau", "det", "perm", "abelianize"):
                flavor = "bp" if sub == "abelianize" and i % 3 == 0 else "vb"
                specs.append(dict(sub=sub, json=as_json, flavor=flavor, n=n, word=vb_word(8)))
            specs.append(dict(sub="closure-gauss", json=False, flavor="vb", n=n,
                              word=closure_word(rng, "vb", n, 8, i % 2 == 0)))
            specs.append(dict(sub="verify", json=as_json, flavor=VerifySweep.VERIFY_FLAVORS[i % 6],
                              lo=2, hi=3 + i % 2))
            if i % 4 == 3:
                specs.append(dict(sub="equal", json=as_json, flavor="vb", n=3, depth=3,
                                  w1=FORBIDDEN[0], w2=FORBIDDEN[1]))
            else:
                flavor = ("vb", "bp", "br", "sg")[i % 4]
                w1, w2 = equal_pair(rng, flavor, 4, 4, 1 + i % 2)
                specs.append(dict(sub="equal", json=as_json, flavor=flavor, n=4, depth=3, w1=w1, w2=w2))
        return specs

    def texts(self, specs):
        out = []
        for s in specs:
            out += [(ref.word_text(s[k]), s["flavor"], s["n"]) for k in ("word", "w1", "w2") if k in s]
        return out

    def prepare(self, specs, tr):
        for s in specs:
            for k in ("word", "w1", "w2"):
                if k in s:
                    tr.call(PARSE_SPAN, parse_word, ref.word_text(s[k]), s["flavor"], s["n"])
        env = cli_env()
        items = []
        for s in specs:
            argv = [sys.executable, "-m", "vbraid.cli"] + (["--json"] if s["json"] else []) + [s["sub"]]
            if s["sub"] == "verify":
                argv += ["--flavor", s["flavor"], "-n", f"{s['lo']}..{s['hi']}"]
            elif s["sub"] == "equal":
                argv += ["--flavor", s["flavor"], "-n", str(s["n"]), "--depth", str(s["depth"]),
                         ref.word_text(s["w1"]), ref.word_text(s["w2"])]
            else:
                argv += ["--flavor", s["flavor"], "-n", str(s["n"]), ref.word_text(s["word"])]
            items.append((s, argv, env))
        return items

    def run(self, item, tr):
        spec, argv, env = item
        return tr.call("cli." + spec["sub"], invoke, argv, env)

    def check(self, spec, out):
        rc, stdout = out
        sub, want_rc = spec["sub"], EXIT_OK
        lines = stdout.splitlines()
        errors = []
        if sub == "reduce":
            want = [ref.word_text(ref.free_reduce(spec["word"]))]
            errors += [] if lines == want else ["reduce output differs"]
        elif sub == "burau":
            errors += [] if lines == [_burau_json(spec["word"], spec["n"])] else ["burau output differs"]
        elif sub == "det":
            errors += [] if lines == [_det_text(spec["word"], spec["json"])] else ["det output differs"]
        elif sub == "perm":
            images = list(ref.strand_perm(spec["word"], spec["n"]))
            want = json.dumps(images) if spec["json"] else "[" + ",".join(map(str, images)) + "]"
            errors += [] if lines == [want] else ["perm output differs"]
        elif sub == "abelianize":
            want = json.dumps({"sigma_sum": ref.exponent_sum(spec["word"]),
                               "zeta_parity": ref.virtual_count(spec["word"]) % 2}, sort_keys=True)
            errors += [] if lines == [want] else ["abelianize output differs"]
        elif sub == "closure-gauss":
            word, n = spec["word"], spec["n"]
            if ref.is_n_cycle(ref.strand_perm(word, n)):
                library = str(closure_code(parse_word(ref.word_text(word), "vb", n)))
                if lines != [library]:
                    errors.append("closure-gauss output differs from closure_code")
                elif len(re.findall(r"[OU]\d+", library)) != 2 * ref.classical_count(word):
                    errors.append("closure-gauss code does not visit each crossing twice")
            else:
                want_rc = EXIT_PRECONDITION
                errors += [] if not lines else ["closure-gauss printed a code for a link"]
        elif sub == "verify":
            want_n = _verify_lines(spec["flavor"], spec["lo"], spec["hi"])
            if spec["json"]:
                records = json.loads(stdout) if lines else []
                ok = all(r["passed"] for r in records)
            else:
                records = lines
                ok = all(line.endswith(" PASS") for line in lines)
            if not ok:
                errors.append("verify reports a failing record")
            if len(records) != want_n:
                errors.append(f"verify printed {len(records)} records, schemas give {want_n}")
        elif sub == "equal":
            errors += self._check_equal(spec, stdout, lines)
            if spec["w1"] == FORBIDDEN[0] and spec["flavor"] == "vb":
                want_rc = EXIT_UNKNOWN
        if rc != want_rc:
            errors.append(f"{sub} exit code {rc}, documented {want_rc}")
        return errors

    @staticmethod
    def _check_equal(spec, stdout, lines):
        if spec["json"]:
            obj = json.loads(stdout) if lines else {}
            answer = obj.get("result")
            steps = [(s["rule"], s["direction"], s["position"]) for s in obj.get("witness", [])]
        else:
            answer = lines[0] if lines else None
            parsed = [_STEP_LINE.match(line) for line in lines[1:]]
            if not all(parsed):
                return ["equal witness lines do not parse"]
            steps = [(m[1], 1 if m[2] == "->" else -1, int(m[3])) for m in parsed]
        if spec["flavor"] == "vb" and spec["w1"] == FORBIDDEN[0]:
            return [] if answer == "unknown" else [f"forbidden move answered {answer}"]
        if answer != "equal":
            return [f"constructed-equal pair answered {answer}"]
        return replay_errors(spec["w1"], spec["w2"], steps, spec["flavor"], spec["n"], spec["depth"])

    def counts(self, specs, outs):
        return {}

    def probe(self, tr):
        """Floor measurements: a bare interpreter and an import of vbraid.cli."""
        env = cli_env()
        for _ in range(3):
            tr.call("cli.interpreter", invoke, [sys.executable, "-c", "pass"], env)
            tr.call("cli.import", invoke, [sys.executable, "-c", "import vbraid.cli"], env)

    def layer_metrics(self, tr):
        spans = ("cli.interpreter", "cli.import") + tuple(f"cli.{sub}" for sub in CLI_SUBCOMMANDS)
        return {name: 1e3 * statistics.median(tr.durations(span))
                for name, span in zip(self.TIMES_MS, spans)}


WORKLOADS = {w.name: w for w in (Invariants, WordProblem, VerifySweep, Cli)}
