"""Checker self-test: each output check must accept the program's real answer
and reject every planted wrong one, so that no check is vacuous.

    python3 bench/selftest.py      (from the checkout root; exit 1 on a miss)

run.py calls run() in every run; a miss makes the run's `correct` false.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from types import SimpleNamespace as NS

if __name__ == "__main__":
    sys.path.insert(0, "src")

import ref  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402
from vbraid import AbelianImage, EqualityResult, LaurentPoly, LPMatrix, Permutation, parse_word  # noqa: E402
from vbraid import cli as vbraid_cli  # noqa: E402


def _with(out, **changes):
    return dict(out, **changes)


def _swap_rows(m):
    rows = list(m.entries)
    rows[0], rows[1] = rows[1], rows[0]
    return LPMatrix(rows)


def _bump(m):
    """Add t - 1 to one entry: unchanged at t = 1, wrong everywhere else."""
    rows = [list(r) for r in m.entries]
    rows[0][0] = rows[0][0] + LaurentPoly({1: 1, 0: -1})
    return LPMatrix(rows)


def _images(*words):
    return NS(images=[NS(letters=w) for w in words])


def invariants_cases(rng):
    wl, tr = W.Invariants(), Tracer(False)

    def case(knot):
        word = W.closure_word(rng, "vb", 3, 6, knot)
        spec = dict(stratum="small", flavor="vb", n=3, word=word, matrices=True, aut=True)
        return spec, wl.run(wl.prepare([spec], tr)[0], tr)

    (spec, out), (link_spec, link_out) = case(True), case(False)
    images = [img.letters for img in out["aut"].images]
    planted = {
        "det sign flipped": _with(out, det=-out["det"]),
        "burau rows swapped": _with(out, burau=_swap_rows(out["burau"])),
        "burau entry off by t-1": _with(out, burau=_bump(out["burau"])),
        "B * inverse not I": _with(out, product=out["burau"]),
        "inverse is B": _with(out, inverse=out["burau"]),
        "aut image not reduced": _with(out, aut=_images(images[0] + ((1, 1), (1, -1)), *images[1:])),
        "aut images permuted": _with(out, aut=_images(images[1], images[0], images[2])),
        "perm reversed": _with(out, perm=Permutation(reversed(out["perm"].images))),
        "abelianize parity flipped": _with(out, abelian=AbelianImage(
            1 - out["abelian"].zeta_parity, out["abelian"].sigma_sum)),
        "closure missing for a knot": _with(out, closure=None),
        "closure visit dropped": _with(out, closure=NS(visits=out["closure"].visits[:-1])),
    }
    cases = [("invariants: real answer", wl, spec, out, True)]
    cases += [(f"invariants: {k}", wl, spec, v, False) for k, v in planted.items()]
    cases.append(("invariants: real answer (link)", wl, link_spec, link_out, True))
    cases.append(("invariants: closure for a link", wl, link_spec,
                  _with(link_out, closure=out["closure"]), False))
    return cases


def word_problem_cases(rng):
    wl, tr = W.WordProblem(), Tracer(False)
    w1 = W.random_word(rng, 4, W.shuffled_kinds(rng, W.composition("vb", 5)))
    w2 = W.rewrite_walk(rng, "vb", 4, w1, 3, len(w1) + 2)
    eq = dict(kind="equal", flavor="vb", n=4, depth=4, w1=w1, w2=w2)
    diff = dict(kind="diff", flavor="vb", n=4, depth=4, w1=w1, w2=w1 + (("z", 1, 1),))
    forbidden = dict(kind="forbidden", flavor="vb", n=3, depth=5, w1=W.FORBIDDEN[0], w2=W.FORBIDDEN[1])
    result, replayed = out = wl.run(wl.prepare([eq], tr)[0], tr)
    witness = result.witness
    some_equal = EqualityResult(True, witness)
    back_and_forth = witness + tuple(s.inverted() for s in reversed(witness))
    cases = [
        ("word_problem: real answer", wl, eq, out, True),
        ("word_problem: real answer (diff)", wl, diff, wl.run(wl.prepare([diff], tr)[0], tr), True),
        ("word_problem: equal pair answered unknown", wl, eq, (EqualityResult(False), None), False),
        ("word_problem: witness step dropped", wl, eq, (EqualityResult(True, witness[:-1]), replayed), False),
        ("word_problem: witness longer than depth", wl, eq,
         (EqualityResult(True, back_and_forth * eq["depth"] + witness), replayed), False),
        ("word_problem: replay_witness misses w2", wl, eq,
         (result, parse_word(ref.word_text(w1), "vb", 4)), False),
        ("word_problem: different permutations answered equal", wl, diff, (some_equal, replayed), False),
        ("word_problem: vb forbidden move answered equal", wl, forbidden, (some_equal, replayed), False),
    ]
    return cases


def verify_cases(rng):
    wl, tr = W.VerifySweep(), Tracer(False)
    spec = dict(kind="verify", flavor="vb", n=3)
    records = wl.run(wl.prepare([spec], tr)[0], tr)
    failing = [NS(relator=r.relator, check=r.check, passed=False) for r in records[:1]] + records[1:]
    return [
        ("verify_sweep: real answer", wl, spec, records, True),
        ("verify_sweep: a record marked FAIL", wl, spec, failing, False),
        ("verify_sweep: a record dropped", wl, spec, records[1:], False),
        ("verify_sweep: coherence false", wl, dict(kind="coherence", m=1, n=1, q=1), False, False),
        ("verify_sweep: naturality false", wl, dict(kind="naturality", m=2, n=2), False, False),
    ]


def _cli_output(spec, argv):
    """The CLI's real answer, run in-process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = vbraid_cli.main(argv[3:])
    return rc, buf.getvalue()


def cli_cases(rng):
    wl, tr = W.Cli(), Tracer(False)
    specs = wl.generate(rng)
    items = {}
    for spec, argv, _ in wl.prepare(specs, tr):
        if spec["sub"] == "closure-gauss":
            key = "closure-gauss" if ref.is_n_cycle(ref.strand_perm(spec["word"], spec["n"])) else "link"
        elif spec["sub"] == "equal":
            key = "forbidden" if spec["w1"] == W.FORBIDDEN[0] and spec["flavor"] == "vb" else "equal"
        else:
            key = spec["sub"] + (" --json" if spec["json"] else "")
        items.setdefault(key, (spec, _cli_output(spec, argv)))
    cases = [(f"cli: real answer ({k})", wl, s, out, True) for k, (s, out) in items.items()]

    def plant(key, name, change):
        spec, (rc, stdout) = items[key]
        cases.append((f"cli: {name}", wl, spec, change(rc, stdout), False))

    plant("det", "det exit code 1", lambda rc, s: (1, s))
    plant("det", "det sign flipped", lambda rc, s: (rc, s[1:] if s.startswith("-") else "-" + s))
    plant("perm --json", "perm image added", lambda rc, s: (rc, s.replace("[", "[0,")))
    plant("reduce", "reduce left unreduced", lambda rc, s: (rc, s.rstrip("\n") + " z1 z1\n"))
    plant("burau", "burau entry changed", lambda rc, s: (rc, s.replace('"1"', '"2"', 1)))
    plant("abelianize", "abelianize sum off by one", lambda rc, s: (rc, s.replace(
        '"sigma_sum": ', '"sigma_sum": 1')))
    plant("link", "closure-gauss code for a link", lambda rc, s: (0, "O1U1\n"))
    plant("closure-gauss", "closure-gauss visit dropped", lambda rc, s: (rc, s[:-3] + "\n"))
    plant("verify", "verify line marked FAIL", lambda rc, s: (rc, s.replace("PASS", "FAIL", 1)))
    plant("verify", "verify line dropped", lambda rc, s: (rc, s.split("\n", 1)[1]))
    plant("equal", "equal answered unknown", lambda rc, s: (10, "unknown\n"))
    plant("equal", "equal witness step dropped", lambda rc, s: (rc, s.rstrip("\n").rsplit("\n", 1)[0] + "\n"))
    plant("forbidden", "forbidden move answered equal", lambda rc, s: (0, "equal\n"))
    return cases


def all_cases():
    rng = random.Random("checker self-test")
    return invariants_cases(rng) + word_problem_cases(rng) + verify_cases(rng) + cli_cases(rng)


def run(verbose=False):
    """Names of the cases whose checker verdict is wrong (empty when all hold)."""
    misses = []
    for name, wl, spec, out, should_pass in all_cases():
        try:
            passed = not wl.check(spec, out)
        except Exception:  # a checker that crashes on a planted answer still rejects it
            passed = False
        ok = passed == should_pass
        if verbose:
            print(f"{'ok ' if ok else 'MISS'} {name}")
        if not ok:
            misses.append(name)
    return misses


if __name__ == "__main__":
    sys.exit(1 if run(verbose=True) else 0)
