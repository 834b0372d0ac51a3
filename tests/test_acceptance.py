"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from conftest import p_compose, p_transposition, random_word

import vbraid
from vbraid.braidword import Flavor, GroupWord, Letter, Z, bfs_equal, parse_word, relators, replay_witness, rewrite_rules
from vbraid.errors import NotAKnotError
from vbraid.gauss import GaussCode, closure_code, parse_gauss
from vbraid.laurent import ONE, T, T_INV, ZERO, LaurentPoly
from vbraid.lpmatrix import LPMatrix, block_diag, mat_det
from vbraid.monoidal import check_coherence, check_naturality, mu, zeta_block
from vbraid.perm import Permutation
from vbraid.reps import (
    abelianize,
    aut_rep,
    burau,
    exp_sum,
    perm_proj,
    to_bp,
    zeta_count,
)
from vbraid.verify import verify_range


def _report(num, name, ok):
    print(f"\nacceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_relation_soundness():
    ok = True
    for flavor in ("vb", "bp"):
        records = verify_range(flavor, 2, 7)
        ok = ok and bool(records) and all(r.passed for r in records)
        checks = {r.check for r in records}
        ok = ok and checks == {"burau", "aut", "perm", "exp_sum", "abelianize"}
    _report(1, "relation soundness VB/BP n=2..7", ok)


def test_02_burau_generator_blocks():
    sigma_block_2 = ((ONE - T, T), (ONE, ZERO))
    zeta_block_2 = ((ZERO, ONE), (ONE, ZERO))
    ok = True
    for n in range(2, 6):
        for i in range(1, n):
            for kind, block in (("s", sigma_block_2), ("z", zeta_block_2)):
                expected = block_diag(
                    block_diag(LPMatrix.identity(i - 1), LPMatrix(block)),
                    LPMatrix.identity(n - i - 1),
                )
                w = GroupWord(Flavor.VB, n, [Letter(kind, i)])
                ok = ok and burau(w) == expected
    _report(2, "Burau generator matrices literal", ok)


def test_03_determinants():
    minus_t = LaurentPoly({1: -1})
    minus_one = LaurentPoly({0: -1})
    ok = True
    for n in range(2, 8):
        for i in range(1, n):
            for kind, det in (("s", minus_t), ("z", minus_one)):
                w = GroupWord(Flavor.VB, n, [Letter(kind, i)])
                ok = ok and mat_det(burau(w)) == det
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.randrange(2, 7)
        w = random_word(rng, Flavor.VB, n, rng.randrange(0, 51))
        expected = minus_t ** exp_sum(w) * minus_one ** zeta_count(w)
        ok = ok and mat_det(burau(w)) == expected
    _report(3, "determinant values and law", ok)


def test_04_abelianization():
    rng = random.Random(102)
    ok = True
    for _ in range(1000):
        n = rng.randrange(2, 7)
        u = random_word(rng, Flavor.VB, n, rng.randrange(0, 15))
        v = random_word(rng, Flavor.VB, n, rng.randrange(0, 15))
        a, b, ab = abelianize(u), abelianize(v), abelianize(u.concat(v))
        ok = ok and ab.zeta_parity == (a.zeta_parity + b.zeta_parity) % 2
        ok = ok and ab.sigma_sum == a.sigma_sum + b.sigma_sum
        ok = ok and abelianize(u) == abelianize(to_bp(u))
    for _ in range(200):
        n = rng.randrange(2, 6)
        w = random_word(rng, Flavor.VB, n, rng.randrange(0, 25))
        d = mat_det(burau(w))
        ok = ok and list(d.terms) == [exp_sum(w)]
    _report(4, "abelianization to Z/2 + Z", ok)


def test_05_section_identity():
    rng = random.Random(103)
    ok = True
    for _ in range(200):
        n = rng.randrange(2, 8)
        indices = [rng.randrange(1, n) for _ in range(rng.randrange(0, 15))]
        included = GroupWord(Flavor.VB, n, [Z(i) for i in indices])
        direct = Permutation.identity(n)
        for i in indices:
            direct = p_compose(p_transposition(i, n), direct)
        ok = ok and perm_proj(included) == direct
    _report(5, "symmetric-group section identity", ok)


def test_06_permutative_structure():
    ok = True
    # (a) the symmetry composed with its reverse is the identity
    for m in range(1, 8):
        for n in range(1, 8 - m + 1):
            w = zeta_block(m, n).concat(zeta_block(n, m))
            ok = ok and perm_proj(w) == Permutation.identity(m + n)
            ok = ok and burau(w) == LPMatrix.identity(m + n)
            ok = ok and aut_rep(w).is_identity()
    # (b) naturality: single generators, then random pairs
    for m in range(2, 5):
        for n in range(2, 5):
            gens_m = [parse_word(f"{k}{i}", "vb", m) for k in "sz" for i in range(1, m)]
            gens_n = [parse_word(f"{k}{i}", "vb", n) for k in "sz" for i in range(1, n)]
            for w1 in gens_m:
                for w2 in gens_n:
                    ok = ok and check_naturality(m, n, w1, w2)
    rng = random.Random(104)
    for _ in range(100):
        m = rng.randrange(2, 6)
        n = rng.randrange(2, min(6, 8 - m) + 1)
        w1 = random_word(rng, Flavor.VB, m, rng.randrange(0, 8))
        w2 = random_word(rng, Flavor.VB, n, rng.randrange(0, 8))
        ok = ok and check_naturality(m, n, w1, w2)
    # (c) coherence as word identities
    for m in range(5):
        for n in range(5):
            for q in range(5):
                ok = ok and check_coherence(m, n, q)
    _report(6, "permutative structure (symmetry, naturality, coherence)", ok)


def test_07_pairing_compatibility():
    rng = random.Random(105)
    ok = True
    for _ in range(200):
        w1 = random_word(rng, Flavor.VB, rng.randrange(2, 5), rng.randrange(0, 10))
        w2 = random_word(rng, Flavor.VB, rng.randrange(2, 5), rng.randrange(0, 10))
        ok = ok and burau(mu(w1, w2)) == block_diag(burau(w1), burau(w2))
    _report(7, "pairing is block diagonal under Burau", ok)


def test_08_rewriting_search():
    ok = True
    for flavor in Flavor:
        for n in range(2, 7):
            rules = rewrite_rules(flavor, n)
            for rel in relators(flavor, n).relators:
                res = bfs_equal(rel.lhs, rel.rhs, 2)
                ok = ok and res.equal
                ok = ok and replay_witness(rel.lhs, res.witness, rules) == rel.rhs
    forbidden = bfs_equal(
        parse_word("s1 s2 z1", "vb", 3), parse_word("z2 s1 s2", "vb", 3), 4
    )
    ok = ok and not forbidden.equal and forbidden.witness is None
    _report(8, "bounded rewriting search", ok)


def test_09_gauss_codes():
    ok = True
    trefoil = parse_gauss("O1U2O3U1O2U3")
    ok = ok and trefoil.crossings == 3
    for bad in ("O1X2", "O1O1", "O1U1O3U3", "O2U1O1U2"):
        try:
            parse_gauss(bad)
            ok = False
        except Exception:
            pass
    closed = closure_code(parse_word("s1 s1 s1", "vb", 2))
    ok = ok and closed.equals_up_to_rotation(trefoil)
    try:
        closure_code(parse_word("s1 s1", "vb", 2))
        ok = False
    except NotAKnotError:
        pass
    _report(9, "Gauss codes", ok)


def test_10_determinism():
    cmd = [sys.executable, "-m", "vbraid.cli", "verify", "--flavor", "vb", "-n", "2..4"]
    # the child finds this checkout's package whether or not it is installed
    env = dict(os.environ, PYTHONPATH=str(Path(vbraid.__file__).parents[1]))
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    _report(10, "verify output is byte-identical across runs", ok)
