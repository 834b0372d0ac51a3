import random

import pytest
from conftest import p_compose, p_transposition

from vbraid.errors import PermutationError, SizeMismatchError
from vbraid.perm import Permutation, p_is_cycle


class TestCompose:
    def test_identity(self):
        g = Permutation([2, 1, 3])
        assert p_compose(Permutation.identity(3), g) == g
        assert p_compose(g, Permutation.identity(3)) == g

    def test_rightmost_acts_first(self):
        # compose(t1, t2)(x) = t1(t2(x)): 1->2, 2->3, 3->1
        t1 = p_transposition(1, 3)
        t2 = p_transposition(2, 3)
        assert p_compose(t1, t2) == Permutation([2, 3, 1])

    def test_transposition_involution(self):
        for n in range(2, 6):
            for i in range(1, n):
                t = p_transposition(i, n)
                assert p_compose(t, t) == Permutation.identity(n)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            p_compose(Permutation.identity(2), Permutation.identity(3))


class TestTransposition:
    def test_n2(self):
        assert p_transposition(1, 2).images == (2, 1)

    def test_middle(self):
        assert p_transposition(2, 4).images == (1, 3, 2, 4)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            p_transposition(3, 3)
        with pytest.raises(IndexError):
            p_transposition(0, 3)


class TestIsCycle:
    def test_identity_on_one_point(self):
        assert p_is_cycle(Permutation.identity(1))

    def test_three_cycle(self):
        assert p_is_cycle(Permutation([2, 3, 1]))

    def test_identity_on_two_points(self):
        assert not p_is_cycle(Permutation.identity(2))


def test_group_axioms_randomized():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randrange(1, 8)
        f, g, h = (_random_perm(rng, n) for _ in range(3))
        assert p_compose(p_compose(f, g), h) == p_compose(f, p_compose(g, h))
        assert p_compose(f, f.inverse()) == Permutation.identity(n)
        assert p_compose(f.inverse(), f) == Permutation.identity(n)


def _random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def test_braid_relation():
    for n in range(3, 9):
        for i in range(1, n - 1):
            ti = p_transposition(i, n)
            tj = p_transposition(i + 1, n)
            assert p_compose(ti, p_compose(tj, ti)) == p_compose(tj, p_compose(ti, tj))


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])


def test_not_a_bijection_raises_permutation_error():
    with pytest.raises(PermutationError):
        Permutation([1, 1, 3])


def test_text_forms():
    p = Permutation([2, 3, 1])
    assert str(p) == "[2,3,1]"
    assert p.cycle_notation() == "(1 2 3)"
    assert Permutation.identity(3).cycle_notation() == "()"
