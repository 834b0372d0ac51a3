"""Finite permutations of {1..n}.

A Permutation p sends the point x to p(x). Composition follows the
convention used uniformly by every representation in this package: f after
g sends x to f(g(x)), so in a composite the rightmost factor acts on points
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .errors import PermutationError, as_count


@dataclass(frozen=True, slots=True, repr=False)
class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n."""

    images: tuple

    def __post_init__(self):
        try:
            imgs = tuple(map(index, self.images))
        except TypeError:
            raise PermutationError(
                f"images must be a sequence of integers, got {self.images!r}"
            ) from None
        n = len(imgs)
        if sorted(imgs) != list(range(1, n + 1)):
            raise PermutationError(f"not a bijection of 1..{n}: {imgs}")
        object.__setattr__(self, "images", imgs)

    @property
    def n(self):
        return len(self.images)

    @classmethod
    def identity(cls, n):
        return cls(range(1, as_count(n) + 1))

    def __call__(self, x):
        return self.images[x - 1]

    def inverse(self):
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def is_identity(self):
        return all(img == i for i, img in enumerate(self.images, start=1))

    def cycles(self):
        """Cycle decomposition, fixed points included, least element first."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            out.append(tuple(cyc))
        return out

    def cycle_notation(self):
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in nontrivial)

    def __str__(self):
        return "[" + ",".join(map(str, self.images)) + "]"

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def p_is_cycle(f: Permutation) -> bool:
    """True iff f is a single n-cycle (the identity counts only for n=1)."""
    return len(f.cycles()) == 1
