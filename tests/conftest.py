import random

from hypothesis import strategies as st

from vbraid.braidword import Flavor, GroupWord, Letter


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
