"""From braid words to Gauss codes of their closures.

Closing a braid joins each strand's bottom to its top. When the closure is
a knot (one component), walking the diagram yields the Gauss code: the
sequence of over/under passes at classical crossings. Virtual crossings
are not recorded.
"""

from vbraid import (
    NotAKnotError,
    closure_code,
    parse_gauss,
    parse_word,
    perm_proj,
)


def main():
    trefoil_braid = parse_word("s1 s1 s1", "vb", 2)
    code = closure_code(trefoil_braid)
    print(f"closure of {trefoil_braid} in VB_2: {code}")
    reference = parse_gauss("O1U2O3U1O2U3")
    assert code.equals_up_to_rotation(reference)
    print("matches the trefoil code O1U2O3U1O2U3 up to rotation")

    virtual = parse_word("s1 s1^-1 s1 z2", "vb", 3)
    print(f"\nclosure permutation of {virtual}: {perm_proj(virtual)}")
    print(f"its Gauss code (virtual crossings skipped): {closure_code(virtual)}")

    two_components = parse_word("s1 s1", "vb", 2)
    try:
        closure_code(two_components)
    except NotAKnotError as exc:
        print(f"\n{two_components} closes to a link, not a knot: {exc}")


if __name__ == "__main__":
    main()
