import types

import vbraid

PUBLIC_NAMES = [
    "AbelianImage",
    "CheckNotApplicableError",
    "CheckRecord",
    "DimensionMismatchError",
    "EqualityResult",
    "Flavor",
    "FlavorError",
    "FreeAut",
    "FreeWord",
    "GaussCode",
    "GaussSyntaxError",
    "GroupWord",
    "IndexOutOfRangeError",
    "InverseNotAllowedError",
    "LPMatrix",
    "LabelCountError",
    "LaurentPoly",
    "Letter",
    "LetterError",
    "LetterNotAllowedError",
    "MonoidHasNoInversesError",
    "NegativeDepthError",
    "NonUnitDeterminantError",
    "NotAKnotError",
    "ParityError",
    "Permutation",
    "Presentation",
    "Relator",
    "RewriteStep",
    "SizeMismatchError",
    "StrandCountError",
    "VbraidError",
    "WitnessError",
    "WordSyntaxError",
    "abelianize",
    "aut_apply",
    "aut_compose",
    "aut_rep",
    "bfs_equal",
    "block_diag",
    "burau",
    "check_coherence",
    "check_naturality",
    "closure_code",
    "exp_sum",
    "free_reduce",
    "invert_word",
    "mat_det",
    "mat_inverse",
    "mat_mul",
    "mu",
    "p_is_cycle",
    "parse_gauss",
    "parse_word",
    "perm_proj",
    "relators",
    "replay_witness",
    "rewrite_rules",
    "shift",
    "sigma_block",
    "to_bp",
    "verify_presentation",
    "verify_range",
    "widen",
    "zeta_block",
    "zeta_count",
]


def test_public_surface():
    names = sorted(
        name
        for name in dir(vbraid)
        if not name.startswith("_")
        and not isinstance(getattr(vbraid, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_typed_value_errors_are_value_errors():
    for name in ("CheckNotApplicableError", "LetterError", "NegativeDepthError",
                 "ParityError", "StrandCountError", "WitnessError"):
        cls = getattr(vbraid, name)
        assert issubclass(cls, vbraid.VbraidError) and issubclass(cls, ValueError)
