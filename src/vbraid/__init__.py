"""Exact computational toolkit for virtual braid groups and their relatives.

Word algebra over the presentations of VB_n, BP_n, SB_n/SG_n (and the
classical Br_n, Sigma_n), the Burau representation over Z[t, t^-1], the
Aut F_n and permutation representations, abelianization invariants, the
juxtaposition pairing with its block-swap symmetry, and Gauss codes of
braid closures.

Each submodule loads on first use of one of its names (PEP 562), so
``from vbraid import parse_word`` imports ``braidword`` and ``errors`` only.
"""

import importlib

# submodule -> the public names it exports; the one list of the package's surface
_EXPORTS = {
    "braidword": (
        "EqualityResult",
        "Flavor",
        "GroupWord",
        "Letter",
        "Presentation",
        "Relator",
        "RewriteStep",
        "bfs_equal",
        "free_reduce",
        "invert_word",
        "parse_word",
        "relators",
        "replay_witness",
        "rewrite_rules",
    ),
    "errors": (
        "CheckNotApplicableError",
        "DimensionMismatchError",
        "FlavorError",
        "GaussSyntaxError",
        "IndexOutOfRangeError",
        "InexactDivisionError",
        "InverseNotAllowedError",
        "LabelCountError",
        "LaurentTermError",
        "LetterError",
        "LetterNotAllowedError",
        "MonoidHasNoInversesError",
        "NegativeDepthError",
        "NonUnitDeterminantError",
        "NotAKnotError",
        "ParityError",
        "PermutationError",
        "ShapeError",
        "SizeMismatchError",
        "StrandCountError",
        "UnknownFlavorError",
        "VbraidError",
        "WitnessError",
        "WordSyntaxError",
    ),
    "freegrp": ("FreeAut", "FreeWord", "aut_apply", "aut_compose"),
    "gauss": ("GaussCode", "closure_code", "parse_gauss"),
    "laurent": ("LaurentPoly",),
    "lpmatrix": ("LPMatrix", "block_diag", "mat_det", "mat_inverse", "mat_mul"),
    "monoidal": (
        "check_coherence",
        "check_naturality",
        "mu",
        "shift",
        "sigma_block",
        "widen",
        "zeta_block",
    ),
    "perm": ("Permutation", "p_is_cycle"),
    "reps": (
        "AbelianImage",
        "abelianize",
        "aut_rep",
        "burau",
        "exp_sum",
        "perm_proj",
        "to_bp",
        "zeta_count",
    ),
    "verify": ("CheckRecord", "verify_presentation", "verify_range"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule that exports `name` and keep the value here, so the
    next lookup is a plain global."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
