"""Exact computational toolkit for virtual braid groups and their relatives.

Word algebra over the presentations of VB_n, BP_n, SB_n/SG_n (and the
classical Br_n, Sigma_n), the Burau representation over Z[t, t^-1], the
Aut F_n and permutation representations, abelianization invariants, the
juxtaposition pairing with its block-swap symmetry, and Gauss codes of
braid closures.
"""

from .braidword import (
    EqualityResult,
    Flavor,
    GroupWord,
    Letter,
    Presentation,
    Relator,
    RewriteStep,
    bfs_equal,
    free_reduce,
    invert_word,
    parse_word,
    relators,
    replay_witness,
    rewrite_rules,
)
from .errors import (
    CheckNotApplicableError,
    DimensionMismatchError,
    FlavorError,
    GaussSyntaxError,
    IndexOutOfRangeError,
    InexactDivisionError,
    InverseNotAllowedError,
    LabelCountError,
    LaurentTermError,
    LetterError,
    LetterNotAllowedError,
    MonoidHasNoInversesError,
    NegativeDepthError,
    NonUnitDeterminantError,
    NotAKnotError,
    ParityError,
    PermutationError,
    ShapeError,
    SizeMismatchError,
    StrandCountError,
    UnknownFlavorError,
    VbraidError,
    WitnessError,
    WordSyntaxError,
)
from .freegrp import FreeAut, FreeWord, aut_apply, aut_compose
from .gauss import GaussCode, closure_code, parse_gauss
from .laurent import LaurentPoly
from .lpmatrix import LPMatrix, block_diag, mat_det, mat_inverse, mat_mul
from .monoidal import (
    check_coherence,
    check_naturality,
    mu,
    shift,
    sigma_block,
    widen,
    zeta_block,
)
from .perm import Permutation, p_is_cycle
from .reps import (
    AbelianImage,
    abelianize,
    aut_rep,
    burau,
    exp_sum,
    perm_proj,
    to_bp,
    zeta_count,
)
from .verify import CheckRecord, verify_presentation, verify_range

__version__ = "0.1.0"
