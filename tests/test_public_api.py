import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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
    "InexactDivisionError",
    "InverseNotAllowedError",
    "LPMatrix",
    "LabelCountError",
    "LaurentPoly",
    "LaurentTermError",
    "Letter",
    "LetterError",
    "LetterNotAllowedError",
    "MonoidHasNoInversesError",
    "NegativeDepthError",
    "NonUnitDeterminantError",
    "NotAKnotError",
    "ParityError",
    "Permutation",
    "PermutationError",
    "Presentation",
    "Relator",
    "RewriteStep",
    "ShapeError",
    "SizeMismatchError",
    "StrandCountError",
    "UnknownFlavorError",
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
    for name in ("CheckNotApplicableError", "InexactDivisionError", "LaurentTermError",
                 "LetterError", "NegativeDepthError", "ParityError", "PermutationError",
                 "StrandCountError", "UnknownFlavorError", "WitnessError"):
        cls = getattr(vbraid, name)
        assert issubclass(cls, vbraid.VbraidError) and issubclass(cls, ValueError)


# each: the type, its constructor's arguments, the error they must raise
NON_INTEGER_FIELDS = [
    ("Permutation", ([1.5, 2],), "PermutationError"),
    ("Permutation", (["a"],), "PermutationError"),
    ("Permutation", (["1", "2"],), "PermutationError"),
    ("FreeWord", ([(1.5, 1)],), "LetterError"),
    ("FreeWord", ([("x", 1)],), "LetterError"),
    ("FreeWord", ([(1,)],), "LetterError"),
    ("Letter", ("s", 1.5), "LetterError"),
    ("Letter", ("s", "1"), "LetterError"),
    ("Letter", ("s", 1, -1.0), "LetterError"),
    ("GroupWord", ("vb", 2.5), "StrandCountError"),
    ("GroupWord", ("vb", "3"), "StrandCountError"),
]


@pytest.mark.parametrize(
    "name, args, error",
    NON_INTEGER_FIELDS,
    ids=[f"{name}({', '.join(map(repr, args))})" for name, args, _ in NON_INTEGER_FIELDS],
)
def test_integer_fields_refuse_non_integers(name, args, error):
    with pytest.raises(getattr(vbraid, error)):
        getattr(vbraid, name)(*args)


# each: a strand count or rank that is a bool or not an integer
NON_INTEGER_COUNTS = {
    "GroupWord('vb', True)": lambda: vbraid.GroupWord("vb", True),
    "FreeAut(2.0, ...)": lambda: vbraid.FreeAut(2.0, [vbraid.FreeWord([(1, 1)])] * 2),
    "FreeAut(True, ...)": lambda: vbraid.FreeAut(True, [vbraid.FreeWord([(1, 1)])]),
    "FreeAut('2', ...)": lambda: vbraid.FreeAut("2", [vbraid.FreeWord()] * 2),
    "Permutation.identity(2.0)": lambda: vbraid.Permutation.identity(2.0),
    "LPMatrix.identity(2.0)": lambda: vbraid.LPMatrix.identity(2.0),
    "LPMatrix.identity(True)": lambda: vbraid.LPMatrix.identity(True),
}


@pytest.mark.parametrize("call", NON_INTEGER_COUNTS.values(), ids=NON_INTEGER_COUNTS)
def test_counts_refuse_non_integers(call):
    with pytest.raises(vbraid.StrandCountError, match="must be an integer"):
        call()


# each: the type, and constructor arguments whose container or element has the
# wrong type
WRONG_SHAPES = [
    ("GroupWord", ("vb", 3, "s1")),
    ("GroupWord", ("vb", 3, [("s", 1)])),
    ("GroupWord", ("vb", 3, 5)),
    ("FreeWord", (5,)),
    ("GaussCode", (5,)),
    ("LPMatrix", ([[1]],)),
    ("LPMatrix", (5,)),
    ("FreeAut", (2, [vbraid.FreeWord(), 3])),
    ("FreeAut", (2, 5)),
]


@pytest.mark.parametrize(
    "name, args",
    WRONG_SHAPES,
    ids=[f"{name}({', '.join(map(repr, args))})" for name, args in WRONG_SHAPES],
)
def test_wrong_shapes_raise_shape_error(name, args):
    with pytest.raises(vbraid.ShapeError):
        getattr(vbraid, name)(*args)


def test_shape_error_is_a_type_error():
    # LPMatrix raised a bare TypeError for a non-LaurentPoly entry before
    assert issubclass(vbraid.ShapeError, vbraid.VbraidError)
    assert issubclass(vbraid.ShapeError, TypeError)


def _word():
    return vbraid.parse_word("s1 z2 s2^-1", "vb", 3)


# each public value type: a factory that builds a fresh value, and one of its
# attributes
VALUE_TYPES = {
    "Letter": (lambda: vbraid.Letter("s", 2, -1), "index"),
    "GroupWord": (_word, "letters"),
    "Relator": (lambda: vbraid.relators("vb", 3).relators[0], "lhs"),
    "Presentation": (lambda: vbraid.relators("sym", 3), "relators"),
    "RewriteStep": (lambda: vbraid.RewriteStep("zeta_sq:i=1", -1, 2), "position"),
    "EqualityResult": (
        lambda: vbraid.bfs_equal(
            vbraid.parse_word("z1 z2 z1", "sym", 3),
            vbraid.parse_word("z2 z1 z2", "sym", 3),
        ),
        "witness",
    ),
    "FreeWord": (lambda: vbraid.FreeWord([(1, 1), (2, -1)]), "letters"),
    "FreeAut": (lambda: vbraid.aut_rep(_word()), "images"),
    "Permutation": (lambda: vbraid.Permutation([2, 3, 1]), "images"),
    "LPMatrix": (lambda: vbraid.burau(_word()), "entries"),
    "GaussCode": (lambda: vbraid.parse_gauss("O1U2O3U1O2U3"), "visits"),
    "AbelianImage": (lambda: vbraid.AbelianImage(1, -2), "sigma_sum"),
    "CheckRecord": (lambda: vbraid.CheckRecord(3, "zeta_sq:i=1", "burau", True), "passed"),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_type_contract(name):
    make, attr = VALUE_TYPES[name]
    value, twin = make(), make()
    assert type(value) is getattr(vbraid, name)
    assert value is not twin and value == twin and hash(value) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(value, attr, None)
    assert value == twin
    assert not hasattr(value, "__dict__")


# each: code run in a fresh interpreter, which asserts what importing that much
# of the package loads and exposes
VBRAID_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'vbraid')"
# what every cli run loads, and each subcommand's argv with the modules it adds
CLI_BASE = ["vbraid", "vbraid.braidword", "vbraid.cli", "vbraid.errors"]
CLI_RUNS = {
    "reduce": (["reduce", "-n", "3", "s1 s1^-1 z1"], []),
    "equal": (["equal", "-n", "3", "--depth", "2", "z1 z1", ""], []),
    "perm": (["perm", "-n", "3", "s1 s2"], ["freegrp", "laurent", "perm", "reps"]),
    "abelianize": (["abelianize", "-n", "3", "s1 z2"], ["freegrp", "laurent", "reps"]),
    "closure-gauss": (
        ["closure-gauss", "-n", "2", "s1 s1 s1"],
        ["freegrp", "gauss", "laurent", "perm", "reps"],
    ),
    "burau": (["burau", "-n", "2", "s1"], ["freegrp", "laurent", "lpmatrix", "reps"]),
    "det": (["det", "-n", "3", "s1 z2"], ["freegrp", "laurent", "lpmatrix", "reps"]),
    "verify": (["verify", "-n", "2..3"], ["freegrp", "laurent", "reps", "verify"]),
}
IMPORT_SURFACE = {
    "parse_word loads braidword and errors only": (
        "from vbraid import parse_word\n"
        f"assert {VBRAID_MODULES} == ['vbraid', 'vbraid.braidword', 'vbraid.errors'], "
        f"{VBRAID_MODULES}"
    ),
    "burau loads reps": (
        "import vbraid\n"
        "assert 'vbraid.reps' not in sys.modules\n"
        "vbraid.burau\n"
        "assert 'vbraid.reps' in sys.modules and 'vbraid.burau' not in sys.modules"
    ),
    "unknown name is no attribute": (
        "import vbraid\n"
        "assert not hasattr(vbraid, 'nope')\n"
        f"assert {VBRAID_MODULES} == ['vbraid']"
    ),
    "cli submodule": (
        "from vbraid import cli\n"
        "assert cli.__name__ == 'vbraid.cli' and callable(cli.main)\n"
        f"assert {VBRAID_MODULES} == {CLI_BASE}, {VBRAID_MODULES}"
    ),
    **{
        f"cli {sub} loads {', '.join(extra) or 'nothing more'}": (
            "import vbraid.cli\n"
            f"assert vbraid.cli.main({argv!r}) == 0\n"
            f"assert {VBRAID_MODULES} == "
            f"{sorted(CLI_BASE + [f'vbraid.{m}' for m in extra])}, {VBRAID_MODULES}"
        )
        for sub, (argv, extra) in CLI_RUNS.items()
    },
    "star import": (
        "from vbraid import *\n"
        "import vbraid\n"
        "assert all(globals()[name] is getattr(vbraid, name) for name in vbraid.__all__)\n"
        "assert parse_word('s1', 'vb', 2) and LPMatrix.identity(2).n == 2"
    ),
}


@pytest.mark.parametrize("code", IMPORT_SURFACE.values(), ids=IMPORT_SURFACE)
def test_import_surface(code):
    src = str(Path(vbraid.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
