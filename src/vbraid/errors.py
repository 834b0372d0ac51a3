"""Exception hierarchy shared across the package, and the one check of a count."""

from operator import index


class VbraidError(Exception):
    """Base class for all errors raised by this package."""


class FlavorError(VbraidError):
    """Operation not defined for the word's flavor."""


class UnknownFlavorError(FlavorError, ValueError):
    """A flavor name other than br, sym, vb, bp, sb and sg."""


class WordSyntaxError(VbraidError):
    """A bad letter in a word; ``position`` is its 0-based character offset from
    ``parse_word`` and its letter offset from ``GroupWord``."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class IndexOutOfRangeError(WordSyntaxError):
    """Generator index outside 1..n-1."""


class LetterNotAllowedError(WordSyntaxError, FlavorError):
    """Letter kind not present in the requested flavor's alphabet."""


class InverseNotAllowedError(WordSyntaxError, FlavorError):
    """Inverse of a non-invertible monoid generator."""


class SizeMismatchError(VbraidError):
    """Strand counts or ranks disagree."""


class MonoidHasNoInversesError(FlavorError):
    """Inversion requested for a word in a monoid flavor."""


class DimensionMismatchError(VbraidError):
    """Matrix dimensions disagree."""


class NonUnitDeterminantError(VbraidError):
    """Matrix inverse requested but the determinant is not a unit."""


class GaussSyntaxError(VbraidError):
    """Malformed Gauss code text."""


class LabelCountError(GaussSyntaxError):
    """A crossing label does not appear exactly once as O and once as U."""


class NotAKnotError(VbraidError):
    """Braid closure has more than one component."""


class NegativeDepthError(VbraidError, ValueError):
    """A bounded search was asked for a negative number of rewrite steps."""


class WitnessError(VbraidError, ValueError):
    """A rewrite step with a direction other than +-1 or a negative position, or
    one that names no known rule or does not match the word it rewrites."""


class StrandCountError(VbraidError, ValueError):
    """A strand count, or a range of them, that the operation does not accept."""


def as_count(n, what="strand count"):
    """n as an int, for a strand count or a rank; a bool or a value that is not
    an integer (``operator.index``) raises StrandCountError."""
    if not isinstance(n, bool):
        try:
            return index(n)
        except TypeError:
            pass
    raise StrandCountError(f"{what} must be an integer, got {n!r}")


class LetterError(VbraidError, ValueError):
    """A letter with an unknown kind, an index below 1 or an exponent other than +-1."""


class ParityError(VbraidError, ValueError):
    """A Z/2 component given as something other than 0 or 1."""


class CheckNotApplicableError(FlavorError, ValueError):
    """A verification check requested for a flavor it does not apply to."""


class PermutationError(VbraidError, ValueError):
    """Images that are not a bijection of 1..n."""


class InexactDivisionError(VbraidError, ValueError):
    """A quotient or negative power of Laurent polynomials outside Z[t, t^-1]."""


class LaurentTermError(VbraidError, ValueError):
    """A Laurent polynomial term whose exponent or coefficient is not an integer,
    or a polynomial too wide to pack into ``laurent.MAX_PACKED_BITS`` bits."""


class ShapeError(VbraidError, TypeError):
    """A value type given a container, or an element of one, of the wrong type:
    a word's letters not ``Letter``s, a matrix entry not a ``LaurentPoly``, an
    image not a ``FreeWord``, a witness step not a ``RewriteStep`` or with a
    field of the wrong type, a non-iterable where a sequence is expected, or
    text given to a JSON decoder that is not JSON."""
