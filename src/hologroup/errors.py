"""Exception types shared across the package.

Every error that a caller is expected to catch derives from HoloError,
and the class alone decides the CLI's exit status: SceneError and
DimensionMismatch are malformed input (exit 1); every other HoloError,
NonFinite included, is a well-posed request whose mathematics fails
(exit 2, with an {"error": ...} document on stdout). New error types
belong here rather than as bare ValueErrors from the numeric modules.
"""


class HoloError(Exception):
    """Base class for all hologroup domain errors."""


class DimensionMismatch(HoloError):
    """Vector, word, or domain dimensions disagree."""


class SingularPoint(HoloError):
    """A coordinate inversion received the value 0."""


class NonInvertibleStep(HoloError):
    """A generator step is singular (zero diagonal entry, singular matrix)."""


class NotUnimodular(HoloError):
    """An integer exponent matrix has determinant other than +1 or -1."""

    def __init__(self, det: int):
        super().__init__(f"determinant is {det}, expected +1 or -1")
        self.det = det


class NotDiagonal(HoloError):
    """Diagonal extraction failed its multi-point consistency check."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class InvalidAxis(HoloError):
    """Contour axis is not one of the domain's deleted coordinates."""


class OutsideDomain(HoloError):
    """A point that must lie in the domain does not."""


class ZeroOnContour(HoloError):
    """The tracked coordinate function vanishes on the contour."""


class BudgetExhausted(HoloError):
    """A computation would exceed its work budget: adaptive refinement ran
    out of samples without converging, or a requested time grid has more
    points than allowed."""


class OutOfRange(HoloError):
    """A numeric argument lies outside its allowed range: a path parameter
    t outside [0, 1], a time step or grid size, or a sampling radius that
    is negative or not finite."""


class NonFinite(HoloError):
    """A value that must be finite is NaN or infinite: a parsed input, a
    computed result, or an intermediate such as a determinant that
    overflowed."""


class DomainNotPreserved(HoloError):
    """Operation requires a word that maps the domain into itself."""


class SceneError(HoloError):
    """A scene file is malformed (schema, names, or dimensions)."""
