"""Exception hierarchy shared by all momext modules.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps each class to a distinct exit code.
"""


class MomextError(Exception):
    """Base class for all momext errors."""


# ---------------------------------------------------------------- linalg
class NotHermitian(MomextError):
    """Input matrix fails the Hermitian symmetry check."""


class NotSymmetric(MomextError):
    """Input matrix fails the complex-symmetry (A == A^T) check."""


class NotPSD(MomextError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class NoConvergence(MomextError):
    """Iterative factorization hit its sweep cap before converging."""


# ---------------------------------------------------------------- moment
class MissingMoment(MomextError):
    """A required moment key is absent from the sequence."""

    def __init__(self, key, msg=None):
        self.key = key
        super().__init__(msg or f"missing moment key {key!r}")


class OrderTooSmall(MomextError):
    """Requested order is below what the data or degree allows."""


# ------------------------------------------------------------ extraction
class ExtractionError(MomextError):
    """Base class for extraction failures; may carry a partial report."""

    def __init__(self, msg, report=None):
        self.report = report
        super().__init__(msg)


class NotFlat(ExtractionError):
    """rank M_d != rank M_{d-1}: shift operators cannot exist."""


class ShiftInconsistent(ExtractionError):
    """A shift operator is not well defined on the factor columns."""


class BasisDegenerate(ExtractionError):
    """Column basis is unusable (singular system or missing shifted labels)."""


class NotHyponormal(ExtractionError):
    """Shift operators fail the joint-hyponormality test."""


class DegenerateCombination(ExtractionError):
    """Random shift combinations kept producing clustered eigenvalues."""


class IsotropicEigenvector(ExtractionError):
    """Transpose mode: an eigenvector has (nearly) zero bilinear norm."""


# ---------------------------------------------------------------- interp
class RankNotStabilized(MomextError):
    """Hankel rank kept growing up to the sampling budget."""


class AtomAtZero(MomextError):
    """A recovered node is (numerically) zero, so log() is undefined."""


class TooManyVariables(MomextError):
    """Gridded signal output supports models of at most two variables."""


# ------------------------------------------------- hierarchy / sdp / io
class ParseError(MomextError):
    """Malformed input file."""


class FormatError(MomextError):
    """Malformed solver output or SDPA text."""


class NumericalBreakdown(MomextError):
    """Interior-point Newton system unusable even after regularization."""
