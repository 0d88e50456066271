"""Exception types shared across the package."""


class NetselectError(Exception):
    """Base class for all errors raised by this package."""


class InvalidNode(NetselectError):
    """A node id is outside [0, node_count)."""


class InvalidEdge(NetselectError):
    """An edge is structurally forbidden (e.g. a self-loop)."""


class ParseError(NetselectError):
    """An edge-list file could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class InvalidSpec(NetselectError):
    """A model specification or generator argument is invalid."""


class UndefinedFeature(NetselectError):
    """A feature is undefined for the given graph (precondition failed)."""


class InvalidInput(NetselectError):
    """An inference operation received inconsistent or empty input."""


class UndefinedBayesFactor(NetselectError):
    """Both evidences are zero; the Bayes factor carries no information."""


class UndefinedPosterior(NetselectError):
    """All prior-times-evidence products are zero."""


class DegenerateRatio(NetselectError):
    """Both expected losses of a loss ratio are zero."""
