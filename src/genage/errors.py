"""Domain exception types shared across the package."""

import copyreg


class GenAgeError(Exception):
    """Base class for every error raised by this package.

    Every subclass pickles to the same type, message and attributes, so an
    error raised in a worker process reaches its parent intact.
    """

    def __reduce__(self):
        # ``args`` holds the message, not the arguments of a subclass's
        # constructor, so the copy is made without calling the constructor
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DimensionMismatch(GenAgeError):
    """Vector or matrix dimensions do not agree."""


class NonFiniteFeature(GenAgeError):
    """A sample carries a NaN or infinite feature value."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"sample {index} has a non-finite feature")


class BadGenderLabel(GenAgeError):
    """A gender label is not +1 or -1."""

    def __init__(self, index, value=None):
        self.index = index
        self.value = value
        super().__init__(f"sample {index} has gender label {value!r}, expected +1 or -1")


class RankOutOfRange(GenAgeError):
    """An age rank lies outside 1..num_ranks."""

    def __init__(self, index, value=None, num_ranks=None):
        self.index = index
        self.value = value
        super().__init__(
            f"sample {index} has age rank {value!r}, expected an integer in 1..{num_ranks}"
        )


class LadderOrderError(GenAgeError):
    """Threshold cut points are not non-decreasing."""


class SingleClassInput(GenAgeError):
    """The classifier received samples from only one class (or with no class contrast)."""


class InsufficientRanks(GenAgeError):
    """Fewer than two ranks: a dataset declares K < 2, or the ordinal solver
    finds fewer than two distinct populated ranks."""


class DegenerateGender(GenAgeError):
    """A gender-split fit was requested but one gender is absent."""


class NonConvergence(GenAgeError):
    """The solver stopped before its duality gap reached tolerance.

    ``reason`` names the exit: ``budget`` (the step budget ran out) or
    ``eps-floor`` (the SMO tolerance reached its floor with steps to spare).
    """

    def __init__(self, iterations, reason, gap=None):
        self.iterations = iterations
        self.gap = gap
        self.reason = reason
        detail = f" (duality gap {gap:.3e})" if gap is not None else ""
        super().__init__(f"no convergence after {iterations} iterations: {reason}{detail}")


class RankDeficient(GenAgeError):
    """Deflation exhausted the input matrix before the requested components."""


class LengthMismatch(GenAgeError):
    """Two paired sequences have different lengths."""


class EmptyInput(GenAgeError):
    """An operation received an empty sequence."""


class ZeroVector(GenAgeError):
    """An angle was requested for a zero-length vector."""


class InfeasibleFolds(GenAgeError):
    """Cross-validation folds cannot all retain both genders and two ranks."""


class BadConfig(GenAgeError):
    """A configuration object violates its invariants."""


class ParseError(GenAgeError):
    """A data file could not be parsed."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")
