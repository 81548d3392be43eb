"""Exception types shared across the package."""


class OneRelatorError(Exception):
    """Base class for all errors raised by this package."""


class UnknownGenerator(OneRelatorError):
    """A word refers to a generator outside the alphabet in use."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class EmptyRelator(OneRelatorError):
    """The relator freely reduces to the empty word."""


class PreconditionViolated(OneRelatorError):
    """An operation was called outside its stated preconditions."""


class ResourceExhausted(OneRelatorError):
    """A configured budget (depth, word length) was hit.

    This is never a verdict: the procedure is total in theory, so running
    out of budget is reported honestly instead of guessing.  ``budget`` names
    the :class:`~onerelator.solver.SolverLimits` field that ran out
    (``"max_depth"`` or ``"max_word_len"``), ``limit`` its value, and
    ``depth``, ``rank`` and ``relator`` (a word over ids) those of the
    innermost hierarchy node it left (None outside the hierarchy).
    """

    def __init__(self, message, budget=None, limit=None, depth=None):
        super().__init__(message)
        self.budget = budget
        self.limit = limit
        self.depth = depth
        self.rank = self.relator = None


class WordSyntaxError(OneRelatorError):
    """Malformed text; ``offset`` is the character index of the error."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
