"""Exception hierarchy shared by all levelspectra modules."""


class LevelSpectraError(Exception):
    """Base class for every error raised by this package."""


# -- tree construction / surgery ------------------------------------------

class TreeError(LevelSpectraError, ValueError):
    pass


class CycleDetected(TreeError):
    pass


class MultipleRoots(TreeError):
    pass


class NoRoot(TreeError):
    pass


class IndexOutOfRange(TreeError):
    pass


class NotALeaf(TreeError):
    pass


class CannotDeleteRoot(TreeError):
    pass


class InvalidOrder(TreeError):
    pass


# -- I/O -------------------------------------------------------------------

class ParseError(LevelSpectraError, ValueError):
    """Malformed tree file; carries a 1-based line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)


# -- numerics --------------------------------------------------------------

class ConvergenceFailure(LevelSpectraError, ArithmeticError):
    """Eigensolver exceeded its iteration cap; indicates a bug, not bad data."""


class TooSmall(LevelSpectraError, ValueError):
    """Operation needs a larger matrix/tree (e.g. Perron vector of a 1x1)."""


class AmbiguousCluster(LevelSpectraError, ArithmeticError):
    """Eigenvalue clusters overlap at the requested tolerance."""


class DegenerateDenominator(LevelSpectraError, ZeroDivisionError):
    pass


class NoBracket(LevelSpectraError, ArithmeticError):
    """A bisection solve found no sign change; indicates a numerical bug."""


# -- resource policy ---------------------------------------------------------

class ResourceLimit(LevelSpectraError, RuntimeError):
    """Request exceeds a configured size cap (see LEVEL_SPECTRA_CAP)."""


class InvalidCap(LevelSpectraError, ValueError):
    """LEVEL_SPECTRA_CAP is set to something other than a positive integer."""
