"""Exception hierarchy shared by all levelspectra modules, and the guard of
their immutable records."""


class Frozen:
    """Base of the immutable records. Assigning or deleting an attribute
    raises AttributeError, so a record's ``__init__`` sets each field with
    ``object.__setattr__``; a ``functools.cached_property`` still caches, as
    it writes to the instance dict directly."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")

    def __setstate__(self, state):
        """pickle and copy restore a record here, past the guard: ``state``
        is its instance dict or a (dict or None, slots) pair."""
        for fields in state if isinstance(state, tuple) else (state,):
            for name, value in (fields or {}).items():
                object.__setattr__(self, name, value)


class LevelSpectraError(Exception):
    """Base class for every error raised by this package."""


class UsageError(LevelSpectraError):
    """A command line that the parser or a command refuses (exit 64)."""


# -- tree construction / surgery ------------------------------------------

class TreeError(LevelSpectraError, ValueError):
    pass


class CycleDetected(TreeError):
    """Parent pointers lead around a cycle; ``vertex`` (0-based) is on it."""

    def __init__(self, message, vertex):
        self.vertex = vertex
        super().__init__(message)


class MultipleRoots(TreeError):
    """More than one vertex has no parent; ``vertices`` (0-based) lists them."""

    def __init__(self, message, vertices):
        self.vertices = vertices
        super().__init__(message)


class NoRoot(TreeError):
    pass


class IndexOutOfRange(TreeError):
    """A vertex index is out of range; ``vertex`` (0-based) is the vertex
    whose parent entry is, or the one asked for."""

    def __init__(self, message, vertex):
        self.vertex = vertex
        super().__init__(message)


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


class NoBracket(LevelSpectraError, ArithmeticError):
    """A bisection solve found no sign change; indicates a numerical bug."""


# -- resource policy ---------------------------------------------------------

class ResourceLimit(LevelSpectraError, RuntimeError):
    """Request exceeds a configured size cap (see LEVEL_SPECTRA_CAP)."""


class InvalidCap(LevelSpectraError, ValueError):
    """LEVEL_SPECTRA_CAP is set to something other than a positive integer."""
