"""Exception hierarchy for gridcycle.

Validation failures are split into fine-grained classes so callers can
distinguish bad input shapes (size, range, format) from structural problems
(not a tree, not drawable) and from counterexample flags, which indicate a
mathematical claim checked by this library failed on a concrete instance.
"""


class GridCycleError(Exception):
    """Base class for all gridcycle errors."""


class InvalidSizeError(GridCycleError, ValueError):
    """Grid side length is not a positive integer."""


class OutOfRangeError(GridCycleError, ValueError):
    """A coordinate, index or layer lies outside its valid range."""


class TilingError(GridCycleError, ValueError):
    """The grid side is not divisible by 5, so the 5x5 tiling is undefined."""


class LayerError(GridCycleError, ValueError):
    """The requested concentric layer is not a cycle (out of range)."""


class NotASpanningTreeError(GridCycleError, ValueError):
    """An edge set is not a spanning tree; ``cause`` is one of
    ``"cardinality"``, ``"cyclic"``, ``"disconnected"``."""

    def __init__(self, cause, message):
        super().__init__(message)
        self.cause = cause


class NotAChordError(GridCycleError, ValueError):
    """The edge is a tree edge, so it has no fundamental cycle."""


class UnknownEdgeError(GridCycleError, ValueError):
    """The edge is not an edge of the host graph."""


class NoChordsError(GridCycleError, ValueError):
    """The 1-grid has no non-tree edges; cycle statistics are undefined."""


class EmptyCycleError(GridCycleError, ValueError):
    """An empty vertex sequence was passed where a cycle was expected."""


class ConstructionInvalidError(GridCycleError, AssertionError):
    """A validation clause failed on a constructed tree; ``clause`` names it."""

    def __init__(self, clause, message):
        super().__init__(message)
        self.clause = clause


class MalformedEdgeError(GridCycleError, ValueError):
    """An extra edge touches a vertex that is neither peripheral nor a
    duplicate."""


class MalformedFileError(GridCycleError, ValueError):
    """A line of a tree, expanded-grid or matrix file is missing or not laid
    out as its record requires; ``path`` names the file and ``lineno`` the
    1-based line."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


class NotDrawableError(GridCycleError, ValueError):
    """The extra edges of an expanded grid admit no planar outer embedding
    with duplicates pinned near their bases."""


class DegeneratePointError(GridCycleError, ValueError):
    """The winding-number reference point lies on the drawn curve."""


class TooLargeError(GridCycleError, ValueError):
    """A size beyond what the package supports was requested: exhaustive
    enumeration past its limit, or a grid side past ``grid.MAX_SIDE``."""


class EmptyMatroidError(GridCycleError, ValueError):
    """The 1-grid has no edges, hence no binary representation."""


class CounterexampleError(GridCycleError):
    """A checked mathematical claim failed on a concrete instance.

    This is never expected on valid inputs; it is surfaced loudly (CLI exit
    code 3) rather than silently swallowed.
    """
