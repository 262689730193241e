"""Typed errors raised across the workbench.

Every precondition failure maps to one of these classes; callers never
receive sentinel values in place of an error.
"""


class TrdError(Exception):
    """Base class for all workbench errors."""


class OutOfRangeError(TrdError, ValueError):
    """A vertex label lies outside 0..n-1, or the vertex count is invalid."""


class SelfLoopError(TrdError, ValueError):
    """An edge with identical endpoints was supplied."""


class EdgeExistsError(TrdError, ValueError):
    """Attempt to add an edge that is already present."""


class NotANonEdgeError(TrdError, ValueError):
    """The given pair is not an edge of the complement."""


class MalformedGraph6Error(TrdError, ValueError):
    """The input is not a valid short-form graph6 string."""


class MalformedEdgeListError(TrdError, ValueError):
    """The input is not a valid 'n m' edge-list document."""


class GraphTooLargeError(TrdError, ValueError):
    """The graph exceeds the size cap of the requested operation."""


class TooSmallError(TrdError, ValueError):
    """The graph is below the minimum order of the requested operation."""


class LengthMismatchError(TrdError, ValueError):
    """A weight function's length differs from the graph order."""


class IsolatedVertexError(TrdError, ValueError):
    """The operation requires a graph without isolated vertices."""


class BudgetExceededError(TrdError, RuntimeError):
    """The solver's node budget was exhausted before completion."""


class ValueTooSmallError(TrdError, ValueError):
    """The invariant value is below the threshold the construction needs."""


class InvalidSpecError(TrdError, ValueError):
    """A family descriptor violates its parameter invariants."""


class TooFewLegsError(TrdError, ValueError):
    """A spider operation was called with fewer than three legs."""


class DisconnectedError(TrdError, ValueError):
    """The operation requires a connected graph."""


class UniverseTooLargeError(TrdError, ValueError):
    """The instance universe exceeds the enforced enumeration ceiling."""


class UnknownTheoremError(TrdError, KeyError):
    """No theorem with the given identifier is registered."""
    __str__ = Exception.__str__  # the message, not KeyError's quoted key


class UnknownQuestionError(TrdError, KeyError):
    """No counterexample hunt with the given identifier is registered."""
    __str__ = Exception.__str__


class IncompatibleUniverseError(TrdError, ValueError):
    """The universe cannot supply instances for the selected theorem."""
