"""Exception hierarchy shared across the solver modules.

Each class carries the CLI exit code it maps onto, as ``exit_code``:
parse/input problems -> 3, infeasibility -> 2, oracle size limits -> 4, and
any other error (a failed validation, a broken engine invariant) -> 1.
"""


class PlacementError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1


class DomainError(PlacementError, ValueError):
    """An input value is outside its domain (e.g. latitude > 90, a node id
    outside ``0..n-1``, stretch < 1)."""
    exit_code = 3


class GeoUnavailable(PlacementError):
    """Geographic metric requested but a node has no coordinates."""
    exit_code = 3


class InfeasiblePair(PlacementError):
    """A communication pair cannot be served by any candidate location."""
    exit_code = 2

    def __init__(self, pair, reason: str = "no feasible candidate"):
        self.pair = pair
        super().__init__(f"pair {pair!r}: {reason}")


class Infeasible(PlacementError):
    """The instance admits no complete solution."""
    exit_code = 2

    def __init__(self, message: str, uncoverable=()):
        self.uncoverable = tuple(uncoverable)
        super().__init__(message)


class AlreadyActive(PlacementError):
    """Attempt to add a middlebox that is already deployed."""


class InvalidPath(PlacementError):
    """An augmenting path violates alternation or endpoint conditions."""


class Stalled(PlacementError):
    """Greedy cannot improve although unserved pairs remain."""
    exit_code = 2


class TooLarge(PlacementError):
    """Exact enumeration was requested beyond its size limit."""
    exit_code = 4


class RoundingFailed(PlacementError):
    """Fractional solution could not be rounded (precondition violated)."""
    exit_code = 2


class ParseError(PlacementError):
    """Malformed input file."""
    exit_code = 3


class MissingEndpoint(ParseError):
    """An edge references a node that was never declared."""


class NegativeDemand(ParseError):
    """A demand entry carries a non-positive value."""
