"""Exception hierarchy shared across the solver modules.

The CLI maps these onto stable exit codes: parse/input problems -> 3,
infeasibility -> 2, oracle size limits -> 4.
"""


class PlacementError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PlacementError, ValueError):
    """An input value is outside its domain (e.g. latitude > 90, a node id
    outside ``0..n-1``, stretch < 1)."""


class GeoUnavailable(PlacementError):
    """Geographic metric requested but a node has no coordinates."""


class InfeasiblePair(PlacementError):
    """A communication pair cannot be served by any candidate location."""

    def __init__(self, pair, reason: str = "no feasible candidate"):
        self.pair = pair
        super().__init__(f"pair {pair!r}: {reason}")


class Infeasible(PlacementError):
    """The instance admits no complete solution."""

    def __init__(self, message: str, uncoverable=()):
        self.uncoverable = tuple(uncoverable)
        super().__init__(message)


class AlreadyActive(PlacementError):
    """Attempt to add a middlebox that is already deployed."""


class InvalidPath(PlacementError):
    """An augmenting path violates alternation or endpoint conditions."""


class Stalled(PlacementError):
    """Greedy cannot improve although unserved pairs remain."""


class TooLarge(PlacementError):
    """Exact enumeration was requested beyond its size limit."""


class RoundingFailed(PlacementError):
    """Fractional solution could not be rounded (precondition violated)."""


class ParseError(PlacementError):
    """Malformed input file."""


class MissingEndpoint(ParseError):
    """An edge references a node that was never declared."""


class NegativeDemand(ParseError):
    """A demand entry carries a non-positive value."""
