"""Capacitated, stretch-constrained middlebox placement.

Deploy the fewest middlebox instances so that every communication pair (or
weighted request) routes through one within a stretch bound and a capacity
limit. Provides the incremental augmenting-path engine, the greedy
deployment algorithm, a weighted LP/rounding variant, exact brute-force
oracles, dataset ingestion, and a CLI.
"""

from .exceptions import (
    AlreadyActive,
    DomainError,
    GeoUnavailable,
    Infeasible,
    InfeasiblePair,
    InvalidPath,
    MissingEndpoint,
    NegativeDemand,
    ParseError,
    PlacementError,
    RoundingFailed,
    Stalled,
    TooLarge,
)
from .greedy import (
    GreedyTrace,
    greedy_place,
    greedy_prefix,
    greedy_step,
    incremental_extend,
    greedy_approximation_bound,
)
from .instance import (
    FeasibilitySets,
    Pair,
    PlacementInstance,
    build_feasibility,
    check_total_capacity,
    feasible,
)
from .matching import Assignment, phi
from .netgraph import DistanceMatrix, Network, Node, compute_apsp, geo_distance
from .oracle import (
    ExactResult,
    exact_min_middleboxes,
    exact_weighted_min_middleboxes,
    max_assignment_for_n,
)
from .weighted import (
    FractionalAssignment,
    Request,
    RoundedSolution,
    WeightedInstance,
    build_request_feasibility,
    generalized_greedy,
    preprocess,
    round_solution,
    solve_fractional,
    solve_weighted,
)

__version__ = "0.1.0"
