"""The exact searches and the rounding leave no reference cycles behind: their
search state lives on explicit stacks, not in recursive closures, so it is
freed when the call returns, without the cycle collector."""

import gc

import pytest

from builders import (coverable_instance, coverable_weighted_problem, random_weighted_problem,
                      rng_for)

from mbplace.oracle import (exact_min_middleboxes, exact_weighted_min_middleboxes,
                            max_assignment_for_n)
from mbplace.weighted import generalized_greedy, round_solution


def calls():
    inst, fs = coverable_instance(rng_for(5), num_nodes=8, num_pairs=7, capacity=2)
    _, _, prep, _, _ = coverable_weighted_problem(rng_for(6), num_nodes=8, num_requests=8)
    chosen, frac = generalized_greedy(prep)
    requests, rfs, _, kappa, _ = random_weighted_problem(rng_for(3), num_nodes=7,
                                                         num_requests=5, kappa=6.0)
    return {
        "exact_min_middleboxes": lambda: exact_min_middleboxes(inst, fs),
        "max_assignment_for_n": lambda: max_assignment_for_n(inst, fs, 3),
        "exact_weighted_min_middleboxes":
            lambda: exact_weighted_min_middleboxes(requests, rfs.candidates_of, kappa),
        "round_solution": lambda: round_solution(frac, chosen, prep),
    }


@pytest.mark.parametrize("name", ["exact_min_middleboxes", "max_assignment_for_n",
                                  "exact_weighted_min_middleboxes", "round_solution"])
def test_call_leaves_no_cyclic_garbage(name):
    call = calls()[name]
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
