"""The exact searches and the rounding leave no reference cycles behind: their
search state lives on explicit stacks or in a module-level recursion
(the weighted oracle's assignment search), not in recursive closures, so it
is freed when the call returns, without the cycle collector."""

import gc

import pytest

from builders import (coverable_instance, coverable_weighted_problem, random_weighted_problem,
                      rng_for)

from mbplace.greedy import greedy_place
from mbplace.oracle import (exact_min_middleboxes, exact_weighted_min_middleboxes,
                            max_assignment_for_n, max_served_series)
from mbplace.weighted import generalized_greedy, round_solution


def calls():
    inst, fs = coverable_instance(rng_for(5), num_nodes=8, num_pairs=7, capacity=2)
    # greedy serves 5 pairs with two boxes where two boxes can serve 6, so two
    # of the four steps are searched
    sinst, sfs = coverable_instance(rng_for(26), num_nodes=8, num_pairs=7, capacity=3)
    steps = greedy_place(sinst, sfs).steps
    _, _, prep, _, _ = coverable_weighted_problem(rng_for(6), num_nodes=8, num_requests=8)
    chosen, frac = generalized_greedy(prep)
    requests, rfs, _, kappa, _ = random_weighted_problem(rng_for(3), num_nodes=7,
                                                         num_requests=5, kappa=6.0)
    return {
        "exact_min_middleboxes": lambda: exact_min_middleboxes(inst, fs),
        "max_assignment_for_n": lambda: max_assignment_for_n(inst, fs, 3),
        "max_served_series": lambda: max_served_series(sinst, sfs, steps),
        "exact_weighted_min_middleboxes":
            lambda: exact_weighted_min_middleboxes(requests, rfs.candidates_of, kappa),
        "round_solution": lambda: round_solution(frac, chosen, prep),
    }


@pytest.mark.parametrize("name", ["exact_min_middleboxes", "max_assignment_for_n",
                                  "max_served_series", "exact_weighted_min_middleboxes",
                                  "round_solution"])
def test_call_leaves_no_cyclic_garbage(name):
    call = calls()[name]
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
