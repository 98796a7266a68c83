"""The shared instance builders fail fast on kwargs they cannot satisfy, and
still draw what they drew before for kwargs they can."""

import time

import pytest

from builders import MAX_DRAWS, coverable_instance, feasible_instance, rng_for

from mbplace import matching
from mbplace.matching import phi


class TestFeasibleInstance:
    def test_too_many_pairs_raise_at_once(self):
        # 6 nodes of capacity 1 serve at most 6 of the 15 pairs.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"'num_pairs': 15.*15 pairs exceed capacity 1 x 6"):
            feasible_instance(rng_for(1), num_nodes=6, num_pairs=15, capacity=1)
        assert time.perf_counter() - start < 1.0

    def test_gives_up_after_bounded_draws(self, monkeypatch):
        monkeypatch.setattr(matching, "phi", lambda *args: -1)  # no draw ever serves all
        with pytest.raises(ValueError,
                           match=rf"'num_nodes': 6.*no fully servable draw in {MAX_DRAWS}"):
            feasible_instance(rng_for(1), num_nodes=6, num_pairs=5, capacity=2)

    @pytest.mark.parametrize("seed, kwargs", [
        (5, dict(num_nodes=10, num_pairs=12, capacity=3)),
        (77, dict(num_nodes=8, num_pairs=6, capacity=2)),
        (3, dict(num_nodes=9, num_pairs=9, capacity=3, stretch=1.2)),
        (11, dict(num_nodes=7, num_pairs=10, capacity=2, stretch=1.0)),
    ])
    def test_same_draw_as_unbounded_redraws(self, seed, kwargs):
        rng = rng_for(seed)
        while True:
            inst, fs = coverable_instance(rng, **kwargs)
            if phi(fs.candidates, fs, inst.capacity) == inst.num_pairs:
                break
        got, got_fs = feasible_instance(rng_for(seed), **kwargs)
        assert (got.pairs, got.candidates, got.net.edges) == (inst.pairs, inst.candidates,
                                                              inst.net.edges)
        assert got_fs.masks == fs.masks
