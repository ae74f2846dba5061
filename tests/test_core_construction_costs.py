"""Tests for construction-time search pricing."""

import numpy as np
import pytest

from repro.baselines.beam import BeamLanes
from repro.core.construction_costs import price_search
from repro.errors import ConfigurationError
from repro.gpusim.costs import DEFAULT_COSTS


def _traversal(n_iterations=40, n_scanned=600, n_fresh=250):
    """One lane's counted traversal."""
    return BeamLanes(
        ids=np.arange(5)[None], dists=np.zeros((1, 5)),
        n_iterations=np.array([n_iterations]),
        n_distance_computations=np.array([n_fresh]),
        n_heap_ops=np.array([3 * n_fresh]),
        n_hash_probes=np.array([n_scanned]),
    )


class TestPriceSearch:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError, match="valid kernels"):
            price_search("cuda", _traversal(), 32, 32, 128, 32, 32)

    def test_ganns_charges_all_scanned_distances(self):
        charge = price_search("ganns", _traversal(), 32, 32, 128, 32, 32)
        per_vector = DEFAULT_COSTS.single_distance_cycles(128, 32)
        assert charge.distance_cycles == pytest.approx(601 * per_vector)

    def test_song_charges_only_fresh_distances(self):
        charge = price_search("song", _traversal(), 32, 32, 128, 32, 32)
        per_vector = DEFAULT_COSTS.single_distance_cycles(128, 32)
        assert charge.distance_cycles == pytest.approx(251 * per_vector)

    def test_song_structure_exceeds_ganns_structure(self):
        traversal = _traversal()
        ganns = price_search("ganns", traversal, 32, 32, 128, 32, 32)
        song = price_search("song", traversal, 32, 32, 128, 32, 32)
        assert song.structure_cycles > 2 * ganns.structure_cycles

    def test_song_total_exceeds_ganns_total_at_moderate_dims(self):
        """The reason GGC_GANNS beats GGC_SONG in Tables II/III."""
        traversal = _traversal()
        ganns = price_search("ganns", traversal, 32, 32, 128, 32, 32)
        song = price_search("song", traversal, 32, 32, 128, 32, 32)
        assert (song.distance_cycles + song.structure_cycles
                > ganns.distance_cycles + ganns.structure_cycles)

    def test_ganns_structure_scales_with_iterations(self):
        short = price_search("ganns", _traversal(n_iterations=10), 32, 32,
                             128, 32, 32)
        long = price_search("ganns", _traversal(n_iterations=100), 32, 32,
                            128, 32, 32)
        assert long.structure_cycles == pytest.approx(
            10 * short.structure_cycles)
