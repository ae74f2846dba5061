"""Visited-vertex marking strategies (the Section III-A design space).

Before settling on *lazy check*, the paper weighs the ways a GPU search
can remember which vertices it has seen:

- an **open-addressing hash table** — what SONG ships; compact, but its
  probes serialise on the host thread;
- a **bloom filter** — SONG's alternative for low memory; false
  positives silently *drop* candidates;
- a **bitmap** — trivially parallel, "but this is not efficient on the
  GPU because of the high latency of the random memory accesses involved
  in the warp threads and the limited on-chip memory": one bit per
  vertex cannot fit in shared memory for million-point datasets.

SONG's default hash is a Python set whose probes the stage formulas
price (:mod:`repro.baselines.song`); this module implements the two
alternatives behind one interface with per-operation cycle charges, so
SONG can be run under any of the three and the ablation benchmark can
reproduce the paper's argument quantitatively.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.costs import DEFAULT_COSTS


class VisitedSet(abc.ABC):
    """Interface: mark vertices as visited and query membership.

    Implementations accumulate the simulated cycle cost of their own
    operations in :attr:`cycles`; membership answers are exact or
    one-sided approximate depending on the structure.
    """

    def __init__(self):
        #: Accumulated simulated cycles of all probe/insert operations.
        self.cycles = 0.0

    @abc.abstractmethod
    def add(self, vertex: int) -> None:
        """Mark ``vertex`` visited."""

    @abc.abstractmethod
    def __contains__(self, vertex: int) -> bool:
        """Whether ``vertex`` is (believed to be) visited."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """On-chip memory footprint of the structure."""


class BloomFilter(VisitedSet):
    """A counting-free bloom filter over vertex ids.

    One-sided error: a membership answer of True may be wrong (false
    positive), which makes the *search* silently skip a genuinely new
    candidate — the accuracy hazard the paper notes.
    """

    def __init__(self, n_bits: int, n_hashes: int = 3):
        super().__init__()
        if n_bits <= 0:
            raise ConfigurationError(
                f"bloom filter size must be positive, got {n_bits}"
            )
        if n_hashes <= 0:
            raise ConfigurationError(
                f"bloom filter needs at least one hash, got {n_hashes}"
            )
        self._bits = np.zeros(n_bits, dtype=bool)
        self._n_hashes = n_hashes

    def _positions(self, vertex: int) -> np.ndarray:
        positions = np.empty(self._n_hashes, dtype=np.int64)
        h = np.int64(vertex)
        for i in range(self._n_hashes):
            h = np.int64((int(h) * 0x9E3779B1 + i * 0x85EBCA77)
                         & 0x7FFFFFFF)
            positions[i] = int(h) % len(self._bits)
        return positions

    def add(self, vertex: int) -> None:
        self._bits[self._positions(vertex)] = True
        self.cycles += self._n_hashes * DEFAULT_COSTS.hash_probe_cycles

    def __contains__(self, vertex: int) -> bool:
        self.cycles += self._n_hashes * DEFAULT_COSTS.hash_probe_cycles
        return bool(self._bits[self._positions(vertex)].all())

    def memory_bytes(self) -> int:
        # One bit per entry; the numpy bool array is the simulation's
        # stand-in for the packed words.
        return (len(self._bits) + 7) // 8


class Bitmap(VisitedSet):
    """One bit per vertex in (simulated) off-chip memory.

    Parallel and exact, but each touch is a random global-memory access
    (charged at full latency) and the footprint is ``n/8`` bytes — the
    two reasons Section III-A rejects it.
    """

    #: Cycles of one random global-memory access (uncoalesced).
    RANDOM_ACCESS_CYCLES = 380.0

    def __init__(self, n_vertices: int):
        super().__init__()
        if n_vertices <= 0:
            raise ConfigurationError(
                f"bitmap needs a positive vertex count, got {n_vertices}"
            )
        self._bits = np.zeros(n_vertices, dtype=bool)

    def add(self, vertex: int) -> None:
        self._bits[vertex] = True
        self.cycles += self.RANDOM_ACCESS_CYCLES

    def __contains__(self, vertex: int) -> bool:
        self.cycles += self.RANDOM_ACCESS_CYCLES
        return bool(self._bits[vertex])

    def memory_bytes(self) -> int:
        return (len(self._bits) + 7) // 8


def make_visited_set(strategy: str, n_vertices: int,
                     budget: int) -> VisitedSet:
    """Factory over the two built Section III-A alternatives.

    Args:
        strategy: ``"bloom"`` or ``"bitmap"``.
        n_vertices: Total vertices in the graph (bitmap sizing).
        budget: Expected number of visited vertices (bloom sizing).

    The Bloom filter gets ``8 * budget`` bits (at least 64).
    """
    if strategy == "bloom":
        return BloomFilter(n_bits=max(8 * budget, 64))
    if strategy == "bitmap":
        return Bitmap(n_vertices=n_vertices)
    raise ConfigurationError(
        f"unknown visited strategy {strategy!r}; valid: bloom, bitmap"
    )
