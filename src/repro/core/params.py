"""Validated parameter bundles for search and construction.

Centralising validation here means every algorithm entry point fails fast
with one clear message instead of deep inside a kernel loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Type

import numpy as np

from repro.errors import ConfigurationError, ReproError


def is_pow2(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_pow2(n: int) -> int:
    """Smallest power of two that is ``>= n`` (1 for ``n <= 1``)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def as_count(value, name: str, minimum: Optional[int] = None,
             error: Type[ReproError] = ConfigurationError) -> int:
    """``value`` as an integer (``np.integer`` too, never a ``bool``).

    Raises ``error`` naming the field when ``value`` is not an integer
    or lies below ``minimum`` (when one is given).
    """
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, (int, np.integer))):
        raise error(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def as_finite(value, name: str,
              error: Type[ReproError] = ConfigurationError) -> float:
    """``value`` as a float (never a ``bool``), or ``error`` naming the
    field when it is not a finite real number.

    NaN compares false against every bound, so a range check alone lets
    it through; callers check their range after this.
    """
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, (int, float, np.integer, np.floating))
            or not math.isfinite(value)):
        raise error(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SearchParams:
    """Parameters of one GANNS (or SONG) search invocation.

    Attributes:
        k: Neighbors returned per query.
        l_n: Length of the result/candidate pool ``N``.  The paper sets
            ``l_n`` to a power of two "for ease of GPU memory management";
            values of 32, 64 or 128 are typical.
        e: Explored-vertex budget — "we only consider the first e vertices
            in N for exploration", the fine-grained efficiency/accuracy
            knob of Section V.  Defaults to ``l_n``.
        n_threads: Threads per block (``n_t``); Figure 10 sweeps 4..32.
        quant: Quantized staged search — ``"fp16"``, ``"int8"`` or
            ``"pca"`` to traverse on that compressed representation and
            rerank the candidate pool with exact distances; ``None``
            (the default) is the exact search.  **Lossy**: recall may
            differ from the exact search (reported distances stay exact
            — the rerank recomputes them at full precision).
        rerank_factor: Candidate over-fetch of the staged search: the
            compressed traversal retains ``rerank_factor * l_n``
            candidates for the exact rerank.  Power of two (the pool
            stays bitonic-friendly); ignored when quantization is off.
    """

    k: int = 10
    l_n: int = 64
    e: Optional[int] = None
    n_threads: int = 32
    quant: Optional[str] = None
    rerank_factor: int = 2

    def __post_init__(self) -> None:
        as_count(self.k, "k", 1)
        as_count(self.l_n, "l_n", 1)
        as_count(self.n_threads, "n_threads", 1)
        if not is_pow2(self.l_n):
            raise ConfigurationError(
                f"l_n must be a power of two (the paper's GPU memory "
                f"layout), got {self.l_n}; nearest valid value is "
                f"{next_pow2(self.l_n)}"
            )
        if self.k > self.l_n:
            raise ConfigurationError(
                f"k ({self.k}) cannot exceed l_n ({self.l_n})"
            )
        if self.e is not None and not 1 <= as_count(self.e, "e") <= self.l_n:
            raise ConfigurationError(
                f"e must lie in [1, l_n={self.l_n}], got {self.e}"
            )
        if self.quant is not None:
            from repro.perf.quant import QUANT_MODES
            if self.quant not in QUANT_MODES:
                raise ConfigurationError(
                    f"unknown quantization mode {self.quant!r}; valid: "
                    f"{QUANT_MODES} (None is the exact search)"
                )
        if (as_count(self.rerank_factor, "rerank_factor") < 1
                or not is_pow2(self.rerank_factor)):
            raise ConfigurationError(
                f"rerank_factor must be a positive power of two (the "
                f"staged pool stays bitonic-friendly), got "
                f"{self.rerank_factor}"
            )

    @property
    def explore_budget(self) -> int:
        """The effective ``e``: explicit value or the full pool."""
        return self.e if self.e is not None else self.l_n

    def with_overrides(self, **kwargs) -> "SearchParams":
        """Copy with some fields replaced (re-validated)."""
        return replace(self, **kwargs)


#: Points per GGraphCon group when ``BuildParams.n_blocks`` is not
#: given (see ``docs/performance.md``, "The default grid", for the
#: recall gate that chose it).
POINTS_PER_GROUP = 10

#: The widest default grid: the paper's largest block count (Fig. 14
#: sweeps 50..800), reached at ``800 * POINTS_PER_GROUP`` points.
MAX_BLOCKS = 800


@dataclass(frozen=True)
class BuildParams:
    """Parameters of one proximity-graph construction.

    Attributes:
        d_min: Nearest neighbors linked per inserted point (and the number
            of neighbors searched during construction).
        d_max: Adjacency-row capacity.  The evaluation default is
            ``d_max=32, d_min=16``.
        n_blocks: Thread blocks used by construction kernels (``n_b``);
            Figure 14 sweeps 50..800.  Also the number of local-graph
            groups GGraphCon partitions the points into.  ``None`` (the
            default) lets the grid follow the corpus: a build over ``n``
            points uses :meth:`blocks_for` ``(n)`` =
            ``clamp(n // POINTS_PER_GROUP, 1, MAX_BLOCKS)`` blocks.  An
            explicit value is used as given.
        n_threads: Threads per block inside construction kernels.
        ef_construction: Beam/pool width of insertion-time searches;
            defaults to ``2 * d_min``.
        search_l_n: Pool length for GANNS-kernel construction searches;
            defaults to the smallest power of two >= ef_construction.
        seed: Seed for randomised pieces (HNSW levels, KNN init).
    """

    d_min: int = 16
    d_max: int = 32
    n_blocks: Optional[int] = None
    n_threads: int = 32
    ef_construction: Optional[int] = None
    search_l_n: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("d_min", "d_max", "n_threads"):
            as_count(getattr(self, name), name, 1)
        if self.n_blocks is not None:
            as_count(self.n_blocks, "n_blocks", 1)
        as_count(self.seed, "seed", 0)
        if self.d_min > self.d_max:
            raise ConfigurationError(
                f"d_min ({self.d_min}) cannot exceed d_max ({self.d_max})"
            )
        if (self.ef_construction is not None
                and as_count(self.ef_construction,
                             "ef_construction") < self.d_min):
            raise ConfigurationError(
                f"ef_construction ({self.ef_construction}) must be >= "
                f"d_min ({self.d_min})"
            )
        if (self.search_l_n is not None
                and not is_pow2(as_count(self.search_l_n, "search_l_n"))):
            raise ConfigurationError(
                f"search_l_n must be a power of two, got {self.search_l_n}"
            )

    @property
    def effective_ef(self) -> int:
        """Insertion-search beam width: explicit or ``2 * d_min``."""
        return (self.ef_construction if self.ef_construction is not None
                else 2 * self.d_min)

    @property
    def effective_search_l_n(self) -> int:
        """Pool length for construction-time GANNS searches."""
        if self.search_l_n is not None:
            return self.search_l_n
        return max(next_pow2(self.effective_ef), next_pow2(self.d_min))

    def blocks_for(self, n: int) -> int:
        """GGraphCon's grid for a corpus (or a part of one) of ``n``
        points: ``n_blocks`` when it is given, else
        ``clamp(n // POINTS_PER_GROUP, 1, MAX_BLOCKS)``.  Every reader
        of the grid asks here.
        """
        if self.n_blocks is not None:
            return self.n_blocks
        return min(max(n // POINTS_PER_GROUP, 1), MAX_BLOCKS)

    def with_overrides(self, **kwargs) -> "BuildParams":
        """Copy with some fields replaced (re-validated)."""
        return replace(self, **kwargs)
