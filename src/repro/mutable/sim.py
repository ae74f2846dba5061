"""Seeded mutation workload: the chaos driver for the mutable index.

:func:`run_mutation_sim` plays a deterministic schedule of inserts,
deletes, searches, compactions and checkpoints against one
:class:`~repro.mutable.index.MutableIndex` on a simulated timeline,
optionally under a :class:`~repro.faults.plan.FaultPlan` whose
``crash`` events kill the process mid-compaction or mid-checkpoint.
Every crash is followed by a full :func:`~repro.mutable.recovery.recover`
from the surviving durable store, after which the workload continues —
exactly the crash/restart loop a real online index lives through.

Everything is a pure function of ``(workload knobs, seed, fault
plan)``: the RNG stream, the op schedule, the simulated timestamps and
the recovery replay are all deterministic, so two runs produce
byte-identical :class:`~repro.mutable.report.MutationReport` encodings.
The smoke gate (``scripts/gates.py mutate``) and the golden
mutation-trace test pin exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.params import BuildParams, SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import ConfigurationError, ProcessCrashError
from repro.faults.injector import CrashInjector
from repro.faults.plan import FaultPlan
from repro.mutable.index import MutableIndex
from repro.mutable.recovery import recover
from repro.mutable.report import MutationReport, OpRecord, SearchRecord
from repro.observability.metrics import MetricsRegistry
from repro.observability.span import SpanTracer

#: Seconds between scheduled workload operations.  Mutation kernel
#: charges are micro-to-millisecond scale, so unit spacing keeps every
#: span interval disjoint on the ``mutate`` lane.
OP_SPACING_SECONDS = 1.0

#: Offset after a crash at which the replacement process recovers.
RECOVERY_DELAY_SECONDS = 0.5


def default_build_params() -> BuildParams:
    """Small-corpus build parameters the sim (and its gates) use."""
    return BuildParams(d_min=4, d_max=8, n_blocks=8)


@dataclass
class _Workload:
    """One mutation workload in flight: the live index (rebound by every
    recovery) and the report being written; an op's sequence number is
    its position in ``report.ops``."""

    index: MutableIndex
    rng: np.random.Generator
    report: MutationReport
    search_params: SearchParams
    batch_size: int
    crash: Optional[CrashInjector]
    tracer: Optional[SpanTracer]
    metrics: Optional[MetricsRegistry]

    def record(self, kind: str, at: float, count: int = 0,
               status: str = "ok", phase: str = "") -> None:
        self.report.ops.append(OpRecord(
            seq=len(self.report.ops), kind=kind, at_seconds=at,
            epoch_after=self.index.epoch, count=count, status=status,
            phase=phase))

    def search(self, now: float) -> None:
        index, params = self.index, self.search_params
        n_queries = 1 + int(self.rng.integers(0, 4))
        queries = self.rng.standard_normal(
            (n_queries, index.points.shape[1]))
        k_eff = min(params.k, index.n_live)
        ids, dists = index.search(
            queries, params.with_overrides(k=k_eff)
            if k_eff != params.k else params)
        returned = ids[ids >= 0]
        n_wrong = int(index.tombstones[returned].sum())
        if self.metrics is not None:
            self.metrics.counter("mutate.searches").inc()
            if n_wrong:
                self.metrics.counter("mutate.wrong_answers").inc(n_wrong)
        self.report.searches.append(SearchRecord(
            seq=len(self.report.ops), at_seconds=now, epoch=index.epoch,
            ids=ids, dists=dists, n_wrong=n_wrong))
        self.record("search", now, count=n_queries)

    def insert(self, now: float) -> None:
        batch = 1 + int(self.rng.integers(0, self.batch_size))
        points = 0.5 * self.rng.standard_normal(
            (batch, self.index.points.shape[1]))
        self.index.insert(points, now=now, tracer=self.tracer,
                          metrics=self.metrics)
        self.record("insert", now, count=batch)

    def delete(self, now: float) -> None:
        n_del = min(1 + int(self.rng.integers(0, 3)),
                    self.index.n_live - 1)
        if n_del <= 0:
            self.search(now)
            return
        ids = np.sort(self.rng.choice(self.index.live_ids(), size=n_del,
                                      replace=False))
        self.index.delete(ids, now=now, tracer=self.tracer,
                          metrics=self.metrics)
        self.record("delete", now, count=n_del)

    def lifecycle(self, kind: str, now: float) -> None:
        """Compact or checkpoint: the crash-prone phases.  A delivered
        crash kills the op mid-phase; the durable store survives, and a
        replacement process recovers from it."""
        index = self.index
        try:
            if kind == "compact":
                stats = index.compact(now=now, crash=self.crash,
                                      tracer=self.tracer,
                                      metrics=self.metrics)
                self.record("compact", now, count=stats.n_dead)
            else:
                self.report.checkpoint_lsn = index.checkpoint(
                    now=now, crash=self.crash, tracer=self.tracer,
                    metrics=self.metrics)
                self.record("checkpoint", now,
                            count=self.report.checkpoint_lsn)
        except ProcessCrashError as crashed:
            self.record(kind, now, status="crashed", phase=crashed.phase)
            recover_at = now + RECOVERY_DELAY_SECONDS
            self.index = recover(index.store, tracer=self.tracer,
                                 metrics=self.metrics, now=recover_at)
            self.index.validate()
            self.record("recover", recover_at,
                        count=self.index.last_recovery["n_replayed"])

    def close(self) -> MutationReport:
        index, report = self.index, self.report
        index.validate()
        report.final_digest = index.digest()
        report.store_digest = index.store.digest()
        report.final_epoch = index.epoch
        report.n_live = index.n_live
        report.n_slots = index.n_slots
        report.store = index.store
        return report


def run_mutation_sim(n_points: int = 200, n_dims: int = 16,
                     n_ops: int = 24, seed: int = 0,
                     batch_size: int = 8, k: int = 5, l_n: int = 32,
                     compact_every: int = 6, checkpoint_every: int = 9,
                     fault_plan: Optional[FaultPlan] = None,
                     tracer=None, metrics=None) -> MutationReport:
    """Run one deterministic mutation workload, chaos and all.

    The seed build uses :func:`default_build_params` and the euclidean
    metric.

    Args:
        n_points: Seed corpus size (offline-built at ``t = 0``).
        n_dims: Point dimensionality.
        n_ops: Scheduled operations after the seed build (``>= 0``).
        seed: Workload RNG seed (corpus, batches, delete picks,
            queries).
        batch_size: Maximum points per insert batch (``>= 1``).
        k: Neighbors per search query.
        l_n: Search candidate-pool length (power of two).
        compact_every: A compaction every this many ops (0 = never).
        checkpoint_every: A checkpoint every this many ops (0 = never;
            checked before ``compact_every``; both count from 1).
        fault_plan: Optional chaos schedule; only its ``crash`` events
            apply here.
        tracer: Optional span tracer (``mutate.*``, ``compaction.*``,
            ``recovery.*`` spans on the ``mutate`` lane).
        metrics: Optional metrics registry; the returned report's
            :meth:`~repro.mutable.report.MutationReport.verify_against_metrics`
            reconciles against it with zero drift.

    Returns:
        A byte-deterministic :class:`MutationReport`.
    """
    for name, value, floor in (("batch_size", batch_size, 1),
                               ("n_ops", n_ops, 0),
                               ("compact_every", compact_every, 0),
                               ("checkpoint_every", checkpoint_every, 0)):
        if value < floor:
            raise ConfigurationError(
                f"{name} must be >= {floor}, got {value}")
    params = default_build_params()
    rng = np.random.default_rng(seed)
    corpus = gaussian_mixture(n_points, n_dims,
                              n_clusters=min(8, n_points),
                              seed=seed).astype(np.float64)
    sim = _Workload(
        index=MutableIndex.build(corpus, params),
        rng=rng, report=MutationReport(seed=seed, metrics=metrics),
        search_params=SearchParams(k=k, l_n=l_n,
                                   n_threads=params.n_threads),
        batch_size=batch_size,
        crash=CrashInjector(fault_plan) if fault_plan is not None else None,
        tracer=tracer, metrics=metrics)
    for step in range(n_ops):
        now = (step + 1) * OP_SPACING_SECONDS
        if checkpoint_every and (step + 1) % checkpoint_every == 0:
            sim.lifecycle("checkpoint", now)
        elif compact_every and (step + 1) % compact_every == 0:
            sim.lifecycle("compact", now)
        else:
            roll = rng.random()
            if roll < 0.40:
                sim.insert(now)
            elif roll < 0.65:
                sim.delete(now)
            else:
                sim.search(now)
    return sim.close()
