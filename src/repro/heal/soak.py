"""Whole-stack chaos soak: healing cluster + mutable + quant paths.

:func:`run_soak_sim` is the capstone gate of the self-healing layer.
One seeded soak replays three phases, each under its own chaos plan on
the simulated clock:

1. **cluster** — a healing :class:`repro.cluster.ClusterEngine` under
   the ``soak`` fault recipe (dense replica deaths + partitions +
   kernel flakiness), with corruption injected into a fraction of
   rebuilds so the quarantine path exercises.
2. **mutable** — :func:`repro.mutable.sim.run_mutation_sim` under
   ``compaction-crash``, a recovery-faithfulness digest check, then a
   healing cluster served *from the surviving store's snapshot* with
   the store itself as the repair source (WAL catch-up is charged).
3. **quant** — the cluster phase again through the quantized staged
   pipeline (compressed traversal + exact rerank).

Every phase runs its zero-drift verification inline (report vs
metrics registry, span-tree validation) and an offline oracle: each
*complete* tier-0 answer must byte-equal the direct per-shard GANNS
merge over the same placement — a wrong answer is never silent.  The
:class:`SoakReport` is canonical (:meth:`SoakReport.to_bytes` /
:meth:`SoakReport.digest`): two runs of the same seed are
byte-identical, which is exactly what ``scripts/gates.py heal``
asserts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

import numpy as np

from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.datasets.catalog import load_dataset
from repro.errors import HealError
from repro.faults import named_fault_plan
from repro.heal.policy import HealPolicy
from repro.mutable import recover, run_mutation_sim
from repro.observability import MetricsRegistry, SpanTracer
from repro.serve import synthetic_trace

#: Query-pool size every soak phase draws its trace from (the mutable
#: phase uses half).
SOAK_N_POOL = 100
#: Trace arrival rate of every soak phase, requests per second.
SOAK_MEAN_QPS = 20_000.0
#: Mutation ops in the mutable phase.
SOAK_MUTATION_OPS = 20


@dataclass(frozen=True)
class SoakPhaseResult:
    """Verified outcome of one soak phase.

    Attributes:
        name: Phase name (``cluster`` / ``mutable`` / ``quant``).
        n_requests: Requests replayed through the phase's cluster.
        n_served: Complete answers.
        n_partial: Answers explicitly missing shards.
        n_failed: Requests with no answer.
        n_deadline: Requests failed fast before fan-out.
        n_wrong: Oracle violations — complete answers diverging from
            the offline per-shard merge, partial answers that fail to
            name their missing shards, tombstoned ids served, or (in
            the mutable phase) wrong answers / recovery-digest drift
            inside the mutation sim.  The gate demands zero.
        n_repairs: Replica rebuilds the :class:`RepairController`
            scheduled.
        n_healed: Rebuilds verified and re-admitted.
        n_abandoned: Rebuilds abandoned after exhausting attempts.
        n_quarantines: Digest-mismatched rebuilds quarantined (never
            admitted to routing).
        max_mttr_seconds: Worst detect-to-readmit time over healed
            repairs (``0.0`` when none).
        n_unhealed_within_bound: Repairs that missed the phase's MTTR
            bound (abandoned, or healed too slowly).
        report_digest: The phase report's canonical digest.
        detail: Free-form note (mutation-sim crash/recovery counts).
    """

    name: str
    n_requests: int
    n_served: int
    n_partial: int
    n_failed: int
    n_deadline: int
    n_wrong: int
    n_repairs: int
    n_healed: int
    n_abandoned: int
    n_quarantines: int
    max_mttr_seconds: float
    n_unhealed_within_bound: int
    report_digest: str
    detail: str = ""

    def to_line(self) -> str:
        """Canonical single-line encoding."""
        return (f"phase {self.name} requests={self.n_requests} "
                f"served={self.n_served} partial={self.n_partial} "
                f"failed={self.n_failed} deadline={self.n_deadline} "
                f"wrong={self.n_wrong} repairs={self.n_repairs} "
                f"healed={self.n_healed} abandoned={self.n_abandoned} "
                f"quarantines={self.n_quarantines} "
                f"max_mttr={self.max_mttr_seconds!r} "
                f"unhealed={self.n_unhealed_within_bound} "
                f"digest={self.report_digest} detail={self.detail!r}")


@dataclass
class SoakReport:
    """Canonical record of one whole-stack soak run.

    Attributes:
        seed: The soak seed (drives traces, plans, and corruption).
        mttr_bound_seconds: The bound every healed repair must meet.
        phases: Per-phase verified results, replay order.
    """

    seed: int
    mttr_bound_seconds: float
    phases: List[SoakPhaseResult] = field(default_factory=list)

    # -- gate properties ------------------------------------------------

    @property
    def n_wrong(self) -> int:
        """Oracle violations across all phases (gate: zero)."""
        return sum(p.n_wrong for p in self.phases)

    @property
    def n_repairs(self) -> int:
        """Rebuilds scheduled across all phases."""
        return sum(p.n_repairs for p in self.phases)

    @property
    def n_healed(self) -> int:
        """Rebuilds verified and re-admitted across all phases."""
        return sum(p.n_healed for p in self.phases)

    @property
    def n_quarantines(self) -> int:
        """Digest-mismatched rebuilds quarantined across all phases."""
        return sum(p.n_quarantines for p in self.phases)

    @property
    def n_unhealed(self) -> int:
        """Repairs that missed the MTTR bound (gate: zero)."""
        return sum(p.n_unhealed_within_bound for p in self.phases)

    @property
    def max_mttr_seconds(self) -> float:
        """Worst healed-repair MTTR across all phases."""
        return max((p.max_mttr_seconds for p in self.phases),
                   default=0.0)

    @property
    def passed(self) -> bool:
        """The soak gate: zero wrong answers, every loss healed in
        bound, and at least one repair actually exercised."""
        return (self.n_wrong == 0 and self.n_unhealed == 0
                and self.n_repairs > 0)

    # -- rendering ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical byte encoding; byte-identical across reruns."""
        lines = [f"soak seed={self.seed} "
                 f"bound={self.mttr_bound_seconds!r}"]
        lines.extend(p.to_line() for p in self.phases)
        lines.append(f"totals wrong={self.n_wrong} "
                     f"repairs={self.n_repairs} healed={self.n_healed} "
                     f"quarantines={self.n_quarantines} "
                     f"unhealed={self.n_unhealed} "
                     f"passed={int(self.passed)}")
        return "\n".join(lines).encode("utf-8")

    def digest(self) -> str:
        """SHA-256 over the canonical encoding."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def summary(self) -> str:
        """Human-readable soak block."""
        lines = [
            f"SoakReport: seed {self.seed}, {len(self.phases)} phases, "
            f"{'PASS' if self.passed else 'FAIL'}",
            f"  wrong answers {self.n_wrong} (gate: 0)",
            f"  repairs       {self.n_repairs} scheduled, "
            f"{self.n_healed} healed, {self.n_quarantines} "
            f"quarantined, {self.n_unhealed} outside the "
            f"{self.mttr_bound_seconds * 1e3:g} ms MTTR bound",
            f"  max MTTR      {self.max_mttr_seconds * 1e3:.3f} ms",
        ]
        for p in self.phases:
            lines.append(
                f"  [{p.name}] {p.n_served}/{p.n_requests} served, "
                f"{p.n_partial} partial, {p.n_wrong} wrong, "
                f"{p.n_repairs} repairs ({p.n_quarantines} "
                f"quarantined)"
                + (f" — {p.detail}" if p.detail else ""))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Phase runners
# ----------------------------------------------------------------------


def count_wrong_answers(engine, report, trace, pool: np.ndarray, params,
                        live_ids: Optional[np.ndarray] = None) -> int:
    """Oracle violations in one cluster replay.

    The reference is offline: a direct GANNS search of ``pool`` on
    every shard, merged exactly.  A violation is a complete tier-0
    answer diverging from it, an answered-but-partial outcome that
    fails to name its missing shards, or (snapshot-served engines) a
    tombstoned slot id appearing in any complete answer.
    """
    from repro.cluster import merge_topk

    shard_ids, shard_dists = [], []
    for shard in range(engine.n_shards):
        result = ganns_search(engine.shard_graphs[shard],
                              engine.shard_points[shard], pool, params)
        shard_ids.append(engine.shard_map.to_global(shard, result.ids))
        shard_dists.append(result.dists)
    ref_ids, ref_dists = merge_topk(params.k, shard_ids, shard_dists)
    pool_row = {pool[i].tobytes(): i for i in range(len(pool))}
    n_wrong = 0
    for pos, outcome in enumerate(report.outcomes):
        if not outcome.complete:
            if outcome.answered and not outcome.missing_shards:
                n_wrong += 1
            continue
        if live_ids is not None:
            external = engine.map_to_external(outcome.ids)
            served = external[external >= 0]
            if len(served) and not np.isin(served, live_ids).all():
                n_wrong += 1
                continue
        if outcome.degraded_tier != 0:
            continue
        rows = [pool_row[q.tobytes()] for q in trace[pos].queries]
        if not (np.array_equal(outcome.ids, ref_ids[rows])
                and np.array_equal(outcome.dists, ref_dists[rows])):
            n_wrong += 1
    return n_wrong


def _cluster_phase(name: str, make_engine, n_workers: int,
                   pool: np.ndarray, params, n_requests: int, seed: int,
                   live_ids: Optional[np.ndarray] = None,
                   n_wrong: int = 0, detail: str = "") -> SoakPhaseResult:
    """One healing cluster under the ``soak`` recipe, verified.

    ``make_engine(params=, faults=)`` builds the phase's cluster; its
    replay runs the zero-drift verification inline (span tree, report
    vs registry) and then the offline oracle, whose violations are
    added to ``n_wrong``.
    """
    trace = synthetic_trace(pool, n_requests, mean_qps=SOAK_MEAN_QPS,
                            queries_per_request=2, seed=seed)
    plan = named_fault_plan("soak",
                            horizon_seconds=2.0 * n_requests
                            / SOAK_MEAN_QPS,
                            seed=seed, n_workers=n_workers)
    engine = make_engine(params=params, faults=plan)
    tracer = SpanTracer()
    report = engine.replay(trace, tracer=tracer)
    tracer.finish()
    tracer.validate()
    report.verify_against_metrics()
    n_wrong += count_wrong_answers(engine, report, trace, pool, params,
                                   live_ids)
    return SoakPhaseResult(
        name=name,
        n_requests=report.n_requests,
        n_served=report.n_served,
        n_partial=report.n_partial,
        n_failed=report.n_failed,
        n_deadline=report.n_deadline_failfast,
        n_wrong=n_wrong,
        n_repairs=report.n_repairs,
        n_healed=report.n_repairs_healed,
        n_abandoned=report.n_repairs_abandoned,
        n_quarantines=report.n_quarantines,
        max_mttr_seconds=report.max_mttr_seconds,
        n_unhealed_within_bound=len(
            report.unhealed_within(engine.heal.mttr_bound_seconds)),
        report_digest=report.digest()[:16],
        detail=detail,
    )


def _mutable_phase(seed: int, n_requests: int, n_replicas: int,
                   heal: HealPolicy) -> SoakPhaseResult:
    """Mutation sim under crash chaos, then a healing cluster served
    from the surviving store's snapshot and repaired from that store
    (every rebuild is charged the store's WAL catch-up)."""
    from repro.cluster import ClusterEngine

    tracer = SpanTracer()
    metrics = MetricsRegistry()
    mreport = run_mutation_sim(
        n_points=240, n_dims=16, n_ops=SOAK_MUTATION_OPS, seed=seed,
        batch_size=8, k=5, l_n=32, compact_every=6, checkpoint_every=9,
        fault_plan=named_fault_plan(
            "compaction-crash",
            horizon_seconds=float(SOAK_MUTATION_OPS + 5),
            seed=seed),
        tracer=tracer, metrics=metrics)
    tracer.finish()
    tracer.validate()
    mreport.verify_against_metrics()
    store = mreport.store
    recovered = recover(store)
    handle = recovered.snapshot()
    pool = np.random.default_rng(seed + 101).standard_normal(
        (SOAK_N_POOL // 2, handle.points.shape[1])
    ).astype(handle.points.dtype)
    return _cluster_phase(
        "mutable",
        partial(ClusterEngine.from_snapshot, handle, 2, n_replicas,
                heal=heal, repair_store=store),
        2 * n_replicas, pool, SearchParams(k=5, l_n=32), n_requests,
        seed + 1, live_ids=handle.live_ids(),
        # Recovery infidelity is a wrong answer waiting to happen.
        n_wrong=mreport.n_wrong_answers + int(
            recovered.digest() != mreport.final_digest),
        detail=(f"{mreport.n_crashes} crashes, "
                f"{mreport.n_recoveries} recoveries, "
                f"{len(store.surviving_records())} wal records "
                f"replayed per rebuild"))


def run_soak_sim(seed: int = 0, *,
                 n_points: int = 500, n_requests: int = 300,
                 n_shards: int = 4, n_replicas: int = 2,
                 mttr_bound_seconds: float = 0.05,
                 corruption_probability: float = 0.2) -> SoakReport:
    """Run the three-phase whole-stack chaos soak.

    Everything downstream is a pure function of the arguments: traces,
    fault plans, and rebuild-corruption draws are all seeded, so two
    calls with the same inputs return byte-identical
    :class:`SoakReport` encodings.

    Every phase draws its trace at :data:`SOAK_MEAN_QPS` from a pool of
    :data:`SOAK_N_POOL` queries; the mutable phase runs
    :data:`SOAK_MUTATION_OPS` ops.

    Args:
        seed: Master seed; each phase derives its own trace/plan seeds
            from it deterministically.
        n_points: Cluster corpus size (phases 1 and 3).
        n_requests: Requests in the cluster phase (the mutable and
            quant phases replay half as many).
        n_shards: Shards in the cluster/quant phases.
        n_replicas: Replicas per shard.
        mttr_bound_seconds: Bound every healed repair must meet.
        corruption_probability: Per-rebuild corruption rate — keeps the
            quarantine + re-rebuild path honest.
    """
    from repro.cluster import ClusterEngine

    if n_requests <= 0:
        raise HealError(f"soak needs positive n_requests, "
                        f"got {n_requests}")
    heal = HealPolicy(corruption_probability=corruption_probability,
                      max_rebuild_attempts=4,
                      mttr_bound_seconds=mttr_bound_seconds)
    dataset = load_dataset("sift1m", n_points=n_points,
                           n_queries=SOAK_N_POOL)
    make_cluster = partial(ClusterEngine, dataset.points, n_shards,
                           n_replicas, heal=heal)
    half = max(n_requests // 2, 1)
    phases = [
        _cluster_phase("cluster", make_cluster, n_shards * n_replicas,
                       dataset.queries, SearchParams(k=8, l_n=32),
                       n_requests, seed),
        _mutable_phase(seed, half, n_replicas, heal),
        _cluster_phase("quant", make_cluster, n_shards * n_replicas,
                       dataset.queries,
                       SearchParams(k=8, l_n=32, quant="fp16",
                                    rerank_factor=2),
                       half, seed + 2),
    ]
    return SoakReport(seed=seed,
                      mttr_bound_seconds=mttr_bound_seconds,
                      phases=phases)
