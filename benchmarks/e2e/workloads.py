"""The eight benchmark workloads.

A workload owns three things: ``setup`` (fixtures from a seed — timed by
the harness as ``setup_s``), ``run_round`` (a fixed sequence of timed
operations, repeated until the run's seconds are spent) and ``verify``
(every answer checked against an oracle computed outside the timed
region).  Only public ``repro`` names are driven — ``repro.__all__``
plus ``repro.heal.HealPolicy`` and ``repro.graphs.graph_digest`` — and
no ``backend=`` keyword is passed anywhere: the fast tier is selected by
``REPRO_BACKEND`` in ``run.py``, so the file survives the removal of the
switch.

Counts (points, queries, requests, cycles) are scaled so that one round
takes 0.8-3 s on the reference box; datasets, dimensionalities, batch
policy and search/build parameters are the issue's.

What ``--seed`` drives: the query sample, the request trace, the fault
plan, and which corpus rows are built / inserted / deleted.  The corpus
*population* is fixed (``CORPUS_SEED``): ``load_dataset`` draws queries
from a different mixture than the points, so a fresh corpus per seed
moves recall by +-7 % and throughput by +-20 % (measured at seeds 7, 8)
— input variance far above any regression bound.  Sampling from one
population keeps runs at different seeds comparable.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

# Everything is called as ``repro.<name>``: the layer trace rebinds names
# inside the ``repro`` namespaces, and a name a given commit does not
# export yet fails only the workload that needs it.
import repro
import repro.graphs

CORPUS_SEED = 7
K = 10
L_N = 64
SEARCH = repro.SearchParams(k=K, l_n=L_N)
SERVE_BUILD = repro.BuildParams(d_min=8, d_max=16, n_blocks=100)

#: Scratch space for save/load round-trips: inside the checkout.
SCRATCH_ROOT = Path(__file__).resolve().parents[2] / ".bench_e2e_tmp"


class Clock:
    """Times the operations of one round.

    ``samples`` holds ``(label, items, seconds, headline)`` per
    operation; headline operations feed ``throughput`` / ``op_p50_ms``.
    With a recorder attached every operation is also the root span of
    the layer trace.
    """

    def __init__(self, recorder=None, round_index: int = 0):
        self.recorder = recorder
        self.round_index = round_index
        self.samples: List[Tuple[str, int, float, bool]] = []

    @contextlib.contextmanager
    def op(self, label: str, items: int, headline: bool = True):
        span = (self.recorder.operation(label, "round", self.round_index)
                if self.recorder is not None else contextlib.nullcontext())
        with span:
            start = time.perf_counter()
            yield
            self.samples.append(
                (label, items, time.perf_counter() - start, headline))


class Verdict:
    """What ``verify`` found: counts, quality, simulated time."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.recall = 0.0
        self.sim_seconds = 0.0

    def check(self, ok: bool, note: str, n: int = 1,
              n_failed: Optional[int] = None) -> None:
        """Count ``n`` checked things, ``n_failed`` of them failing."""
        bad = (0 if ok else n) if n_failed is None else n_failed
        self.attempted += n
        self.failed += bad
        if bad:
            self.notes.append(f"{note} ({bad}/{n})")


def _sample(rng: np.random.Generator, rows: np.ndarray,
            n: int) -> np.ndarray:
    """``n`` distinct rows of a matrix, in a seed-chosen order."""
    return rows[rng.choice(len(rows), n, replace=False)]


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _block_seconds(reports) -> float:
    """Simulated block-seconds the search trackers charged.

    Work, not makespan: the makespan of one 250-block launch is set by
    its slowest lane and jumps by 15 % with the query sample.
    """
    total = 0.0
    for report in reports:
        launch = report.launch()
        total += launch.seconds * launch.total_cycles \
            / launch.makespan_cycles
    return total


def _bad_rows(ids: np.ndarray, dists: np.ndarray,
              allow_pad: bool = False) -> int:
    """Rows with pad or duplicate ids, or distances out of order."""
    bad = np.zeros(len(ids), dtype=bool)
    if not allow_pad:
        bad |= (ids < 0).any(axis=1)
    ordered = np.sort(ids, axis=1)
    bad |= ((ordered[:, 1:] == ordered[:, :-1])
            & (ordered[:, 1:] >= 0)).any(axis=1)
    finite = np.where(np.isfinite(dists), dists, np.inf)
    bad |= (np.diff(finite, axis=1) < 0).any(axis=1)
    return int(bad.sum())


class Workload:
    name = ""
    why = ""
    #: Lowest recall@10 accepted at any seed (measured minimum - 0.05).
    recall_floor = 0.0
    #: DRAM-bound share of the workload's host time: which calibration
    #: kernel its reference-seconds follow (see calibrate.py).  The
    #: measured perf.distance.share where the point table outgrows the
    #: cache (d=960), 0 where it does not.
    mem_share = 0.0

    def setup(self, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def run_round(self, fx: dict, clock: Clock) -> dict:
        """One round; returns ``digest`` plus what ``verify`` needs."""
        raise NotImplementedError

    def verify(self, fx: dict, out: dict) -> Verdict:
        raise NotImplementedError

    def layer_extras(self, fx: dict, out: dict) -> Dict[str, float]:
        """Exact per-layer values read off this round's reports."""
        return {}


# ----------------------------------------------------------------------
# Direct search: low-dimension, high-dimension exact, high-dimension PCA
# ----------------------------------------------------------------------

class SearchWorkload(Workload):
    dataset = ""
    build = repro.BuildParams()
    quant: Dict[str, object] = {}
    #: (n_points, n_queries, batch, passes per round) full / smoke.
    full = (0, 0, 0, 0)
    small = (0, 0, 0, 0)

    def setup(self, seed, smoke):
        n, n_queries, batch, passes = self.small if smoke else self.full
        ds = repro.load_dataset(self.dataset, n_points=n,
                                n_queries=4 * n_queries, seed=CORPUS_SEED)
        queries = _sample(np.random.default_rng(seed), ds.queries,
                          n_queries)
        index = repro.GannsIndex.build(ds.points, "nsw",
                                       params=self.build)
        truth = repro.exact_knn(ds.points, queries, K)
        if self.quant:
            # The first staged call builds the PCA table; do it here so
            # the table's cost lands in setup_s, not in the first round.
            index.search(queries[:1], k=K, l_n=L_N, **self.quant)
        batches = [queries[i:i + batch]
                   for i in range(0, n_queries, batch)]
        return {"index": index, "truth": truth, "batches": batches,
                "passes": passes,
                "sizes": {"n_points": n, "n_dims": ds.n_dims,
                          "n_queries": n_queries, "batch": batch,
                          "calls_per_round": passes * len(batches)}}

    def run_round(self, fx, clock):
        index = fx["index"]
        reports = []
        for _ in range(fx["passes"]):
            for batch in fx["batches"]:
                with clock.op("search", len(batch)):
                    reports.append(index.search_report(
                        batch, k=K, l_n=L_N, **self.quant))
        first = reports[:len(fx["batches"])]
        ids = np.concatenate([r.ids for r in first])
        dists = np.concatenate([r.dists for r in first])
        return {"digest": _digest(ids, dists), "ids": ids, "dists": dists,
                "reports": first}

    def verify(self, fx, out):
        verdict = Verdict()
        ids, dists = out["ids"], out["dists"]
        verdict.check(True, "malformed result rows", n=len(ids),
                      n_failed=_bad_rows(ids, dists))
        verdict.recall = float(repro.recall_at_k(ids, fx["truth"]))
        verdict.check(verdict.recall >= self.recall_floor,
                      f"recall {verdict.recall:.4f} below floor "
                      f"{self.recall_floor}")
        verdict.sim_seconds = _block_seconds(out["reports"])
        return verdict


class SearchLowdim(SearchWorkload):
    name = "search_lowdim"
    why = ("d=32: distance work is a small share of host time, so "
           "locate/lazy-check/sort/merge/arena/tracker changes show and "
           "GEMM or quantization changes do not")
    dataset = "sift10m"
    build = repro.BuildParams(d_min=8, d_max=16, n_blocks=100)
    full = (4000, 1000, 250, 2)
    small = (500, 100, 50, 1)
    recall_floor = 0.70


class SearchHighdim(SearchWorkload):
    name = "search_highdim"
    why = ("d=960 exact: distance work dominates host time, the mirror "
           "image of search_lowdim; GEMM/gather changes show here")
    dataset = "gist"
    build = repro.BuildParams(d_min=16, d_max=32)
    full = (2000, 250, 250, 1)
    small = (300, 40, 40, 1)
    recall_floor = 0.69
    mem_share = 0.9


class SearchHighdimQuant(SearchHighdim):
    name = "search_highdim_quant"
    why = ("same corpus through quant='pca', rerank_factor=1: the lossy "
           "tier shares _traverse with the exact path, so an exact-path "
           "gain that costs the staged path shows here")
    quant = {"quant": "pca", "rerank_factor": 1}
    full = (2000, 500, 250, 2)
    recall_floor = 0.70
    mem_share = 0.4


# ----------------------------------------------------------------------
# Serving: one engine, then the sharded cluster
# ----------------------------------------------------------------------

def _pool_rows(pool: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Pool row of each query vector (traces copy rows out of the pool)."""
    lookup = {row.tobytes(): i for i, row in enumerate(pool)}
    return np.array([lookup[row.tobytes()] for row in queries])


class ServeReplay(Workload):
    name = "serve_replay"
    why = ("one-query requests at 200k req/s through scheduler, cache, "
           "dispatch and report: micro-batches of 10-60 keep the kernel "
           "in its narrow-batch regime, where per-call cost matters")
    full = (4000, 4000, 3000)
    small = (500, 300, 150)
    recall_floor = 0.80
    policy = repro.BatchPolicy(max_batch=64, max_wait_seconds=0.0005,
                         max_queue=16384)

    def setup(self, seed, smoke):
        n, pool, n_requests = self.small if smoke else self.full
        ds = repro.load_dataset("sift1m", n_points=n, n_queries=pool,
                                seed=CORPUS_SEED)
        index = repro.GannsIndex.build(ds.points, "nsw",
                                       params=SERVE_BUILD)
        truth = ds.ground_truth(K)
        trace = repro.synthetic_trace(
            ds.queries, n_requests, mean_qps=200_000, repeat_fraction=0.6,
            hot_fraction=0.02, seed=seed)
        return {"ds": ds, "index": index, "truth": truth, "trace": trace,
                "sizes": {"n_points": n, "n_dims": ds.n_dims,
                          "pool": pool, "n_requests": n_requests}}

    def make_engine(self, fx):
        """A fresh engine (and cache) over the workload's index."""
        index = fx["index"]
        return repro.ServeEngine(index.graph, index.points, SEARCH,
                                 self.policy,
                                 cache=repro.ResultCache(4096))

    def run_round(self, fx, clock):
        trace = fx["trace"]
        with clock.op("replay", len(trace)):
            report = self.make_engine(fx).replay(trace)
        with clock.op("report", len(trace), headline=False):
            report.verify_against_metrics()
            digest = report.digest()
        return {"digest": digest, "report": report}

    def verify(self, fx, out):
        verdict = Verdict()
        report, trace, index = out["report"], fx["trace"], fx["index"]
        served = [o for o in report.outcomes if o.served]
        verdict.check(True, "requests not served", n=len(trace),
                      n_failed=len(trace) - len(served))
        rows = _pool_rows(fx["ds"].queries,
                          np.concatenate([r.queries for r in trace]))
        distinct, inverse = np.unique(rows, return_inverse=True)
        oracle = repro.ganns_search(index.graph, index.points,
                                    fx["ds"].queries[distinct], SEARCH)
        by_id = {o.request_id: o for o in served}
        got = np.concatenate([by_id[r.request_id].ids for r in trace
                              if r.request_id in by_id])
        kept = np.array([r.request_id in by_id for r in trace])
        want = oracle.ids[inverse[kept]]
        verdict.check(True, "served answer differs from direct search",
                      n=len(got),
                      n_failed=int((got != want).any(axis=1).sum()))
        verdict.recall = float(repro.recall_at_k(
            got, fx["truth"][rows[kept]]))
        verdict.check(verdict.recall >= self.recall_floor,
                      f"recall {verdict.recall:.4f} below floor")
        verdict.sim_seconds = float(report.makespan_seconds)
        return verdict

    def layer_extras(self, fx, out):
        return {"serve.sim_p99_ms": 1e3 * out["report"].p99_latency}


class ClusterReplay(Workload):
    name = "cluster_replay"
    why = ("4 shards x 2 replicas under a replica-loss fault plan with "
           "healing: routing, failover, repair planning, eight per-slot "
           "sub-replays on small shards, scatter/gather merge")
    full = (4000, 1000, 28)
    small = (600, 100, 6)
    recall_floor = 0.90
    n_shards, n_replicas, per_request = 4, 2, 4
    #: Simulated seconds the trace should span: long enough for the
    #: 30/s worker-loss rate of the plan to land inside it.
    span_seconds = 0.2

    def setup(self, seed, smoke):
        from repro.heal import HealPolicy
        n, pool, n_requests = self.small if smoke else self.full
        ds = repro.load_dataset("sift1m", n_points=n, n_queries=pool,
                                seed=CORPUS_SEED)
        truth = ds.ground_truth(K)
        drawn = repro.synthetic_trace(
            ds.queries, n_requests,
            mean_qps=n_requests / self.span_seconds,
            queries_per_request=self.per_request, seed=seed)
        # Stretch the Poisson arrivals to span exactly span_seconds: with
        # 40 requests the drawn span varies by +-16 %, and with it the
        # batching, the fault count and the host time.
        last = self.span_seconds
        stretch = last / drawn[-1].arrival_seconds
        trace = tuple(repro.QueryRequest(
            request_id=r.request_id, queries=r.queries,
            arrival_seconds=r.arrival_seconds * stretch) for r in drawn)
        # The plan seed is the first of seed, seed+1, ... whose schedule
        # kills a replica while requests are still arriving.
        for plan_seed in range(seed, seed + 64):
            plan = repro.named_fault_plan(
                "replica-loss", 2.0 * last, plan_seed,
                n_workers=self.n_shards * self.n_replicas)
            if any(e.kind == "worker_loss" and e.at_seconds < last
                   for e in plan.events):
                break
        else:
            raise RuntimeError("no fault plan kills a replica in-trace")
        engine = repro.ClusterEngine(
            ds.points, self.n_shards, self.n_replicas, params=SEARCH,
            cache_capacity=1024, faults=plan, heal=HealPolicy())
        return {"ds": ds, "truth": truth, "trace": trace, "plan": plan,
                "engine": engine,
                "sizes": {"n_points": n, "n_dims": ds.n_dims,
                          "pool": pool, "n_requests": n_requests,
                          "queries_per_request": self.per_request,
                          "fault_events": len(plan.events)}}

    def run_round(self, fx, clock):
        trace = fx["trace"]
        with clock.op("replay", len(trace)):
            report = fx["engine"].replay(trace)
        with clock.op("report", len(trace), headline=False):
            report.verify_against_metrics()
            digest = report.digest()
        return {"digest": digest, "report": report}

    def verify(self, fx, out):
        verdict = Verdict()
        report, trace, engine = out["report"], fx["trace"], fx["engine"]
        answered = [o for o in report.outcomes if o.answered]
        verdict.check(True, "requests failed or hit their deadline",
                      n=len(trace), n_failed=len(trace) - len(answered))
        queries = np.concatenate([r.queries for r in trace])
        runs_ids, runs_dists = [], []
        for shard in range(engine.n_shards):
            local = repro.ganns_search(engine.shard_graphs[shard],
                                       engine.shard_points[shard],
                                       queries, SEARCH)
            runs_ids.append(engine.shard_map.to_global(shard, local.ids))
            runs_dists.append(local.dists)
        want, _ = repro.merge_topk(K, runs_ids, runs_dists)
        rows = _pool_rows(fx["ds"].queries, queries)
        per = self.per_request
        got, got_rows, differs = [], [], 0
        for pos, outcome in enumerate(report.outcomes):
            if not outcome.complete:
                continue
            span = slice(pos * per, (pos + 1) * per)
            differs += int((outcome.ids != want[span]).any())
            got.append(outcome.ids)
            got_rows.append(rows[span])
        verdict.check(True, "complete answer differs from direct search",
                      n=len(got), n_failed=differs)
        partial = [o for o in report.outcomes
                   if o.answered and not o.complete]
        verdict.check(all(o.missing_shards for o in partial),
                      "partial answer not flagged with missing shards")
        verdict.recall = float(repro.recall_at_k(
            np.concatenate(got), fx["truth"][np.concatenate(got_rows)]))
        verdict.check(verdict.recall >= self.recall_floor,
                      f"recall {verdict.recall:.4f} below floor")
        verdict.sim_seconds = float(report.makespan_seconds)
        return verdict

    def layer_extras(self, fx, out):
        report = out["report"]
        return {"cluster.sim_p99_ms": 1e3 * report.p99_latency,
                "cluster.partial_ratio":
                    report.n_partial / report.n_requests,
                "cluster.answered_queries": report.answered_queries,
                "faults.events": len(fx["plan"].events)}


# ----------------------------------------------------------------------
# Construction: GGraphCon (NSW + HNSW), then NN-descent / CAGRA
# ----------------------------------------------------------------------

class BuildWorkload(Workload):
    families: Tuple[str, ...] = ()
    params: Optional[repro.BuildParams] = None
    full = (0, 0)
    small = (0, 0)

    def setup(self, seed, smoke):
        n, n_queries = self.small if smoke else self.full
        ds = repro.load_dataset("sift1m", n_points=4 * n,
                                n_queries=4 * n_queries, seed=CORPUS_SEED)
        rng = np.random.default_rng(seed)
        points = _sample(rng, ds.points, n)
        queries = _sample(rng, ds.queries, n_queries)
        return {"points": points, "queries": queries,
                "truth": repro.exact_knn(points, queries, K),
                "sizes": {"n_points": n, "n_dims": ds.n_dims,
                          "n_queries": n_queries}}

    def run_round(self, fx, clock):
        points, queries = fx["points"], fx["queries"]
        with clock.op("build", len(points) * len(self.families)):
            built = [repro.GannsIndex.build(points, family,
                                            params=self.params)
                     for family in self.families]
        # Persistence and a quality search per family: part of every
        # round so the layer trace sees them, outside the timed build.
        digests, answers, sizes, reloaded_same = [], [], [], True
        SCRATCH_ROOT.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=SCRATCH_ROOT))
        try:
            with clock.op("persist", len(built), headline=False):
                for family, index in zip(self.families, built):
                    digests.append(repro.graphs.graph_digest(index.graph))
                    path = scratch / f"{family}.npz"
                    index.save(path)
                    sizes.append(path.stat().st_size)
                    loaded = repro.GannsIndex.load(path)
                    report = index.search_report(queries, k=K, l_n=L_N)
                    again = loaded.search_report(queries, k=K, l_n=L_N)
                    reloaded_same &= bool((report.ids == again.ids).all())
                    answers.append(report)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return {"digest": "".join(digests), "built": built,
                "answers": answers, "file_bytes": sum(sizes),
                "reloaded_same": reloaded_same}

    def verify(self, fx, out):
        verdict = Verdict()
        verdict.check(out["reloaded_same"],
                      "loaded index answers differ from the saved one")
        recalls = []
        for family, report in zip(self.families, out["answers"]):
            verdict.check(True, f"{family}: malformed result rows",
                          n=len(report.ids),
                          n_failed=_bad_rows(report.ids, report.dists))
            recalls.append(float(repro.recall_at_k(report.ids,
                                                   fx["truth"])))
        verdict.recall = min(recalls)
        verdict.check(verdict.recall >= self.recall_floor,
                      f"recall {verdict.recall:.4f} below floor")
        # Construction plus the quality searches: the CAGRA build alone
        # charges the same simulated time whatever the points are.
        verdict.sim_seconds = float(sum(
            index.build_report.seconds for index in out["built"])
        ) + _block_seconds(out["answers"])
        return verdict

    def layer_extras(self, fx, out):
        return {"core.index.file_bytes": out["file_bytes"],
                "core.construction.sim_seconds":
                    out["built"][0].build_report.seconds}


class Build(BuildWorkload):
    name = "build"
    why = ("GGraphCon: NSW then HNSW over the same points "
           "(core.construction + perf.construction); disjoint from the "
           "NN-descent code, so build_cagra is its control")
    families = ("nsw", "hnsw")
    full = (1000, 100)
    small = (120, 40)
    recall_floor = 0.93


class BuildCagra(BuildWorkload):
    name = "build_cagra"
    why = ("NN-descent KNN graph + CAGRA rank pruning (core.knng + "
           "core.cagra), ~20x slower per point than GGraphCon today; "
           "build is its control")
    families = ("cagra",)
    params = repro.BuildParams(d_min=8, d_max=16)
    full = (200, 100)
    small = (60, 40)
    recall_floor = 0.93


# ----------------------------------------------------------------------
# Mutation beside reads
# ----------------------------------------------------------------------

class MutableChurn(Workload):
    name = "mutable_churn"
    why = ("insert/delete/search cycles with compact and checkpoint: "
           "every epoch invalidates per-graph caches a read-side change "
           "may lean on; MutableIndex.search adds a per-row filter")
    #: base points, cycles, inserted, deleted, queries per cycle.
    full = (1000, 6, 100, 50, 100)
    small = (200, 2, 20, 10, 20)
    compact_every, checkpoint_every = 2, 3
    recall_floor = 0.88
    build = repro.BuildParams(d_min=8, d_max=16, n_blocks=100)

    def setup(self, seed, smoke):
        base, cycles, n_ins, n_del, n_q = self.small if smoke else self.full
        # The mutation history is fixed: recall after churn swings
        # between 0.59 and 0.94 with *which* rows are deleted (measured,
        # seeds 100-109), which no bound could absorb.  The seed draws
        # the queries searched each cycle; recall is taken over the
        # whole query pool at the final state.
        ds = repro.load_dataset("sift1m", n_points=base + cycles * n_ins,
                                n_queries=4 * n_q, seed=CORPUS_SEED)
        pool = ds.queries.astype(np.float64)
        return {"points": ds.points.astype(np.float64), "pool": pool,
                "queries": _sample(np.random.default_rng(seed), pool,
                                   n_q),
                "shape": (base, cycles, n_ins, n_del, n_q),
                "sizes": {"base_points": base, "cycles": cycles,
                          "insert": n_ins, "delete": n_del,
                          "queries": n_q, "n_dims": ds.n_dims}}

    def run_round(self, fx, clock):
        base, cycles, n_ins, n_del, n_q = fx["shape"]
        points, queries = fx["points"], fx["queries"]
        rng = np.random.default_rng(CORPUS_SEED)
        with clock.op("mutable_build", base, headline=False):
            index = repro.MutableIndex.build(points[:base], self.build)
        tombstoned_returned = 0
        for cycle in range(cycles):
            lo = base + cycle * n_ins
            with clock.op("cycle", n_ins + n_del + n_q):
                index.insert(points[lo:lo + n_ins], now=float(cycle))
                doomed = rng.choice(index.live_ids(), n_del, replace=False)
                index.delete(doomed, now=float(cycle))
                ids, _ = index.search(queries, SEARCH)
                if (cycle + 1) % self.compact_every == 0:
                    index.compact(now=float(cycle))
                if (cycle + 1) % self.checkpoint_every == 0:
                    index.checkpoint(now=float(cycle))
            dead = index.tombstones[np.where(ids < 0, 0, ids)] & (ids >= 0)
            tombstoned_returned += int(dead.any(axis=1).sum())
        with clock.op("recover", 1, headline=False):
            recovered = repro.recover(index.store)
        store = index.store
        return {"digest": index.digest(), "index": index,
                "recovered_digest": recovered.digest(),
                "tombstoned_returned": tombstoned_returned,
                "searched_rows": cycles * n_q,
                "wal_bytes": len(store.wal.to_bytes()),
                "checkpoint_bytes": len(store.checkpoint or b""),
                "user_bytes": cycles * n_ins * points.shape[1] * 8}

    def verify(self, fx, out):
        verdict = Verdict()
        index = out["index"]
        verdict.check(out["recovered_digest"] == out["digest"],
                      "recovered digest differs from the live index")
        verdict.check(True, "tombstoned id returned by search",
                      n=out["searched_rows"],
                      n_failed=out["tombstoned_returned"])
        ids, dists = index.search(fx["pool"], SEARCH)
        verdict.check(True, "malformed result rows", n=len(ids),
                      n_failed=_bad_rows(ids, dists, allow_pad=True))
        live = index.live_ids()
        truth = live[repro.exact_knn(index.points[live], fx["pool"], K)]
        verdict.recall = float(repro.recall_at_k(ids, truth))
        verdict.check(verdict.recall >= self.recall_floor,
                      f"recall {verdict.recall:.4f} below floor")
        # Mutations (a fixed history) plus one search of this seed's
        # queries at the final state.
        verdict.sim_seconds = float(index.mutation_seconds) \
            + _block_seconds([repro.ganns_search(
                index.graph, index.points, fx["queries"], SEARCH,
                entry=index.entry)])
        return verdict

    def layer_extras(self, fx, out):
        _, cycles, n_ins, n_del, n_q = fx["shape"]
        durable = out["wal_bytes"] + out["checkpoint_bytes"]
        return {"mutable.wal_bytes": out["wal_bytes"],
                "mutable.checkpoint_bytes": out["checkpoint_bytes"],
                "mutable.write_amp": durable / out["user_bytes"],
                "mutable.mutated_items": cycles * (n_ins + n_del),
                "mutable.searched_queries": cycles * n_q}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    SearchLowdim(), SearchHighdim(), SearchHighdimQuant(), ServeReplay(),
    ClusterReplay(), Build(), BuildCagra(), MutableChurn())}
