#!/usr/bin/env python
"""Recovery benchmark: MTTR vs shard size and WAL depth.

A Scalability study of the self-healing layer's repair-time budget on
the simulated clock (everything here is deterministic — no host
timing):

- **Shard-size sweep** — one replica death over increasingly large
  static shards; MTTR decomposes into detect (heartbeat) + transfer
  (rate-limited repair lane) + deserialize (device decode) + verify
  (anti-entropy digest round trip).
- **WAL-depth sweep** — store-backed shards whose rebuilds must
  replay an ever deeper post-checkpoint WAL delta; the catch-up
  charge is computed through :mod:`repro.mutable.recovery`.

Results are the committed ``BENCH_recovery.json`` (its ``recovery``
key; regenerate with ``make bench-recovery``)::

    PYTHONPATH=src python benchmarks/bench_recovery.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "src"))

SHARD_SIZES = (250, 500, 1000, 2000)
# Op counts past the op-16 checkpoint whose surviving WAL delta
# (and replay charge) grows strictly: 1, 3, 5, 6 records.
WAL_OPS = (17, 19, 22, 23)
N_DIMS = 32
HEARTBEAT_SECONDS = 1e-3


def shard_size_sweep(controller):
    """MTTR components for one clean rebuild per shard size."""
    from repro.core.backend import get_backend
    from repro.datasets.synthetic import gaussian_mixture
    from repro.heal import StaticShardSource

    backend = get_backend("nsw")
    rows = []
    for n_points in SHARD_SIZES:
        points = gaussian_mixture(n_points, N_DIMS, n_clusters=8,
                                  cluster_std=0.4, seed=13)
        [graph] = backend.serving_graphs((points,), d_min=8, d_max=16,
                                         metric="euclidean")
        source = StaticShardSource(graph, points)
        transfer = controller.transfer_seconds(source.snapshot_bytes)
        deserialize = controller.deserialize_seconds(
            source.snapshot_bytes)
        verify = controller.verify_seconds()
        mttr = (HEARTBEAT_SECONDS + transfer + deserialize + verify)
        rows.append({
            "n_points": n_points,
            "snapshot_bytes": source.snapshot_bytes,
            "detect_seconds": HEARTBEAT_SECONDS,
            "transfer_seconds": transfer,
            "deserialize_seconds": deserialize,
            "verify_seconds": verify,
            "mttr_seconds": mttr,
        })
        print(f"  shard {n_points:5d} pts: "
              f"{source.snapshot_bytes / 1024:8.1f} KiB, "
              f"MTTR {mttr * 1e3:7.3f} ms "
              f"(transfer {transfer * 1e3:.3f} ms, "
              f"deserialize {deserialize * 1e3:.3f} ms)")
    return rows


def wal_depth_sweep(controller):
    """Catch-up charge as the post-checkpoint WAL delta deepens."""
    from repro.heal import StoreShardSource
    from repro.mutable import run_mutation_sim

    rows = []
    for n_ops in WAL_OPS:
        report = run_mutation_sim(n_points=200, n_dims=16,
                                  n_ops=n_ops, seed=2,
                                  compact_every=50,
                                  checkpoint_every=8)
        source = StoreShardSource(report.store)
        transfer = controller.transfer_seconds(source.snapshot_bytes)
        deserialize = controller.deserialize_seconds(
            source.snapshot_bytes)
        catchup = source.catchup_seconds
        mttr = (HEARTBEAT_SECONDS + transfer + deserialize + catchup
                + controller.verify_seconds())
        rows.append({
            "n_ops": n_ops,
            "wal_records": source.wal_records,
            "snapshot_bytes": source.snapshot_bytes,
            "catchup_seconds": catchup,
            "mttr_seconds": mttr,
        })
        print(f"  {n_ops:3d} ops -> {source.wal_records:2d} WAL "
              f"records: catch-up {catchup * 1e3:7.3f} ms, "
              f"MTTR {mttr * 1e3:7.3f} ms")
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_recovery.json",
                        help="JSON file to write "
                             "(default BENCH_recovery.json)")
    args = parser.parse_args(argv)

    from repro.heal import HealPolicy, RepairController
    from repro.heal.policy import (DESERIALIZE_CYCLES_PER_BYTE,
                                   DIGEST_BYTES, REPAIR_BANDWIDTH_FRACTION)

    controller = RepairController(HealPolicy())
    print("recovery benchmark (simulated seconds, deterministic)")
    print(f"shard-size sweep (dims={N_DIMS}, heartbeat "
          f"{HEARTBEAT_SECONDS * 1e3:g} ms):")
    shard_rows = shard_size_sweep(controller)
    print(f"WAL-depth sweep (checkpoint every 8 ops):")
    wal_rows = wal_depth_sweep(controller)

    doc = {"recovery": {
        "schema": "recovery-v1",
        "heartbeat_seconds": HEARTBEAT_SECONDS,
        "policy": {
            "repair_bandwidth_fraction": REPAIR_BANDWIDTH_FRACTION,
            "deserialize_cycles_per_byte": DESERIALIZE_CYCLES_PER_BYTE,
            "digest_bytes": DIGEST_BYTES,
        },
        "shard_size_sweep": shard_rows,
        "wal_depth_sweep": wal_rows,
    }}
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
