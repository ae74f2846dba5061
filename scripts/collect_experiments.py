"""Assemble EXPERIMENTS.md from the benchmark result files.

``make experiments`` runs the benchmark suite and then this script, so
one command regenerates EXPERIMENTS.md from the checkout.  By hand::

    pytest benchmarks/ --benchmark-only
    python scripts/collect_experiments.py

Each ``benchmarks/results/*.txt`` file holds one experiment's
paper-vs-measured table; this script stitches them into EXPERIMENTS.md
in the paper's order, with the standing commentary on what matches and
what is scale-limited.  The header names the date and the checkout's
short commit (``+dirty`` when the tree has uncommitted changes).
"""

from __future__ import annotations

import os
import subprocess
import sys
from datetime import date

ROOT = os.path.join(os.path.dirname(__file__), "..")
RESULTS_DIR = os.path.join(ROOT, "benchmarks", "results")
OUTPUT = os.path.join(ROOT, "EXPERIMENTS.md")

#: (section header, commentary, result-file prefixes) in paper order.
SECTIONS = [
    ("Figure 6 — throughput vs recall (GANNS vs SONG, k=10)",
     "Recall values are real computation; throughput is simulated. "
     "The calibration point is GANNS on the SIFT1M stand-in at recall "
     "≈0.795 (paper: 458.5k queries/s; the table prints the measured "
     "value). The GANNS-over-SONG speedup at recall 0.8 reproduces the "
     "paper's ordering: largest on low-dimensional descriptor data "
     "(SIFT1M, then UKBench), ~2x on the skewed NYTimes text set, "
     "smallest on 960-dim GIST (where our small-scale stand-in inflates "
     "GANNS's lazy-check recomputation). Each dataset's speedup lies in "
     "its paper band, below the paper's reported value on SIFT1M and "
     "GIST.",
     ["fig06_"]),
    ("Figure 7 — execution-time breakdown at recall ≈ 0.8",
     "SONG's structure share lands at the top of the paper's 50-90%+ "
     "band: 0.84 on GIST and 0.95-0.97 on the other three (our "
     "host-thread constants price dependent memory accesses at the high "
     "end); GANNS's share is far lower (0.10-0.38) and shifts toward "
     "distance computation, as in the paper.",
     ["fig07_"]),
    ("Figure 8 — varying k (1..100) at recall 0.8",
     "The speedup stays within a small factor across k, matching 'the "
     "speedup remains relatively stable as k increases' (SIFT1M "
     "3.3-4.5x; GIST 1.1x, below the paper's 1.5-2x).",
     ["fig08_"]),
    ("Figure 9 — varying dimensionality on GIST (960 → 60)",
     "The paper's crossover mechanism reproduces: as dimensionality "
     "falls, distance computation shrinks and SONG's serialized "
     "structure work dominates, so GANNS's advantage grows "
     "monotonically (paper: 1.5x → 6x).",
     ["fig09_"]),
    ("Figure 10 — varying threads per block (4 → 32) on SIFT1M",
     "Distance time scales with n_t for both algorithms; GANNS's "
     "structure time scales almost as well; SONG's structure time is "
     "flat — the host-thread serialization that motivates the paper.",
     ["fig10_"]),
    ("Figure 11 — NSW construction time across schemes",
     "GGraphCon_GANNS beats GGraphCon_SONG inside the paper's 2-3.3x "
     "band on the regular datasets (SIFT1M, UKBench). On the hard ones "
     "it misses the paper's 1.4-2.2x band both ways: above it on "
     "NYTimes, and on 960-dim GIST GGraphCon_SONG is the faster build. "
     "GNaiveParallel is 1.8-6.8x faster than GGraphCon_SONG, not 'only "
     "slightly' as in the paper: the price that makes the naive build "
     "cheap is not yet explained (ROADMAP). GSerial is catastrophically "
     "slower.",
     ["fig11_"]),
    ("Table II — NSW construction vs single-thread CPU",
     "All speedups are structural (shared cost model, shared "
     "calibration). Absolute speedups are scale-limited: stand-in "
     "searches are ~5x shallower than 1M-point searches, so the GPU's "
     "fixed per-iteration overheads amortize less (measured 5-14x vs "
     "the paper's 29-83x). That the gap closes as REPRO_BENCH_SCALE "
     "grows is expected but not yet measured. GGC_SONG trails GGC_GANNS "
     "everywhere but GIST, where it is slightly faster.",
     ["table2_"]),
    ("Figure 12 — graph quality (recall vs e) across constructions",
     "The paper's own ablation: at the largest e, GNaiveParallel's "
     "recall is visibly below GGraphCon's, and GGraphCon is within 0.02 "
     "of the sequential CPU construction. At small e the shapes differ "
     "from the paper: on SIFT1M GGraphCon trails the CPU graph (0.32 vs "
     "0.70 at e=8), and on UKBench GNaiveParallel beats both up to "
     "e=64.",
     ["fig12_"]),
    ("Figure 13 — construction time vs d_max (32 → 128)",
     "Near-linear growth (R² of a linear fit ≥ 0.9), matching 'the "
     "increase of running times ... are both almost linear'.",
     ["fig13_"]),
    ("Figure 14 — construction scaling with thread blocks",
     "Run on the scaled device (block sweep 4..64 ≙ the paper's 50..800 "
     "at the same device-fill ratios). Both the distance and structure "
     "components speed up together, below the theoretical 16x "
     "(measured 6.6x for GGC_GANNS and 7.5x for GGC_SONG vs the paper's "
     "10-13x; the stand-in's smaller n/concurrency ratio leaves less "
     "local-phase work to parallelize).",
     ["fig14_"]),
    ("Table III — HNSW construction vs single-thread CPU",
     "Level-by-level GGraphCon with the ID shuffle. Same structure and "
     "same scale caveat as Table II (measured 4-11x vs the paper's "
     "27-309x); GGC_SONG is again slightly faster on GIST.",
     ["table3_"]),
    ("Scalability (evaluation goal (4) of Section V)",
     "Dataset-size sweep on one distribution: recall at a fixed budget "
     "falls as n grows (0.99 at 2,000 points to 0.75 at 8,000), and "
     "construction grows no faster than n (2.8x over 4x the points).",
     ["scalability_"]),
    ("Ablations (design choices from DESIGN.md)",
     "Lazy check on/off (recall collapses without it), lazy update vs "
     "eager queues (per-iteration structure-cycle gap), GGraphCon group "
     "count (search recall stays within 0.07 across 4-400 groups; 64 "
     "groups is the fastest build), visited-marking strategies (hash vs "
     "bloom vs bitmap vs the fixed-2k deletion variant, Section III-A: "
     "the hash is the fastest SONG and bloom the only one that loses "
     "recall), diversity pruning composed with GGraphCon, and the "
     "PCIe-transfer remark.",
     ["ablation_", "transfer_"]),
    ("Serving beyond the paper",
     "Not paper figures: the serving stack's own tables. Under a mild "
     "fault plan the degradation governor completes 74% of an "
     "overloaded trace by serving lower tiers, against 22% for "
     "reject-only. Scatter-gather recall at fixed l_n rises with the "
     "shard count while p99 stays within ~10%. In the batch-window "
     "sweep, 0.25 ms windows are too small to keep up with 50k "
     "requests/s (GPU busy 99.8%, p50 19.5 ms, 34k queries/s served); "
     "from 0.5 ms the offered load is served and p50 grows with the "
     "window.",
     ["chaos_", "cluster_", "serving_"]),
]

HEADER = """# EXPERIMENTS — paper vs measured

Generated from `benchmarks/results/` by `scripts/collect_experiments.py`
(last run: {date}, tree {tree}). Regenerate with:

```bash
make experiments     # the benchmark suite, then this file
REPRO_BENCH_FULL=1 make experiments     # all 10 datasets
```

**Reading guide.** Recall, graph quality and all algorithm behaviour are
*real* computation on synthetic stand-ins of the paper's datasets
(Table I character preserved; ~10^4 points instead of 10^6-10^7).
Timing is *simulated*: cycle charges follow the paper's per-phase
complexity formulas; one calibration constant is fitted to the paper's
SIFT1M operating point and shared by every algorithm, so ratios are
model-driven. Where the stand-in scale limits a number, the commentary
says so explicitly.
"""


def tree_label() -> str:
    """Short commit of the checkout, with ``+dirty`` for an unclean
    tree."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()

    try:
        commit = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return commit + ("+dirty" if dirty else "")


def main() -> int:
    if not os.path.isdir(RESULTS_DIR):
        print("no benchmarks/results directory; run the benchmarks first",
              file=sys.stderr)
        return 1
    available = sorted(os.listdir(RESULTS_DIR))
    used = set()
    parts = [HEADER.format(date=date.today().isoformat(),
                           tree=tree_label())]
    for title, commentary, prefixes in SECTIONS:
        files = [name for name in available
                 if any(name.startswith(p) for p in prefixes)]
        if not files:
            continue
        used.update(files)
        parts.append(f"\n## {title}\n\n{commentary}\n")
        for name in files:
            with open(os.path.join(RESULTS_DIR, name)) as handle:
                body = handle.read().rstrip()
            parts.append(f"\n```\n{body}\n```\n")
    leftovers = [name for name in available if name not in used]
    if leftovers:
        parts.append("\n## Other results\n")
        for name in leftovers:
            with open(os.path.join(RESULTS_DIR, name)) as handle:
                body = handle.read().rstrip()
            parts.append(f"\n```\n{body}\n```\n")
    with open(OUTPUT, "w") as handle:
        handle.write("".join(parts))
    print(f"wrote {OUTPUT} from {len(used) + len(leftovers)} result files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
