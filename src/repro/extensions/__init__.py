"""Extensions beyond the paper's evaluated configurations.

- :mod:`repro.extensions.multicore` — GGraphCon on a multi-core CPU.
  Section IV-B remarks that Algorithm 2 "is essentially independent of
  hardware substrate ... it can also be applied to other system settings
  that have multiple working units such as multi-core CPU systems and
  distributed systems"; this module takes the paper at its word.
- :mod:`repro.extensions.distributed` — GGraphCon across cluster
  workers with an explicit network cost model (the same remark's
  "distributed systems" case).
"""

from repro.extensions.multicore import build_nsw_multicore
from repro.extensions.distributed import NetworkModel, build_nsw_distributed

__all__ = [
    "build_nsw_multicore",
    "build_nsw_distributed",
    "NetworkModel",
]
