"""Dataset substrate: synthetic stand-ins for the paper's ten benchmarks.

The paper evaluates on SIFT1M, GIST, NYTimes, GloVe200, UQ_V, MSong, Notre,
UKBench, DEEP and SIFT10M (Table I).  Those corpora are not redistributable
here, so :mod:`repro.datasets.catalog` builds synthetic stand-ins that match
each dataset's dimensionality, metric and *statistical character* — clustered
image-descriptor-like Gaussians, and heavily skewed (Zipf cluster mass) text
embeddings for the two datasets the paper calls "hard" — at a configurable
scale that runs on a laptop.
"""

from repro.datasets.synthetic import (
    gaussian_mixture,
    zipf_clustered,
)
from repro.datasets.catalog import (
    Dataset,
    DatasetSpec,
    DATASET_SPECS,
    load_dataset,
    dataset_names,
)
from repro.datasets.ground_truth import exact_knn

__all__ = [
    "gaussian_mixture",
    "zipf_clustered",
    "Dataset",
    "DatasetSpec",
    "DATASET_SPECS",
    "load_dataset",
    "dataset_names",
    "exact_knn",
]
