"""Reconstruction of a quantized table: the oracle the round-trip error
bounds of the quantization property suite are stated against."""

import numpy as np

from repro.perf.quant import QuantizedTable


def dequantize(table: QuantizedTable) -> np.ndarray:
    """Reconstruct the represented vectors as float32.

    fp16/int8 reconstruct in the ambient space; PCA back-projects
    through its components, which only recovers the retained subspace.
    """
    if table.mode == "fp16":
        return table.codes.astype(np.float32)
    if table.mode == "int8":
        return (table.codes.astype(np.float32) * table.scales
                + table.betas)
    back = table.codes @ table.components.T
    if table.mean is not None:
        back = back + table.mean
    return back.astype(np.float32, copy=False)
