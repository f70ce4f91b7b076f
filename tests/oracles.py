"""Reference helpers the tests compare the package against: quantization
error, bit-exact bundle equality, and the forward-only evaluation loss."""

import numpy as np

from ealm.quant import dequantize, quantize
from ealm.tensors import QuantizedTensor
from ealm.tinylm import _nll


def quant_error(arr, spec) -> dict:
    """Max absolute and mean squared error of a quantize/dequantize round trip."""
    arr = np.asarray(arr, dtype=np.float32)
    back = dequantize(quantize(arr, spec))
    diff = back.astype(np.float64) - arr.astype(np.float64)
    return {"max_abs_err": float(np.abs(diff).max()), "mse": float(np.mean(diff**2))}


def bundles_equal(a, b) -> bool:
    """Same config, lineage, tensor order, tensor types and stored bytes."""
    if a.config != b.config or a.lineage != b.lineage:
        return False
    if list(a.tensors) != list(b.tensors):
        return False
    for name in a.tensors:
        ta, tb = a.tensors[name], b.tensors[name]
        if isinstance(ta, QuantizedTensor) != isinstance(tb, QuantizedTensor):
            return False
        if isinstance(ta, QuantizedTensor):
            if (
                ta.bits != tb.bits
                or not np.array_equal(ta.codes, tb.codes)
                or ta.scales.tobytes() != tb.scales.tobytes()
            ):
                return False
        elif ta.dtype != tb.dtype or ta.tobytes() != tb.tobytes():
            return False
    return True


def evaluation_loss(model, sequences, adapters=None) -> float:
    """Token-mean next-token cross-entropy from the forward pass alone, with
    the per-sequence arithmetic `TinyLm.loss_and_grads` uses."""
    n_pred = 0
    total = 0.0
    for seq in sequences:
        if len(seq) < 2:
            continue
        total += _nll(model.forward_cached(seq, adapters)[0], seq)[0]
        n_pred += len(seq) - 1
    return total / max(n_pred, 1)
