"""Reference helpers the tests compare the package against: quantization
error, bit-exact bundle equality, the forward-only evaluation loss, the
`ndarray.mean`/`var`/`max`/`sum` forms of layernorm and softmax, and one
loop-1 cell fine-tuned on its own."""

import numpy as np

from ealm import tinylm
from ealm.pipeline import _decode_all
from ealm.quant import QuantSpec, dequantize, quantize, quantize_bundle
from ealm.tensors import QuantizedTensor
from ealm.tinylm import LN_EPS, _nll


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


def layernorm(x, g, b):
    """Layer norm through `ndarray.mean` and `ndarray.var`."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv, g)


def layernorm_backward(dy, cache):
    """dL/dx of `layernorm` through `ndarray.mean`."""
    xhat, inv, g = cache
    dxhat = dy * g
    return inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )


def softmax(x):
    """Softmax over the last axis through `ndarray.max` and `ndarray.sum`."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def finetune_alone(config, bits, epochs, train_records, eval_records):
    """Loop-1 cell `ft-b{bits}-e{epochs}` as its own run: a freshly quantized
    base and fresh adapters trained for `epochs` epochs, then greedy decoding
    of the eval set. Returns (adapters, per-epoch losses, (text, reference)
    pairs, generated token count)."""
    lm_cfg = config.lm_config()
    model = tinylm.TinyLm(quantize_bundle(tinylm.init_model(lm_cfg), QuantSpec(bits)))
    adapters = tinylm.init_adapters(lm_cfg, rank=config.lora_rank, alpha=config.lora_alpha,
                                    seed=config.seed)
    sequences = [tinylm.encode_example(r.prompt, r.reference) for r in train_records]
    losses = []
    for _ in range(epochs):
        adapters, loss = tinylm.train_epoch(model, adapters, sequences, config.lr)
        losses.append(loss)
    pairs, n_generated = _decode_all(model, adapters, eval_records, config.max_new_tokens)
    return adapters, losses, pairs, n_generated
