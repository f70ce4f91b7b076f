"""Reference helpers the tests compare the package against: quantization
error, bit-exact bundle equality, the forward-only evaluation loss, a model
with its adapters added one matrix at a time in float32, the backward pass
through a model's dense (merged) weights, the `ndarray.mean`/`var`/`max`/
`sum` forms of layernorm and softmax, the sort order of magnitude pruning,
one loop-1 cell fine-tuned on its own and evaluated merged, and a training
forward that takes Q, K and V in three products."""

import math

import numpy as np

from ealm import tinylm
from ealm.pipeline import _decode_all
from ealm.quant import QuantSpec, dequantize, quantize, quantize_bundle
from ealm.tensors import WEIGHT_MATRICES, Lineage, ModelBundle, QuantizedTensor
from ealm.tinylm import (_QKV, LN_EPS, _add_low_rank, _gelu, _gelu_grad, _layernorm,
                         _layernorm_backward, _nll, _softmax)


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
    the per-sequence arithmetic `TinyLm.loss_and_grads` uses: the adapters
    run unmerged, over the positions that predict."""
    n_pred = 0
    total = 0.0
    for seq in sequences:
        if len(seq) < 2:
            continue
        total += _nll(model.forward_cached(seq[:-1], adapters=adapters)[0], seq)[0]
        n_pred += len(seq) - 1
    return total / max(n_pred, 1)


def adapted_model(model, adapters):
    """A new `TinyLm` whose adapted matrices are w + s * (A @ B), each built in
    float32 on its own, as a forward that rebuilds them per call does."""
    s = adapters.scaling
    tensors = {name: w + s * (adapters.a[name] @ adapters.b[name]) if name in adapters.a else w
               for name, w in model.w.items()}
    return tinylm.TinyLm(ModelBundle(tensors=tensors, config=model.config, lineage=Lineage()))


def float64(obj):
    """`obj` with every float32 array in its nest of dicts, lists and tuples
    cast to float64."""
    if isinstance(obj, np.ndarray):
        return obj.astype(np.float64)
    if isinstance(obj, dict):
        return {k: float64(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(float64(v) for v in obj)
    return obj


def backward_io(model, dlogits, cache):
    """dL/dlogits propagated back in float64 through `model`'s own weights (an
    `adapted_model`'s W + s·A@B) to each weight matrix's (input,
    output gradient) pair, so dL/dW_eff = input.T @ output gradient. `cache`
    holds the activations of a `forward_cached` of the same weights, merged
    or not. The embeddings are frozen: the pass stops at layer 0's pairs."""
    io = {}
    cache = float64(cache)
    dx = _layernorm_backward(float64(dlogits) @ float64(model.w["head"]).T, cache["lnfc"])
    for i, (lc, w) in reversed(list(enumerate(zip(cache["layers"], float64(model.layers))))):
        p = f"layers.{i}."
        # MLP branch
        du = (dx @ w["mlp.w2"].T) * _gelu_grad(lc["u"], lc["gt"])
        dx1 = dx + _layernorm_backward(du @ w["mlp.w1"].T, lc["ln2c"])
        # attention branch
        do = model._split_heads(dx1 @ w["attn.wo"].T)
        dprobs = do @ lc["v"].transpose(0, 2, 1)
        dv = model._merge_heads(lc["probs"].transpose(0, 2, 1) @ do)
        dscores = (dprobs - (dprobs * lc["probs"]).sum(axis=-1, keepdims=True)) * lc["probs"]
        dscores /= model.sqrt_d_head
        dq = model._merge_heads(dscores @ lc["k"])
        dk = model._merge_heads(dscores.transpose(0, 2, 1) @ lc["q"])
        io.update({p + "attn.wq": (lc["h"], dq), p + "attn.wk": (lc["h"], dk),
                   p + "attn.wv": (lc["h"], dv), p + "attn.wo": (lc["o"], dx1),
                   p + "mlp.w1": (lc["h2"], du), p + "mlp.w2": (lc["g"], dx)})
        if i > 0:
            dh = dq @ w["attn.wq"].T + dk @ w["attn.wk"].T + dv @ w["attn.wv"].T
            dx = dx1 + _layernorm_backward(dh, lc["ln1c"])
    return io


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


def magnitude_mask(values, ratio):
    """Keep-mask of magnitude pruning by a full sort: ascending |w|, among
    equal magnitudes the higher flat index first; the first floor(ratio * n)
    drop."""
    flat = np.abs(np.asarray(values).reshape(-1))
    mask = np.ones(flat.size, dtype=bool)
    mask[np.lexsort((-np.arange(flat.size), flat))[:math.floor(ratio * flat.size)]] = False
    return mask.reshape(np.shape(values))


def finetune_alone(config, bits, epochs, train_records, eval_records):
    """Loop-1 cell `ft-b{bits}-e{epochs}` as its own run: a freshly quantized
    base and fresh adapters trained for `epochs` epochs, merged into that base
    at its width, then greedy decoding of the eval set on the merged model.
    Returns (adapters, per-epoch losses, (text, reference) pairs, generated
    token count)."""
    lm_cfg = config.lm_config()
    base = quantize_bundle(tinylm.init_model(lm_cfg), QuantSpec(bits))
    model = tinylm.TinyLm(base)
    adapters = tinylm.init_adapters(lm_cfg, rank=config.lora_rank, alpha=config.lora_alpha,
                                    seed=config.seed)
    sequences = [tinylm.encode_example(r.prompt, r.reference) for r in train_records]
    losses = []
    for _ in range(epochs):
        adapters, loss = tinylm.train_epoch(model, adapters, sequences, config.lr)
        losses.append(loss)
    merged = tinylm.TinyLm(tinylm.merge_adapters(base, adapters))
    pairs, n_generated = _decode_all(merged, eval_records, config.max_new_tokens)
    return adapters, losses, pairs, n_generated


def three_product_forward(model, tokens, *, adapters):
    """`TinyLm.forward_cached` of one sequence with `adapters` and no cache,
    with each layer's Q, K and V taken in three products against C-ordered
    copies of wq, wk and wv, each plus its low-rank path: the training forward
    of a model that stores the three apart. Returns (logits, activations), as
    `forward_cached` does, for `TinyLm._backward`."""
    ids = np.asarray(tokens)
    x = model.w["tok_emb"][ids] + model.w["pos_emb"][:ids.size]
    s = np.float32(adapters.scaling)
    layers = []
    for i in range(model.config.n_layers):
        p = f"layers.{i}."
        w = {m: np.array(model.w[p + m]) for m in WEIGHT_MATRICES}
        h, ln1c = _layernorm(x)
        q, k, v = (np.dot(h, w[m]) for m in _QKV)
        xa = {m: _add_low_rank(y, h, adapters, p + m, s) for m, y in zip(_QKV, (q, k, v))}
        q, k, v = (model._split_heads(y) for y in (q, k, v))
        scores = q @ k.transpose(0, 2, 1)
        scores /= model.sqrt_d_head
        scores += model.causal[:ids.size, :ids.size]
        probs = _softmax(scores)
        o = model._merge_heads(probs @ v)
        y = np.dot(o, w["attn.wo"])
        xa["attn.wo"] = _add_low_rank(y, o, adapters, p + "attn.wo", s)
        x += y
        h2, ln2c = _layernorm(x)
        u = np.dot(h2, w["mlp.w1"])
        xa["mlp.w1"] = _add_low_rank(u, h2, adapters, p + "mlp.w1", s)
        g, gt = _gelu(u)
        y = np.dot(g, w["mlp.w2"])
        xa["mlp.w2"] = _add_low_rank(y, g, adapters, p + "mlp.w2", s)
        x += y
        layers.append(dict(ln1c=ln1c, h=h, q=q, k=k, v=v, probs=probs, o=o,
                           ln2c=ln2c, h2=h2, u=u, gt=gt, g=g, xa=xa))
    xf, lnfc = _layernorm(x)
    return np.dot(xf, model.w["head"]), dict(layers=layers, lnfc=lnfc)
