"""Tiny decoder-only LM: deterministic forward, greedy decoding, and low-rank
adapter training over a frozen (possibly quantized) base.

Compute runs in float32 throughout: `TinyLm` dequantizes every weight once, so
reduced precision changes the weight values and the stored size, not the
arithmetic. Training is plain gradient descent, one step per sequence, on
mean next-token cross-entropy, updating the adapter factors A and B only.

Adapters run only in training, unmerged over the frozen base,
y = x @ W + s·(x @ A) @ B, as QLoRA does. Evaluation decodes a stored model:
`merge_adapters` folds the adapters into the bundle at its own width, and the
merged bundle gets a `TinyLm` of its own, so the model scored is the model
staged.

Every forward takes each layer's Q, K and V in one product against wq, wk
and wv side by side, the only stored copy of the three, each of which is a
column view of it: a one-token step's cost is per numpy call, not per row,
and the fused product keeps every bit of the three. In training each low-rank
path adds into its own column block of that product. That costs a training
epoch about 1-3% against three separate products, measured in one process at
d_model 32 and 128, for one Q/K/V path and one copy of the weights.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .quant import QuantSpec, dequantize, quantize
from .tensors import WEIGHT_MATRICES, Lineage, LmConfig, ModelBundle, default_target_filter

PAD_ID = 256
BOS_ID = 257
EOS_ID = 258
SEP_BYTE = 10  # newline separates prompt from continuation

LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
# float32 operands for float32 scalar and array arithmetic: before NEP 50
# (NumPy < 2) a Python float with a float32 scalar gives float64. Those of
# array ops are 0-d arrays, which an op takes ~0.2 us faster than a float32
# scalar, at the same bits; those of scalar ops are scalars, as a scalar op
# with a 0-d array goes through a ufunc.
_F32_EPS, _F32_UNIT = np.float32(LN_EPS), np.float32(1.0)
_F32_GELU_C, _F32_GELU_A, _F32_HALF, _F32_ONE, _F32_3A, _F32_HALF_C = (
    np.array(v, dtype=np.float32) for v in (_GELU_C, 0.044715, 0.5, 1.0, 3 * 0.044715, 0.5 * _GELU_C))
_f32 = functools.cache(np.float32)  # keyed by row width: ~0.1 us a hit, ~0.5 us to build
_BOOLS = {bool, np.bool_}


class LmError(Exception):
    pass


class DivergenceError(LmError):
    pass


# ---------------------------------------------------------------------------
# tokenizer (byte-level)


def encode_text(text: str) -> list[int]:
    return list(text.encode("utf-8"))


def encode_example(prompt: str, reference: str) -> list[int]:
    return [BOS_ID] + encode_text(prompt) + [SEP_BYTE] + encode_text(reference) + [EOS_ID]


def encode_prompt(prompt: str) -> list[int]:
    return [BOS_ID] + encode_text(prompt) + [SEP_BYTE]


def decode_ids(ids) -> str:
    return bytes(i for i in ids if i < 256).decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# seeded init


def named_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def init_model(config: LmConfig) -> ModelBundle:
    """Seeded uniform init in [-s, s] with s = 1/sqrt(d_model) for weights and
    embeddings. Layer norm has no gain or bias to init."""
    s = 1.0 / math.sqrt(config.d_model)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in config.tensor_shapes().items():
        rng = named_rng(config.init_seed, "init:" + name)
        tensors[name] = rng.uniform(-s, s, size=shape).astype(np.float32)
    return ModelBundle(tensors=tensors, config=config, lineage=Lineage())


# ---------------------------------------------------------------------------
# adapters


@dataclass
class LoraAdapters:
    rank: int
    alpha: float
    a: dict[str, np.ndarray]  # each weight matrix's name -> (p, r)
    b: dict[str, np.ndarray]  # each weight matrix's name -> (r, q)

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def delta(self, name: str) -> np.ndarray:
        d = self.a[name] @ self.b[name]
        d *= self.scaling
        return d

    def step(self, grads: dict[str, tuple[np.ndarray, np.ndarray]], lr: float) -> "LoraAdapters":
        a = {n: self.a[n] - lr * grads[n][0] for n in self.a}
        b = {n: self.b[n] - lr * grads[n][1] for n in self.b}
        return LoraAdapters(self.rank, self.alpha, a, b)


def init_adapters(config: LmConfig, rank: int = 4, alpha: float = 8.0, seed: int = 0) -> LoraAdapters:
    if rank < 1:
        raise LmError("rank must be >= 1")
    a, b = {}, {}
    for name, shape in config.tensor_shapes().items():
        if not default_target_filter(name):
            continue
        p, q = shape
        rng = named_rng(seed, "lora:" + name)
        a[name] = (rng.standard_normal((p, rank)) / math.sqrt(rank)).astype(np.float32)
        b[name] = np.zeros((rank, q), dtype=np.float32)
    return LoraAdapters(rank=rank, alpha=float(alpha), a=a, b=b)


# ---------------------------------------------------------------------------
# numerics


def _softmax(x: np.ndarray) -> np.ndarray:
    # The ufunc reductions `ndarray.max`/`sum` run, without their wrappers;
    # the one new array is worked on in place.
    e = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-GELU of `x`, and the tanh that `_gelu_grad` reuses. Powers are
    products: numpy's float32 `x**3` is ~100x slower than `x * x * x`. The
    products and sums of 0.5 * x * (1 + tanh(c * (x + a * x*x*x))) run in
    place, in that order."""
    t = x * x
    t *= x
    t *= _F32_GELU_A
    t += x
    t *= _F32_GELU_C
    np.tanh(t, out=t)
    g = _F32_HALF * x
    g *= _F32_ONE + t
    return g, t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu(x) / dx = 0.5 * (1 + t) + 0.5 * c * x * (1 - t*t) * (1 + 3a * x*x),
    given the tanh `t` `_gelu(x)` returned. Two new arrays; every other
    product and sum runs in place."""
    d = x * x
    d *= _F32_3A
    d += _F32_ONE
    d *= x
    d *= _F32_HALF_C
    u = t * t
    np.subtract(_F32_ONE, u, out=u)
    d *= u
    np.add(t, _F32_ONE, out=u)
    u *= _F32_HALF
    d += u
    return d


def _nll(logits: np.ndarray, seq):
    """Summed next-token negative log-likelihood of `seq` under `logits`, the
    logits of `seq[:-1]`, plus the softmax rows and targets its gradient
    needs."""
    targets = np.asarray(seq[1:], dtype=np.int64)
    probs = _softmax(logits)
    picked = probs[np.arange(targets.size), targets]
    return float(-np.sum(np.log(np.maximum(picked, 1e-30), dtype=np.float64))), probs, targets


def _layernorm(x):
    """Layer norm over the last axis with no gain or bias: `xhat`, and the
    (xhat, inv) its backward needs. It runs the float32 sums and divisions
    `ndarray.mean`/`var` perform, without their Python wrappers; the centred
    `xc` is computed once.

    A one-row `x` (a decode step) takes its mean and inverse scale as float32
    scalars: a reduction over the whole (1, n) array sums the same n values
    in the same order as one over its last axis, and a float32 scalar op
    rounds as the same op on a (1, 1) array does, at a tenth of its cost.
    The cache's `inv` is then that scalar."""
    if x.ndim == 2 and len(x) == 1:
        n = _f32(x.shape[1])
        xc = x - np.add.reduce(x, None) / n
        inv = _F32_UNIT / np.sqrt(np.add.reduce(xc * xc, None) / n + _F32_EPS)
    else:
        n = x.shape[-1]
        xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
        inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n + LN_EPS)
    xhat = xc * inv
    return xhat, (xhat, inv)


def _layernorm_backward(dy, cache):
    xhat, inv = cache
    n = dy.shape[-1]
    return inv * (
        dy
        - np.add.reduce(dy, axis=-1, keepdims=True) / n
        - xhat * (np.add.reduce(dy * xhat, axis=-1, keepdims=True) / n)
    )


def _add_low_rank(y, x, adapters: LoraAdapters, name: str, s):
    """y += s·(x @ A) @ B in place, for the adapter pair `name`; returns
    s·(x @ A), which dB reads."""
    xa = x @ adapters.a[name]
    xa *= s
    y += xa @ adapters.b[name]
    return xa


_QKV = ("attn.wq", "attn.wk", "attn.wv")


@dataclass
class KvCache:
    """The keys and values of the positions `TinyLm.forward_cached` has run
    for one sequence, and nothing else: the weights come from the model each
    call is made on. Per layer, a key and a value buffer of `max_seq`
    positions, each (heads, max_seq, d_head), made on first use. A call
    writes its positions' keys and values in place, and attention reads the
    `[:, :length]` views. Keys are not stored transposed: q @ (a (d_head,
    max_seq) buffer) takes another BLAS kernel than q @ k.T and rounds
    differently."""
    length: int = 0
    k: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


class TinyLm:
    """Runtime view of a bundle: dense float32 weights, which share memory
    with the bundle's float32 tensors, except wq, wk and wv: those are views
    of each layer's fused copy. `loss_and_grads` trains a set of LoRA
    adapters unmerged over these weights."""

    def __init__(self, bundle: ModelBundle):
        self.config = bundle.config
        self.w = {name: dequantize(t) for name, t in bundle.tensors.items()}
        self.layers = self._layer_weights()
        # row r masks column c > r; a forward of positions [start, end) adds
        # its [start:end, :end] block
        self.causal = np.triu(np.full((self.config.max_seq,) * 2, -1e9, dtype=np.float32), k=1)
        self.n_heads = self.config.n_heads
        self.d_head = self.config.d_model // self.n_heads
        self.sqrt_d_head = np.array(math.sqrt(self.d_head), dtype=np.float32)
        self._wt = None  # `_transposes()`, built on this model's first training step

    def _layer_weights(self) -> list[dict[str, np.ndarray]]:
        """Each layer's weight matrices by name, plus "qkv": its wq, wk and
        wv side by side, the (d_model, 3·d_model) matrix every forward
        multiplies once. It is the only stored copy of the three: `w` binds
        each of them to its column block, a view."""
        d = self.config.d_model
        layers = []
        for i in range(self.config.n_layers):
            p = f"layers.{i}."
            qkv = np.concatenate([self.w[p + m] for m in _QKV], axis=1)
            for j, m in enumerate(_QKV):
                self.w[p + m] = qkv[:, j * d:(j + 1) * d]
            lw = {m: self.w[p + m] for m in WEIGHT_MATRICES}
            lw["qkv"] = qkv
            layers.append(lw)
        return layers

    def _check_tokens(self, tokens, start: int) -> np.ndarray:
        try:
            ids = np.asarray(tokens)
        except ValueError as e:  # a ragged nest of lists
            raise LmError("token ids must be one-dimensional, got a ragged nest") from e
        # a scalar would fail the embedding index, and rows of ids would be
        # read as one sequence
        if ids.ndim != 1:
            raise LmError(f"token ids must be one-dimensional, got shape {ids.shape}")
        if ids.size == 0:
            raise LmError("empty token sequence")
        if ids.dtype.kind not in "iu":  # a float id would be truncated, a bool read as 0/1
            raise LmError(f"token ids must be integers, got dtype {ids.dtype}")
        # asarray reads a bool among ints as 0/1; one bool alone has dtype bool
        if ids.size > 1 and not _BOOLS.isdisjoint(map(type, tokens)):
            raise LmError("token ids must be integers, got a bool")
        if start + ids.size > self.config.max_seq:
            raise LmError(f"sequence length {start + ids.size} exceeds max_seq "
                          f"{self.config.max_seq}")
        lo, hi = (ids[0], ids[0]) if ids.size == 1 else (ids.min(), ids.max())
        if lo < 0 or hi >= self.config.vocab_size:
            raise LmError(f"token id out of range [0, {self.config.vocab_size})")
        return ids

    def _split_heads(self, x):
        return x.reshape(x.shape[0], self.n_heads, self.d_head).transpose(1, 0, 2)

    def _split_qkv(self, qkv):
        """q, k and v, each split into heads, of a fused (T, 3·d_model)
        product: views, as `_split_heads` gives."""
        qkv = qkv.reshape(qkv.shape[0], 3, self.n_heads, self.d_head).transpose(1, 2, 0, 3)
        return qkv[0], qkv[1], qkv[2]  # indexing: unpacking iterates, at twice the cost

    def _merge_heads(self, x):
        return x.transpose(1, 0, 2).reshape(x.shape[1], -1)

    def forward_cached(self, tokens, kv: KvCache | None = None, *,
                       adapters: LoraAdapters | None = None):
        """Logits of `tokens` and the activations backward needs, under this
        model's weights. With `adapters`, each adapted projection adds its
        low-rank path unmerged, y = x @ W + s·(x @ A) @ B, and the activations
        keep s·(x @ A) for dB. With `kv`, `tokens` continue the sequence the
        cache holds, their keys and values are written into it, and no
        activations are kept: the second item is None, as a cached forward is
        never differentiated. Each call on one cache must be made on the same
        model and adapters.

        Each layer's Q, K and V come from one product against its fused "qkv"
        matrix; with `adapters`, each low-rank path adds into its own column
        block of it. 2-D products call `np.dot`, which costs less per call
        than `@` at these sizes and gives the same bits; a one-token step reads
        its embedding as a row slice."""
        start = kv.length if kv is not None else 0
        ids = self._check_tokens(tokens, start)
        T = ids.size
        end = start + T
        if T == 1:  # a row slice, where a fancy index would gather one row
            t = int(ids[0])  # t + 1 in a narrow dtype could wrap: uint8 255 + 1 is 0
            x = self.w["tok_emb"][t:t + 1] + self.w["pos_emb"][start:end]
        else:
            x = self.w["tok_emb"][ids] + self.w["pos_emb"][start:end]
        # One new token may attend to every cached position: no mask to add.
        causal = self.causal[start:end, :end] if T > 1 else None
        if adapters is not None:
            s, d = np.float32(adapters.scaling), self.config.d_model
        xa = None
        layers = []
        for i, w in enumerate(self.layers):
            h, ln1c = _layernorm(x)
            qkv = np.dot(h, w["qkv"])
            if adapters is not None:
                p = f"layers.{i}."
                xa = {m: _add_low_rank(qkv[:, j * d:(j + 1) * d], h, adapters, p + m, s)
                      for j, m in enumerate(_QKV)}
            q, k, v = self._split_qkv(qkv)
            if kv is not None:
                if i == len(kv.k):
                    shape = (self.n_heads, self.config.max_seq, self.d_head)
                    kv.k.append(np.empty(shape, dtype=np.float32))
                    kv.v.append(np.empty(shape, dtype=np.float32))
                kv.k[i][:, start:end] = k
                kv.v[i][:, start:end] = v
                k, v = kv.k[i][:, :end], kv.v[i][:, :end]
            scores = q @ k.transpose(0, 2, 1)
            scores /= self.sqrt_d_head
            if causal is not None:
                scores += causal
            probs = _softmax(scores)
            o = self._merge_heads(probs @ v)
            y = np.dot(o, w["attn.wo"])
            if xa is not None:
                xa["attn.wo"] = _add_low_rank(y, o, adapters, p + "attn.wo", s)
            x += y
            h2, ln2c = _layernorm(x)
            u = np.dot(h2, w["mlp.w1"])
            if xa is not None:
                xa["mlp.w1"] = _add_low_rank(u, h2, adapters, p + "mlp.w1", s)
            g, gt = _gelu(u)
            y = np.dot(g, w["mlp.w2"])
            if xa is not None:
                xa["mlp.w2"] = _add_low_rank(y, g, adapters, p + "mlp.w2", s)
            x += y
            if kv is None:
                layers.append(dict(ln1c=ln1c, h=h, q=q, k=k, v=v, probs=probs, o=o,
                                   ln2c=ln2c, h2=h2, u=u, gt=gt, g=g, xa=xa))
        xf, lnfc = _layernorm(x)
        logits = np.dot(xf, self.w["head"])
        if kv is None:
            return logits, dict(layers=layers, lnfc=lnfc)
        kv.length = end
        return logits, None

    def _transposes(self) -> dict[str, np.ndarray]:
        """C-ordered copies of W.T for each frozen matrix the backward
        multiplies by its transpose: the head and every adapted matrix except
        layer 0's q, k and v, whose input gradient is never needed. BLAS runs
        a C-ordered operand faster than the strided `W.T` view. Built on the
        first call and kept, so only a model that is trained pays for them."""
        if self._wt is None:
            names = ["head"] + [f"layers.{i}.{m}" for i in range(self.config.n_layers)
                                for m in WEIGHT_MATRICES if i > 0 or m not in _QKV]
            self._wt = {n: np.ascontiguousarray(self.w[n].T) for n in names}
        return self._wt

    def _backward(self, dlogits, cache, adapters: LoraAdapters):
        """dL/dA and dL/dB of every adapter factor, from dL/dlogits and the
        activations of an unmerged forward. Each adapted projection's output
        gradient dY gives dA = x.T @ G and dB = (s·x @ A).T @ dY with
        G = s·dY @ B.T, and its input gradient dX = dY @ W.T + G @ A.T. The
        embeddings are frozen: the pass stops at layer 0's adapters."""
        wt = self._transposes()
        s = np.float32(adapters.scaling)
        grads = {}

        def back(name, x, xa, dy):
            g = dy @ adapters.b[name].T
            g *= s
            grads[name] = (x.T @ g, xa.T @ dy)
            return g

        def back_dx(name, x, xa, dy):
            dx = dy @ wt[name]
            dx += back(name, x, xa, dy) @ adapters.a[name].T
            return dx

        dx = _layernorm_backward(dlogits @ wt["head"], cache["lnfc"])
        for i, lc in reversed(list(enumerate(cache["layers"]))):
            p, xa = f"layers.{i}.", lc["xa"]
            # MLP branch
            du = back_dx(p + "mlp.w2", lc["g"], xa["mlp.w2"], dx)
            du *= _gelu_grad(lc["u"], lc["gt"])
            dx1 = dx + _layernorm_backward(back_dx(p + "mlp.w1", lc["h2"], xa["mlp.w1"], du),
                                           lc["ln2c"])
            # attention branch
            do = self._split_heads(back_dx(p + "attn.wo", lc["o"], xa["attn.wo"], dx1))
            dprobs = do @ lc["v"].transpose(0, 2, 1)
            dv = self._merge_heads(lc["probs"].transpose(0, 2, 1) @ do)
            dscores = (dprobs - (dprobs * lc["probs"]).sum(axis=-1, keepdims=True)) * lc["probs"]
            dscores /= self.sqrt_d_head
            dq = self._merge_heads(dscores @ lc["k"])
            dk = self._merge_heads(dscores.transpose(0, 2, 1) @ lc["q"])
            h = lc["h"]
            if i == 0:  # no input gradient: the embeddings are frozen
                for m, dy in zip(_QKV, (dq, dk, dv)):
                    back(p + m, h, xa[m], dy)
            else:
                dh = back_dx(p + "attn.wq", h, xa["attn.wq"], dq)
                dh += back_dx(p + "attn.wk", h, xa["attn.wk"], dk)
                dh += back_dx(p + "attn.wv", h, xa["attn.wv"], dv)
                dx = dx1 + _layernorm_backward(dh, lc["ln1c"])
        return grads

    def loss_and_grads(self, seq, adapters: LoraAdapters):
        """Mean next-token cross-entropy over the predicted positions of one
        sequence, plus gradients w.r.t. every adapter factor. The adapters
        run unmerged over this model's frozen weights (`forward_cached` with
        `adapters=`)."""
        # The last token predicts nothing and, under the causal mask, moves
        # no earlier logit: the forward runs only the positions that predict.
        logits, cache = self.forward_cached(seq[:-1], adapters=adapters)
        nll, dlogits, targets = _nll(logits, seq)
        dlogits[np.arange(targets.size), targets] -= 1.0
        dlogits /= targets.size
        return nll / targets.size, self._backward(dlogits, cache, adapters)


# ---------------------------------------------------------------------------
# module-level ops


def train_epoch(model: TinyLm, adapters: LoraAdapters, sequences, lr: float):
    """One pass of plain gradient descent: a GD step per sequence, in dataset
    order. Returns (new adapters, token-mean pass loss)."""
    total_nll = 0.0
    n_pred = 0
    for seq in sequences:
        if len(seq) < 2:
            continue
        loss, grads = model.loss_and_grads(seq, adapters)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss at lr={lr}")
        adapters = adapters.step(grads, lr)
        total_nll += loss * (len(seq) - 1)
        n_pred += len(seq) - 1
    if n_pred == 0:
        raise LmError("no predictable tokens in dataset")
    return adapters, total_nll / n_pred


def greedy_decode(model: TinyLm, adapters: LoraAdapters | None, prompt, max_new: int) -> list[int]:
    """`prompt` followed by up to `max_new` greedily chosen tokens, stopping
    at EOS or at `max_seq`. Adapters, if any, run unmerged, as in training;
    the pipeline decodes merged models and passes None. Each position goes
    through the model once, through a `KvCache` of this call's own."""
    if len(prompt) == 0:
        raise LmError("prompt must be nonempty")
    if len(prompt) > model.config.max_seq:
        raise LmError(f"prompt length {len(prompt)} exceeds max_seq {model.config.max_seq}")
    seq = list(prompt)
    kv = KvCache()
    new = list(prompt)
    for _ in range(max_new):
        if len(seq) >= model.config.max_seq:
            break
        logits = model.forward_cached(new, kv, adapters=adapters)[0]
        nxt = int(logits[-1].argmax())  # argmax breaks ties toward lowest id
        seq.append(nxt)
        if nxt == EOS_ID:
            break
        new = [nxt]
    return seq


def merge_adapters(bundle: ModelBundle, adapters: LoraAdapters) -> ModelBundle:
    """The bundle with each adapter delta folded into its matrix and stored
    again at the bundle's width: quantize(dequantize(t) + s * A @ B). At 32
    bits `quantize` returns its input, so this is the float32 sum itself."""
    spec = QuantSpec(bundle.lineage.precision_bits)
    tensors = {
        name: quantize(dequantize(t) + adapters.delta(name), spec) if name in adapters.a else t
        for name, t in bundle.tensors.items()
    }
    return ModelBundle(tensors=tensors, config=bundle.config,
                       lineage=dataclasses.replace(bundle.lineage))
