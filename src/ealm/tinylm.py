"""Tiny decoder-only LM: deterministic forward, greedy decoding, and low-rank
adapter training over a frozen (possibly quantized) base.

Compute runs in float32 throughout: `TinyLm` dequantizes every weight once, so
reduced precision changes the weight values and the stored size, not the
arithmetic. Training is plain gradient descent, one step per sequence, on
mean next-token cross-entropy, updating the adapter factors A and B only.
"""

from __future__ import annotations

import copy
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
# (NumPy < 2) a Python float with a float32 scalar gives float64.
_F32_EPS, _F32_GELU_C, _F32_GELU_A = np.float32(LN_EPS), np.float32(_GELU_C), np.float32(0.044715)
_F32_HALF, _F32_ONE = np.float32(0.5), np.float32(1.0)
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
    """d gelu(x) / dx, given the tanh `_gelu(x)` returned."""
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * (x * x))


def _nll(logits: np.ndarray, seq):
    """Summed next-token negative log-likelihood of `seq` under `logits`,
    plus the softmax rows and targets its gradient needs."""
    targets = np.asarray(seq[1:], dtype=np.int64)
    probs = _softmax(logits[:-1])
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
        inv = _F32_ONE / np.sqrt(np.add.reduce(xc * xc, None) / n + _F32_EPS)
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
    """Runtime view of a bundle: dense float32 weights. `with_adapters` gives
    the view a set of LoRA adapters is evaluated and trained through."""

    def __init__(self, bundle: ModelBundle):
        self.config = bundle.config
        self.w = {name: dequantize(t) for name, t in bundle.tensors.items()}
        self.layers = self._layer_weights()
        # row r masks column c > r; a forward of positions [start, end) adds
        # its [start:end, :end] block
        self.causal = np.triu(np.full((self.config.max_seq,) * 2, -1e9, dtype=np.float32), k=1)
        self.n_heads = self.config.n_heads
        self.d_head = self.config.d_model // self.n_heads
        self.sqrt_d_head = np.float32(math.sqrt(self.d_head))

    def _layer_weights(self) -> list[dict[str, np.ndarray]]:
        return [{m: self.w[f"layers.{i}.{m}"] for m in WEIGHT_MATRICES}
                for i in range(self.config.n_layers)]

    def with_adapters(self, adapters: LoraAdapters | None) -> "TinyLm":
        """This model with each adapted matrix w replaced by w + s·A@B, built
        once: `adapters.delta(name)`, a new float32 array, then w added to it
        in place. Every other array is the model's own; the model is not
        changed. None gives the model itself."""
        if adapters is None:
            return self
        view = copy.copy(self)
        view.w = dict(self.w)
        for name in adapters.a:
            w = adapters.delta(name)
            w += self.w[name]
            view.w[name] = w
        view.layers = view._layer_weights()
        return view

    def _check_tokens(self, tokens, start: int) -> np.ndarray:
        ids = np.asarray(tokens)
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

    # For one row (a decode step), (heads, 1, d_head) holds the values in the
    # row's own order, so one reshape splits or merges the heads.
    def _split_heads(self, x):
        T = x.shape[0]
        if T == 1:
            return x.reshape(self.n_heads, 1, self.d_head)
        return x.reshape(T, self.n_heads, self.d_head).transpose(1, 0, 2)

    def _merge_heads(self, x):
        if x.shape[1] == 1:
            return x.reshape(1, -1)
        return x.transpose(1, 0, 2).reshape(x.shape[1], -1)

    def forward_cached(self, tokens, kv: KvCache | None = None):
        """Logits of `tokens` and the activations backward needs, under this
        model's weights (a `with_adapters` view carries its adapters). With
        `kv`, `tokens` continue the sequence the cache holds, their keys and
        values are written into it, and no activations are kept: the second
        item is None, as a cached forward is never differentiated. Each call
        on one cache must be made on the same model."""
        start = kv.length if kv is not None else 0
        ids = self._check_tokens(tokens, start)
        T = ids.size
        end = start + T
        x = self.w["tok_emb"][ids] + self.w["pos_emb"][start:end]
        # One new token may attend to every cached position: no mask to add.
        causal = self.causal[start:end, :end] if T > 1 else None
        layers = []
        for i, w in enumerate(self.layers):
            h, ln1c = _layernorm(x)
            q = self._split_heads(h @ w["attn.wq"])
            k = self._split_heads(h @ w["attn.wk"])
            v = self._split_heads(h @ w["attn.wv"])
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
            x += o @ w["attn.wo"]
            h2, ln2c = _layernorm(x)
            u = h2 @ w["mlp.w1"]
            g, gt = _gelu(u)
            x += g @ w["mlp.w2"]
            if kv is None:
                layers.append(dict(p=f"layers.{i}.", w=w, ln1c=ln1c, h=h, q=q, k=k, v=v,
                                   probs=probs, o=o, ln2c=ln2c, h2=h2, u=u, gt=gt, g=g))
        xf, lnfc = _layernorm(x)
        logits = xf @ self.w["head"]
        if kv is None:
            return logits, dict(layers=layers, lnfc=lnfc)
        kv.length = end
        return logits, None

    def _backward_io(self, dlogits, cache):
        """Propagate dL/dlogits back to each weight matrix's (input, output
        gradient) pair, so dL/dW_eff = input.T @ output gradient is never formed
        as p x q. The embeddings are frozen: the pass stops at layer 0's pairs."""
        io = {}
        dx = _layernorm_backward(dlogits @ self.w["head"].T, cache["lnfc"])
        for lc in reversed(cache["layers"]):
            p, w = lc["p"], lc["w"]
            # MLP branch
            du = (dx @ w["mlp.w2"].T) * _gelu_grad(lc["u"], lc["gt"])
            dx1 = dx + _layernorm_backward(du @ w["mlp.w1"].T, lc["ln2c"])
            # attention branch
            do = self._split_heads(dx1 @ w["attn.wo"].T)
            dprobs = do @ lc["v"].transpose(0, 2, 1)
            dv = self._merge_heads(lc["probs"].transpose(0, 2, 1) @ do)
            dscores = (dprobs - (dprobs * lc["probs"]).sum(axis=-1, keepdims=True)) * lc["probs"]
            dscores /= self.sqrt_d_head
            dq = self._merge_heads(dscores @ lc["k"])
            dk = self._merge_heads(dscores.transpose(0, 2, 1) @ lc["q"])
            io.update({p + "attn.wq": (lc["h"], dq), p + "attn.wk": (lc["h"], dk),
                       p + "attn.wv": (lc["h"], dv), p + "attn.wo": (lc["o"], dx1),
                       p + "mlp.w1": (lc["h2"], du), p + "mlp.w2": (lc["g"], dx)})
            if lc is not cache["layers"][0]:
                dh = dq @ w["attn.wq"].T + dk @ w["attn.wk"].T + dv @ w["attn.wv"].T
                dx = dx1 + _layernorm_backward(dh, lc["ln1c"])
        return io

    def loss_and_grads(self, seq, adapters: LoraAdapters):
        """Mean next-token cross-entropy over the predicted positions of one
        sequence, plus gradients w.r.t. every adapter factor. The forward runs
        on `with_adapters(adapters)`, built for this step."""
        logits, cache = self.with_adapters(adapters).forward_cached(seq)
        nll, probs, targets = _nll(logits, seq)
        dlogits = np.zeros_like(logits)
        dlogits[:-1] = probs
        dlogits[np.arange(targets.size), targets] -= 1.0
        dlogits /= targets.size
        # dA = s * dW @ B.T and dB = s * A.T @ dW, with dW = inp.T @ dout
        # kept factored: the intermediates are T x r and r x q.
        s = adapters.scaling
        grads = {name: (s * (inp.T @ (dout @ adapters.b[name].T)),
                        s * ((inp @ adapters.a[name]).T @ dout))
                 for name, (inp, dout) in self._backward_io(dlogits, cache).items()}
        return nll / targets.size, grads


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
    at EOS or at `max_seq`. The adapters are merged into a view once per
    call; a caller that decodes many prompts passes `model.with_adapters(
    adapters)` and None. Each position goes through the model once, through
    a `KvCache` of this call's own."""
    if len(prompt) == 0:
        raise LmError("prompt must be nonempty")
    if len(prompt) > model.config.max_seq:
        raise LmError(f"prompt length {len(prompt)} exceeds max_seq {model.config.max_seq}")
    model = model.with_adapters(adapters)
    seq = list(prompt)
    kv = KvCache()
    new = list(prompt)
    for _ in range(max_new):
        if len(seq) >= model.config.max_seq:
            break
        logits = model.forward_cached(new, kv)[0]
        nxt = int(logits[-1].argmax())  # argmax breaks ties toward lowest id
        seq.append(nxt)
        if nxt == EOS_ID:
            break
        new = [nxt]
    return seq


def merge_adapters(bundle: ModelBundle, adapters: LoraAdapters) -> ModelBundle:
    """The bundle with each adapter delta folded into its matrix and stored
    again at the bundle's width: quantize(dequantize(t) + s * A @ B). At 32
    bits `quantize` is a copy, so this is the float32 sum."""
    spec = QuantSpec(bundle.lineage.precision_bits)
    tensors = {
        name: quantize(dequantize(t) + adapters.delta(name), spec) if name in adapters.a else t
        for name, t in bundle.tensors.items()
    }
    return ModelBundle(tensors=tensors, config=bundle.config,
                       lineage=dataclasses.replace(bundle.lineage))
