"""Tiny decoder-only LM: deterministic forward, greedy decoding, and low-rank
adapter training over a frozen (possibly quantized) base.

Compute runs in float32 throughout: `TinyLm` dequantizes every weight once, so
reduced precision changes the weight values and the stored size, not the
arithmetic. Training is plain gradient descent, one step per sequence, on
mean next-token cross-entropy, updating the adapter factors A and B only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .quant import QuantSpec, default_target_filter, dequantize, quantize
from .tensors import WEIGHT_MATRICES, Lineage, LmConfig, ModelBundle

PAD_ID = 256
BOS_ID = 257
EOS_ID = 258
SEP_BYTE = 10  # newline separates prompt from continuation

LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)


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
    embeddings; norm gains start at 1 and biases at 0."""
    s = 1.0 / math.sqrt(config.d_model)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in config.tensor_shapes().items():
        if name.endswith(".g"):
            tensors[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith(".b"):
            tensors[name] = np.zeros(shape, dtype=np.float32)
        else:
            rng = named_rng(config.init_seed, "init:" + name)
            tensors[name] = rng.uniform(-s, s, size=shape).astype(np.float32)
    return ModelBundle(tensors=tensors, config=config, lineage=Lineage())


# ---------------------------------------------------------------------------
# adapters


@dataclass
class LoraAdapters:
    rank: int
    alpha: float
    a: dict[str, np.ndarray]  # name -> (p, r)
    b: dict[str, np.ndarray]  # name -> (r, q)

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def step(self, grads: dict[str, tuple[np.ndarray, np.ndarray]], lr: float) -> "LoraAdapters":
        a = {n: (self.a[n] - lr * grads[n][0]).astype(np.float32) for n in self.a}
        b = {n: (self.b[n] - lr * grads[n][1]).astype(np.float32) for n in self.b}
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
    # The ufunc reductions `ndarray.max`/`sum` run, without their wrappers.
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-GELU of `x`, and the tanh that `_gelu_grad` reuses. Powers are
    products: numpy's float32 `x**3` is ~100x slower than `x * x * x`."""
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


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


def _layernorm(x, g, b):
    # The float32 sums and divisions `ndarray.mean`/`var` perform, without
    # their Python wrappers; the centred `xc` is computed once.
    n = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _layernorm_backward(dy, cache):
    xhat, inv, g = cache
    n = dy.shape[-1]
    dxhat = dy * g
    return inv * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n)
    )


@dataclass
class KvCache:
    """What `TinyLm.forward_cached` keeps between calls that continue one
    sequence under one (model, adapters) pair: per layer, the keys and values
    of the `length` positions seen so far, each (heads, length, d_head), and
    the effective weight matrices, built on first use."""
    length: int = 0
    k: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    w: list[dict[str, np.ndarray]] = field(default_factory=list)


class TinyLm:
    """Runtime view of a bundle: dense float32 weights plus optional adapters."""

    def __init__(self, bundle: ModelBundle):
        self.config = bundle.config
        self.w = {name: dequantize(t) for name, t in bundle.tensors.items()}
        self.n_heads = self.config.n_heads
        self.d_head = self.config.d_model // self.n_heads

    def _eff(self, name: str, adapters: LoraAdapters | None) -> np.ndarray:
        w = self.w[name]
        if adapters is not None and name in adapters.a:
            w = w + adapters.scaling * (adapters.a[name] @ adapters.b[name])
        return w.astype(np.float32, copy=False)

    def _check_tokens(self, tokens, start: int) -> np.ndarray:
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.size == 0:
            raise LmError("empty token sequence")
        if start + ids.size > self.config.max_seq:
            raise LmError(f"sequence length {start + ids.size} exceeds max_seq "
                          f"{self.config.max_seq}")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise LmError(f"token id out of range [0, {self.config.vocab_size})")
        return ids

    def _split_heads(self, x):
        T = x.shape[0]
        return x.reshape(T, self.n_heads, self.d_head).transpose(1, 0, 2)

    def _merge_heads(self, x):
        return x.transpose(1, 0, 2).reshape(x.shape[1], -1)

    def forward_cached(self, tokens, adapters: LoraAdapters | None = None,
                       kv: KvCache | None = None):
        """Logits of `tokens` and the activations backward needs. With `kv`,
        `tokens` continue the sequence the cache holds, and their keys and
        values are appended to it."""
        start = kv.length if kv is not None else 0
        ids = self._check_tokens(tokens, start)
        T = ids.size
        x = (self.w["tok_emb"][ids] + self.w["pos_emb"][start:start + T]).astype(np.float32)
        # One new token may attend to every cached position: no mask to add.
        causal = (np.triu(np.full((T, start + T), -1e9, dtype=np.float32), k=start + 1)
                  if T > 1 else None)
        layers = []
        for i in range(self.config.n_layers):
            p = f"layers.{i}."
            cached = kv is not None and i < len(kv.w)
            w = kv.w[i] if cached else {m: self._eff(p + m, adapters) for m in WEIGHT_MATRICES}
            h, ln1c = _layernorm(x, self.w[p + "ln1.g"], self.w[p + "ln1.b"])
            q = self._split_heads(h @ w["attn.wq"])
            k = self._split_heads(h @ w["attn.wk"])
            v = self._split_heads(h @ w["attn.wv"])
            if cached:
                k = kv.k[i] = np.concatenate([kv.k[i], k], axis=1)
                v = kv.v[i] = np.concatenate([kv.v[i], v], axis=1)
            elif kv is not None:
                kv.w.append(w)
                kv.k.append(k)
                kv.v.append(v)
            scores = q @ k.transpose(0, 2, 1) / math.sqrt(self.d_head)
            if causal is not None:
                scores += causal
            probs = _softmax(scores)
            o = self._merge_heads(probs @ v)
            x = x + o @ w["attn.wo"]
            h2, ln2c = _layernorm(x, self.w[p + "ln2.g"], self.w[p + "ln2.b"])
            u = h2 @ w["mlp.w1"]
            g, gt = _gelu(u)
            x = x + g @ w["mlp.w2"]
            layers.append(dict(p=p, w=w, ln1c=ln1c, h=h, q=q, k=k, v=v, probs=probs,
                               o=o, ln2c=ln2c, h2=h2, u=u, gt=gt, g=g))
        if kv is not None:
            kv.length += T
        xf, lnfc = _layernorm(x, self.w["ln_f.g"], self.w["ln_f.b"])
        return (xf @ self.w["head"]).astype(np.float32), dict(layers=layers, lnfc=lnfc)

    def _backward_io(self, dlogits, cache, adapted_names):
        """Propagate dL/dlogits back; return, per adapted matrix, its
        (input, output gradient) pair, so that dL/dW_eff = input.T @ output
        gradient without forming that p x q product."""
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
            dscores /= math.sqrt(self.d_head)
            dq = self._merge_heads(dscores @ lc["k"])
            dk = self._merge_heads(dscores.transpose(0, 2, 1) @ lc["q"])
            dh = dq @ w["attn.wq"].T + dk @ w["attn.wk"].T + dv @ w["attn.wv"].T
            table = {"attn.wq": (lc["h"], dq), "attn.wk": (lc["h"], dk), "attn.wv": (lc["h"], dv),
                  "attn.wo": (lc["o"], dx1), "mlp.w1": (lc["h2"], du), "mlp.w2": (lc["g"], dx)}
            for m, pair in table.items():
                if p + m in adapted_names:
                    io[p + m] = pair
            dx = dx1 + _layernorm_backward(dh, lc["ln1c"])
        return io

    def loss_and_grads(self, seq, adapters: LoraAdapters):
        """Mean next-token cross-entropy over the predicted positions of one
        sequence, plus gradients w.r.t. every adapter factor."""
        logits, cache = self.forward_cached(seq, adapters)
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
                 for name, (inp, dout) in self._backward_io(dlogits, cache, set(adapters.a)).items()}
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
    if len(prompt) == 0:
        raise LmError("prompt must be nonempty")
    if len(prompt) > model.config.max_seq:
        raise LmError(f"prompt length {len(prompt)} exceeds max_seq {model.config.max_seq}")
    seq = list(prompt)
    kv = KvCache()  # each position goes through the model once
    new = list(prompt)
    for _ in range(max_new):
        if len(seq) >= model.config.max_seq:
            break
        logits = model.forward_cached(new, adapters, kv)[0]
        nxt = int(np.argmax(logits[-1]))  # argmax breaks ties toward lowest id
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
        name: quantize(dequantize(t) + adapters.scaling * (adapters.a[name] @ adapters.b[name]),
                       spec) if name in adapters.a else t
        for name, t in bundle.tensors.items()
    }
    return ModelBundle(tensors=tensors, config=bundle.config,
                       lineage=dataclasses.replace(bundle.lineage))
