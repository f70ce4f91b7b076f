"""Tiny decoder-only LM: deterministic forward, greedy decoding, and low-rank
adapter training over a frozen (possibly quantized) base.

Compute runs in float32 throughout; reduced precision affects storage and the
energy model only. Training is plain full-batch gradient descent on mean
next-token cross-entropy, updating the adapter factors A and B exclusively.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .quant import default_target_filter, dequantize
from .tensors import Lineage, LmConfig, ModelBundle, QuantizedTensor

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


@dataclass
class TrainRecord:
    epoch: int
    loss: float
    energy: object | None = None  # EnergyReport when the epoch was metered


# ---------------------------------------------------------------------------
# numerics


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)


def _layernorm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv, g)


def _layernorm_backward(dy, cache):
    xhat, inv, g = cache
    dxhat = dy * g
    return inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )


class TinyLm:
    """Runtime view of a bundle: dense float32 weights plus optional adapters."""

    def __init__(self, bundle: ModelBundle):
        self.config = bundle.config
        self.w = {name: dequantize(t) for name, t in bundle.tensors.items()}
        d = self.config.d_model
        self.n_heads = self.config.n_heads
        self.d_head = d // self.n_heads

    def _eff(self, name: str, adapters: LoraAdapters | None) -> np.ndarray:
        w = self.w[name]
        if adapters is not None and name in adapters.a:
            w = w + adapters.scaling * (adapters.a[name] @ adapters.b[name])
        return w.astype(np.float32)

    def _check_tokens(self, tokens) -> np.ndarray:
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.size == 0:
            raise LmError("empty token sequence")
        if ids.size > self.config.max_seq:
            raise LmError(f"sequence length {ids.size} exceeds max_seq {self.config.max_seq}")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise LmError(f"token id out of range [0, {self.config.vocab_size})")
        return ids

    def _split_heads(self, x):
        T = x.shape[0]
        return x.reshape(T, self.n_heads, self.d_head).transpose(1, 0, 2)

    def _merge_heads(self, x):
        return x.transpose(1, 0, 2).reshape(x.shape[1], -1)

    def forward_cached(self, tokens, adapters: LoraAdapters | None = None):
        ids = self._check_tokens(tokens)
        T = ids.size
        cfg = self.config
        x = self.w["tok_emb"][ids] + self.w["pos_emb"][:T]
        x = x.astype(np.float32)
        causal = np.triu(np.full((T, T), -1e9, dtype=np.float32), k=1)
        layers = []
        for i in range(cfg.n_layers):
            p = f"layers.{i}."
            wq = self._eff(p + "attn.wq", adapters)
            wk = self._eff(p + "attn.wk", adapters)
            wv = self._eff(p + "attn.wv", adapters)
            wo = self._eff(p + "attn.wo", adapters)
            w1 = self._eff(p + "mlp.w1", adapters)
            w2 = self._eff(p + "mlp.w2", adapters)

            x0 = x
            h, ln1c = _layernorm(x0, self.w[p + "ln1.g"], self.w[p + "ln1.b"])
            q = self._split_heads(h @ wq)
            k = self._split_heads(h @ wk)
            v = self._split_heads(h @ wv)
            scores = q @ k.transpose(0, 2, 1) / math.sqrt(self.d_head) + causal
            probs = _softmax(scores)
            o = self._merge_heads(probs @ v)
            x1 = x0 + o @ wo
            h2, ln2c = _layernorm(x1, self.w[p + "ln2.g"], self.w[p + "ln2.b"])
            u = h2 @ w1
            g = _gelu(u)
            x = x1 + g @ w2
            layers.append(
                dict(p=p, x0=x0, ln1c=ln1c, h=h, q=q, k=k, v=v, probs=probs, o=o,
                     x1=x1, ln2c=ln2c, h2=h2, u=u, g=g,
                     wq=wq, wk=wk, wv=wv, wo=wo, w1=w1, w2=w2)
            )
        xf, lnfc = _layernorm(x, self.w["ln_f.g"], self.w["ln_f.b"])
        logits = xf @ self.w["head"]
        cache = dict(ids=ids, layers=layers, lnfc=lnfc, xf=xf)
        return logits.astype(np.float32), cache

    def forward(self, tokens, adapters: LoraAdapters | None = None) -> np.ndarray:
        return self.forward_cached(tokens, adapters)[0]

    def _backward_weff(self, dlogits, cache, adapted_names):
        """Propagate dL/dlogits back; return dL/dW_eff for adapted matrices."""
        dweff = {}
        dxf = dlogits @ self.w["head"].T
        dx = _layernorm_backward(dxf, cache["lnfc"])
        for lc in reversed(cache["layers"]):
            p = lc["p"]
            # MLP branch
            dg = dx @ lc["w2"].T
            if p + "mlp.w2" in adapted_names:
                dweff[p + "mlp.w2"] = dweff.get(p + "mlp.w2", 0) + lc["g"].T @ dx
            du = dg * _gelu_grad(lc["u"])
            if p + "mlp.w1" in adapted_names:
                dweff[p + "mlp.w1"] = dweff.get(p + "mlp.w1", 0) + lc["h2"].T @ du
            dh2 = du @ lc["w1"].T
            dx1 = dx + _layernorm_backward(dh2, lc["ln2c"])
            # attention branch
            do_merged = dx1 @ lc["wo"].T
            if p + "attn.wo" in adapted_names:
                dweff[p + "attn.wo"] = dweff.get(p + "attn.wo", 0) + lc["o"].T @ dx1
            do = self._split_heads(do_merged)
            dprobs = do @ lc["v"].transpose(0, 2, 1)
            dv = lc["probs"].transpose(0, 2, 1) @ do
            dscores = (dprobs - (dprobs * lc["probs"]).sum(axis=-1, keepdims=True)) * lc["probs"]
            dscores /= math.sqrt(self.d_head)
            dq = dscores @ lc["k"]
            dk = dscores.transpose(0, 2, 1) @ lc["q"]
            dh = (
                self._merge_heads(dq) @ lc["wq"].T
                + self._merge_heads(dk) @ lc["wk"].T
                + self._merge_heads(dv) @ lc["wv"].T
            )
            h = lc["h"]
            if p + "attn.wq" in adapted_names:
                dweff[p + "attn.wq"] = dweff.get(p + "attn.wq", 0) + h.T @ self._merge_heads(dq)
            if p + "attn.wk" in adapted_names:
                dweff[p + "attn.wk"] = dweff.get(p + "attn.wk", 0) + h.T @ self._merge_heads(dk)
            if p + "attn.wv" in adapted_names:
                dweff[p + "attn.wv"] = dweff.get(p + "attn.wv", 0) + h.T @ self._merge_heads(dv)
            dx = dx1 + _layernorm_backward(dh, lc["ln1c"])
        return dweff

    def loss_and_grads(self, sequences, adapters: LoraAdapters):
        """Mean next-token cross-entropy over all predicted positions of all
        sequences, plus gradients w.r.t. every adapter factor."""
        n_pred = sum(max(len(s) - 1, 0) for s in sequences)
        if n_pred == 0:
            raise LmError("no predictable tokens in dataset")
        adapted = set(adapters.a)
        total = 0.0
        s = adapters.scaling
        da = {n: np.zeros_like(adapters.a[n]) for n in adapters.a}
        db = {n: np.zeros_like(adapters.b[n]) for n in adapters.b}
        for seq in sequences:
            if len(seq) < 2:
                continue
            logits, cache = self.forward_cached(seq, adapters)
            targets = np.asarray(seq[1:], dtype=np.int64)
            probs = _softmax(logits[:-1])
            picked = probs[np.arange(targets.size), targets]
            total += float(-np.sum(np.log(np.maximum(picked, 1e-30), dtype=np.float64)))
            dlogits = np.zeros_like(logits)
            dlogits[:-1] = probs
            dlogits[np.arange(targets.size), targets] -= 1.0
            dlogits /= n_pred
            dweff = self._backward_weff(dlogits, cache, adapted)
            for name, gw in dweff.items():
                da[name] += s * (gw @ adapters.b[name].T)
                db[name] += s * (adapters.a[name].T @ gw)
        loss = total / n_pred
        grads = {n: (da[n], db[n]) for n in da}
        return loss, grads

    def evaluation_loss(self, sequences, adapters: LoraAdapters | None = None) -> float:
        n_pred = 0
        total = 0.0
        for seq in sequences:
            if len(seq) < 2:
                continue
            logits = self.forward(seq, adapters)
            targets = np.asarray(seq[1:], dtype=np.int64)
            probs = _softmax(logits[:-1])
            picked = probs[np.arange(targets.size), targets]
            total += float(-np.sum(np.log(np.maximum(picked, 1e-30), dtype=np.float64)))
            n_pred += targets.size
        return total / max(n_pred, 1)


# ---------------------------------------------------------------------------
# module-level ops


def forward(bundle: ModelBundle, adapters: LoraAdapters | None, tokens) -> np.ndarray:
    return TinyLm(bundle).forward(tokens, adapters)


def train_epoch(bundle_or_model, adapters: LoraAdapters, sequences, lr: float,
                meter=None, epoch: int = 0):
    """One pass of plain gradient descent: a GD step per sequence, in dataset
    order. Returns (new adapters, record with the token-mean pass loss)."""
    model = bundle_or_model if isinstance(bundle_or_model, TinyLm) else TinyLm(bundle_or_model)
    if not sequences:
        raise LmError("empty training dataset")
    span = meter.start_span() if meter is not None else None
    total_nll = 0.0
    n_pred = 0
    for seq in sequences:
        if len(seq) < 2:
            continue
        loss, grads = model.loss_and_grads([seq], adapters)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss at lr={lr}")
        adapters = adapters.step(grads, lr)
        total_nll += loss * (len(seq) - 1)
        n_pred += len(seq) - 1
    if n_pred == 0:
        raise LmError("no predictable tokens in dataset")
    energy = meter.stop_span(span) if meter is not None else None
    return adapters, TrainRecord(epoch=epoch, loss=total_nll / n_pred, energy=energy)


def greedy_decode(bundle_or_model, adapters: LoraAdapters | None, prompt, max_new: int) -> list[int]:
    model = bundle_or_model if isinstance(bundle_or_model, TinyLm) else TinyLm(bundle_or_model)
    if len(prompt) == 0:
        raise LmError("prompt must be nonempty")
    if len(prompt) > model.config.max_seq:
        raise LmError(f"prompt length {len(prompt)} exceeds max_seq {model.config.max_seq}")
    seq = list(prompt)
    for _ in range(max_new):
        if len(seq) >= model.config.max_seq:
            break
        logits = model.forward(seq, adapters)
        nxt = int(np.argmax(logits[-1]))  # argmax breaks ties toward lowest id
        seq.append(nxt)
        if nxt == EOS_ID:
            break
    return seq


def merge_adapters(bundle: ModelBundle, adapters: LoraAdapters) -> ModelBundle:
    if bundle.lineage.precision_bits != 32:
        raise LmError("adapter merge requires a 32-bit base")
    tensors = {}
    for name, t in bundle.tensors.items():
        if name in adapters.a:
            if isinstance(t, QuantizedTensor):
                raise LmError(f"cannot merge into quantized tensor {name!r}")
            tensors[name] = (
                t + adapters.scaling * (adapters.a[name] @ adapters.b[name])
            ).astype(np.float32)
        else:
            tensors[name] = t
    return ModelBundle(tensors=tensors, config=bundle.config,
                       lineage=dataclasses.replace(bundle.lineage))


def count_flops_and_skipped(bundle: ModelBundle, tokens) -> dict:
    """Forward-pass multiply-accumulate count plus MACs skippable because the
    stored weight is exactly zero (one MAC per zero weight per position)."""
    cfg = bundle.config
    t = len(tokens)
    d, dff, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    per_layer = 4 * t * d * d + 2 * t * t * d + t * d * dff + t * dff * d
    macs = cfg.n_layers * per_layer + t * d * v
    skipped = 0
    for name, tensor in bundle.tensors.items():
        if not default_target_filter(name):
            continue
        vals = tensor.codes if isinstance(tensor, QuantizedTensor) else np.asarray(tensor)
        skipped += int(np.count_nonzero(vals == 0)) * t
    return {"macs": int(macs), "skipped_macs": int(skipped)}
