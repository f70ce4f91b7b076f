"""Dense/quantized tensor containers, the bundle file format, size accounting.

A plain ``numpy.ndarray`` (float32 or float16) is the dense tensor type;
:class:`QuantizedTensor` carries symmetric integer codes plus scales. Bundles
are immutable by convention: every pipeline step returns a new bundle.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .kernels import pack_nibbles, unpack_nibbles

MAGIC = b"EALM"
VERSION = 1

DTYPE_F32 = 0
DTYPE_F16 = 1
DTYPE_I8 = 2
DTYPE_I4 = 3


class BundleError(Exception):
    """Base class for bundle container failures."""


class BundleFormatError(BundleError):
    """Bad magic, version, or structural field."""


class BundleCorruptionError(BundleError):
    """Truncated or inconsistent payload; names the offending tensor."""


@dataclass(frozen=True)
class LmConfig:
    """Architecture metadata for the tiny decoder-only LM."""

    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 64
    max_seq: int = 128
    vocab_size: int = 259  # 256 byte values + pad/bos/eos
    init_seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        for f in ("d_model", "n_layers", "n_heads", "d_ff", "max_seq", "vocab_size"):
            if getattr(self, f) < 1:
                raise ValueError(f"{f} must be >= 1")

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        d, v = self.d_model, self.vocab_size
        shapes: dict[str, tuple[int, ...]] = {
            "tok_emb": (v, d),
            "pos_emb": (self.max_seq, d),
        }
        for i in range(self.n_layers):
            p = f"layers.{i}."
            shapes[p + "ln1.g"] = (d,)
            shapes[p + "ln1.b"] = (d,)
            for w in ("wq", "wk", "wv", "wo"):
                shapes[p + "attn." + w] = (d, d)
            shapes[p + "ln2.g"] = (d,)
            shapes[p + "ln2.b"] = (d,)
            shapes[p + "mlp.w1"] = (d, self.d_ff)
            shapes[p + "mlp.w2"] = (self.d_ff, d)
        shapes["ln_f.g"] = (d,)
        shapes["ln_f.b"] = (d,)
        shapes["head"] = (d, v)
        return shapes

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LmConfig":
        return cls(**d)


@dataclass
class QuantizedTensor:
    """Symmetric integer codes with per-tensor or per-row float32 scales.

    ``codes`` is kept unpacked (one int8 per element) in memory; 4-bit codes
    are nibble-packed only on disk.
    """

    shape: tuple[int, ...]
    bits: int  # 4 or 8
    codes: np.ndarray  # int8, shape == self.shape
    scales: np.ndarray  # float32, (1,) per-tensor or (rows,) per-row
    granularity: str  # "per-tensor" | "per-row"

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


@dataclass
class Lineage:
    precision_bits: int = 32
    epochs_trained: int = 0
    prune: dict | None = None
    parent_id: str | None = None
    sparsity: float | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Lineage":
        return cls(**d)


@dataclass
class ModelBundle:
    tensors: dict[str, "np.ndarray | QuantizedTensor"]
    config: LmConfig
    lineage: Lineage = field(default_factory=Lineage)

    def validate(self) -> None:
        required = self.config.tensor_shapes()
        missing = sorted(set(required) - set(self.tensors))
        if missing:
            raise BundleError(f"missing tensors: {missing}")
        for name, t in self.tensors.items():
            shape = t.shape if isinstance(t, QuantizedTensor) else tuple(t.shape)
            if name in required and tuple(shape) != required[name]:
                raise BundleError(
                    f"tensor {name!r}: shape {shape} != expected {required[name]}"
                )
            if isinstance(t, np.ndarray) and not np.all(np.isfinite(t.astype(np.float32))):
                raise BundleError(f"tensor {name!r} has non-finite values")


def _tensor_dtype_code(t) -> int:
    if isinstance(t, QuantizedTensor):
        return DTYPE_I8 if t.bits == 8 else DTYPE_I4
    if t.dtype == np.float16:
        return DTYPE_F16
    if t.dtype == np.float32:
        return DTYPE_F32
    raise BundleError(f"unsupported tensor dtype {t.dtype}")


def tensor_payload_bytes(t) -> int:
    """Stored payload size of one tensor: codes/values plus scale bytes."""
    if isinstance(t, QuantizedTensor):
        scale_bytes = 4 * t.scales.size
        if t.bits == 8:
            return t.size + scale_bytes
        return math.ceil(t.size / 2) + scale_bytes
    if t.dtype == np.float16:
        return 2 * t.size
    return 4 * t.size


def payload_bytes(bundle: ModelBundle) -> int:
    return sum(tensor_payload_bytes(t) for t in bundle.tensors.values())


GRANULARITY_CODES = {"per-tensor": 0, "per-row": 1}
GRANULARITY_NAMES = {v: k for k, v in GRANULARITY_CODES.items()}


def _encode_payload(t) -> bytes:
    if isinstance(t, QuantizedTensor):
        head = struct.pack(
            "<BI", GRANULARITY_CODES[t.granularity], t.scales.size
        ) + t.scales.astype("<f4").tobytes()
        flat = t.codes.reshape(-1)
        if t.bits == 8:
            return head + flat.astype(np.int8).tobytes()
        return head + pack_nibbles(flat.astype(np.int8)).tobytes()
    if t.dtype == np.float16:
        return t.astype("<f2").tobytes()
    return t.astype("<f4").tobytes()


def _decode_payload(name: str, dtype_code: int, dims: tuple[int, ...], payload: bytes):
    n = int(np.prod(dims)) if dims else 1
    try:
        if dtype_code == DTYPE_F32:
            if len(payload) != 4 * n:
                raise ValueError
            return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        if dtype_code == DTYPE_F16:
            if len(payload) != 2 * n:
                raise ValueError
            return np.frombuffer(payload, dtype="<f2").reshape(dims).copy()
        gran, n_scales = struct.unpack_from("<BI", payload, 0)
        off = 5
        scales = np.frombuffer(payload, dtype="<f4", count=n_scales, offset=off).copy()
        off += 4 * n_scales
        body = payload[off:]
        if dtype_code == DTYPE_I8:
            if len(body) != n:
                raise ValueError
            codes = np.frombuffer(body, dtype=np.int8).reshape(dims).copy()
            bits = 8
        elif dtype_code == DTYPE_I4:
            if len(body) != math.ceil(n / 2):
                raise ValueError
            codes = unpack_nibbles(np.frombuffer(body, dtype=np.uint8), n).reshape(dims)
            bits = 4
        else:
            raise BundleFormatError(f"unknown dtype code {dtype_code}")
        return QuantizedTensor(
            shape=dims, bits=bits, codes=codes, scales=scales,
            granularity=GRANULARITY_NAMES[gran],
        )
    except (ValueError, struct.error) as e:
        raise BundleCorruptionError(f"tensor {name!r}: payload corrupt") from e


def save_bundle(bundle: ModelBundle, path) -> None:
    names = list(bundle.tensors)
    if len(set(names)) != len(names):
        raise BundleError("duplicate tensor names")
    chunks = [MAGIC, struct.pack("<HI", VERSION, len(names))]
    for name, t in bundle.tensors.items():
        nb = name.encode("utf-8")
        dims = t.shape if isinstance(t, QuantizedTensor) else tuple(t.shape)
        payload = _encode_payload(t)
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<BB", _tensor_dtype_code(t), len(dims)))
        chunks.append(struct.pack(f"<{len(dims)}Q", *dims) if dims else b"")
        chunks.append(struct.pack("<Q", len(payload)))
        chunks.append(payload)
    meta = json.dumps(
        {"config": bundle.config.to_dict(), "lineage": bundle.lineage.to_dict()},
        sort_keys=True,
    ).encode("utf-8")
    chunks.append(struct.pack("<Q", len(meta)))
    chunks.append(meta)
    try:
        with open(path, "wb") as f:
            f.write(b"".join(chunks))
    except OSError as e:
        raise BundleError(f"cannot write bundle to {path}: {e}") from e


class _Reader:
    def __init__(self, data: bytes, context: str):
        self.data = data
        self.off = 0
        self.context = context

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.data):
            raise BundleCorruptionError(f"{self.context}: truncated while reading {what}")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_bundle(path) -> ModelBundle:
    with open(path, "rb") as f:
        data = f.read()
    rd = _Reader(data, str(path))
    if rd.take(4, "magic") != MAGIC:
        raise BundleFormatError(f"{path}: bad magic")
    (version, count) = rd.unpack("<HI", "header")
    if version != VERSION:
        raise BundleFormatError(f"{path}: unsupported version {version}")
    tensors: dict[str, np.ndarray | QuantizedTensor] = {}
    for _ in range(count):
        (nlen,) = rd.unpack("<H", "name length")
        name = rd.take(nlen, "name").decode("utf-8")
        rd.context = f"{path} tensor {name!r}"
        dtype_code, rank = rd.unpack("<BB", "dtype/rank")
        dims = tuple(rd.unpack(f"<{rank}Q", "dims")) if rank else ()
        (plen,) = rd.unpack("<Q", "payload length")
        payload = rd.take(plen, "payload")
        if name in tensors:
            raise BundleFormatError(f"{path}: duplicate tensor {name!r}")
        tensors[name] = _decode_payload(name, dtype_code, dims, payload)
        rd.context = str(path)
    (mlen,) = rd.unpack("<Q", "metadata length")
    meta = json.loads(rd.take(mlen, "metadata").decode("utf-8"))
    bundle = ModelBundle(
        tensors=tensors,
        config=LmConfig.from_dict(meta["config"]),
        lineage=Lineage.from_dict(meta["lineage"]),
    )
    return bundle


def bundles_equal(a: ModelBundle, b: ModelBundle) -> bool:
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
                or ta.granularity != tb.granularity
                or not np.array_equal(ta.codes, tb.codes)
                or ta.scales.tobytes() != tb.scales.tobytes()
            ):
                return False
        elif ta.dtype != tb.dtype or ta.tobytes() != tb.tobytes():
            return False
    return True
