"""Dense/quantized tensors, the EALM container file, bundles, size accounting.

A plain ``numpy.ndarray`` (float32 or float16) is the dense tensor type;
:class:`QuantizedTensor` carries symmetric integer codes plus scales. An EALM
file (`write_tensors`/`read_tensors`) holds named tensors and a JSON meta
dict; a bundle file is one whose meta is the model's config and lineage.
Bundles are immutable by convention: every pipeline step returns a new bundle.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import struct
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kernels import pack_nibbles, unpack_nibbles

MAGIC = b"EALM"
VERSION = 1

DTYPE_F32 = 0
DTYPE_F16 = 1
DTYPE_I8 = 2
DTYPE_I4 = 3


class BundleError(Exception):
    """An EALM file that cannot be written, or does not hold what the writer
    writes; the message names the file, and the tensor if in one."""


# What the pipeline quantizes, adapts and prunes: `layers.{i}.<matrix>` for each.
WEIGHT_MATRICES = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "mlp.w1", "mlp.w2")


def default_target_filter(name: str) -> bool:
    """Attention and MLP weight matrices; embeddings and head excluded."""
    return name.startswith("layers.") and name.split(".", 2)[-1] in WEIGHT_MATRICES


def fits(v, t) -> bool:
    """Whether `v` fits annotation `t`: an int, not a bool, for `int`; a finite
    int or float, not a bool, for `float`; an instance for any other class; and
    part by part for `X | None`, `list[T]` and `dict[K, V]`."""
    if t is int:
        return isinstance(v, int) and not isinstance(v, bool)
    if t is float:  # finite as a float: this also refuses an int beyond float range
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and abs(v) <= sys.float_info.max)
    origin, args = typing.get_origin(t), typing.get_args(t)
    if origin is types.UnionType:
        return any(fits(v, a) for a in args)
    if origin is list:
        return isinstance(v, list) and all(fits(x, args[0]) for x in v)
    if origin is dict:
        return isinstance(v, dict) and all(fits(k, args[0]) and fits(x, args[1])
                                           for k, x in v.items())
    return isinstance(v, t)  # any other generic, e.g. tuple[int, int], raises TypeError


# resolved once per class: a call takes 70-280 us (Python 3.11, 2-CPU x86 host)
_type_hints = functools.cache(typing.get_type_hints)


def check_types(cls, values: dict, error: type[Exception] = TypeError) -> None:
    """Raises `error` naming the first field of dataclass `cls` whose value in
    `values` does not fit the field's annotation (see `fits`)."""
    for name, t in _type_hints(cls).items():
        if name in values and not fits(values[name], t):
            shown = t.__name__ if isinstance(t, type) else str(t)
            raise error(f"{cls.__name__}.{name} holds {shown}, not {values[name]!r}")


def from_fields(cls, d: dict):
    """`cls(**d)` if `d` holds exactly the dataclass's fields (else a KeyError),
    each fitting its annotation (else a TypeError): a file carries every key
    its writer writes, so a missing one is damage."""
    want = sorted(f.name for f in dataclasses.fields(cls))
    if not isinstance(d, dict) or sorted(d) != want:
        raise KeyError(f"{cls.__name__} wants keys {want}, got {d!r}")
    check_types(cls, d)
    return cls(**d)


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
        check_types(LmConfig, vars(self))
        for f in ("d_model", "n_layers", "n_heads", "d_ff", "max_seq", "vocab_size"):
            v = getattr(self, f)
            if v < 1:
                raise ValueError(f"{f} must be an integer >= 1, got {v!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        d, v = self.d_model, self.vocab_size
        shapes: dict[str, tuple[int, ...]] = {
            "tok_emb": (v, d),
            "pos_emb": (self.max_seq, d),
        }
        for i in range(self.n_layers):
            p = f"layers.{i}."
            for w in ("wq", "wk", "wv", "wo"):
                shapes[p + "attn." + w] = (d, d)
            shapes[p + "mlp.w1"] = (d, self.d_ff)
            shapes[p + "mlp.w2"] = (self.d_ff, d)
        shapes["head"] = (d, v)
        return shapes


@dataclass
class QuantizedTensor:
    """Symmetric integer codes of a weight matrix, with one float32 scale per
    row.

    ``codes`` is kept unpacked (one int8 per element) in memory; 4-bit codes
    are nibble-packed only on disk.
    """

    shape: tuple[int, ...]
    bits: int  # 4 or 8
    codes: np.ndarray  # int8, shape == self.shape
    scales: np.ndarray  # float32, (rows,)

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
        extra = sorted(set(self.tensors) - set(required))
        if extra:
            raise BundleError(f"tensors not in the config: {extra}")
        bits = self.lineage.precision_bits
        for name, t in self.tensors.items():
            shape = tuple(t.shape)
            if shape != required[name]:
                raise BundleError(
                    f"tensor {name!r}: shape {shape} != expected {required[name]}"
                )
            # the storage quantize_bundle gives it at the lineage's width
            want = ("float32" if not default_target_filter(name) or bits == 32 else
                    "float16" if bits == 16 else f"{bits}-bit codes")
            have = f"{t.bits}-bit codes" if isinstance(t, QuantizedTensor) else str(t.dtype)
            if have != want:
                raise BundleError(f"tensor {name!r}: {have} in a {bits}-bit bundle, not {want}")
            if isinstance(t, QuantizedTensor) and t.scales.size != shape[0]:
                raise BundleError(f"tensor {name!r}: {t.scales.size} scales for {shape[0]} rows")
            if isinstance(t, np.ndarray) and not np.all(np.isfinite(t.astype(np.float32))):
                raise BundleError(f"tensor {name!r} has non-finite values")


def tensor_payload_bytes(t) -> int:
    """Stored payload size of one tensor: codes/values plus scale bytes."""
    if isinstance(t, QuantizedTensor):
        return (t.size * t.bits + 7) // 8 + 4 * t.scales.size
    return t.size * t.dtype.itemsize


def payload_bytes(bundle: ModelBundle) -> int:
    return sum(tensor_payload_bytes(t) for t in bundle.tensors.values())


def _encode(t) -> tuple[int, bytes]:
    """A tensor's dtype code and payload."""
    if isinstance(t, QuantizedTensor):
        codes = t.codes.reshape(-1).astype(np.int8)
        body = codes if t.bits == 8 else pack_nibbles(codes)
        # granularity byte 1: a scale per row of a matrix, the only granularity
        head = struct.pack("<BI", 1, t.scales.size)
        return (DTYPE_I8 if t.bits == 8 else DTYPE_I4,
                head + t.scales.astype("<f4").tobytes() + body.tobytes())
    if t.dtype == np.float16:
        return DTYPE_F16, t.astype("<f2").tobytes()
    if t.dtype == np.float32:
        return DTYPE_F32, t.astype("<f4").tobytes()
    raise BundleError(f"unsupported tensor dtype {t.dtype}")


def _decode(context: str, dtype_code: int, dims: tuple[int, ...], payload: bytes):
    """A tensor exactly as `_encode` writes it, else a BundleError."""
    n = math.prod(dims)
    try:
        if dtype_code in (DTYPE_F32, DTYPE_F16):
            dtype = np.dtype("<f4" if dtype_code == DTYPE_F32 else "<f2")
            if len(payload) != dtype.itemsize * n:
                raise ValueError
            return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
        if dtype_code not in (DTYPE_I8, DTYPE_I4):
            raise ValueError
        bits = 8 if dtype_code == DTYPE_I8 else 4
        gran, n_scales = struct.unpack_from("<BI", payload)
        body = payload[5 + 4 * n_scales:]
        if (gran != 1 or len(dims) != 2 or n_scales != dims[0]
                or len(body) != (n * bits + 7) // 8):
            raise ValueError
        scales = np.frombuffer(payload, dtype="<f4", count=n_scales, offset=5).copy()
        raw = np.frombuffer(body, dtype=np.int8 if bits == 8 else np.uint8)
        codes = (raw.copy() if bits == 8 else unpack_nibbles(raw, n)).reshape(dims)
        return QuantizedTensor(shape=dims, bits=bits, codes=codes, scales=scales)
    except (ValueError, struct.error) as e:
        raise BundleError(f"{context}: payload corrupt") from e


def write_tensors(path, tensors: dict, meta: dict) -> None:
    """Writes named tensors and a JSON-able `meta` dict as one EALM container
    file, atomically; a failed write is a BundleError naming `path`."""
    chunks = [MAGIC, struct.pack("<HI", VERSION, len(tensors))]
    for name, t in tensors.items():
        nb, dims, (code, payload) = name.encode("utf-8"), tuple(t.shape), _encode(t)
        chunks += [struct.pack("<H", len(nb)), nb,
                   struct.pack(f"<BB{len(dims)}Q", code, len(dims), *dims),
                   struct.pack("<Q", len(payload)), payload]
    text = json.dumps(meta, sort_keys=True).encode("utf-8")
    try:
        write_atomic(path, b"".join(chunks + [struct.pack("<Q", len(text)), text]))
    except OSError as e:
        raise BundleError(f"cannot write {path}: {e}") from e


def write_atomic(path, data: bytes) -> None:
    """Writes `data` beside `path`, then renames it over `path`: a reader sees
    the previous file or the whole new one, even if the writer dies."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already once the rename succeeded


class _Reader:
    def __init__(self, data: bytes, context: str):
        self.data = data
        self.off = 0
        self.context = context

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.data):
            raise BundleError(f"{self.context}: truncated while reading {what}")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def read_tensors(path) -> tuple[dict, dict]:
    """An EALM container file's (tensors, meta dict). A file that is cut short,
    does not decode or goes on after its metadata is a BundleError naming it,
    and the tensor if in one."""
    with open(path, "rb") as f:
        data = f.read()
    rd = _Reader(data, str(path))
    if rd.take(4, "magic") != MAGIC:
        raise BundleError(f"{path}: bad magic")
    (version, count) = rd.unpack("<HI", "header")
    if version != VERSION:
        raise BundleError(f"{path}: unsupported version {version}")
    tensors: dict[str, np.ndarray | QuantizedTensor] = {}
    for _ in range(count):
        (nlen,) = rd.unpack("<H", "name length")
        try:
            name = rd.take(nlen, "name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise BundleError(f"{path}: tensor name is not UTF-8") from e
        rd.context = f"{path} tensor {name!r}"
        dtype_code, rank = rd.unpack("<BB", "dtype/rank")
        dims = rd.unpack(f"<{rank}Q", "dims")
        (plen,) = rd.unpack("<Q", "payload length")
        payload = rd.take(plen, "payload")
        if name in tensors:
            raise BundleError(f"{path}: duplicate tensor {name!r}")
        tensors[name] = _decode(rd.context, dtype_code, dims, payload)
        rd.context = str(path)
    (mlen,) = rd.unpack("<Q", "metadata length")
    try:
        meta = json.loads(rd.take(mlen, "metadata").decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or JSON
        raise BundleError(f"{path}: bad metadata ({type(e).__name__}: {e})") from e
    if not isinstance(meta, dict):
        raise BundleError(f"{path}: metadata is not a JSON object")
    if rd.off != len(data):
        raise BundleError(f"{path}: {len(data) - rd.off} bytes after the metadata")
    return tensors, meta


def save_bundle(bundle: ModelBundle, path) -> None:
    write_tensors(path, bundle.tensors, {"config": dataclasses.asdict(bundle.config),
                                         "lineage": dataclasses.asdict(bundle.lineage)})


def load_bundle(path) -> ModelBundle:
    tensors, meta = read_tensors(path)
    if sorted(meta) != ["config", "lineage"]:
        raise BundleError(f"{path}: metadata keys {sorted(meta)}, not ['config', 'lineage']")
    try:
        bundle = ModelBundle(tensors, from_fields(LmConfig, meta["config"]),
                             from_fields(Lineage, meta["lineage"]))
    except (ValueError, KeyError, TypeError) as e:
        raise BundleError(f"{path}: bad metadata ({type(e).__name__}: {e})") from e
    try:
        bundle.validate()  # the file decodes; now it must also match its config
    except BundleError as e:
        raise BundleError(f"{path}: {e}") from e
    return bundle
