"""Symmetric weight quantization over the power-of-two bit grid {4, 8, 16, 32}.

8/4-bit use zero-point-free integer codes (round half away from zero, range
[-qmax, qmax]); 16-bit is binary16 round-to-nearest-even; 32-bit is identity.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .tensors import ModelBundle, QuantizedTensor

VALID_BITS = (4, 8, 16, 32)
QMAX = {8: 127, 4: 7}

_WEIGHT_MATRIX_RE = re.compile(r"\.(attn\.w[qkvo]|mlp\.w[12])$")


class QuantError(Exception):
    pass


def default_target_filter(name: str) -> bool:
    """Attention and MLP weight matrices; embeddings, norms, head excluded."""
    return _WEIGHT_MATRIX_RE.search(name) is not None


@dataclass
class QuantSpec:
    bits: int
    granularity: str = "per-row"  # "per-tensor" | "per-row"
    target_filter: Callable[[str], bool] = field(default=default_target_filter)

    def __post_init__(self):
        if self.bits not in VALID_BITS:
            raise QuantError(f"bits must be one of {VALID_BITS}, got {self.bits}")
        if self.granularity not in ("per-tensor", "per-row"):
            raise QuantError(f"bad granularity {self.granularity!r}")


def _check_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise QuantError("non-finite values in tensor")


def _row_scales(arr: np.ndarray, qmax: int, per_row: bool) -> np.ndarray:
    if per_row:
        flat = arr.reshape(arr.shape[0], -1) if arr.ndim > 1 else arr.reshape(-1, 1)
        amax = np.abs(flat).max(axis=1)
    else:
        amax = np.array([np.abs(arr).max()])
    scales = (amax / qmax).astype(np.float32)
    scales[amax == 0] = 1.0  # all-zero row convention: scale 1, codes 0
    return scales


def quantize(arr: np.ndarray, spec: QuantSpec):
    """Quantize one dense float32 tensor at the requested bit width."""
    arr = np.asarray(arr, dtype=np.float32)
    _check_finite(arr)
    if spec.bits == 32:
        return arr.copy()
    if spec.bits == 16:
        return arr.astype(np.float16)  # numpy converts with round-to-nearest-even
    qmax = QMAX[spec.bits]
    per_row = spec.granularity == "per-row" and arr.ndim > 1
    scales = _row_scales(arr, qmax, per_row)
    if per_row:
        div = scales.reshape((-1,) + (1,) * (arr.ndim - 1))
    else:
        div = scales[0]
    x = arr.astype(np.float64) / div
    codes = np.sign(x) * np.floor(np.abs(x) + 0.5)  # half away from zero
    codes = np.clip(codes, -qmax, qmax).astype(np.int8)
    return QuantizedTensor(
        shape=tuple(arr.shape),
        bits=spec.bits,
        codes=codes,
        scales=scales,
        granularity="per-row" if per_row else "per-tensor",
    )


def dequantize(t) -> np.ndarray:
    """Back to float32: code * scale for integer codes, upcast for float16."""
    if isinstance(t, QuantizedTensor):
        codes = t.codes.astype(np.float32)
        if t.granularity == "per-row":
            scale = t.scales.reshape((-1,) + (1,) * (codes.ndim - 1))
        else:
            scale = t.scales[0]
        return codes * scale
    t = np.asarray(t)
    return t.astype(np.float32)


def quant_error(arr: np.ndarray, spec: QuantSpec) -> dict:
    arr = np.asarray(arr, dtype=np.float32)
    _check_finite(arr)
    back = dequantize(quantize(arr, spec))
    diff = back.astype(np.float64) - arr.astype(np.float64)
    return {"max_abs_err": float(np.abs(diff).max()), "mse": float(np.mean(diff**2))}


def quantize_bundle(bundle: ModelBundle, spec: QuantSpec) -> ModelBundle:
    if bundle.lineage.precision_bits != 32:
        raise QuantError(
            f"bundle already at {bundle.lineage.precision_bits}-bit; expected 32-bit base"
        )
    tensors = {}
    for name, t in bundle.tensors.items():
        if spec.target_filter(name) and isinstance(t, np.ndarray):
            tensors[name] = quantize(t, spec)
        else:
            tensors[name] = t
    lineage = dataclasses.replace(bundle.lineage, precision_bits=spec.bits)
    return ModelBundle(tensors=tensors, config=bundle.config, lineage=lineage)
