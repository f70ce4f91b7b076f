"""Symmetric weight quantization over the power-of-two bit grid {4, 8, 16, 32}.

8/4-bit use zero-point-free integer codes (round half away from zero, range
[-qmax, qmax]); 16-bit is binary16 round-to-nearest-even; 32-bit is identity.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .tensors import WEIGHT_MATRICES, ModelBundle, QuantizedTensor

VALID_BITS = (4, 8, 16, 32)
QMAX = {8: 127, 4: 7}


class QuantError(Exception):
    pass


def default_target_filter(name: str) -> bool:
    """Attention and MLP weight matrices; embeddings, norms, head excluded."""
    return name.startswith("layers.") and name.split(".", 2)[-1] in WEIGHT_MATRICES


@dataclass
class QuantSpec:
    bits: int

    def __post_init__(self):
        if self.bits not in VALID_BITS:
            raise QuantError(f"bits must be one of {VALID_BITS}, got {self.bits}")


def _check_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise QuantError("non-finite values in tensor")


def _per_row(scales: np.ndarray, ndim: int) -> np.ndarray:
    """`scales` shaped to broadcast one scale over each row of an `ndim`
    tensor; a single scale broadcasts over the whole tensor (a 0-D one too)."""
    return scales.reshape(scales.shape[:ndim] + (1,) * (ndim - 1))


def quantize(arr: np.ndarray, spec: QuantSpec):
    """Quantize one dense float32 tensor at the requested bit width. Integer
    codes get one scale per row of a matrix and one scale for a 1-D tensor."""
    arr = np.asarray(arr, dtype=np.float32)
    _check_finite(arr)
    if spec.bits == 32:
        return arr.copy()
    if spec.bits == 16:
        return arr.astype(np.float16)  # numpy converts with round-to-nearest-even
    qmax = QMAX[spec.bits]
    rows = arr.reshape(arr.shape[0], -1) if arr.ndim > 1 else arr.reshape(1, -1)
    amax = np.abs(rows).max(axis=1)
    scales = (amax / qmax).astype(np.float32)
    scales[amax == 0] = 1.0  # all-zero row convention: scale 1, codes 0
    x = arr.astype(np.float64) / _per_row(scales, arr.ndim)
    codes = np.sign(x) * np.floor(np.abs(x) + 0.5)  # half away from zero
    codes = np.clip(codes, -qmax, qmax).astype(np.int8)
    return QuantizedTensor(shape=tuple(arr.shape), bits=spec.bits, codes=codes, scales=scales)


def dequantize(t) -> np.ndarray:
    """Back to float32: code * scale for integer codes, upcast for float16."""
    if isinstance(t, QuantizedTensor):
        return t.codes.astype(np.float32) * _per_row(t.scales, t.codes.ndim)
    t = np.asarray(t)
    return t.astype(np.float32)


def quantize_bundle(bundle: ModelBundle, spec: QuantSpec) -> ModelBundle:
    if bundle.lineage.precision_bits != 32:
        raise QuantError(
            f"bundle already at {bundle.lineage.precision_bits}-bit; expected 32-bit base"
        )
    tensors = {}
    for name, t in bundle.tensors.items():
        if default_target_filter(name) and isinstance(t, np.ndarray):
            tensors[name] = quantize(t, spec)
        else:
            tensors[name] = t
    lineage = dataclasses.replace(bundle.lineage, precision_bits=spec.bits)
    return ModelBundle(tensors=tensors, config=bundle.config, lineage=lineage)
