"""Symmetric weight quantization over the power-of-two bit grid {4, 8, 16, 32}.

8/4-bit use zero-point-free integer codes (round half away from zero, range
[-qmax, qmax]); 16-bit is binary16 round-to-nearest-even; 32-bit is identity:
`quantize` returns its float32 input itself, so a 32-bit bundle shares every
array with its base. Bundles are never written in place.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .tensors import QMAX, ModelBundle, QuantizedTensor, default_target_filter

VALID_BITS = (4, 8, 16, 32)


class QuantError(Exception):
    pass


@dataclass
class QuantSpec:
    bits: int

    def __post_init__(self):
        if self.bits not in VALID_BITS:
            raise QuantError(f"bits must be one of {VALID_BITS}, got {self.bits}")


def quantize(arr: np.ndarray, spec: QuantSpec):
    """Quantize one dense float32 tensor at the requested bit width. Integer
    codes are for weight matrices, with one scale per row; binary16 and
    float32 take any shape. At 32 bits the checked float32 input is returned,
    not a copy."""
    arr = np.asarray(arr, dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise QuantError("non-finite values in tensor")
    if spec.bits == 32:
        return arr
    if spec.bits == 16:
        return arr.astype(np.float16)  # numpy converts with round-to-nearest-even
    if arr.ndim != 2:
        raise QuantError(f"{spec.bits}-bit codes are for a matrix, not shape {arr.shape}")
    qmax = QMAX[spec.bits]
    amax = np.abs(arr).max(axis=1)
    scales = (amax / qmax).astype(np.float32)
    # all-zero row convention: scale 1, codes 0; also for a row whose largest
    # value is a subnormal so small that amax / qmax rounds to 0
    scales[scales == 0] = 1.0
    x = arr.astype(np.float64) / scales[:, None]
    codes = np.sign(x) * np.floor(np.abs(x) + 0.5)  # half away from zero
    codes = np.clip(codes, -qmax, qmax).astype(np.int8)
    return QuantizedTensor(shape=tuple(arr.shape), bits=spec.bits, codes=codes, scales=scales)


def dequantize(t) -> np.ndarray:
    """Back to float32: code * scale for integer codes, upcast for float16.
    A float32 tensor is returned as is, not copied: callers only read it."""
    if isinstance(t, QuantizedTensor):
        return t.codes.astype(np.float32) * t.scales[:, None]
    return np.asarray(t).astype(np.float32, copy=False)


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
