"""Magnitude (unstructured) and N:M structured pruning masks.

Masks are boolean arrays (True = keep). Pruned tensors stay dense; size
benefits are modeled through sparsity / skipped multiply-accumulates, not
through storage.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernels import nm_mask_kernel
from .quant import default_target_filter, dequantize
from .tensors import ModelBundle, QuantizedTensor


class PruneError(Exception):
    pass


@dataclass
class PruneSpec:
    method: str  # "unstructured-magnitude" | "structured-nm"
    ratio: float | None = None
    n: int | None = None
    m: int | None = None
    scope: str = "per-tensor"  # "per-tensor" | "global"
    target_filter: Callable[[str], bool] = field(default=default_target_filter)

    def __post_init__(self):
        if self.method == "unstructured-magnitude":
            if self.ratio is None or self.n is not None or self.m is not None:
                raise PruneError("unstructured-magnitude takes ratio only")
            if not 0 < self.ratio < 1:
                raise PruneError(f"ratio must be in (0,1), got {self.ratio}")
        elif self.method == "structured-nm":
            if self.n is None or self.m is None or self.ratio is not None:
                raise PruneError("structured-nm takes (n, m) only")
            if not 0 < self.n < self.m:
                raise PruneError(f"need 0 < n < m, got n={self.n} m={self.m}")
        else:
            raise PruneError(f"unknown method {self.method!r}")

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "ratio": self.ratio,
            "n": self.n,
            "m": self.m,
            "scope": self.scope,
        }


@dataclass
class SparsityMask:
    masks: dict[str, np.ndarray]  # name -> bool array, True = keep


def _dense_values(t) -> np.ndarray:
    return dequantize(t) if isinstance(t, QuantizedTensor) else np.asarray(t, np.float32)


def _magnitude_drop_order(values: np.ndarray) -> np.ndarray:
    # ascending |w|; among equal magnitudes the higher flat index drops first
    flat = np.abs(values.reshape(-1))
    return np.lexsort((-np.arange(flat.size), flat))


def magnitude_mask(values: np.ndarray, ratio: float) -> np.ndarray:
    """Keep-mask zeroing exactly floor(ratio * count) smallest-|w| entries."""
    if not 0 < ratio < 1:
        raise PruneError(f"ratio must be in (0,1), got {ratio}")
    values = np.asarray(values)
    k = math.floor(ratio * values.size)
    mask = np.ones(values.size, dtype=bool)
    mask[_magnitude_drop_order(values)[:k]] = False
    return mask.reshape(values.shape)


def magnitude_masks(tensors: dict[str, np.ndarray], ratio: float, scope: str) -> SparsityMask:
    if scope == "per-tensor":
        return SparsityMask({n: magnitude_mask(_dense_values(t), ratio) for n, t in tensors.items()})
    if scope != "global":
        raise PruneError(f"unknown scope {scope!r}")
    names = list(tensors)
    flats = [np.abs(_dense_values(tensors[n]).reshape(-1)) for n in names]
    sizes = [f.size for f in flats]
    allv = np.concatenate(flats) if flats else np.array([])
    k = math.floor(ratio * allv.size)
    order = np.lexsort((-np.arange(allv.size), allv))
    keep = np.ones(allv.size, dtype=bool)
    keep[order[:k]] = False
    masks, off = {}, 0
    for name, size in zip(names, sizes):
        masks[name] = keep[off : off + size].reshape(_dense_values(tensors[name]).shape)
        off += size
    return SparsityMask(masks)


def nm_mask(values: np.ndarray, n: int, m: int) -> np.ndarray:
    """Row-wise N:M keep-mask: top-n |w| per consecutive group of m."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise PruneError(f"N:M pruning needs a matrix, got rank {values.ndim}")
    if not 0 < n < m:
        raise PruneError(f"need 0 < n < m, got n={n} m={m}")
    return nm_mask_kernel(np.ascontiguousarray(values, np.float32), n, m)


def nm_masks(tensors: dict[str, np.ndarray], n: int, m: int) -> SparsityMask:
    """N:M masks with groups running along the input (first) axis of each
    weight matrix, the hardware convention for 2:4 sparsity."""
    masks = {}
    for name, t in tensors.items():
        masks[name] = nm_mask(_dense_values(t).T, n, m).T
    return SparsityMask(masks)


def build_mask(bundle: ModelBundle, spec: PruneSpec) -> SparsityMask:
    targets = {
        name: t for name, t in bundle.tensors.items() if spec.target_filter(name)
    }
    if spec.method == "unstructured-magnitude":
        return magnitude_masks(targets, spec.ratio, spec.scope)
    return nm_masks(targets, spec.n, spec.m)


def apply_mask(bundle: ModelBundle, mask: SparsityMask, spec: PruneSpec | None = None) -> ModelBundle:
    tensors = {}
    for name, t in bundle.tensors.items():
        m = mask.masks.get(name)
        if m is None:
            tensors[name] = t
            continue
        shape = t.shape if isinstance(t, QuantizedTensor) else tuple(t.shape)
        if tuple(m.shape) != tuple(shape):
            raise PruneError(f"mask shape {m.shape} != tensor {name!r} shape {shape}")
        if isinstance(t, QuantizedTensor):
            codes = np.where(m, t.codes, np.int8(0)).astype(np.int8)
            tensors[name] = QuantizedTensor(t.shape, t.bits, codes, t.scales.copy(), t.granularity)
        else:
            tensors[name] = np.where(m, t, t.dtype.type(0)).astype(t.dtype)
    out = ModelBundle(tensors=tensors, config=bundle.config)
    out.lineage = dataclasses.replace(
        bundle.lineage,
        prune=spec.to_dict() if spec is not None else bundle.lineage.prune,
        sparsity=sparsity(out, spec.target_filter if spec else default_target_filter),
    )
    return out


def sparsity(bundle: ModelBundle, target_filter: Callable[[str], bool] = default_target_filter) -> float:
    total = zeros = 0
    for name, t in bundle.tensors.items():
        if not target_filter(name):
            continue
        if isinstance(t, QuantizedTensor):
            vals = t.codes
        else:
            vals = np.asarray(t)
        total += vals.size
        zeros += int(np.count_nonzero(vals == 0))
    return zeros / total if total else 0.0


def prune_bundle(bundle: ModelBundle, spec: PruneSpec) -> ModelBundle:
    return apply_mask(bundle, build_mask(bundle, spec), spec)
