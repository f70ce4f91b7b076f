"""Magnitude (unstructured) and N:M structured pruning masks.

Masks are boolean arrays (True = keep). Pruned tensors stay dense: a pruned
bundle stores and computes on as many values as its parent, and `sparsity`
reports the share of them that are zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import nm_mask_kernel
from .quant import dequantize
from .tensors import ModelBundle, QuantizedTensor, default_target_filter


class PruneError(Exception):
    pass


@dataclass
class PruneSpec:
    method: str  # "unstructured-magnitude" | "structured-nm"
    ratio: float | None = None
    n: int | None = None
    m: int | None = None

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


def magnitude_mask(values: np.ndarray, ratio: float) -> np.ndarray:
    """Keep-mask zeroing exactly k = floor(ratio * count) smallest-|w|
    entries; among equal magnitudes the higher flat index drops first. O(n):
    the k-th smallest |w| comes from a partition, every entry below it drops,
    then the highest-indexed entries equal to it until k have dropped. The
    values are finite: `quantize` and `load_bundle` refuse any other."""
    if not 0 < ratio < 1:
        raise PruneError(f"ratio must be in (0,1), got {ratio}")
    values = np.asarray(values)
    flat = np.abs(values.reshape(-1))
    k = math.floor(ratio * flat.size)
    mask = np.ones(flat.size, dtype=bool)
    if k:
        kth = np.partition(flat, k - 1)[k - 1]
        below = flat < kth
        mask[below] = False
        ties = np.flatnonzero(flat == kth)
        mask[ties[ties.size - (k - np.count_nonzero(below)):]] = False
    return mask.reshape(values.shape)


def nm_mask(values: np.ndarray, n: int, m: int) -> np.ndarray:
    """Row-wise N:M keep-mask: top-n |w| per consecutive group of m."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise PruneError(f"N:M pruning needs a matrix, got rank {values.ndim}")
    if not 0 < n < m:
        raise PruneError(f"need 0 < n < m, got n={n} m={m}")
    return nm_mask_kernel(np.ascontiguousarray(values, np.float32), n, m)


def build_mask(bundle: ModelBundle, spec: PruneSpec) -> dict[str, np.ndarray]:
    """Keep-masks (True = keep) for the targeted weight matrices, by name.
    Magnitude pruning cuts each matrix by `ratio` on its own."""
    targets = {name: t for name, t in bundle.tensors.items() if default_target_filter(name)}
    if spec.method == "unstructured-magnitude":
        return {name: magnitude_mask(dequantize(t), spec.ratio) for name, t in targets.items()}
    # N:M groups run along the input (first) axis of each weight matrix, the
    # hardware convention for 2:4 sparsity
    return {name: nm_mask(dequantize(t).T, spec.n, spec.m).T for name, t in targets.items()}


def apply_mask(bundle: ModelBundle, masks: dict[str, np.ndarray]) -> ModelBundle:
    """The bundle with every masked-out value zeroed; its lineage is kept as is."""
    tensors = {}
    for name, t in bundle.tensors.items():
        m = masks.get(name)
        if m is None:
            tensors[name] = t
            continue
        shape = tuple(t.shape)
        if tuple(m.shape) != shape:
            raise PruneError(f"mask shape {m.shape} != tensor {name!r} shape {shape}")
        if isinstance(t, QuantizedTensor):
            codes = np.where(m, t.codes, np.int8(0))  # int8, as both its operands are
            tensors[name] = QuantizedTensor(t.shape, t.bits, codes, t.scales)
        else:
            tensors[name] = np.where(m, t, t.dtype.type(0))
    return ModelBundle(tensors=tensors, config=bundle.config, lineage=bundle.lineage)


def sparsity(bundle: ModelBundle) -> float:
    total = zeros = 0
    for name, t in bundle.tensors.items():
        if not default_target_filter(name):
            continue
        if isinstance(t, QuantizedTensor):
            vals = t.codes
        else:
            vals = np.asarray(t)
        total += vals.size
        zeros += int(np.count_nonzero(vals == 0))
    return zeros / total if total else 0.0


def prune_bundle(bundle: ModelBundle, spec: PruneSpec) -> ModelBundle:
    return apply_mask(bundle, build_mask(bundle, spec))
