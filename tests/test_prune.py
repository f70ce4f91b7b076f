import numpy as np
import pytest

from ealm.prune import (
    PruneError,
    PruneSpec,
    apply_mask,
    build_mask,
    magnitude_mask,
    nm_mask,
    prune_bundle,
    sparsity,
)
from ealm.quant import QuantSpec, default_target_filter, quantize_bundle
from ealm.tensors import LmConfig, QuantizedTensor
from ealm.tinylm import init_model

import oracles


def test_magnitude_examples():
    mask = magnitude_mask(np.asarray([1.0, -2.0, 3.0, -4.0], np.float32), 0.5)
    assert mask.tolist() == [False, False, True, True]

    ties = magnitude_mask(np.asarray([5.0, 5.0, 5.0, 5.0], np.float32), 0.25)
    assert ties.tolist() == [True, True, True, False]  # higher flat index drops first


def test_magnitude_matches_sort_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        t = rng.normal(size=(10, 10)).astype(np.float32)
        mask = magnitude_mask(t, 0.3)
        k = int(0.3 * t.size)
        # oracle: full sort by (|w|, -index); first k dropped
        order = sorted(range(t.size), key=lambda i: (abs(t.flat[i]), -i))
        dropped = set(order[:k])
        assert {i for i in range(t.size) if not mask.flat[i]} == dropped


@pytest.mark.parametrize("shape", [(7,), (3, 5), (16, 32), (128, 512)])
def test_magnitude_matches_lexsort_oracle_on_heavy_ties(shape):
    # values on 4- and 8-bit grids tie in magnitude often, and across signs
    rng = np.random.default_rng(sum(shape))
    for qmax in (7, 127):
        t = (rng.integers(-qmax, qmax + 1, size=shape) * 0.25).astype(np.float32)
        for ratio in (0.01, 0.1, 0.3, 0.5, 0.9, 0.99):
            np.testing.assert_array_equal(magnitude_mask(t, ratio),
                                          oracles.magnitude_mask(t, ratio))
    # floor(ratio * n) = 0 drops nothing
    assert magnitude_mask(np.ones(shape, np.float32), 0.5 / np.prod(shape)).all()


def test_magnitude_ratio_bounds():
    with pytest.raises(PruneError):
        magnitude_mask(np.ones(4, np.float32), 1.0)
    with pytest.raises(PruneError):
        magnitude_mask(np.ones(4, np.float32), 0.0)


def test_nm_examples():
    row = np.asarray([[0.1, -0.5, 0.3, 0.05]], np.float32)
    mask = nm_mask(row, 2, 4)
    assert mask.tolist() == [[False, True, True, False]]

    rng = np.random.default_rng(5)
    t = rng.normal(size=(4, 16)).astype(np.float32)
    m24 = nm_mask(t, 2, 4)
    assert m24.sum() == t.size // 2  # exactly 0.5 on divisible shapes


def test_nm_matches_per_group_sort_oracle():
    rng = np.random.default_rng(6)
    t = rng.normal(size=(8, 16)).astype(np.float32)
    mask = nm_mask(t, 4, 8)
    for r in range(8):
        for g0 in range(0, 16, 8):
            group = t[r, g0 : g0 + 8]
            keep_idx = sorted(range(8), key=lambda j: (-abs(group[j]), j))[:4]
            assert {j for j in range(8) if mask[r, g0 + j]} == set(keep_idx)


def test_nm_partial_group_and_ties():
    # trailing group of 3 with n=2 keeps 2; ties keep the lower in-group index
    t = np.asarray([[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]], np.float32)
    mask = nm_mask(t, 2, 4)
    assert mask.tolist() == [[True, True, False, False, True, True, False]]


def test_nm_requires_matrix():
    with pytest.raises(PruneError):
        nm_mask(np.ones(8, np.float32), 2, 4)


def test_prune_spec_validation():
    with pytest.raises(PruneError):
        PruneSpec("unstructured-magnitude", ratio=0.5, n=2, m=4)
    with pytest.raises(PruneError):
        PruneSpec("structured-nm", n=4, m=4)
    with pytest.raises(PruneError):
        PruneSpec("nonsense", ratio=0.5)


def test_apply_mask_identity_and_idempotence():
    bundle = init_model(LmConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq=16))
    name = "layers.0.attn.wq"
    ones = {name: np.ones((8, 8), bool)}
    same = apply_mask(bundle, ones)
    assert np.array_equal(same.tensors[name], bundle.tensors[name])

    zeros = {name: np.zeros((8, 8), bool)}
    zeroed = apply_mask(bundle, zeros)
    assert not zeroed.tensors[name].any()
    assert zeroed.lineage == bundle.lineage  # the pipeline records what it pruned
    again = apply_mask(zeroed, zeros)
    assert np.array_equal(again.tensors[name], zeroed.tensors[name])


def test_apply_mask_shape_mismatch():
    bundle = init_model(LmConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq=16))
    bad = {"layers.0.attn.wq": np.ones((4, 4), bool)}
    with pytest.raises(PruneError):
        apply_mask(bundle, bad)


def test_apply_mask_quantized_codes():
    bundle = init_model(LmConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq=16))
    q = quantize_bundle(bundle, QuantSpec(8))
    spec = PruneSpec("structured-nm", n=2, m=4)
    pruned = prune_bundle(q, spec)
    t = pruned.tensors["layers.0.attn.wq"]
    assert isinstance(t, QuantizedTensor)
    assert pruned.lineage == q.lineage


def test_sparsity_accounting():
    bundle = init_model(LmConfig(d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq=16))
    assert sparsity(bundle) == pytest.approx(0.0, abs=1e-6)

    nm = prune_bundle(bundle, PruneSpec("structured-nm", n=2, m=4))
    assert sparsity(nm) == pytest.approx(0.5, abs=1e-12)

    mag = prune_bundle(bundle, PruneSpec("unstructured-magnitude", ratio=0.3))
    for name, t in mag.tensors.items():
        if default_target_filter(name):
            zeros = int(np.count_nonzero(np.asarray(t) == 0))
            assert zeros == int(0.3 * t.size)


def test_kept_weights_unchanged():
    bundle = init_model(LmConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq=16))
    spec = PruneSpec("unstructured-magnitude", ratio=0.4)
    mask = build_mask(bundle, spec)
    pruned = apply_mask(bundle, mask)
    for name, m in mask.items():
        before = np.asarray(bundle.tensors[name])
        after = np.asarray(pruned.tensors[name])
        assert np.array_equal(after[m], before[m])
