import numpy as np
import pytest

from ealm.quant import (
    QuantError,
    QuantSpec,
    default_target_filter,
    dequantize,
    quantize,
    quantize_bundle,
)
from ealm.prune import PruneSpec, build_mask
from ealm.tensors import WEIGHT_MATRICES, LmConfig, QuantizedTensor, payload_bytes
from ealm.tinylm import init_adapters, init_model

from f16_oracle import f32_to_f16_bits
from oracles import quant_error


# the second row is the first times two: twice the scale, the same codes
PER_ROW = np.asarray([[-1.0, 0.5, 0.25, 1.0], [-2.0, 1.0, 0.5, 2.0]], dtype=np.float32)


def test_8bit_per_row_derived_vector():
    q = quantize(PER_ROW, QuantSpec(8))
    assert q.scales.shape == (2,)
    assert q.scales[0] == np.float32(1.0 / 127.0)
    assert q.scales[1] == np.float32(2.0 / 127.0)
    assert q.codes.tolist() == [[-127, 64, 32, 127]] * 2
    # integer codes are for matrices: a 1-D or 0-D tensor is refused
    for bits in (4, 8):
        for other in (PER_ROW[0], np.float32(-1.0)):
            with pytest.raises(QuantError, match="not shape"):
                quantize(other, QuantSpec(bits))


def test_all_zero_4bit_convention():
    t = np.zeros((2, 5), dtype=np.float32)
    t[1, 0] = 3.5
    q = quantize(t, QuantSpec(4))
    assert q.scales.tolist() == [1.0, 0.5]  # the all-zero row gets scale 1
    assert not q.codes[0].any()


def test_32bit_identity():
    t = np.asarray([1.5, -2.25], dtype=np.float32)
    out = quantize(t, QuantSpec(32))
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, t)
    assert quant_error(t, QuantSpec(32))["max_abs_err"] == 0.0


def test_dequantize_examples():
    q = QuantizedTensor((2, 2), 8, np.asarray([[127, 64], [127, 64]], np.int8),
                        np.asarray([1.0 / 127.0, 2.0 / 127.0], np.float32))
    out = dequantize(q)
    assert out[0, 0] == pytest.approx(1.0, abs=1e-7)
    assert out[0, 1] == pytest.approx(64.0 / 127.0, abs=1e-7)
    assert out[1].tolist() == (2 * out[0]).tolist()


def test_quant_error_mse_oracle():
    err = quant_error(PER_ROW, QuantSpec(8))
    # brute force in float64 with the stated rounding rule
    scale = np.float32([[1.0 / 127.0], [2.0 / 127.0]]).astype(np.float64)
    codes = np.asarray([-127, 64, 32, 127], np.float64)
    back = codes * scale
    expect_mse = float(np.mean((back - PER_ROW.astype(np.float64)) ** 2))
    assert err["mse"] == pytest.approx(expect_mse, rel=1e-9)
    assert err["max_abs_err"] <= float(scale.max()) / 2 + 1e-12


def test_roundtrip_error_bound_and_symmetry():
    rng = np.random.default_rng(3)
    for bits in (4, 8):
        for _ in range(50):
            t = rng.normal(scale=rng.uniform(0.01, 10), size=(8, 8)).astype(np.float32)
            spec = QuantSpec(bits)
            q = quantize(t, spec)
            back = dequantize(q)
            bound = q.scales.reshape(-1, 1) / 2 + 1e-6
            assert np.all(np.abs(back - t) <= bound)
            qn = quantize(-t, spec)
            assert np.array_equal(qn.codes, -q.codes)
            assert np.array_equal(qn.scales, q.scales)
            assert np.all(q.scales > 0)
            assert q.codes.min() >= -(127 if bits == 8 else 7)


def test_binary16_matches_reference_oracle():
    rng = np.random.default_rng(9)
    vals = np.concatenate([
        rng.normal(size=4000).astype(np.float32),
        (rng.normal(size=3000) * 10.0 ** rng.integers(-8, 8, size=3000)).astype(np.float32),
        rng.uniform(-70000, 70000, size=2000).astype(np.float32),
        np.asarray([0.0, -0.0, 65504.0, 65520.0, 2.0**-24, 2.0**-25, -(2.0**-26),
                    1e-45, 5.960464477539063e-08], dtype=np.float32),
        rng.uniform(-6e-5, 6e-5, size=991).astype(np.float32),
    ])
    with np.errstate(over="ignore"):  # values past 65504 overflow to inf
        got = vals.astype(np.float16).view(np.uint16)
    want = np.asarray([f32_to_f16_bits(v) for v in vals], dtype=np.uint16)
    assert np.array_equal(got, want)


def test_quantize_bundle_targets_and_lineage():
    bundle = init_model(LmConfig(d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq=16))
    q = quantize_bundle(bundle, QuantSpec(8))
    assert q.lineage.precision_bits == 8
    n_scales = 0
    rows = 0
    for name, t in q.tensors.items():
        if default_target_filter(name):
            assert isinstance(t, QuantizedTensor)
            n_scales += t.scales.size
            rows += t.shape[0]
        else:
            assert isinstance(t, np.ndarray) and t.dtype == np.float32
    assert n_scales == rows

    with pytest.raises(QuantError):
        quantize_bundle(q, QuantSpec(4))  # already quantized

    q32 = quantize_bundle(bundle, QuantSpec(32))
    assert np.array_equal(q32.tensors["layers.0.attn.wq"], bundle.tensors["layers.0.attn.wq"])

    assert payload_bytes(quantize_bundle(bundle, QuantSpec(4))) < payload_bytes(
        quantize_bundle(bundle, QuantSpec(16))
    )


def test_weight_matrix_set_is_pinned():
    # 12 layers, so a "layers.1" prefix that also matched "layers.10" would show
    cfg = LmConfig(d_model=4, n_layers=12, n_heads=1, d_ff=4, max_seq=4, vocab_size=4)
    want = {f"layers.{i}.{m}" for i in range(12) for m in WEIGHT_MATRICES}
    assert len(want) == 72
    assert {n for n in cfg.tensor_shapes() if default_target_filter(n)} == want

    bundle = init_model(cfg)
    assert set(init_adapters(cfg, rank=1).a) == want
    quantized = quantize_bundle(bundle, QuantSpec(8))
    assert {n for n, t in quantized.tensors.items() if isinstance(t, QuantizedTensor)} == want
    for spec in (PruneSpec("unstructured-magnitude", ratio=0.5),
                 PruneSpec("structured-nm", n=2, m=4)):
        assert set(build_mask(bundle, spec)) == want


def test_nonfinite_rejected():
    with pytest.raises(QuantError):
        quantize(np.asarray([[np.nan]], np.float32), QuantSpec(8))
