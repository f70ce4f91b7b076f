import numpy as np
import pytest

from ealm.quant import (
    QuantError,
    QuantSpec,
    default_target_filter,
    dequantize,
    quant_error,
    quantize,
    quantize_bundle,
)
from ealm.tensors import LmConfig, QuantizedTensor, payload_bytes
from ealm.tinylm import init_model

from f16_oracle import f32_to_f16_bits


def test_8bit_per_tensor_derived_vector():
    t = np.asarray([-1.0, 0.5, 0.25, 1.0], dtype=np.float32)
    q = quantize(t, QuantSpec(8, granularity="per-tensor"))
    assert q.scales.shape == (1,)
    assert q.scales[0] == np.float32(1.0 / 127.0)
    assert q.codes.tolist() == [-127, 64, 32, 127]


def test_all_zero_4bit_convention():
    q = quantize(np.zeros(5, dtype=np.float32), QuantSpec(4, granularity="per-tensor"))
    assert q.scales.tolist() == [1.0]
    assert not q.codes.any()


def test_32bit_identity():
    t = np.asarray([1.5, -2.25], dtype=np.float32)
    out = quantize(t, QuantSpec(32))
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, t)
    assert quant_error(t, QuantSpec(32))["max_abs_err"] == 0.0


def test_dequantize_examples():
    q = QuantizedTensor((2,), 8, np.asarray([127, 64], np.int8),
                        np.asarray([1.0 / 127.0], np.float32), "per-tensor")
    out = dequantize(q)
    assert out[0] == pytest.approx(1.0, abs=1e-7)
    assert out[1] == pytest.approx(64.0 / 127.0, abs=1e-7)


def test_quant_error_mse_oracle():
    t = np.asarray([-1.0, 0.5, 0.25, 1.0], dtype=np.float32)
    err = quant_error(t, QuantSpec(8, granularity="per-tensor"))
    # brute force in float64 with the stated rounding rule
    scale = np.float32(1.0 / 127.0)
    codes = np.asarray([-127, 64, 32, 127], np.float64)
    back = codes * float(scale)
    expect_mse = float(np.mean((back - t.astype(np.float64)) ** 2))
    assert err["mse"] == pytest.approx(expect_mse, rel=1e-9)
    assert err["max_abs_err"] <= float(scale) / 2 + 1e-12


def test_roundtrip_error_bound_and_symmetry():
    rng = np.random.default_rng(3)
    for bits in (4, 8):
        for _ in range(50):
            t = rng.normal(scale=rng.uniform(0.01, 10), size=(8, 8)).astype(np.float32)
            spec = QuantSpec(bits, granularity="per-row")
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
    q = quantize_bundle(bundle, QuantSpec(8, granularity="per-row"))
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


def test_nonfinite_rejected():
    with pytest.raises(QuantError):
        quantize(np.asarray([np.nan], np.float32), QuantSpec(8))
