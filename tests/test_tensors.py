import numpy as np
import pytest

from ealm.quant import QuantSpec, quantize, quantize_bundle
from ealm.tensors import (
    BundleError,
    QMAX,
    Lineage,
    LmConfig,
    ModelBundle,
    QuantizedTensor,
    load_bundle,
    payload_bytes,
    read_tensors,
    save_bundle,
    tensor_payload_bytes,
    write_tensors,
)
from ealm.tinylm import init_model

from oracles import bundles_equal


def tiny_bundle():
    """One hand-written tensor `w`, and not the tensors its config names: it
    saves, but loading refuses it."""
    t = np.asarray([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32)
    cfg = LmConfig(d_model=2, n_layers=1, n_heads=1, d_ff=2, max_seq=4, vocab_size=3)
    return ModelBundle(tensors={"w": t}, config=cfg, lineage=Lineage())


def test_roundtrip_single_tensor(tmp_path):
    w = tiny_bundle()
    b = init_model(w.config)
    b.tensors["head"] = w.tensors["w"]  # head is (d_model, vocab_size) = (2, 3)
    path = tmp_path / "b.ealm"
    save_bundle(b, path)
    loaded = load_bundle(path)
    assert loaded.tensors["head"].tobytes() == b.tensors["head"].tobytes()
    assert bundles_equal(b, loaded)


def test_roundtrip_full_model(tmp_path):
    bundle = init_model(LmConfig(d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq=16))
    path = tmp_path / "m.ealm"
    save_bundle(bundle, path)
    assert bundles_equal(bundle, load_bundle(path))


def test_roundtrip_quantized(tmp_path):
    bundle = init_model(LmConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq=16))
    for bits in (4, 8, 16):
        q = quantize_bundle(bundle, QuantSpec(bits))
        path = tmp_path / f"q{bits}.ealm"
        save_bundle(q, path)
        assert bundles_equal(q, load_bundle(path))

    # A matrix is written with granularity byte 1 and a scale per row. A file
    # with one per-tensor scale under byte 0, or with any other byte, is
    # corrupt and the error names the tensor.
    name = "layers.0.attn.wq"
    codes = (np.arange(64).reshape(8, 8) % 15 - 7).astype(np.int8)
    gran_at = 4 + 6 + 2 + len(name) + 2 + 2 * 8 + 8  # of the first tensor
    for bits in (4, 8):
        q = quantize_bundle(bundle, QuantSpec(bits))
        path = tmp_path / f"per-tensor{bits}.ealm"
        for scales in (q.tensors[name].scales, np.float32([0.25])):
            q.tensors = {name: QuantizedTensor((8, 8), bits, codes, scales),
                         **{n: t for n, t in q.tensors.items() if n != name}}
            save_bundle(q, path)
            data = bytearray(path.read_bytes())
            assert data[gran_at] == 1
            for gran in (0, 2):
                data[gran_at] = gran
                path.write_bytes(bytes(data))
                with pytest.raises(BundleError, match=name):
                    load_bundle(path)


def test_container_roundtrip_and_meta_object(tmp_path):
    path = tmp_path / "c.ealm"
    w = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_tensors(path, {"w": w, "h": w.astype(np.float16)}, {"rank": 1})
    tensors, meta = read_tensors(path)
    assert list(tensors) == ["w", "h"] and meta == {"rank": 1}
    assert tensors["w"].tobytes() == w.tobytes() and tensors["h"].dtype == np.float16
    write_tensors(path, {}, [1])  # the metadata must be a JSON object
    with pytest.raises(BundleError, match="not a JSON object") as e:
        read_tensors(path)
    assert str(path) in str(e.value)


def test_empty_tensor_map(tmp_path):
    b = tiny_bundle()
    b.tensors = {}
    path = tmp_path / "e.ealm"
    save_bundle(b, path)
    with pytest.raises(BundleError, match="missing tensors") as e:
        load_bundle(path)
    assert str(path) in str(e.value)


def test_bad_magic(tmp_path):
    b = tiny_bundle()
    path = tmp_path / "b.ealm"
    save_bundle(b, path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(BundleError):
        load_bundle(path)


def test_truncated_payload_names_tensor(tmp_path):
    b = tiny_bundle()
    path = tmp_path / "b.ealm"
    save_bundle(b, path)
    data = path.read_bytes()
    # header is 39 bytes for this bundle; cut inside the 24-byte f32 payload
    path.write_bytes(data[:50])
    with pytest.raises(BundleError, match="tensor 'w'"):
        load_bundle(path)


def test_duplicate_names_rejected():
    cfg = LmConfig(d_model=2, n_layers=1, n_heads=1, d_ff=2, max_seq=4, vocab_size=4)
    bundle = init_model(cfg)
    bundle.tensors["tok_emb"] = bundle.tensors["tok_emb"]  # dict keys cannot dup;
    # validate() catches the other direction: a missing required tensor
    del bundle.tensors["head"]
    with pytest.raises(BundleError):
        bundle.validate()

    # a matrix's scales must be one per row
    q = quantize_bundle(init_model(cfg), QuantSpec(8))
    t = q.tensors["layers.0.attn.wq"]
    q.validate()
    for n in (1, 3):
        q.tensors["layers.0.attn.wq"] = QuantizedTensor(t.shape, 8, t.codes,
                                                        np.ones(n, np.float32))
        with pytest.raises(BundleError, match=f"{n} scales for 2 rows"):
            q.validate()


WQ = "layers.0.attn.wq"


@pytest.mark.parametrize("bits, name, store, match", [
    (32, "junk", np.ones((2, 2), np.float32), r"not in the config: \['junk'\]"),
    (4, "tok_emb", 4, "'tok_emb': 4-bit codes in a 4-bit bundle, not float32"),
    (16, "head", 16, "'head': float16 in a 16-bit bundle, not float32"),
    (32, WQ, 16, f"'{WQ}': float16 in a 32-bit bundle, not float32"),
    (16, WQ, 32, f"'{WQ}': float32 in a 16-bit bundle, not float16"),
    (4, WQ, 8, f"'{WQ}': 8-bit codes in a 4-bit bundle, not 4-bit codes"),
], ids=["junk", "4-bit-tok-emb", "f16-head", "f16-matrix-at-32",
        "f32-matrix-at-16", "8-bit-matrix-at-4"])
def test_load_refuses_what_quantize_bundle_does_not_write(tmp_path, bits, name, store, match):
    """A bundle holds exactly its config's tensors, each stored as
    quantize_bundle stores it at the lineage's width: a weight matrix as
    float32, float16 or codes of that width, every other tensor as float32."""
    bundle = quantize_bundle(init_model(LmConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16,
                                                 max_seq=16)), QuantSpec(bits))
    if isinstance(store, int):
        store = quantize(init_model(bundle.config).tensors[name], QuantSpec(store))
    bundle.tensors[name] = store
    path = tmp_path / "b.ealm"
    save_bundle(bundle, path)
    with pytest.raises(BundleError, match=match) as e:
        load_bundle(path)
    assert str(path) in str(e.value)


@pytest.mark.parametrize("bits, damage, match", [
    (4, "scale-nan", "a scale that is not finite and > 0"),
    (8, "scale-inf", "a scale that is not finite and > 0"),
    (4, "scale-zero", "a scale that is not finite and > 0"),
    (8, "scale-negative", "a scale that is not finite and > 0"),
    (4, "code-below", r"a code outside \[-7, 7\]"),
    (8, "code-below", r"a code outside \[-127, 127\]"),
])
def test_load_refuses_scales_and_codes_quantize_does_not_write(tmp_path, bits, damage, match):
    """`quantize` writes scales that are finite and > 0 (an all-zero row gets
    1) and clips codes to [-qmax, qmax]; a NaN scale would make every logit
    NaN."""
    bundle = quantize_bundle(init_model(LmConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16,
                                                 max_seq=16)), QuantSpec(bits))
    t = bundle.tensors[WQ]
    if damage == "code-below":
        t.codes[1, 2] = -QMAX[bits] - 1
    else:
        t.scales[1] = {"scale-nan": np.nan, "scale-inf": np.inf, "scale-zero": 0.0,
                       "scale-negative": -t.scales[1]}[damage]
    path = tmp_path / "b.ealm"
    save_bundle(bundle, path)
    with pytest.raises(BundleError, match=f"'{WQ}': {match}") as e:
        load_bundle(path)
    assert str(path) in str(e.value)


def test_payload_bytes_examples():
    t = np.zeros((2, 3), dtype=np.float32)
    assert tensor_payload_bytes(t) == 24
    assert tensor_payload_bytes(t.astype(np.float16)) == 12
    q4 = quantize(np.asarray([[1.0, -2.0, 3.0], [0.5, 0.25, -1.0]], np.float32),
                  QuantSpec(4))
    assert tensor_payload_bytes(q4) == 3 + 2 * 4  # ceil(6/2) + one f32 scale per row


def test_size_monotonicity():
    bundle = init_model(LmConfig(d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq=16))
    sizes = {bits: payload_bytes(quantize_bundle(bundle, QuantSpec(bits)))
             for bits in (4, 8, 16, 32)}
    assert sizes[4] < sizes[8] < sizes[16] < sizes[32]


def test_4bit_code_payload_is_exactly_one_eighth():
    rng = np.random.default_rng(0)
    t = rng.normal(size=(16, 32)).astype(np.float32)
    q = quantize(t, QuantSpec(4))
    code_bytes = tensor_payload_bytes(q) - 4 * q.scales.size
    assert code_bytes == (4 * t.size) // 8
