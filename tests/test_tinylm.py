import dataclasses

import numpy as np
import pytest

from ealm import tinylm
from ealm.data import generate_synthetic_corpus
from ealm.prune import PruneSpec, prune_bundle
from ealm.quant import QuantSpec, dequantize, quantize, quantize_bundle
from ealm.tensors import LmConfig, ModelBundle, payload_bytes
from ealm.tinylm import (
    BOS_ID,
    EOS_ID,
    SEP_BYTE,
    KvCache,
    LmError,
    TinyLm,
    encode_example,
    encode_prompt,
    greedy_decode,
    init_adapters,
    init_model,
    merge_adapters,
    train_epoch,
)

import oracles
from oracles import bundles_equal, evaluation_loss

CFG = LmConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq=64, init_seed=1)


def small_setup(rank=4, alpha=8.0, cfg=CFG):
    bundle = init_model(cfg)
    adapters = init_adapters(cfg, rank=rank, alpha=alpha, seed=1)
    seqs = [encode_example("fault e01 link", "reset card 2"),
            encode_example("fault e02 cpu", "patch node 1")]
    return bundle, adapters, seqs


def test_init_deterministic_and_shapes():
    a = init_model(CFG)
    b = init_model(CFG)
    assert bundles_equal(a, b)
    a.validate()
    assert a.tensors["tok_emb"].shape == (CFG.vocab_size, CFG.d_model)
    # layer norm has no gain or bias: the bundle holds exactly the config's tensors
    assert list(a.tensors) == list(CFG.tensor_shapes())
    assert not [n for n in a.tensors if n.endswith((".g", ".b"))]

    other = init_model(dataclasses.replace(CFG, init_seed=2))
    assert not np.array_equal(other.tensors["tok_emb"], a.tensors["tok_emb"])


def test_forward_shape_and_zero_adapter_equivalence():
    bundle, adapters, seqs = small_setup()
    model = TinyLm(bundle)
    logits = model.forward_cached(seqs[0], adapters)[0]
    assert logits.shape == (len(seqs[0]), CFG.vocab_size)
    assert np.isfinite(logits).all()
    # B starts at zero, so the adapter path must match the base exactly
    assert np.array_equal(logits, model.forward_cached(seqs[0], None)[0])

    one = model.forward_cached([tinylm.BOS_ID], None)[0]
    assert one.shape == (1, CFG.vocab_size)


def test_forward_input_validation():
    bundle, _, _ = small_setup()
    model = TinyLm(bundle)
    with pytest.raises(LmError):
        model.forward_cached(list(range(CFG.max_seq + 1)), None)
    with pytest.raises(LmError):
        model.forward_cached([999], None)
    # a non-integer id is refused, not truncated (65.9 would read as 65) or read as
    # 0/1, also a bool among ints
    for tokens in ([BOS_ID, 65.9], [65.0], [True], np.array([BOS_ID, 65], np.float32),
                   [BOS_ID, True], [True, 65], [BOS_ID, np.True_]):
        with pytest.raises(LmError, match="must be integers"):
            model.forward_cached(tokens, None)
        with pytest.raises(LmError, match="must be integers"):
            model.forward_cached(tokens, None, KvCache())
    with pytest.raises(LmError, match="empty token sequence"):
        model.forward_cached([], None)
    assert np.array_equal(model.forward_cached(np.array([BOS_ID, 65], np.int32), None)[0],
                          model.forward_cached([BOS_ID, 65], None)[0])


def test_softmax_rows_sum_to_one():
    bundle, _, seqs = small_setup()
    model = TinyLm(bundle)
    logits, cache = model.forward_cached(seqs[0])
    for lc in cache["layers"]:
        sums = lc["probs"].sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-5)


def test_train_zero_lr_keeps_adapters_and_reports_eval_loss():
    bundle, adapters, seqs = small_setup()
    model = TinyLm(bundle)
    new, loss = train_epoch(model, adapters, seqs, lr=0.0)
    for n in adapters.a:
        assert np.array_equal(new.a[n], adapters.a[n])
        assert np.array_equal(new.b[n], adapters.b[n])
    assert loss == pytest.approx(evaluation_loss(model, seqs, adapters), rel=1e-12)


def test_frozen_base_after_training():
    bundle, adapters, seqs = small_setup()
    before = {n: t.tobytes() for n, t in bundle.tensors.items()}
    model = TinyLm(bundle)
    for _ in range(3):
        adapters, _ = train_epoch(model, adapters, seqs, lr=0.05)
    assert {n: t.tobytes() for n, t in bundle.tensors.items()} == before


def test_loss_decreases_over_epochs():
    bundle, adapters, seqs = small_setup(rank=8, alpha=16)
    model = TinyLm(bundle)
    losses = []
    for _ in range(5):
        adapters, loss = train_epoch(model, adapters, seqs, lr=0.05)
        losses.append(loss)
    assert losses[4] < losses[0]


def test_adapter_gradients_match_finite_differences():
    bundle, start, seqs = small_setup()
    model = TinyLm(bundle)
    for seq in seqs:
        # one step so B is nonzero and A receives gradient
        _, grads = model.loss_and_grads(seq, start)
        adapters = start.step(grads, 0.5)
        _, grads = model.loss_and_grads(seq, adapters)

        # check the globally largest-gradient coordinates: central differences
        # on a float32 forward pass are too noisy for near-zero entries
        h = 1e-3
        coords = []
        for name in adapters.a:
            for which in (0, 1):
                g = grads[name][which]
                for idx in np.argsort(-np.abs(g), axis=None)[:4]:
                    i, j = np.unravel_index(idx, g.shape)
                    coords.append((abs(g[i, j]), name, which, i, j))
        coords.sort(reverse=True)
        checked = 0
        for _, name, which, i, j in coords[:24]:
            arr = (adapters.a if which == 0 else adapters.b)[name]
            g = grads[name][which]
            orig = arr[i, j]
            arr[i, j] = orig + h
            lp = evaluation_loss(model, [seq], adapters)
            arr[i, j] = orig - h
            lm = evaluation_loss(model, [seq], adapters)
            arr[i, j] = orig
            fd = (lp - lm) / (2 * h)
            a = g[i, j]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
            assert rel < 1e-2, f"{name}[{i},{j}]: analytic {a} vs fd {fd}"
            checked += 1
        assert checked >= 20


def gelu_reference(x):
    """float64 tanh-GELU, powers written with np.power."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * np.power(x, 3))))


def test_gelu_and_its_grad_match_float64_reference():
    x = np.linspace(-10.0, 10.0, 2001).astype(np.float32)
    assert np.count_nonzero(x == 0) == 1
    g, t = tinylm._gelu(x)
    assert g.dtype == t.dtype == np.float32
    np.testing.assert_allclose(g, gelu_reference(x), rtol=1e-5, atol=1e-6)
    h = 1e-4
    x64 = x.astype(np.float64)
    central = (gelu_reference(x64 + h) - gelu_reference(x64 - h)) / (2 * h)
    # Near |x| = 5.4 the float32 tanh sits one ulp from -1 or 1, so 1 - t*t
    # is off by ~1.2e-7 and the grad, which scales it by ~10, by ~1.2e-6
    # (the x**3 form of the grad reads the same there).
    np.testing.assert_allclose(tinylm._gelu_grad(x, t), central, rtol=1e-5, atol=2e-6)


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_low_rank_grads_match_dense_float64_oracle(n_layers):
    # one layer is both the first and the last the backward pass reaches
    cfg = dataclasses.replace(CFG, n_layers=n_layers)
    assert cfg.d_ff > cfg.d_model  # w1 and w2 are not square
    model, adapters, seqs = trained_setup(quantize_bundle(init_model(cfg), QuantSpec(4)), cfg)
    assert all(t.dtype == np.float32 for t in (*adapters.a.values(), *adapters.b.values()))
    assert len(adapters.a) == 6 * n_layers
    s = adapters.scaling
    for seq in seqs:
        _, grads = model.loss_and_grads(seq, adapters)
        assert set(grads) == set(adapters.a)  # a pair for every factor, layer 0's too
        # Oracle: the sequence's (input, output gradient) pairs, contracted in
        # float64 through the dense p x q dL/dW_eff.
        logits, cache = model.forward_cached(seq, adapters)
        dlogits = np.zeros(logits.shape, dtype=np.float64)
        dlogits[:-1] = tinylm._softmax(logits[:-1].astype(np.float64))
        dlogits[np.arange(len(seq) - 1), seq[1:]] -= 1.0
        dlogits = (dlogits / (len(seq) - 1)).astype(np.float32)
        want = {}
        for name, (inp, dout) in model._backward_io(dlogits, cache).items():
            dw = inp.astype(np.float64).T @ dout.astype(np.float64)
            want[name] = (s * (dw @ adapters.b[name].astype(np.float64).T),
                          s * (adapters.a[name].astype(np.float64).T @ dw))
        assert set(want) == set(adapters.a)
        for name, (da, db) in grads.items():
            for got, ref in ((da, want[name][0]), (db, want[name][1])):
                np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-6 * np.abs(ref).max(),
                                           err_msg=name)


def test_train_epoch_is_bit_identical_from_one_state():
    model, adapters, seqs = trained_setup()
    one, loss_one = train_epoch(model, adapters, seqs, lr=0.05)
    two, loss_two = train_epoch(model, adapters, seqs, lr=0.05)
    assert loss_one == loss_two
    for n in adapters.a:
        assert one.a[n].tobytes() == two.a[n].tobytes()
        assert one.b[n].tobytes() == two.b[n].tobytes()


def test_greedy_decode_contract():
    bundle, adapters, _ = small_setup()
    model = TinyLm(bundle)
    prompt = encode_prompt("fault e01 link")
    assert greedy_decode(model, adapters, prompt, 0) == prompt
    a = greedy_decode(model, adapters, prompt, 8)
    b = greedy_decode(TinyLm(bundle), adapters, prompt, 8)
    assert a == b
    with pytest.raises(LmError):
        greedy_decode(model, adapters, [], 4)
    # generation stops once the sequence fills max_seq
    near_full = [BOS_ID] + [SEP_BYTE] * (CFG.max_seq - 3)
    assert len(greedy_decode(model, adapters, near_full, 10)) == CFG.max_seq
    full = [BOS_ID] * CFG.max_seq
    assert greedy_decode(model, adapters, full, 4) == full
    with pytest.raises(LmError):
        greedy_decode(model, adapters, full + [BOS_ID], 4)


def trained_setup(bundle=None, cfg=CFG):
    """A model and adapters after three training epochs, so B is nonzero."""
    base, adapters, seqs = small_setup(cfg=cfg)
    model = TinyLm(bundle or base)
    for _ in range(3):
        adapters, _ = train_epoch(model, adapters, seqs, lr=0.05)
    assert all(np.any(b != 0) for b in adapters.b.values())
    return model, adapters, seqs


def test_kv_cache_chunks_match_full_forward(monkeypatch):
    model, trained, seqs = trained_setup()
    seq = seqs[0]
    n_prompt = seq.index(SEP_BYTE) + 1
    bounds = [0, n_prompt, n_prompt + 1, n_prompt + 2, n_prompt + 5]
    steps_at = (1, n_prompt, len(seq) - 1)

    def step(adapters, n):
        kv = KvCache()
        model.forward_cached(seq[:n], adapters, kv)
        return model.forward_cached(seq[n:n + 1], adapters, kv)[0]

    steps = {}
    for adapters in (trained, None):
        full = model.forward_cached(seq, adapters)[0]
        kv = KvCache()
        for lo, hi in zip(bounds, bounds[1:]):
            logits, _ = model.forward_cached(seq[lo:hi], adapters, kv)
            assert kv.length == hi
            np.testing.assert_allclose(logits, full[lo:hi], rtol=1e-5, atol=1e-6)
        for n in steps_at:
            steps[adapters is None, n] = step(adapters, n)
            np.testing.assert_allclose(steps[adapters is None, n], full[n:n + 1],
                                       rtol=1e-5, atol=1e-6)

    # A one-token step adds no causal mask. Its logits must keep every bit of
    # the step that adds the (all-zero) mask and uses the ndarray-method
    # layernorm and softmax. (They match the full forward's row only to
    # rounding: the attention scores of one row and of T rows differ in the
    # last bits.)
    def masked_softmax(scores):
        T, S = scores.shape[-2:]
        return oracles.softmax(scores + np.triu(np.full((T, S), -1e9, dtype=np.float32),
                                                k=S - T + 1))

    monkeypatch.setattr(tinylm, "_softmax", masked_softmax)
    monkeypatch.setattr(tinylm, "_layernorm", unit_layernorm)
    for adapters in (trained, None):
        for n in steps_at:
            assert np.array_equal(steps[adapters is None, n], step(adapters, n))


def unit_layernorm(x):
    """`oracles.layernorm` at gain 1 and bias 0, where every model holds them."""
    return oracles.layernorm(x, np.ones(x.shape[-1], np.float32),
                             np.zeros(x.shape[-1], np.float32))


@pytest.mark.parametrize("shape", [(1, 32), (17, 32), (9, 128), (2, 5, 7), (1, 48), (1, 128)])
def test_layernorm_and_softmax_keep_the_ndarray_method_bits(shape):
    rng = np.random.default_rng(sum(shape))
    for scale in (1e-3, 1.0, 50.0):
        x = (rng.standard_normal(shape) * scale + rng.uniform(-3, 3)).astype(np.float32)
        dy = rng.standard_normal(shape).astype(np.float32)
        y, (xhat, inv) = tinylm._layernorm(x)
        y_ref, cache_ref = unit_layernorm(x)
        xhat_ref, inv_ref, _ = cache_ref
        assert y.dtype == inv.dtype == np.float32
        assert np.array_equal(y, y_ref) and np.array_equal(xhat, xhat_ref)
        # a one-row x (a decode step) keeps its inverse scale as a scalar
        assert np.shape(inv) == (() if shape[0] == 1 and len(shape) == 2 else inv_ref.shape)
        assert np.array_equal(np.reshape(inv, inv_ref.shape), inv_ref)
        assert np.array_equal(tinylm._layernorm_backward(dy, (xhat, inv)),
                              oracles.layernorm_backward(dy, cache_ref))
        assert np.array_equal(tinylm._softmax(x * 10), oracles.softmax(x * 10))


def test_kv_cache_rejects_overflow_and_keeps_its_state():
    model = TinyLm(init_model(CFG))
    kv = KvCache()
    model.forward_cached([BOS_ID] * (CFG.max_seq - 1), None, kv)
    with pytest.raises(LmError):
        model.forward_cached([SEP_BYTE, SEP_BYTE], None, kv)
    assert kv.length == CFG.max_seq - 1
    assert model.forward_cached([SEP_BYTE], None, kv)[0].shape == (1, CFG.vocab_size)
    assert kv.length == CFG.max_seq


def test_no_result_is_overwritten_by_a_later_step_or_call():
    """Decode reuses its buffers and works on temporaries in place: a step's
    logits, a second decode, the weights and the adapters must not see it."""
    model, adapters, seqs = trained_setup()
    weights = {n: t.tobytes() for n, t in model.w.items()}
    factors = [t.tobytes() for t in (*adapters.a.values(), *adapters.b.values())]
    prompt = encode_prompt("fault e01 link")
    kv = KvCache()
    held = [model.forward_cached(prompt, adapters, kv)[0]]
    copies = [held[0].copy()]
    for tok in (SEP_BYTE, BOS_ID, 65):
        held.append(model.forward_cached([tok], adapters, kv)[0])
        copies.append(held[-1].copy())
    assert all(np.array_equal(h, c) for h, c in zip(held, copies))
    first = greedy_decode(model, adapters, prompt, 24)
    assert greedy_decode(model, adapters, prompt, 24) == first
    assert greedy_decode(TinyLm(init_model(CFG)), adapters, prompt, 24) == first
    assert {n: t.tobytes() for n, t in model.w.items()} == weights
    assert [t.tobytes() for t in (*adapters.a.values(), *adapters.b.values())] == factors
    train_epoch(model, adapters, seqs, lr=0.05)
    assert {n: t.tobytes() for n, t in model.w.items()} == weights
    assert [t.tobytes() for t in (*adapters.a.values(), *adapters.b.values())] == factors


def reference_decode(model, adapters, prompt, max_new):
    """Greedy decoding that runs the whole sequence through the model each step."""
    seq = list(prompt)
    for _ in range(max_new):
        if len(seq) >= model.config.max_seq:
            break
        nxt = int(np.argmax(model.forward_cached(seq, adapters)[0][-1]))
        seq.append(nxt)
        if nxt == EOS_ID:
            break
    return seq


def test_greedy_decode_matches_full_sequence_reference():
    base, _, _ = small_setup()
    q4_model, q4_adapters, _ = trained_setup(quantize_bundle(base, QuantSpec(4)))
    _, adapters, _ = trained_setup()
    merged = merge_adapters(base, adapters)
    pruned = prune_bundle(merged, PruneSpec("structured-nm", n=2, m=4))
    cases = [(q4_model, q4_adapters), (TinyLm(merged), None), (TinyLm(pruned), None)]
    prompts = [encode_prompt("fault e01 link"), encode_prompt("fault e02 cpu")]
    for model, ads in cases:
        for prompt in prompts:
            got = greedy_decode(model, ads, prompt, 40)
            assert len(got) > len(prompt) + 1
            assert got == reference_decode(model, ads, prompt, 40)


@pytest.mark.parametrize("stop", ["eos", "max_new", "max_seq"])
def test_greedy_decode_runs_each_position_once(monkeypatch, stop):
    model, adapters, _ = trained_setup()
    positions = []
    real = TinyLm.forward_cached

    def counting(self, tokens, *args, **kwargs):
        positions.append(len(tokens))
        logits, cache = real(self, tokens, *args, **kwargs)
        if stop == "eos" and len(positions) == 4:
            logits[-1, EOS_ID] = logits.max() + 1.0
        return logits, cache

    monkeypatch.setattr(TinyLm, "forward_cached", counting)
    prompt = encode_prompt("fault e01 link")
    if stop == "max_seq":
        prompt = prompt + [SEP_BYTE] * (CFG.max_seq - 3 - len(prompt))
    out = greedy_decode(model, adapters, prompt, 5)
    generated = out[len(prompt):]
    assert len(generated) == {"eos": 4, "max_new": 5, "max_seq": 3}[stop]
    assert (generated[-1] == EOS_ID) == (stop == "eos")
    assert sum(positions) == len(prompt) + len(generated) - 1


def test_merge_adapters_equivalence():
    bundle, adapters, seqs = small_setup()
    model = TinyLm(bundle)
    for _ in range(3):
        for seq in seqs:
            _, grads = model.loss_and_grads(seq, adapters)
            adapters = adapters.step(grads, 0.1)
    merged = merge_adapters(bundle, adapters)
    for name in adapters.a:  # at 32 bits, the float32 sum itself
        want = (bundle.tensors[name]
                + adapters.scaling * (adapters.a[name] @ adapters.b[name])).astype(np.float32)
        got = merged.tensors[name]
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    la = model.forward_cached(seqs[0], adapters)[0]
    lm = TinyLm(merged).forward_cached(seqs[0], None)[0]
    assert np.abs(la - lm).max() <= 1e-5

    zeroed = init_adapters(CFG, rank=4, alpha=8, seed=1)  # B == 0
    same = merge_adapters(bundle, zeroed)
    assert bundles_equal(
        same, merge_adapters(same, zeroed)
    )
    assert np.array_equal(same.tensors["layers.0.attn.wq"], bundle.tensors["layers.0.attn.wq"])


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_merge_keeps_the_base_width(bits):
    _, adapters, _ = trained_setup()
    base = quantize_bundle(small_setup()[0], QuantSpec(bits))
    merged = merge_adapters(base, adapters)
    assert payload_bytes(merged) == payload_bytes(base)

    def delta(name):
        return adapters.scaling * (adapters.a[name] @ adapters.b[name])

    want = ModelBundle(
        tensors={name: quantize(dequantize(t) + delta(name), QuantSpec(bits))
                 if name in adapters.a else t for name, t in base.tensors.items()},
        config=base.config, lineage=base.lineage)
    assert bundles_equal(merged, want)
    for name in adapters.a:
        assert type(merged.tensors[name]) is type(base.tensors[name])
        exact = dequantize(base.tensors[name]) + delta(name)
        err = np.abs(dequantize(merged.tensors[name]) - exact)
        if bits == 16:  # round to nearest binary16: half an ulp, 2**-11 relative
            assert np.all(err <= np.abs(exact) * 2.0**-11 + 2.0**-25)
        else:  # round to the nearest code: half a step of the row's scale
            step = merged.tensors[name].scales[:, None]
            assert np.all(err <= step / 2 * (1 + 1e-6))
        assert not np.array_equal(dequantize(merged.tensors[name]),
                                  dequantize(base.tensors[name]))


def test_training_divergence_error():
    bundle, adapters, seqs = small_setup()
    model = TinyLm(bundle)
    # once any adapter factor goes non-finite the pass loss does too, and the
    # trainer must fail loudly instead of averaging nan into the record
    name = next(iter(adapters.a))
    adapters.a[name][0, 0] = np.nan
    with pytest.raises(tinylm.DivergenceError):
        train_epoch(model, adapters, seqs, lr=0.05)


def test_memorization_smoke():
    recs = generate_synthetic_corpus(seed=7, n_records=8, grammar_size=4)
    cfg = LmConfig(d_model=32, n_layers=2, n_heads=4, d_ff=128, max_seq=64, init_seed=7)
    bundle = init_model(cfg)
    model = TinyLm(bundle)
    adapters = init_adapters(cfg, rank=16, alpha=32, seed=7)
    seqs = [encode_example(r.prompt, r.reference) for r in recs]
    for _ in range(30):
        adapters, _ = train_epoch(model, adapters, seqs, lr=0.05)
    hits = 0
    for r in recs:
        p = encode_prompt(r.prompt)
        out = greedy_decode(model, adapters, p, 24)
        hits += tinylm.decode_ids(out[len(p):]) == r.reference
    assert hits >= 6
