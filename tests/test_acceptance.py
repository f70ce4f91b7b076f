"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

The PASS/FAIL lines are written to the real stdout so they survive pytest's
capture and show up in plain test logs.
"""

import csv
import functools
import json
import math
import sys

import numpy as np
import pytest

from ealm import pipeline as pl
from ealm import tinylm
from ealm.data import generate_synthetic_corpus, save_jsonl
from ealm.meter import Meter, MeterConfig, PowerSample, combine_reports, counter_delta, integrate
from ealm.metrics import corpus_bleu, cosine, meteor, rouge_l, rouge_n
from ealm.prune import magnitude_mask, nm_mask
from ealm.quant import QuantSpec, dequantize, quantize, quantize_bundle
from ealm.rank import CandidateRecord, rank_score, select_top_k
from ealm.tensors import Lineage, LmConfig, payload_bytes, tensor_payload_bytes

from f16_oracle import f32_to_f16_bits
from oracles import evaluation_loss


def acceptance(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                sys.__stdout__.write(f"[acceptance {num}] {title}: FAIL\n")
                raise
            sys.__stdout__.write(f"[acceptance {num}] {title}: PASS\n")
        return wrapper
    return deco


# ---------------------------------------------------------------------------


@acceptance(1, "Eq. (1) ranking suite")
def test_criterion_1_eq1_suite():
    rng = np.random.default_rng(11)
    triples = rng.uniform(size=(1000, 3))
    for phi, rho, w in triples:
        assert abs(rank_score(phi, rho, w) - (w * phi + (1 - w) * rho)) <= 1e-12

    # boundary recoveries: w = 1 ranks purely by phi, w = 0 purely by rho
    recs = [CandidateRecord(id=f"c{i}", lineage=Lineage(), phi=float(p), rho=float(r))
            for i, (p, r, _) in enumerate(triples[:50])]
    for rec in recs:
        rec.r_score = rank_score(rec.phi, rec.rho, 1.0)
    by_phi = select_top_k(recs, 50)
    assert [r.id for r in by_phi] == [
        r.id for r in sorted(recs, key=lambda r: (-r.phi, float("inf"), r.id))]
    for rec in recs:
        rec.r_score = rank_score(rec.phi, rec.rho, 0.0)
    by_rho = select_top_k(recs, 50)
    assert [r.id for r in by_rho] == [
        r.id for r in sorted(recs, key=lambda r: (-r.rho, float("inf"), r.id))]

    # monotone in both arguments
    for phi, rho, w in triples[:200]:
        assert rank_score(min(phi + 0.05, 1), rho, w) >= rank_score(phi, rho, w) - 1e-12
        assert rank_score(phi, min(rho + 0.05, 1), w) >= rank_score(phi, rho, w) - 1e-12


@acceptance(2, "quantization oracle")
def test_criterion_2_quantization():
    rng = np.random.default_rng(12)
    for i in range(1000):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        t = (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3)).astype(np.float32)
        bits = 4 if i % 2 else 8
        q = quantize(t, QuantSpec(bits))
        back = dequantize(q)
        assert np.all(np.abs(back - t) <= q.scales.reshape(-1, 1) / 2 * (1 + 1e-6))

    # binary16 conversion bit-exact against an independent reference
    vals = np.concatenate([
        rng.normal(size=5000).astype(np.float32),
        (rng.normal(size=3000) * 10.0 ** rng.integers(-10, 8, size=3000)).astype(np.float32),
        rng.uniform(-70000, 70000, size=1991).astype(np.float32),
        np.asarray([0.0, -0.0, 65504.0, 65520.0, 2.0**-24, 2.0**-25,
                    -(2.0**-26), 1e-45, 5.960464477539063e-08], np.float32),
    ])
    assert vals.size == 10000
    with np.errstate(over="ignore"):
        got = vals.astype(np.float16).view(np.uint16)
    want = np.asarray([f32_to_f16_bits(v) for v in vals], np.uint16)
    assert np.array_equal(got, want)

    # 4-bit code payload is exactly 1/8 of the 32-bit payload
    t = rng.normal(size=(32, 64)).astype(np.float32)
    q4 = quantize(t, QuantSpec(4))
    code_bytes = tensor_payload_bytes(q4) - 4 * q4.scales.size
    assert code_bytes * 8 == tensor_payload_bytes(t)


@acceptance(3, "pruning oracle")
def test_criterion_3_pruning():
    rng = np.random.default_rng(13)
    for i in range(200):
        shape = (int(rng.integers(2, 10)), int(rng.integers(2, 10)))
        t = rng.normal(size=shape).astype(np.float32)
        if i % 4 == 0:  # inject ties
            flat = t.reshape(-1)
            flat[rng.integers(0, flat.size, size=flat.size // 3)] = 0.5
        ratio = float(rng.uniform(0.05, 0.95))
        mask = magnitude_mask(t, ratio)
        k = int(ratio * t.size)
        order = sorted(range(t.size), key=lambda j: (abs(t.flat[j]), -j))
        assert {j for j in range(t.size) if not mask.flat[j]} == set(order[:k])

    for n, m in ((2, 4), (4, 8), (1, 2)):
        t = rng.normal(size=(16, 4 * m)).astype(np.float32)
        mask = nm_mask(t, n, m)
        groups = mask.reshape(16, -1, m)
        assert np.all(groups.sum(axis=2) == n)  # exactly n kept per group

    t = rng.normal(size=(8, 32)).astype(np.float32)
    assert nm_mask(t, 2, 4).sum() == t.size // 2  # 2:4 = 0.5 exactly


@acceptance(4, "adapter gradient finite-difference check")
def test_criterion_4_gradients():
    cfg = LmConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq=64, init_seed=1)
    bundle = tinylm.init_model(cfg)
    model = tinylm.TinyLm(bundle)
    seqs = [tinylm.encode_example("fault e01 link", "reset card 2"),
            tinylm.encode_example("fault e02 cpu", "patch node 1")]
    start = tinylm.init_adapters(cfg, rank=4, alpha=8.0, seed=1)
    for seq in seqs:
        _, grads = model.loss_and_grads(seq, start)
        adapters = start.step(grads, 0.5)  # make B nonzero so A gets gradient
        _, grads = model.loss_and_grads(seq, adapters)

        coords = []
        for name in adapters.a:
            for which in (0, 1):
                g = grads[name][which]
                for idx in np.argsort(-np.abs(g), axis=None)[:4]:
                    i, j = np.unravel_index(idx, g.shape)
                    coords.append((abs(g[i, j]), name, which, i, j))
        coords.sort(reverse=True)
        h = 1e-3
        checked = 0
        for _, name, which, i, j in coords[:24]:
            arr = (adapters.a if which == 0 else adapters.b)[name]
            orig = arr[i, j]
            arr[i, j] = orig + h
            lp = evaluation_loss(model, [seq], adapters)
            arr[i, j] = orig - h
            lm = evaluation_loss(model, [seq], adapters)
            arr[i, j] = orig
            fd = (lp - lm) / (2 * h)
            g = grads[name][which][i, j]
            assert abs(g - fd) / max(abs(g), abs(fd), 1e-8) < 1e-2
            checked += 1
        assert checked >= 20


@acceptance(5, "metric oracles and bounds")
def test_criterion_5_metrics():
    # derived vectors
    assert corpus_bleu([("a b c d".split(), "a b c d e f g h".split())]) == pytest.approx(
        math.exp(-1.0), abs=1e-6)
    assert rouge_n("the cat sat".split(), "the cat".split(), 1) == pytest.approx(
        0.8, abs=1e-6)
    s = "reset card two".split()
    assert meteor(s, s) == pytest.approx(0.9814814814814815, abs=1e-6)
    assert meteor("a b c".split(), "c b a".split()) == pytest.approx(0.5, abs=1e-6)
    assert cosine("a a b".split(), "a b".split()) == pytest.approx(
        0.9486832980505138, abs=1e-6)

    rng = np.random.default_rng(15)
    vocab = "a b c d e".split()
    for _ in range(10000):
        c = [vocab[i] for i in rng.integers(0, 5, size=rng.integers(1, 8))]
        r = [vocab[i] for i in rng.integers(0, 5, size=rng.integers(1, 8))]
        vals = [corpus_bleu([(c, r)]), rouge_n(c, r, 1), rouge_l(c, r), meteor(c, r),
                cosine(c, r)]
        if len(c) > 1 and len(r) > 1:
            vals.append(rouge_n(c, r, 2))
        assert all(0.0 <= v <= 1.0 for v in vals)


@acceptance(6, "energy suite")
def test_criterion_6_energy():
    # trapezoid equals the closed form on linear ramps
    rng = np.random.default_rng(16)
    for _ in range(20):
        a, b = sorted(rng.uniform(0, 100, size=2))
        slope, icept = rng.uniform(0.1, 5), rng.uniform(0, 10)
        ts = np.sort(rng.uniform(a, b, size=50))
        ts[0], ts[-1] = a, b
        samples = [PowerSample(float(t), slope * float(t) + icept, "cpu") for t in ts]
        closed = slope * (b * b - a * a) / 2 + icept * (b - a)
        assert integrate(samples)["cpu"] == pytest.approx(closed, rel=1e-9)

    # wraparound-safe deltas stay non-negative on 1,000 synthetic pairs
    for _ in range(1000):
        mr = int(rng.integers(10, 10**12))
        prev, curr = int(rng.integers(0, mr)), int(rng.integers(0, mr))
        d = counter_delta(prev, curr, mr)
        assert d >= 0
        if curr >= prev:
            assert d == curr - prev

    # constant-power spans are exactly additive under a shared clock
    class Clock:
        t = 0.0
        def __call__(self):
            return self.t
    clock = Clock()
    cfg = MeterConfig(source="constant-power", constant_watts={"cpu": 7.0, "ram": 1.5})
    meter = Meter(cfg, clock=clock)
    parts = []
    for dt in (0.5, 1.25, 2.0, 0.125):
        meter.start_span()
        clock.t += dt
        parts.append(meter.stop_span())
    meter.start_span()
    clock.t += 3.875
    whole = meter.stop_span()
    assert combine_reports(parts).total_joules == whole.total_joules
    assert combine_reports(parts).co2e_kg == whole.co2e_kg


@acceptance(7, "training sanity and memorization")
def test_criterion_7_training():
    records = generate_synthetic_corpus(seed=7, n_records=16, grammar_size=4)
    cfg = LmConfig(d_model=32, n_layers=2, n_heads=4, d_ff=128, max_seq=64, init_seed=7)
    base32 = tinylm.init_model(cfg)
    seqs = [tinylm.encode_example(r.prompt, r.reference) for r in records]

    for bits in (32, 16):
        bundle = quantize_bundle(base32, QuantSpec(bits))
        model = tinylm.TinyLm(bundle)
        adapters = tinylm.init_adapters(cfg, rank=16, alpha=32.0, seed=7)
        losses = []
        for _ in range(5):
            adapters, loss = tinylm.train_epoch(model, adapters, seqs, lr=0.05)
            losses.append(loss)
        assert losses[4] < losses[0], f"{bits}-bit base did not learn"

    # memorization: after 30 epochs greedy decode reproduces >= 12/16 references
    model = tinylm.TinyLm(base32)
    adapters = tinylm.init_adapters(cfg, rank=16, alpha=32.0, seed=7)
    for _ in range(30):
        adapters, _ = tinylm.train_epoch(model, adapters, seqs, lr=0.05)
    hits = 0
    for r in records:
        p = tinylm.encode_prompt(r.prompt)
        out = tinylm.greedy_decode(model, adapters, p, 24)
        hits += tinylm.decode_ids(out[len(p):]) == r.reference
    assert hits >= 12, f"reproduced only {hits}/16 references"


def smoke_config(tmp_path, **overrides):
    train, evalp = tmp_path / "train.jsonl", tmp_path / "eval.jsonl"
    records = generate_synthetic_corpus(seed=0, n_records=8, grammar_size=4)
    save_jsonl(records, train)
    save_jsonl(records[:4], evalp)
    base = dict(
        bits_grid=[4, 16, 32], epochs_grid=[2], w=0.7, k=2,
        prune_ratios=[0.3, 0.5], nm_patterns=[[2, 4]],
        d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq=64,
        lora_rank=2, lora_alpha=4.0, lr=0.05, max_new_tokens=8,
        train_path=str(train), eval_path=str(evalp),
        out_dir=str(tmp_path / "out"), seed=0,
    )
    base.update(overrides)
    return pl.PipelineConfig(**base)


@acceptance(8, "end-to-end run-all smoke")
def test_criterion_8_run_all(tmp_path):
    cfg = smoke_config(tmp_path)
    payload = pl.run_all(cfg)
    cands = payload["candidates"]
    loop1 = [c for c in cands if c["stage"] == "finetune"]
    loop2 = [c for c in cands if c["stage"] == "prune"]
    assert len(loop1) == 3
    assert len(loop2) == 2 * (2 + 1) + 2  # k * (ratios + unpruned) + k patterns

    out = tmp_path / "out"
    for f in ("report.json", "report.csv", "report.md"):
        assert (out / f).exists(), f

    with open(out / "report.csv", newline="") as f:
        rows = [r for r in csv.DictReader(f) if r["status"] == "ok"]
    assert rows
    for row in rows:
        assert float(row["R"]) == pytest.approx(
            cfg.w * float(row["phi"]) + (1 - cfg.w) * float(row["rho"]), abs=1e-9)

    base = [c for c in cands if c["baseline"]]
    assert len(base) == 1 and base[0]["phi"] == 0.0
    assert base[0]["lineage"]["precision_bits"] == 32


def _scrub(obj):
    if isinstance(obj, dict):
        return {k: (None if k in ("duration_s", "tokens_per_s") else _scrub(v))
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


@acceptance(9, "trace-replay determinism")
def test_criterion_9_determinism(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("0.0,cpu,12.0\n0.5,cpu,14.0\n1.0,cpu,12.0\n")
    blobs = []
    for run in ("r1", "r2"):
        cfg = smoke_config(tmp_path, out_dir=str(tmp_path / run),
                           meter={"source": "trace-replay", "trace_path": str(trace)})
        cfg.out_dir = str(tmp_path / run)
        pl.run_all(cfg)
        report = json.loads((tmp_path / run / "report.json").read_text())
        report["config"]["out_dir"] = None  # differs by construction
        blobs.append(json.dumps(_scrub(report), sort_keys=True).encode())
    assert blobs[0] == blobs[1]
