import csv
import dataclasses
import json
import os
import re
import shutil
import struct
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from ealm import cli, tinylm
from ealm import pipeline as pl
from ealm import prune as prune_mod
from ealm.data import DatasetRecord, generate_synthetic_corpus, load_jsonl, save_jsonl
from ealm.meter import Meter
from ealm.metrics import MetricScores, score_outputs
from ealm.quant import QuantSpec, quantize_bundle
from ealm.rank import CandidateRecord, select_top_k
from ealm.tensors import (WEIGHT_MATRICES, BundleError, Lineage, LmConfig, QuantizedTensor,
                          from_fields, load_bundle, read_tensors, save_bundle, write_tensors)
from oracles import finetune_alone

README = Path(__file__).resolve().parent.parent / "README.md"


def make_config(tmp_path, **overrides) -> pl.PipelineConfig:
    train = tmp_path / "train.jsonl"
    evalp = tmp_path / "eval.jsonl"
    records = generate_synthetic_corpus(seed=0, n_records=4, grammar_size=2)
    save_jsonl(records, train)
    save_jsonl(records[:2], evalp)
    base = dict(
        bits_grid=[4, 32], epochs_grid=[1], w=0.7, k=1,
        prune_ratios=[0.5], nm_patterns=[[2, 4]],
        d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq=64,
        lora_rank=2, lora_alpha=4.0, lr=0.05, max_new_tokens=8,
        train_path=str(train), eval_path=str(evalp),
        out_dir=str(tmp_path / "out"), seed=0,
    )
    base.update(overrides)
    return pl.PipelineConfig(**base)


def scrub_volatile(obj):
    """Null out wall-clock-dependent fields; everything else must be stable."""
    if isinstance(obj, dict):
        return {k: (None if k in ("duration_s", "tokens_per_s") else scrub_volatile(v))
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [scrub_volatile(v) for v in obj]
    return obj


def test_config_validation():
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig(bits_grid=[12])
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig(bits_grid=[])
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig(prune_ratios=[1.5])
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig(nm_patterns=[[4, 4]])
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig(w=1.2)
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig(k=0)
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig.from_dict({"unknown_key": 1})


def test_config_file_roundtrip(tmp_path):
    cfg = make_config(tmp_path)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dataclasses.asdict(cfg)))
    loaded = pl.PipelineConfig.from_file(p)
    assert loaded == cfg
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig.from_file(bad)


def test_yaml_config_matches_its_json_twin(tmp_path, capsys):
    import yaml

    cfg = make_config(tmp_path)
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(dataclasses.asdict(cfg)))
    assert pl.PipelineConfig.from_file(p) == cfg

    bad = tmp_path / "bad.yml"
    bad.write_text("bits_grid: [4, 8\n")
    capsys.readouterr()
    assert cli.main(["run-all", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_run_all_counts_and_reports(tmp_path):
    cfg = make_config(tmp_path)
    payload = pl.run_all(cfg)

    cands = payload["candidates"]
    loop1 = [c for c in cands if c["stage"] == "finetune"]
    loop2 = [c for c in cands if c["stage"] == "prune"]
    # count laws: |bits| x |epochs|, then k x (unpruned + ratios + patterns)
    assert len(loop1) == len(cfg.bits_grid) * len(cfg.epochs_grid) == 2
    assert len(loop2) == cfg.k * (1 + len(cfg.prune_ratios) + len(cfg.nm_patterns)) == 3

    # exactly one baseline, the highest-precision max-epoch candidate, phi = 0
    base = [c for c in cands if c["baseline"]]
    assert len(base) == 1
    assert base[0]["id"] == "ft-b32-e1"
    assert base[0]["phi"] == 0.0

    out = tmp_path / "out"
    for f in ("report.json", "report.csv", "report.md",
              "candidates_loop1.json", "candidates_loop2.json"):
        assert (out / f).exists(), f
    # one merged model staged for every loop-1 candidate, and nothing else
    assert sorted(p.name for p in (out / "artifacts").iterdir()) == sorted(
        f"{c['id']}.merged.ealm" for c in loop1)
    assert not list(out.rglob("*.npz"))

    # every stored R must be recomputable from phi, rho, and w
    with open(out / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(cands)
    for row in rows:
        if row["status"] != "ok":
            continue
        r = float(row["R"])
        assert r == pytest.approx(
            cfg.w * float(row["phi"]) + (1 - cfg.w) * float(row["rho"]), abs=1e-9)
        assert 0.0 <= float(row["phi"]) <= 1.0
        assert 0.0 <= float(row["rho"]) <= 1.0

    md = (out / "report.md").read_text()
    assert "Ranked candidates" in md and "Energy vs training loss" in md


def test_candidate_persistence_roundtrip(tmp_path):
    cfg = make_config(tmp_path)
    pl.run_all(cfg)
    out = tmp_path / "out"
    loop1 = pl.load_candidates(out / "candidates_loop1.json")
    assert all(r.scores is not None for r in loop1 if r.status == "ok")
    assert all(r.energy.total_joules >= 0 for r in loop1 if r.status == "ok")
    assert all(len(r.train_records) == 1 for r in loop1 if r.status == "ok")
    bundle = pl.load_artifacts([loop1[0].id], out)[loop1[0].id]
    bundle.validate()
    assert bundle.lineage == loop1[0].lineage


def test_lineage_matches_saved_bundles_and_evaluated_sparsity(tmp_path, monkeypatch):
    evaluated = []
    original = tinylm.TinyLm.__init__

    def remember(self, bundle):
        evaluated.append(prune_mod.sparsity(bundle))
        original(self, bundle)

    monkeypatch.setattr(tinylm.TinyLm, "__init__", remember)
    cfg = make_config(tmp_path)
    pl.run_all(cfg)
    out = tmp_path / "out"
    loop1 = pl.load_candidates(out / "candidates_loop1.json")
    loop2 = pl.load_candidates(out / "candidates_loop2.json")
    staged = []
    for rec in loop1:
        assert rec.lineage.sparsity is None
        bundle = load_bundle(out / "artifacts" / f"{rec.id}.merged.ealm")
        assert bundle.lineage == rec.lineage
        staged.append(prune_mod.sparsity(bundle))
    # per loop-1 bit width the model trained on, then each candidate's merged
    # model, which is evaluated; then one model per loop-2 variant, in record
    # order
    per_width = 1 + len(cfg.epochs_grid)
    assert len(evaluated) == len(cfg.bits_grid) * per_width + len(loop2)
    loop1_models = evaluated[:len(cfg.bits_grid) * per_width]
    assert [s for i, s in enumerate(loop1_models) if i % per_width] == staged
    assert [r.lineage.sparsity for r in loop2] == evaluated[len(loop1_models):]
    # the pipeline records what it pruned: each parent's variants in grid order
    specs = [dataclasses.asdict(spec) if spec else None for _, spec in cfg.prune_variants()]
    assert [r.lineage.prune for r in loop2] == specs * cfg.k


def test_readme_quickstart_config_loads():
    block = re.search(r"cat > config.json <<'EOF'\n(.*?)\nEOF", README.read_text(), re.S)
    cfg = pl.PipelineConfig.from_dict(json.loads(block.group(1)))
    assert cfg.bits_grid == [4, 8, 16, 32]


def test_readme_lineage_example_is_a_lineage():
    blocks = re.findall(r"```json\n(.*?)\n```", README.read_text(), re.S)
    example = json.loads(next(b for b in blocks if '"epochs_trained"' in b))
    assert list(example) == list(dataclasses.asdict(Lineage()))
    assert dataclasses.asdict(from_fields(Lineage, example)) == example
    assert example["prune"] == dataclasses.asdict(prune_mod.PruneSpec("structured-nm", n=2, m=4))


def test_select_topk_used_for_loop2_parents(tmp_path):
    cfg = make_config(tmp_path, k=2)
    payload = pl.run_all(cfg)
    loop1 = [c for c in payload["candidates"] if c["stage"] == "finetune"]
    loop2 = [c for c in payload["candidates"] if c["stage"] == "prune"]
    recs = pl.load_candidates(tmp_path / "out" / "candidates_loop1.json")
    top = select_top_k([r for r in recs if r.status == "ok"], cfg.k)
    assert {c["lineage"]["parent_id"] for c in loop2} == {r.id for r in top}
    assert len(loop2) == 2 * (1 + 1 + 1)
    assert len(loop1) == 2


def test_topk_and_loop2_parents_are_the_top_k_by_r(tmp_path, monkeypatch):
    # Under trace replay every 1-epoch candidate costs the same joules, so
    # phi is 0 for all of them and the tie-break would pick by id. Quality
    # that falls with each loop-1 candidate makes R pick the other way.
    cfg, _ = write_trace_config(tmp_path)
    cfg = dataclasses.replace(cfg, bits_grid=[4, 8, 16, 32], k=2)
    real = pl.score_outputs
    calls = []

    def falling(pairs, n_tokens, duration_s):
        q = max(0.8 - 0.2 * len(calls), 0.0)
        calls.append(q)
        scores = real(pairs, n_tokens, duration_s)
        return dataclasses.replace(scores, **{f: q for f in MetricScores.QUALITY_FIELDS})

    monkeypatch.setattr(pl, "score_outputs", falling)
    payload = pl.run_all(cfg)
    out = tmp_path / "out"
    loop1 = [r for r in pl.load_candidates(out / "candidates_loop1.json") if r.status == "ok"]
    assert len({r.r_score for r in loop1}) == len(loop1) == 4
    by_r = [r.id for r in sorted(loop1, key=lambda r: -r.r_score)[:cfg.k]]
    by_tie_break = [r.id for r in sorted(loop1, key=lambda r: (r.energy.total_joules, r.id))]
    assert by_r == ["ft-b4-e1", "ft-b8-e1"]
    assert set(by_r).isdisjoint(by_tie_break[:cfg.k])
    assert [r.id for r in pl.load_candidates(out / "topk.json")] == by_r
    loop2 = [c for c in payload["candidates"] if c["stage"] == "prune"]
    assert {c["lineage"]["parent_id"] for c in loop2} == set(by_r)


def test_trace_meter_determinism(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("0.0,cpu,10.0\n1.0,cpu,10.0\n")
    results = []
    for run in ("r1", "r2"):
        cfg = make_config(tmp_path, out_dir=str(tmp_path / run),
                          meter={"source": "trace-replay", "trace_path": str(trace)})
        pl.run_all(cfg)
        text = (tmp_path / run / "candidates_loop1.json").read_text()
        data = json.loads(text)
        results.append(json.dumps(scrub_volatile(data), sort_keys=True))
    assert results[0] == results[1]


def test_stage_error_when_datasets_missing(tmp_path):
    cfg = make_config(tmp_path, train_path=str(tmp_path / "nope.jsonl"))
    with pytest.raises(pl.StageError):
        pl.run_all(cfg)


def add_long_prompt(path, n_bytes=70) -> int:
    """Appends a record whose prompt has `n_bytes` bytes to a dataset;
    returns its line."""
    records = load_jsonl(path)
    save_jsonl(records + [DatasetRecord(prompt="x" * n_bytes, reference="reset card 1")], path)
    return len(records) + 1


def test_too_long_eval_prompt_exits_3_before_any_work(tmp_path, capsys):
    cfg = make_config(tmp_path)
    line = add_long_prompt(cfg.eval_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
    capsys.readouterr()
    assert cli.main(["run-all", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("stage error:")
    assert f"{cfg.eval_path}:{line}:" in err
    assert "72 tokens" in err and "max_seq 64" in err
    assert not (tmp_path / "out" / "candidates_loop1.json").exists()


def test_too_long_training_example_exits_3_before_any_work(tmp_path, capsys):
    cfg = make_config(tmp_path)
    # BOS + 73 prompt bytes + SEP + 12 reference bytes + EOS: 88 tokens, whose
    # last 24 no model with max_seq 64 could train on
    line = add_long_prompt(cfg.train_path, n_bytes=73)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
    capsys.readouterr()
    assert cli.main(["run-all", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("stage error:")
    assert f"{cfg.train_path}:{line}: training example encodes to 88 tokens" in err
    assert "max_seq 64" in err
    assert not (tmp_path / "out" / "candidates_loop1.json").exists()


def test_too_long_eval_prompt_stops_prune_grid(ranked_state, tmp_path, capsys):
    cfg_path, ranked_out, _ = ranked_state
    out = tmp_path / "out"
    shutil.copytree(ranked_out, out)
    cfg = json.loads(cfg_path.read_text())
    evalp = tmp_path / "eval.jsonl"
    shutil.copy(cfg["eval_path"], evalp)
    line = add_long_prompt(evalp)
    long_cfg = tmp_path / "cfg.json"
    long_cfg.write_text(json.dumps(dict(cfg, eval_path=str(evalp))))
    capsys.readouterr()
    assert cli.main(["prune-grid", "--config", str(long_cfg), "--out", str(out)]) == 3
    assert f"{evalp}:{line}:" in capsys.readouterr().err
    assert not (out / "candidates_loop2.json").exists()


def test_divergence_fails_only_its_candidate(tmp_path, monkeypatch):
    original = tinylm.TinyLm.loss_and_grads
    calls = []

    def diverge_once(self, sequences, adapters):
        calls.append(1)
        if len(calls) == 1:
            raise tinylm.DivergenceError("injected")
        return original(self, sequences, adapters)

    monkeypatch.setattr(tinylm.TinyLm, "loss_and_grads", diverge_once)
    payload = pl.run_all(make_config(tmp_path))
    cands = {c["id"]: c for c in payload["candidates"]}
    assert [i for i, c in cands.items() if c["status"] == "failed"] == ["ft-b4-e1"]
    assert cands["ft-b4-e1"]["error"].startswith("DivergenceError")
    assert payload["baseline_id"] == "ft-b32-e1"
    loop2 = [c for c in cands.values() if c["stage"] == "prune"]
    assert len(loop2) == 3
    assert {c["lineage"]["parent_id"] for c in loop2} == {"ft-b32-e1"}


def merged_alone(config, bits, adapters):
    """The merged model of a loop-1 cell run alone: `adapters` merged into a
    freshly quantized base at `bits`."""
    base = quantize_bundle(tinylm.init_model(config.lm_config()), QuantSpec(bits))
    return tinylm.merge_adapters(base, adapters)


def assert_same_tensors(got, want):
    """Every tensor of bundle `got` has the names, dtypes, shapes and bytes of
    `want`'s: codes and scales for a quantized one."""
    def parts(t):
        arrays = [t.codes, t.scales] if isinstance(t, QuantizedTensor) else [t]
        return [(type(t), a.dtype, a.shape, a.tobytes()) for a in arrays]

    assert list(got.tensors) == list(want.tensors)
    for name, t in want.tensors.items():
        assert parts(got.tensors[name]) == parts(t), name


def test_each_epoch_candidate_matches_its_own_fine_tune(tmp_path, monkeypatch):
    cfg = make_config(tmp_path, epochs_grid=[1, 3])
    train, evals = load_jsonl(cfg.train_path), load_jsonl(cfg.eval_path)
    decoded = []
    real = pl._decode_all

    def remember(*args):
        out = real(*args)
        decoded.append(out[0])
        return out

    monkeypatch.setattr(pl, "_decode_all", remember)
    records, artifacts = pl.run_finetune_grid(cfg, pl.build_meter(cfg), train, evals)
    assert [r.id for r in records] == ["ft-b4-e1", "ft-b4-e3", "ft-b32-e1", "ft-b32-e3"]
    for rec, pairs in zip(records, decoded, strict=True):
        bits, epochs = rec.lineage.precision_bits, rec.lineage.epochs_trained
        adapters, losses, want_pairs, n_generated = finetune_alone(cfg, bits, epochs, train,
                                                                   evals)
        assert_same_tensors(artifacts[rec.id], merged_alone(cfg, bits, adapters))
        assert artifacts[rec.id].lineage == rec.lineage
        assert [tr.epoch for tr in rec.train_records] == list(range(1, epochs + 1))
        assert [tr.loss for tr in rec.train_records] == losses
        assert all(tr.energy is not None for tr in rec.train_records)
        assert pairs == want_pairs
        want = score_outputs(want_pairs, n_generated, 1.0)
        for f in MetricScores.QUALITY_FIELDS:
            assert getattr(rec.scores, f) == getattr(want, f), (rec.id, f)


@pytest.mark.parametrize("where, failed", [
    pytest.param("train", {"ft-b4-e3": "DivergenceError: injected"}, id="epoch-2"),
    pytest.param("eval", {"ft-b4-e1": "LmError: injected"}, id="eval-e1"),
])
def test_loop1_error_fails_only_the_candidates_it_reaches(tmp_path, monkeypatch, where,
                                                          failed):
    cfg, _ = write_trace_config(tmp_path)
    cfg = dataclasses.replace(cfg, epochs_grid=[1, 3])
    train, evals = load_jsonl(cfg.train_path), load_jsonl(cfg.eval_path)
    clean, _ = pl.run_finetune_grid(cfg, pl.build_meter(cfg), train, evals)
    # width 4 trains first: its second epoch is the second train_epoch call,
    # and its 1-epoch candidate is the first one scored
    module, name, exc, at = ((tinylm, "train_epoch", tinylm.DivergenceError, 2)
                             if where == "train" else (pl, "score_outputs", tinylm.LmError, 1))
    real, calls = getattr(module, name), []

    def inject(*args):
        calls.append(1)
        if len(calls) == at:
            raise exc("injected")
        return real(*args)

    monkeypatch.setattr(module, name, inject)
    records, artifacts = pl.run_finetune_grid(cfg, pl.build_meter(cfg), train, evals)
    assert {r.id: r.error for r in records if r.status == "failed"} == failed
    assert set(artifacts) == {r.id for r in records if r.status == "ok"}
    for rec, want in zip(records, clean, strict=True):
        if rec.id not in failed:
            assert scrub_volatile(rec.to_dict()) == scrub_volatile(want.to_dict()), rec.id


def test_epochs_grid_order_and_one_fine_tune_per_width(tmp_path, monkeypatch):
    cfg, _ = write_trace_config(tmp_path)
    train, evals = load_jsonl(cfg.train_path), load_jsonl(cfg.eval_path)
    sorted_cfg = dataclasses.replace(cfg, epochs_grid=[1, 3])
    by_id = {r.id: r for r in pl.run_finetune_grid(sorted_cfg, pl.build_meter(cfg), train,
                                                   evals)[0]}
    counts = {"quantize_bundle": [], "TinyLm": 0, "train_epoch": 0}
    real_quantize, real_init, real_train = (pl.quant_mod.quantize_bundle,
                                            tinylm.TinyLm.__init__, tinylm.train_epoch)

    def quantize_bundle(bundle, spec):
        counts["quantize_bundle"].append(spec.bits)
        return real_quantize(bundle, spec)

    def init(self, bundle):
        counts["TinyLm"] += 1
        real_init(self, bundle)

    def train_epoch(*args):
        counts["train_epoch"] += 1
        return real_train(*args)

    monkeypatch.setattr(pl.quant_mod, "quantize_bundle", quantize_bundle)
    monkeypatch.setattr(tinylm.TinyLm, "__init__", init)
    monkeypatch.setattr(tinylm, "train_epoch", train_epoch)
    cfg = dataclasses.replace(cfg, epochs_grid=[3, 1])
    records, _ = pl.run_finetune_grid(cfg, pl.build_meter(cfg), train, evals)
    assert [r.id for r in records] == ["ft-b4-e3", "ft-b4-e1", "ft-b32-e3", "ft-b32-e1"]
    # one model per width to train on, and one merged model per candidate
    assert counts == {"quantize_bundle": cfg.bits_grid,
                      "TinyLm": len(cfg.bits_grid) * (1 + len(cfg.epochs_grid)),
                      "train_epoch": len(cfg.bits_grid) * max(cfg.epochs_grid)}
    assert [r.id for r in records if r.baseline] == ["ft-b32-e3"]
    for rec in records:
        assert scrub_volatile(rec.to_dict()) == scrub_volatile(by_id[rec.id].to_dict())


def test_strict_readers_accept_what_the_writers_write(tmp_path, monkeypatch):
    """Every record a run writes, a failed one included, reads back and
    serializes to the same JSON, and every config and lineage survives
    asdict -> from_fields: among them an int in a float field (`lora_alpha`)
    and a None `sparsity`."""
    cfg = make_config(tmp_path, lora_alpha=4, k=2)
    real_score, real_save, calls, saved = pl.score_outputs, pl.save_candidates, [], []

    def fail_first(*args):
        calls.append(1)
        if len(calls) == 1:
            raise tinylm.LmError("injected")
        return real_score(*args)

    def save(records, path):
        saved.extend(records)
        real_save(records, path)

    monkeypatch.setattr(pl, "score_outputs", fail_first)
    monkeypatch.setattr(pl, "save_candidates", save)
    pl.run_all(cfg)
    assert {r.stage for r in saved} == {"finetune", "prune"}
    assert [r.id for r in saved if r.status == "failed"] == ["ft-b4-e1"]
    for rec in saved:
        text = json.dumps(rec.to_dict(), sort_keys=True)
        back = CandidateRecord.from_dict(json.loads(text))
        assert json.dumps(back.to_dict(), sort_keys=True) == text, rec.id
    for obj in (cfg, cfg.meter_config(), cfg.lm_config(), *(r.lineage for r in saved)):
        assert from_fields(type(obj), dataclasses.asdict(obj)) == obj


def test_prune_error_fails_only_its_variant(tmp_path, monkeypatch):
    original = pl.prune_mod.prune_bundle

    def no_nm(bundle, spec):
        if spec.method == "structured-nm":
            raise pl.prune_mod.PruneError("injected")
        return original(bundle, spec)

    monkeypatch.setattr(pl.prune_mod, "prune_bundle", no_nm)
    payload = pl.run_all(make_config(tmp_path))
    failed = [c for c in payload["candidates"] if c["status"] == "failed"]
    assert len(failed) == 1
    assert failed[0]["id"].endswith("-nm2x4")
    assert failed[0]["error"] == "PruneError: injected"


def test_merge_error_fails_only_its_own_loop1_candidate(tmp_path, monkeypatch):
    real = tinylm.merge_adapters

    def nan_delta_at_4_bits_1_epoch(bundle, adapters):
        if bundle.lineage == Lineage(precision_bits=4, epochs_trained=1):
            adapters = dataclasses.replace(
                adapters, b={n: np.full_like(b, np.nan) for n, b in adapters.b.items()})
        return real(bundle, adapters)

    monkeypatch.setattr(tinylm, "merge_adapters", nan_delta_at_4_bits_1_epoch)
    cfg = make_config(tmp_path, epochs_grid=[1, 2], k=3)
    payload = pl.run_all(cfg)
    cands = {c["id"]: c for c in payload["candidates"]}
    assert {i: c["error"] for i, c in cands.items() if c["status"] == "failed"} == {
        "ft-b4-e1": "QuantError: non-finite values in tensor"}
    ok_loop1 = {"ft-b4-e2", "ft-b32-e1", "ft-b32-e2"}
    assert {p.name for p in (tmp_path / "out" / "artifacts").iterdir()} == {
        f"{i}.merged.ealm" for i in ok_loop1}
    # training went on past the failed merge, and loop 2 pruned the other three
    loop2 = [c for c in cands.values() if c["stage"] == "prune"]
    assert {c["lineage"]["parent_id"] for c in loop2} == ok_loop1
    assert all(c["status"] == "ok" for c in loop2)


def test_staged_model_is_the_merge_of_its_epochs_adapters(tmp_path):
    """A loaded artifacts/<id>.merged.ealm holds every bit of its cell's
    adapters, as trained alone for its epoch count, merged into a freshly
    quantized base at its width."""
    cfg = make_config(tmp_path, bits_grid=[4, 16], epochs_grid=[1, 2])
    train, evals = load_jsonl(cfg.train_path), load_jsonl(cfg.eval_path)
    records = pl.finetune_stage(cfg, pl.build_meter(cfg))
    assert [r.id for r in records] == ["ft-b4-e1", "ft-b4-e2", "ft-b16-e1", "ft-b16-e2"]
    for rec in records:
        bits, epochs = rec.lineage.precision_bits, rec.lineage.epochs_trained
        adapters = finetune_alone(cfg, bits, epochs, train, evals)[0]
        loaded = load_bundle(tmp_path / "out" / "artifacts" / f"{rec.id}.merged.ealm")
        assert_same_tensors(loaded, merged_alone(cfg, bits, adapters))
        assert loaded.lineage == rec.lineage


def decoding_run(tmp_path, monkeypatch):
    """`run_all` on a config with 4- and 8-bit cells and k covering every
    loop-1 candidate, so each gets an `-unpruned` variant. Returns the
    config, the records by id and the tokens each ok record was scored on,
    one list per eval prompt, by id."""
    cfg = make_config(tmp_path, bits_grid=[4, 8, 32], epochs_grid=[1, 3], k=6)
    decoded = []
    real = tinylm.greedy_decode

    def remember(model, adapters, prompt, max_new):
        out = real(model, adapters, prompt, max_new)
        decoded.append(out[len(prompt):])
        return out

    monkeypatch.setattr(tinylm, "greedy_decode", remember)
    payload = pl.run_all(cfg)
    records = {c["id"]: c for c in payload["candidates"]}
    ok = [i for i, c in records.items() if c["status"] == "ok"]
    assert len(ok) == len(records) == 6 * 4
    n_eval = len(load_jsonl(cfg.eval_path))
    assert len(decoded) == len(ok) * n_eval
    tokens = {i: decoded[n * n_eval:(n + 1) * n_eval] for n, i in enumerate(ok)}
    return cfg, records, tokens


def test_unpruned_variant_is_the_model_its_parent_was_scored_on(tmp_path, monkeypatch):
    """Loop 1 scores the merged model it stages, so every `-unpruned` loop-2
    record decodes its parent's tokens and has its parent's six quality
    scores, at every width."""
    _, records, tokens = decoding_run(tmp_path, monkeypatch)
    unpruned = [c for i, c in records.items() if i.endswith("-unpruned")]
    assert sorted(c["lineage"]["precision_bits"] for c in unpruned) == [4, 4, 8, 8, 32, 32]
    for rec in unpruned:
        parent = records[rec["lineage"]["parent_id"]]
        assert tokens[rec["id"]] == tokens[parent["id"]], rec["id"]
        for f in MetricScores.QUALITY_FIELDS:
            assert rec["scores"][f] == parent["scores"][f], (rec["id"], f)
        assert rec["rho"] == parent["rho"]
        assert rec["lineage"]["sparsity"] == prune_mod.sparsity(
            load_bundle(tmp_path / "out" / "artifacts" / f"{parent['id']}.merged.ealm"))


def test_staged_model_decodes_the_tokens_its_record_was_scored_on(tmp_path, monkeypatch):
    cfg, records, tokens = decoding_run(tmp_path, monkeypatch)
    prompts = [tinylm.encode_prompt(r.prompt) for r in load_jsonl(cfg.eval_path)]
    loop1 = [i for i, c in records.items() if c["stage"] == "finetune"]
    assert len(loop1) == 6
    for cid in loop1:
        model = tinylm.TinyLm(load_bundle(tmp_path / "out" / "artifacts" / f"{cid}.merged.ealm"))
        got = [tinylm.greedy_decode(model, None, p, cfg.max_new_tokens)[len(p):] for p in prompts]
        assert got == tokens[cid], cid


@pytest.mark.parametrize("n_prompts", [1, 4])
def test_eval_span_holds_only_decode(tmp_path, monkeypatch, n_prompts):
    """Inside a metered eval span no adapter is merged and no model is built:
    `_decode_all` decodes each prompt of the model it is given, as
    `greedy_decode` with no adapters does."""
    cfg = make_config(tmp_path, epochs_grid=[1, 2])
    records = generate_synthetic_corpus(seed=0, n_records=n_prompts, grammar_size=2)
    meter = pl.build_meter(cfg)
    in_span = []

    def watch(owner, name):
        real = getattr(owner, name)

        def watched(*args, **kwargs):
            in_span.append((name, meter._active is not None))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, watched)

    for owner, name in ((tinylm, "merge_adapters"), (tinylm.TinyLm, "__init__"),
                        (tinylm.LoraAdapters, "delta"), (pl, "_decode_all")):
        watch(owner, name)
    # train on the real corpus, evaluate on `records`
    pl.run_finetune_grid(cfg, meter, load_jsonl(cfg.train_path), records)
    n_cells = len(cfg.bits_grid) * len(cfg.epochs_grid)
    assert [n for n, _ in in_span].count("_decode_all") == n_cells
    assert [n for n, _ in in_span].count("merge_adapters") == n_cells
    assert [(n, s) for n, s in in_span if s] == [("_decode_all", True)] * n_cells

    model = tinylm.TinyLm(tinylm.init_model(cfg.lm_config()))
    prompts = [tinylm.encode_prompt(r.prompt) for r in records]
    want = [tinylm.greedy_decode(model, None, p, 8) for p in prompts]
    pairs, n_generated = pl._decode_all(model, records, 8)
    assert n_generated == sum(len(o) - len(p) for o, p in zip(want, prompts))
    assert [t for t, _ in pairs] == [tinylm.decode_ids(o[len(p):]) for o, p in zip(want, prompts)]


def test_every_model_the_pipeline_builds_stores_q_k_v_once(tmp_path, monkeypatch):
    """In each `TinyLm` loops 1 and 2 build (every width, merged and pruned),
    wq, wk and wv share memory with their layer's fused Q/K/V matrix and with
    no other array: not the model's other weights, not another model's, not
    a bundle's."""
    cfg = make_config(tmp_path, bits_grid=[4, 8, 16, 32], n_layers=2)
    built = []
    real = tinylm.TinyLm.__init__

    def recording(self, bundle):
        real(self, bundle)
        built.append((self, bundle))

    monkeypatch.setattr(tinylm.TinyLm, "__init__", recording)
    meter = pl.build_meter(cfg)
    train, evals = load_jsonl(cfg.train_path), load_jsonl(cfg.eval_path)
    loop1, artifacts = pl.run_finetune_grid(cfg, meter, train, evals)
    loop2 = pl.run_prune_grid(loop1, artifacts, cfg, meter, evals,
                              next(r for r in loop1 if r.baseline))
    assert all(r.status == "ok" for r in loop1 + loop2)
    assert {b.lineage.precision_bits for _, b in built} == set(cfg.bits_grid)
    # per width a trained base and a merged model, then one per loop-2 variant
    assert len(built) == 2 * len(cfg.bits_grid) + len(loop2)
    assert any(r.lineage.prune for r in loop2)

    def arrays(model, bundle):
        yield from model.w.values()
        yield from (lw["qkv"] for lw in model.layers)
        for t in bundle.tensors.values():
            yield from (t.codes, t.scales) if isinstance(t, QuantizedTensor) else (t,)

    every = [a for m, b in built for a in arrays(m, b)]
    for m, _ in built:
        for i, lw in enumerate(m.layers):
            for view in (m.w[f"layers.{i}.{q}"] for q in tinylm._QKV):
                sharing = {id(a) for a in every if np.shares_memory(view, a)}
                assert sharing == {id(view), id(lw["qkv"])}


@pytest.mark.parametrize("epochs_grid", [[2], [1, 2]])
def test_a_widths_training_model_is_released_before_its_last_checkpoint_is_scored(
        tmp_path, monkeypatch, epochs_grid):
    """Each width's training model lives only through its epochs: when
    ft-bX-e<max> is evaluated nothing holds it, while an earlier checkpoint
    is scored with training still to come."""
    cfg = make_config(tmp_path, epochs_grid=epochs_grid)
    real_train, real_eval = tinylm.train_epoch, pl.evaluate_model
    trained, alive = [], []

    def train(model, *args):
        trained.append(weakref.ref(model))
        return real_train(model, *args)

    def evaluate(*args):
        alive.append(trained[-1]() is not None)
        return real_eval(*args)

    monkeypatch.setattr(tinylm, "train_epoch", train)
    monkeypatch.setattr(pl, "evaluate_model", evaluate)
    train_recs, evals = load_jsonl(cfg.train_path), load_jsonl(cfg.eval_path)
    records, _ = pl.run_finetune_grid(cfg, pl.build_meter(cfg), train_recs, evals)
    assert all(r.status == "ok" for r in records)
    assert len(trained) == len(cfg.bits_grid) * max(epochs_grid)
    per_width = [n != max(epochs_grid) for n in epochs_grid]
    assert alive == per_width * len(cfg.bits_grid)


def test_a_read_only_base_gives_the_same_run(tmp_path, monkeypatch):
    """A 32-bit bundle shares its base's arrays, and a merge or a mask makes
    new ones: with every base array read-only, a whole run reads the same
    records and stages the same bytes, so no step writes into a weight in
    place."""
    def staged(out):
        files = {name: scrub_volatile(json.loads((out / name).read_text()))
                 for name in ("candidates_loop1.json", "candidates_loop2.json")}
        return files, {p.name: p.read_bytes() for p in (out / "artifacts").iterdir()}

    cfg, _ = write_trace_config(tmp_path)
    cfg = dataclasses.replace(cfg, bits_grid=[4, 16, 32], epochs_grid=[1, 2], k=6)
    pl.run_all(cfg)
    want = staged(tmp_path / "out")
    real_init, bases = tinylm.init_model, []

    def read_only(config):
        base = real_init(config)
        for t in base.tensors.values():
            t.flags.writeable = False
        bases.append(base)
        return base

    monkeypatch.setattr(tinylm, "init_model", read_only)
    pl.run_all(dataclasses.replace(cfg, out_dir=str(tmp_path / "ro")))
    assert len(bases) == 1
    assert staged(tmp_path / "ro") == want
    assert len(want[0]["candidates_loop2.json"]) == 6 * len(cfg.prune_variants())


def test_loop2_sparsity_is_the_zero_share_the_model_computes_on(tmp_path, monkeypatch):
    cfg = make_config(tmp_path, bits_grid=[4, 8, 16, 32], prune_ratios=[0.3, 0.5],
                      nm_patterns=[[2, 4]])
    meter = pl.build_meter(cfg)
    train, evals = load_jsonl(cfg.train_path), load_jsonl(cfg.eval_path)
    loop1, artifacts = pl.run_finetune_grid(cfg, meter, train, evals)
    real = pl.evaluate_model
    computed = []

    def zero_share(model, *args):
        # the matrices every forward of the evaluated model computes on
        mats = [w[m] for w in model.layers for m in WEIGHT_MATRICES]
        computed.append(sum(int(np.count_nonzero(w == 0)) for w in mats)
                        / sum(w.size for w in mats))
        return real(model, *args)

    monkeypatch.setattr(pl, "evaluate_model", zero_share)
    baseline = next(r for r in loop1 if r.baseline)
    loop2 = pl.run_prune_grid(loop1, artifacts, cfg, meter, evals, baseline)
    assert all(r.status == "ok" for r in loop2)
    assert [r.lineage.precision_bits for r in loop2] == [
        b for b in cfg.bits_grid for _ in cfg.prune_variants()]
    assert [r.lineage.sparsity for r in loop2] == computed
    by_id = {r.id: r.lineage.sparsity for r in loop2}
    for bits in cfg.bits_grid:  # kept weights can round to a zero code as well
        assert by_id[f"ft-b{bits}-e1-nm2x4"] >= 0.5
        assert by_id[f"ft-b{bits}-e1-mag50"] >= 0.5


def test_programming_error_in_candidate_stops_the_run(tmp_path, monkeypatch):
    def broken(*args):
        raise TypeError("injected")

    monkeypatch.setattr(tinylm, "greedy_decode", broken)
    cfg = make_config(tmp_path)
    with pytest.raises(TypeError, match="injected"):
        pl.run_all(cfg)
    # the CLI does not file a bug as a stage error: the traceback survives
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
    with pytest.raises(TypeError, match="injected"):
        cli.main(["run-all", "--config", str(cfg_path)])


def test_cli_gen_data_and_stats(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    assert cli.main(["gen-data", "--out", str(out), "--n", "6", "--seed", "1"]) == 0
    assert out.exists()
    capsys.readouterr()
    assert cli.main(["stats", "--data", str(out)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["count"] == 6


def test_cli_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"bits_grid": [3]}))
    assert cli.main(["run-all", "--config", str(bad_cfg)]) == 2

    missing_data = tmp_path / "cfg.json"
    missing_data.write_text(json.dumps({
        "bits_grid": [32], "epochs_grid": [1],
        "train_path": str(tmp_path / "nope.jsonl"),
        "eval_path": str(tmp_path / "nope.jsonl"),
        "out_dir": str(tmp_path / "out"),
        "d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 16,
    }))
    assert cli.main(["run-all", "--config", str(missing_data)]) == 3

    assert cli.main(["run-all", "--config", str(bad_cfg), "--w", "2.0"]) == 2

    # an override is validated like the config file, before any training
    good_cfg = tmp_path / "good.json"
    good_cfg.write_text(json.dumps(dataclasses.asdict(make_config(tmp_path))))
    assert cli.main(["run-all", "--config", str(good_cfg), "--k", "0"]) == 2
    assert not (tmp_path / "out" / "candidates_loop1.json").exists()


def test_cli_non_utf8_config_or_dataset(tmp_path, capsys):
    """A byte that is not UTF-8 in a config file is a config error; in a
    dataset, `stats` and every stage that reads it stop with exit 3. Each
    message names the file."""
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_bytes(b'{"out_dir": "\xff"}')
    bad_data = tmp_path / "bad.jsonl"
    bad_data.write_bytes(b'{"prompt": "fault \xff", "reference": "reset card 2"}\n')
    cases = [(["run-all", "--config", str(bad_cfg)], 2, "config error:", bad_cfg),
             (["stats", "--data", str(bad_data)], 3, "error:", bad_data)]
    for field, commands in (("train_path", ["finetune-grid", "run-all"]),
                            ("eval_path", ["finetune-grid", "prune-grid", "run-all"])):
        cfg_path = tmp_path / f"{field}.json"
        cfg_path.write_text(json.dumps({**dataclasses.asdict(make_config(tmp_path)),
                                        field: str(bad_data)}))
        cases += [([c, "--config", str(cfg_path)], 3, "stage error:", bad_data) for c in commands]
    for argv, code, prefix, named in cases:
        capsys.readouterr()
        assert cli.main(argv) == code, argv
        err = capsys.readouterr().err
        assert err.startswith(prefix) and str(named) in err, (argv, err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("record, message", [
    pytest.param('{"prompt": "a", "reference": null}',
                 "DatasetRecord.reference holds str, not None", id="null-reference"),
    pytest.param('{"prompt": 7, "reference": "reset card 2"}',
                 "DatasetRecord.prompt holds str, not 7", id="int-prompt"),
    # valid JSON: an escaped lone surrogate, which no UTF-8 byte sequence encodes
    pytest.param('{"prompt": "\\ud800 fault", "reference": "reset card 2"}',
                 "not UTF-8 encodable", id="lone-surrogate"),
])
def test_bad_dataset_record_exits_3_naming_its_line(tmp_path, capsys, record, message):
    cfg = make_config(tmp_path)
    line = len(load_jsonl(cfg.train_path)) + 1
    with open(cfg.train_path, "a", encoding="utf-8") as f:
        f.write(record + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
    for argv, prefix in ((["stats", "--data", cfg.train_path], "error: DataError:"),
                         (["finetune-grid", "--config", str(cfg_path)], "stage error:")):
        capsys.readouterr()
        assert cli.main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith(prefix) and f"{cfg.train_path}:{line}: bad record" in err, err
        assert message in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, meter_spec", [
    # the sampling interval is a constant, so a config that sets it has an unknown meter key
    pytest.param({"meter": {"sampling_interval_s": 0}}, None, id="sampling-interval-0"),
    pytest.param({"meter": {"source": "bogus"}}, None, id="meter-source"),
    pytest.param({"meter": {"source": "trace-replay"}}, None, id="trace-without-path"),
    pytest.param({}, "bogus", id="meter-spec"),
    pytest.param({}, "trace:{tmp}/nonexistent.csv", id="trace-spec-missing-file"),
    # a meter that can only report 0 J or less would fail the run at ranking
    pytest.param({}, "trace:{tmp}/one-sample.csv", id="trace-one-sample"),
    # a domain with no report column would break cpu + ram + gpu = total
    pytest.param({}, "trace:{tmp}/disk.csv", id="trace-domain-disk"),
    pytest.param({"meter": {"constant_watts": {"cpu": 0.0, "ram": 0.0}}}, None,
                 id="constant-watts-0"),
    pytest.param({"meter": {"constant_watts": {"cpu": 15.0, "ram": -3.0}}}, None,
                 id="constant-watts-negative"),
    pytest.param({"n_heads": 3, "d_model": 8}, None, id="heads-do-not-divide"),
    pytest.param({"d_ff": 0}, None, id="d-ff-0"),
    pytest.param({"meter": {"source": "powercap"}}, None, id="powercap-without-paths"),
    pytest.param({}, "powercap", id="powercap-spec-without-paths"),
    pytest.param(None, None, id="missing-config-file"),
    pytest.param({"epochs_grid": [0]}, None, id="epochs-0"),
    pytest.param({"epochs_grid": [-2]}, None, id="epochs-negative"),
    pytest.param({"lora_rank": 0}, None, id="lora-rank-0"),
    pytest.param({"max_new_tokens": 0}, None, id="max-new-tokens-0"),
    pytest.param({"max_new_tokens": -1}, None, id="max-new-tokens-negative"),
    pytest.param({"lr": -1.0}, None, id="lr-negative"),
    pytest.param({"lr": 0.0}, None, id="lr-0"),
    pytest.param({"lr": float("nan")}, None, id="lr-nan"),
    pytest.param({"lr": float("inf")}, None, id="lr-inf"),
    pytest.param({"lr": True}, None, id="lr-bool"),
    pytest.param({"w": True}, None, id="w-bool"),
    pytest.param({"w": "0.5"}, None, id="w-string"),
    pytest.param({"lora_alpha": "x"}, None, id="lora-alpha-string"),
    pytest.param({"lora_alpha": -1.0}, None, id="lora-alpha-negative"),
    pytest.param({"lora_alpha": 0.0}, None, id="lora-alpha-0"),
    pytest.param({"lora_alpha": float("nan")}, None, id="lora-alpha-nan"),
    pytest.param({"lora_alpha": float("inf")}, None, id="lora-alpha-inf"),
    pytest.param({"lora_alpha": True}, None, id="lora-alpha-bool"),
    pytest.param({"bits_grid": [32, 32]}, None, id="repeated-bits"),
    pytest.param({"epochs_grid": [1, 1]}, None, id="repeated-epochs"),
    pytest.param({"prune_ratios": [0.5, 0.5]}, None, id="repeated-ratio"),
    pytest.param({"prune_ratios": [0.1, 0.104]}, None, id="ratios-one-id"),
    pytest.param({"nm_patterns": [[2, 4], [2, 4]]}, None, id="repeated-nm"),
    # a count of the wrong type would pass a range check and fail mid-run
    pytest.param({"k": 1.5}, None, id="k-float"),
    pytest.param({"k": True}, None, id="k-bool"),
    pytest.param({"epochs_grid": [1.5]}, None, id="epochs-float"),
    pytest.param({"bits_grid": [4.0]}, None, id="bits-float"),
    pytest.param({"max_new_tokens": 2.5}, None, id="max-new-tokens-float"),
    pytest.param({"lora_rank": 2.0}, None, id="lora-rank-float"),
    pytest.param({"seed": 0.5}, None, id="seed-float"),
    pytest.param({"d_model": 32.0}, None, id="d-model-float"),
    pytest.param({"n_layers": True}, None, id="n-layers-bool"),
    pytest.param({"nm_patterns": [[2]]}, None, id="nm-not-a-pair"),
    pytest.param({"nm_patterns": [[2, 4, 8]]}, None, id="nm-triple"),
    pytest.param({"nm_patterns": [2]}, None, id="nm-not-a-list"),
    pytest.param({"nm_patterns": [[2.0, 4]]}, None, id="nm-float"),
    pytest.param({"meter": {"carbon_intensity": "x"}}, None, id="carbon-intensity-string"),
    pytest.param({"meter": {"carbon_intensity": -1}}, None, id="carbon-intensity-negative"),
    # a domain with no report column would break cpu + ram + gpu = total
    pytest.param({"meter": {"constant_watts": {"cpu": 1, "tpu": 2}}}, None,
                 id="constant-watts-unknown-domain"),
    # a value that does not fit its field's annotation
    pytest.param({"prune_ratios": [float("nan")]}, None, id="prune-ratio-nan"),
    pytest.param({"prune_ratios": [float("inf")]}, None, id="prune-ratio-inf"),
    pytest.param({"train_path": 5}, None, id="train-path-int"),
    pytest.param({"meter": {"source": "powercap", "powercap_paths": {"cpu": 5}}}, None,
                 id="powercap-path-int"),
    pytest.param("yaml", None, id="yaml-without-pyyaml"),
])
def test_cli_config_errors_exit_2_before_any_work(tmp_path, capsys, monkeypatch, overrides,
                                                  meter_spec):
    (tmp_path / "one-sample.csv").write_text("0.0,cpu,10.0\n")
    (tmp_path / "disk.csv").write_text("0.0,cpu,10.0\n1.0,cpu,10.0\n0.0,disk,5.0\n1.0,disk,5.0\n")
    cfg_path = tmp_path / "cfg.json"
    if overrides == "yaml":  # a good config, but no pyyaml to read it
        cfg_path = tmp_path / "cfg.yaml"
        monkeypatch.setitem(sys.modules, "yaml", None)
        overrides = {}
    if overrides is not None:
        cfg_path.write_text(json.dumps({**dataclasses.asdict(make_config(tmp_path)), **overrides}))
    argv = ["run-all", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if meter_spec:
        argv += ["--meter", meter_spec.format(tmp=tmp_path)]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out" / "candidates_loop1.json").exists()


@pytest.mark.parametrize("argv", [
    ["finetune-grid", "--k", "1"], ["rank", "--seed", "1"], ["prune-grid", "--seed", "1"],
    ["prune-grid", "--k", "1"], ["report", "--seed", "1"], ["report", "--k", "1"],
], ids=lambda argv: f"{argv[0]}{argv[1]}")
def test_stages_take_only_the_flags_they_read(argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    args = cli.build_parser().parse_args([
        "run-all", "--config", "c.json", "--out", "o", "--seed", "1", "--w", "0.5", "--k", "2",
        "--meter", "constant"])
    assert (args.config, args.out, args.seed, args.w, args.k, args.meter) == (
        "c.json", "o", 1, 0.5, 2, "constant")


@pytest.mark.parametrize("command", ["rank", "report"])
def test_unmetered_stages_reject_meter(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--meter", "constant", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    args = cli.build_parser().parse_args(["finetune-grid", "--meter", "constant"])
    assert args.meter == "constant"


def test_cli_run_all_smoke(tmp_path):
    cfg = make_config(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert cli.main(["run-all", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def write_trace_config(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("0.0,cpu,10.0\n1.0,cpu,10.0\n")
    cfg = make_config(tmp_path, meter={"source": "trace-replay", "trace_path": str(trace)})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
    return cfg, cfg_path


def test_cli_staged_flow(tmp_path):
    cfg, cfg_path = write_trace_config(tmp_path)
    args = ["--config", str(cfg_path)]
    assert cli.main(["finetune-grid"] + args) == 0
    assert cli.main(["rank"] + args) == 0
    assert cli.main(["prune-grid"] + args) == 0
    assert cli.main(["report"] + args) == 0
    out = tmp_path / "out"
    assert (out / "topk.json").exists()
    assert (out / "report.md").exists()
    loop2 = json.loads((out / "candidates_loop2.json").read_text())
    assert len(loop2) == cfg.k * (1 + len(cfg.prune_ratios) + len(cfg.nm_patterns))

    # run-all writes the same staged files the stage commands resume from
    assert cli.main(["run-all"] + args + ["--out", str(tmp_path / "out2")]) == 0
    for name in ("candidates_loop1.json", "topk.json", "candidates_loop2.json"):
        staged = json.loads((out / name).read_text())
        whole = json.loads((tmp_path / "out2" / name).read_text())
        assert scrub_volatile(whole) == scrub_volatile(staged), name


REPORTS = ("report.json", "report.csv", "report.md")


def test_finetune_grid_leaves_nothing_derived_from_the_old_loop1(tmp_path, capsys):
    """A new loop 1 into an out dir that holds a whole earlier run: no later
    stage may resume from the old top-k, loop 2 or artifacts."""
    cfg, cfg_path = write_trace_config(tmp_path)
    assert cli.main(["run-all", "--config", str(cfg_path)]) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(dataclasses.asdict(cfg), bits_grid=[8, 16])))
    assert cli.main(["finetune-grid", "--config", str(other)]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in (out / "artifacts").iterdir()) == [
        f"ft-b{b}-e1.merged.ealm" for b in (16, 8)]
    assert not any((out / n).exists() for n in ("topk.json", "candidates_loop2.json", *REPORTS))
    capsys.readouterr()
    assert cli.main(["prune-grid", "--config", str(other)]) == 3
    assert "topk.json" in capsys.readouterr().err
    assert cli.main(["report", "--config", str(other)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [c["id"] for c in report["candidates"]] == ["ft-b8-e1", "ft-b16-e1"]


class Killed(BaseException):
    """Stands for a signal that ends the process mid-call."""


def test_finetune_grid_killed_while_staging_leaves_no_loop1_records(tmp_path, monkeypatch,
                                                                    capsys):
    """A finetune-grid with another lr, killed between two artifact writes in
    an out dir that holds a whole earlier run, leaves no candidates_loop1.json
    to name a mix of both runs' models: rank stops and names it."""
    cfg, cfg_path = write_trace_config(tmp_path)
    assert cli.main(["run-all", "--config", str(cfg_path)]) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(dataclasses.asdict(cfg), lr=0.01)))
    real, calls = pl.save_bundle, []

    def save_bundle(bundle, path):
        calls.append(path)
        if len(calls) == 2:
            raise Killed
        real(bundle, path)

    monkeypatch.setattr(pl, "save_bundle", save_bundle)
    with pytest.raises(Killed):
        cli.main(["finetune-grid", "--config", str(other)])
    out = tmp_path / "out"
    assert not any((out / name).exists() for name in pl.STAGED_FILES)
    capsys.readouterr()
    assert cli.main(["rank", "--config", str(other)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("stage error:") and "candidates_loop1.json" in err


def test_out_dir_of_unmerged_artifacts_is_refused_then_replaced(ranked_state, tmp_path, capsys):
    """An out dir in ealm's earlier layout, a bundle <id>.ealm plus adapters
    <id>.adapters.ealm per candidate: prune-grid stops and names the merged
    model it lacks, where reading <id>.ealm would evaluate a model without its
    adapters, and a new finetune-grid leaves only merged models."""
    cfg_path, ranked_out, top = ranked_state
    out = tmp_path / "out"
    shutil.copytree(ranked_out, out)
    cfg = pl.PipelineConfig.from_file(cfg_path)
    for merged in sorted((out / "artifacts").iterdir()):
        cid = merged.name.removesuffix(".merged.ealm")
        save_bundle(load_bundle(merged), merged.with_name(f"{cid}.ealm"))
        ad = tinylm.init_adapters(cfg.lm_config(), rank=cfg.lora_rank, alpha=cfg.lora_alpha)
        write_tensors(merged.with_name(f"{cid}.adapters.ealm"),
                      {f"{s}:{n}": t for s, ts in (("a", ad.a), ("b", ad.b)) for n, t in ts.items()},
                      {"rank": ad.rank, "alpha": ad.alpha})
        merged.unlink()
    args = ["--config", str(cfg_path), "--out", str(out)]
    capsys.readouterr()
    assert cli.main(["prune-grid"] + args) == 3
    err = capsys.readouterr().err
    assert err.startswith("stage error:") and f"{top}.merged.ealm" in err
    assert cli.main(["finetune-grid"] + args) == 0
    assert sorted(p.name for p in (out / "artifacts").iterdir()) == [
        f"ft-b{b}-e1.merged.ealm" for b in (32, 4)]


def test_rank_and_prune_grid_remove_the_files_derived_from_theirs(tmp_path):
    _, cfg_path = write_trace_config(tmp_path)
    args = ["--config", str(cfg_path)]
    out = tmp_path / "out"
    assert cli.main(["run-all"] + args) == 0
    assert cli.main(["rank"] + args) == 0
    assert not any((out / n).exists() for n in ("candidates_loop2.json", *REPORTS))
    assert cli.main(["prune-grid"] + args) == 0
    assert (out / "candidates_loop2.json").exists()
    assert not any((out / n).exists() for n in REPORTS)


def test_w_override_after_loop1_rescores(tmp_path):
    cfg, cfg_path = write_trace_config(tmp_path)
    cfg_path.write_text(json.dumps(dict(dataclasses.asdict(cfg), epochs_grid=[1, 2])))
    assert cfg.w == 0.7
    args = ["--config", str(cfg_path)]
    assert cli.main(["finetune-grid"] + args) == 0
    out = tmp_path / "out"
    # Give a 2-epoch candidate, whose phi is 0 against the 1-epoch ones' 1/3,
    # the best quality: at w 0.7 it ranks low, at w 0.0 it ranks first.
    loop1_path = out / "candidates_loop1.json"
    loop1 = json.loads(loop1_path.read_text())
    slow = next(r for r in loop1 if r["id"] == "ft-b4-e2")
    slow["scores"].update(bleu=0.5, rouge1_f=0.5, rouge2_f=0.5, rougeL_f=0.5, meteor=0.5,
                          cosine=0.5)
    loop1_path.write_text(json.dumps(loop1))

    assert cli.main(["rank", "--w", "0.0"] + args) == 0
    assert cli.main(["prune-grid"] + args) == 0
    assert cli.main(["report", "--w", "0.0"] + args) == 0
    topk = json.loads((out / "topk.json").read_text())
    assert [r["id"] for r in topk] == ["ft-b4-e2"]
    assert topk[0]["R"] == topk[0]["rho"] == 0.5

    with open(out / "report.csv", newline="", encoding="utf-8") as f:
        rows = [r for r in csv.DictReader(f) if r["status"] == "ok"]
    assert {r["stage"] for r in rows} == {"finetune", "prune"}
    for row in rows:
        assert float(row["w"]) == 0.0
        assert float(row["R"]) == float(row["rho"]), row["id"]


@pytest.fixture(scope="module")
def ranked_state(tmp_path_factory):
    """A config plus the out dir that finetune-grid and rank leave behind."""
    root = tmp_path_factory.mktemp("ranked")
    cfg, cfg_path = write_trace_config(root)
    assert cli.main(["finetune-grid", "--config", str(cfg_path)]) == 0
    assert cli.main(["rank", "--config", str(cfg_path)]) == 0
    topk = json.loads((root / "out" / "topk.json").read_text())
    return cfg_path, root / "out", topk[0]["id"]


@pytest.mark.parametrize("command, missing", [
    ("rank", "candidates_loop1.json"),
    ("prune-grid", "candidates_loop1.json"),
    ("prune-grid", "topk.json"),
    ("prune-grid", "artifacts/{top}.merged.ealm"),
    ("rank", None),  # candidates_loop1.json is there but has no baseline
    ("prune-grid", None),
    ("report", "candidates_loop1.json"),
    ("report", None),
    # a record or a bundle whose lineage is not a Lineage
    ("rank", "lineage-key:candidates_loop1.json"),
    # a record without a key its writer writes
    ("rank", "drop-key:scores:candidates_loop1.json"),
    ("rank", "drop-key:lineage.precision_bits:candidates_loop1.json"),
    ("prune-grid", "drop-key:status:topk.json"),
    ("prune-grid", "lineage-key:artifacts/{top}.merged.ealm"),
    # a bundle that decodes but lacks a tensor its config names, and one that
    # also holds layer-norm gains and biases, as bundles did before they were dropped
    ("prune-grid", "drop-tensor:artifacts/{top}.merged.ealm"),
    ("prune-grid", "norm-tensors:artifacts/{top}.merged.ealm"),
    # the 4-bit candidate as the top-k, its bundle holding a scale or a code
    # quantize never writes
    ("prune-grid", "q4:nan-scale:artifacts/ft-b4-e1.merged.ealm"),
    ("prune-grid", "q4:code-8:artifacts/ft-b4-e1.merged.ealm"),
    # there but cut short, as a killed writer could leave it
    ("rank", "truncated:candidates_loop1.json"),
    ("prune-grid", "truncated:topk.json"),
    ("prune-grid", "truncated:artifacts/{top}.merged.ealm"),
    # a byte that is not UTF-8 in a record id or a tensor name
    ("rank", "non-utf8:candidates_loop1.json"),
    ("prune-grid", "non-utf8:topk.json"),
    ("prune-grid", "non-utf8:artifacts/{top}.merged.ealm"),
    # a record that decodes but is not what its writer writes
    ("prune-grid", "record:baseline-extra-empty:candidates_loop1.json"),
    ("prune-grid", "record:eval-energy-no-duration:candidates_loop1.json"),
    ("report", "record:joules-string:candidates_loop1.json"),
    ("report", "record:two-baselines:candidates_loop1.json"),
    ("report", "record:not-an-object:candidates_loop1.json"),
    # a record value that does not fit its field's annotation
    ("report", "record:loss-string:candidates_loop1.json"),
    ("rank", "record:bleu-string:candidates_loop1.json"),
    ("report", "record:id-int:candidates_loop1.json"),
    ("rank", "record:bleu-nan:candidates_loop1.json"),
    ("report", "record:precision-bits-string:candidates_loop1.json"),
    ("prune-grid", "record:epoch-string:candidates_loop1.json"),
    ("rank", "record:error-int:candidates_loop1.json"),
    ("report", "record:baseline-int:candidates_loop1.json"),
    ("prune-grid", "record:train-records-dict:candidates_loop1.json"),
    # a failed record whose stage or status is no value the pipeline writes,
    # and a record whose R is also held under its field name
    ("rank", "record:failed-stage-bogus:candidates_loop1.json"),
    ("rank", "record:failed-status-weird:candidates_loop1.json"),
    ("rank", "record:stray-r-score:candidates_loop1.json"),
    # a bundle whose metadata holds a key besides config and lineage
    ("prune-grid", "meta-key:artifacts/{top}.merged.ealm"),
    # an .ealm file that goes on after its metadata
    ("prune-grid", "appended:artifacts/{top}.merged.ealm"),
])
def test_cli_stage_error_on_missing_state(ranked_state, tmp_path, capsys, command, missing):
    cfg_path, ranked_out, top = ranked_state
    out = tmp_path / "out"
    shutil.copytree(ranked_out, out)
    if missing and missing.startswith("truncated:"):
        victim = out / missing.removeprefix("truncated:").format(top=top)
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
    elif missing and missing.startswith("drop-key:"):
        _, key, name = missing.split(":")
        victim = out / name
        recs = json.loads(victim.read_text())
        record, _, key = key.rpartition(".")
        del (recs[0][record] if record else recs[0])[key]
        victim.write_text(json.dumps(recs))
    elif missing and missing.startswith("lineage-key:"):
        victim = out / missing.removeprefix("lineage-key:").format(top=top)
        if victim.suffix == ".ealm":  # the metadata JSON and its length end the file
            data = victim.read_bytes()
            at = data.rindex(b'{"config"')
            meta = json.loads(data[at:])
            meta["lineage"]["bogus"] = 1
            text = json.dumps(meta).encode()
            victim.write_bytes(data[:at - 8] + struct.pack("<Q", len(text)) + text)
        else:
            recs = json.loads(victim.read_text())
            recs[0]["lineage"]["bogus"] = 1
            victim.write_text(json.dumps(recs))
    elif missing and missing.startswith("non-utf8:"):
        victim = out / missing.removeprefix("non-utf8:").format(top=top)
        data = bytearray(victim.read_bytes())
        # an .ealm's first tensor name follows magic, version, count and its
        # length: 4 + 2 + 4 + 2 bytes; a JSON file's first value is a record id
        data[12 if victim.suffix == ".ealm" else data.index(b'"id": "') + 7] = 0xFF
        victim.write_bytes(bytes(data))
    elif missing and missing.startswith("record:"):
        _, damage, name = missing.split(":")
        victim = out / name
        recs = json.loads(victim.read_text())
        base = next(r for r in recs if r["baseline"])
        if damage == "baseline-extra-empty":
            base["extra"] = {}
        elif damage == "eval-energy-no-duration":
            del base["extra"]["eval_energy"]["duration_s"]
        elif damage == "joules-string":
            base["energy"]["joules"]["cpu"] = "x"
        elif damage == "two-baselines":
            for r in recs:
                r["baseline"] = True
        elif damage == "not-an-object":
            recs.append([recs[0]])
        elif damage.startswith("failed-"):
            other = next(r for r in recs if not r["baseline"])
            other.update(status="failed", error="LmError: injected", scores=None, energy=None,
                         phi=0.0, rho=0.0, R=0.0, train_records=[], extra={})
            other.update({"failed-stage-bogus": {"stage": "bogus"},
                          "failed-status-weird": {"status": "weird"}}[damage])
        elif damage == "stray-r-score":
            base["r_score"] = base["R"] + 1.0
        else:
            field, value = {
                "loss-string": ("train_records.0.loss", "0.5"),
                "bleu-string": ("scores.bleu", "0.5"),
                "id-int": ("id", 7),
                "bleu-nan": ("scores.bleu", float("nan")),
                "precision-bits-string": ("lineage.precision_bits", "32"),
                "epoch-string": ("train_records.0.epoch", "1"),
                "error-int": ("error", 0),
                "baseline-int": ("baseline", 1),
                "train-records-dict": ("train_records", {}),
            }[damage]
            *path, key = field.split(".")
            for step in path:
                base = base[int(step) if step.isdigit() else step]
            base[key] = value
        victim.write_text(json.dumps(recs))
    elif missing and missing.startswith("meta-key:"):
        victim = out / missing.removeprefix("meta-key:").format(top=top)
        tensors, meta = read_tensors(victim)
        write_tensors(victim, tensors, {**meta, "junk": 1})
    elif missing and missing.startswith("appended:"):
        victim = out / missing.removeprefix("appended:").format(top=top)
        victim.write_bytes(victim.read_bytes() + bytes(23))
    elif missing and missing.startswith("q4:"):
        _, damage, name = missing.split(":")
        loop1 = json.loads((out / "candidates_loop1.json").read_text())
        (out / "topk.json").write_text(json.dumps([r for r in loop1 if r["id"] == "ft-b4-e1"]))
        victim = out / name
        bundle = load_bundle(victim)
        t = bundle.tensors["layers.0.attn.wq"]
        if damage == "nan-scale":
            t.scales[0] = np.nan
        else:
            t.codes[0, 0] = -8
        save_bundle(bundle, victim)
    elif missing and missing.startswith(("drop-tensor:", "norm-tensors:")):
        damage, name = missing.split(":")
        victim = out / name.format(top=top)
        bundle = load_bundle(victim)
        if damage == "drop-tensor":
            del bundle.tensors["layers.0.mlp.w2"]
        else:
            cfg = bundle.config
            norms = [f"layers.{i}.ln{j}." for i in range(cfg.n_layers) for j in (1, 2)]
            for p in norms + ["ln_f."]:
                bundle.tensors[p + "g"] = np.ones(cfg.d_model, np.float32)
                bundle.tensors[p + "b"] = np.zeros(cfg.d_model, np.float32)
        save_bundle(bundle, victim)
    elif missing:
        victim = out / missing.format(top=top)
        victim.unlink()
    else:
        victim = out / "candidates_loop1.json"
        victim.write_text(json.dumps(
            [dict(c, baseline=False) for c in json.loads(victim.read_text())]))
    capsys.readouterr()
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("stage error:")
    assert victim.name in err


def test_damaged_artifacts_load_or_raise_a_stage_error(tmp_path):
    """Every cut and every flipped byte of a tiny merged model either loads or
    is a BundleError, which load_artifacts turns into a StageError that names
    the file."""
    cfg = LmConfig(d_model=2, n_layers=1, n_heads=1, d_ff=2, max_seq=4, vocab_size=3)
    bundle = tinylm.merge_adapters(quantize_bundle(tinylm.init_model(cfg), QuantSpec(4)),
                                   tinylm.init_adapters(cfg, rank=1))
    pl.save_artifacts({"c": bundle}, tmp_path)
    path = tmp_path / "artifacts" / "c.merged.ealm"
    good = path.read_bytes()
    damaged = [good[:n] for n in range(len(good))]
    damaged += [good[:i] + bytes([good[i] ^ 0xFF]) + good[i + 1:] for i in range(len(good))]
    with open(path, "r+b") as f:  # rewritten in place: reopening costs more than loading
        for data in damaged:
            f.seek(0)
            f.write(data)
            f.truncate()
            f.flush()
            try:
                pl.load_artifacts(["c"], tmp_path)
            except pl.StageError as e:
                assert isinstance(e.__cause__, BundleError), e
                assert path.name in str(e)
    for tail in (b"\0", bytes(23)):  # the metadata ends the file
        path.write_bytes(good + tail)
        with pytest.raises(pl.StageError, match=f"{path.name}: {len(tail)} bytes after"):
            pl.load_artifacts(["c"], tmp_path)
    path.write_bytes(good)
    assert_same_tensors(pl.load_artifacts(["c"], tmp_path)["c"], bundle)


def test_staged_writes_keep_previous_file_when_replace_fails(ranked_state, tmp_path,
                                                           monkeypatch):
    _, ranked_out, top = ranked_state
    out = tmp_path / "out"
    shutil.copytree(ranked_out, out)
    records = pl.load_candidates(out / "candidates_loop1.json")
    bundle = pl.load_artifacts([top], out)[top]
    other_bundle = dataclasses.replace(
        bundle, lineage=dataclasses.replace(bundle.lineage, epochs_trained=99))
    files = sorted(p for p in out.rglob("*") if p.is_file())
    before = {p: p.read_bytes() for p in files}
    real_replace = os.replace

    def fail_on(suffix):
        def replace(src, dst):
            if str(dst).endswith(suffix):
                raise OSError("injected")
            real_replace(src, dst)
        return replace

    monkeypatch.setattr(os, "replace", fail_on(".json"))
    with pytest.raises(OSError):
        pl.save_candidates(records[:1], out / "candidates_loop1.json")
    monkeypatch.setattr(os, "replace", fail_on(".merged.ealm"))
    with pytest.raises(BundleError):
        pl.save_artifacts({top: other_bundle}, out)
    assert sorted(p for p in out.rglob("*") if p.is_file()) == files  # no temp file left
    assert {p: p.read_bytes() for p in files} == before


def test_meter_config_from_pipeline():
    cfg = pl.PipelineConfig(meter={"source": "constant-power",
                                   "constant_watts": {"cpu": 5.0}})
    m = pl.build_meter(cfg)
    assert isinstance(m, Meter)
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig(meter={"bogus_key": 1}).meter_config()
