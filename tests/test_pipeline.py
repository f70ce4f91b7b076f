import csv
import json
import shutil

import pytest

from ealm import cli
from ealm import pipeline as pl
from ealm.data import generate_synthetic_corpus, save_jsonl
from ealm.meter import Meter
from ealm.rank import RankingWeights, select_top_k


def make_config(tmp_path, **overrides) -> pl.PipelineConfig:
    train = tmp_path / "train.jsonl"
    evalp = tmp_path / "eval.jsonl"
    records = generate_synthetic_corpus(seed=0, n_records=4, grammar_size=2)
    save_jsonl(records, train)
    save_jsonl(records[:2], evalp)
    base = dict(
        bits_grid=[4, 32], epochs_grid=[1], w=0.7, k=1,
        prune_ratios=[0.5], nm_patterns=[(2, 4)],
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
        pl.PipelineConfig(nm_patterns=[(4, 4)])
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig(w=1.2)
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig(k=0)
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig.from_dict({"unknown_key": 1})


def test_config_file_roundtrip(tmp_path):
    cfg = make_config(tmp_path)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    loaded = pl.PipelineConfig.from_file(p)
    assert loaded == cfg
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig.from_file(bad)


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
    # artifacts saved for every loop-1 candidate
    for c in loop1:
        assert (out / "artifacts" / f"{c['id']}.ealm").exists()
        assert (out / "artifacts" / f"{c['id']}.adapters.npz").exists()

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
    arts = pl.load_artifacts([loop1[0].id], out)
    art = arts[loop1[0].id]
    assert art["adapters"].rank == cfg.lora_rank
    art["bundle"].validate()


def test_select_topk_used_for_loop2_parents(tmp_path):
    cfg = make_config(tmp_path, k=2)
    payload = pl.run_all(cfg)
    loop1 = [c for c in payload["candidates"] if c["stage"] == "finetune"]
    loop2 = [c for c in payload["candidates"] if c["stage"] == "prune"]
    recs = pl.load_candidates(tmp_path / "out" / "candidates_loop1.json")
    top = select_top_k([r for r in recs if r.status == "ok"],
                       RankingWeights(w=cfg.w, k=cfg.k))
    assert {c["lineage"]["parent_id"] for c in loop2} == {r.id for r in top}
    assert len(loop2) == 2 * (1 + 1 + 1)
    assert len(loop1) == 2


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


def test_cli_run_all_smoke(tmp_path):
    cfg = make_config(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert cli.main(["run-all", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def write_trace_config(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("0.0,cpu,10.0\n1.0,cpu,10.0\n")
    cfg = make_config(tmp_path, meter={"source": "trace-replay", "trace_path": str(trace)})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
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
    ("prune-grid", "artifacts/{top}.ealm"),
    ("prune-grid", "artifacts/{top}.adapters.npz"),
    ("prune-grid", None),  # candidates_loop1.json is there but has no baseline
    ("report", "candidates_loop1.json"),
])
def test_cli_stage_error_on_missing_state(ranked_state, tmp_path, capsys, command, missing):
    cfg_path, ranked_out, top = ranked_state
    out = tmp_path / "out"
    shutil.copytree(ranked_out, out)
    if missing:
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


def test_meter_config_from_pipeline():
    cfg = pl.PipelineConfig(meter={"source": "constant-power",
                                   "constant_watts": {"cpu": 5.0}})
    m = pl.build_meter(cfg)
    assert isinstance(m, Meter)
    with pytest.raises(pl.ConfigError):
        pl.PipelineConfig(meter={"bogus_key": 1}).meter_config()
