"""Two-loop grid orchestrator: quantized LoRA fine-tuning with per-epoch
energy spans, top-k selection, pruning grid, and report generation.

Candidates run strictly sequentially so at most one energy span is ever open.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import prune as prune_mod
from . import quant as quant_mod
from . import rank as rank_mod
from . import tinylm
from .data import DatasetRecord, load_jsonl
from .meter import (
    EnergyReport,
    Meter,
    MeterConfig,
    combine_reports,
    meter_from_spec,
    report_from_dict,
)
from .metrics import MetricScores, score_outputs
from .rank import CandidateRecord, RankingWeights
from .tensors import LmConfig, ModelBundle, load_bundle, payload_bytes, save_bundle

import numpy as np


class ConfigError(Exception):
    pass


class StageError(Exception):
    pass


@dataclass
class PipelineConfig:
    bits_grid: list[int] = field(default_factory=lambda: [4, 8, 16, 32])
    epochs_grid: list[int] = field(default_factory=lambda: [5, 10])
    w: float = 0.7
    k: int = 2
    prune_ratios: list[float] = field(default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5])
    nm_patterns: list[tuple[int, int]] = field(default_factory=lambda: [(2, 4), (4, 8)])
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 64
    max_seq: int = 128
    lora_rank: int = 4
    lora_alpha: float = 8.0
    lr: float = 0.05
    train_path: str = ""
    eval_path: str = ""
    meter: dict = field(default_factory=dict)
    out_dir: str = "out"
    seed: int = 0
    max_new_tokens: int = 32

    def __post_init__(self):
        if not self.bits_grid or not self.epochs_grid:
            raise ConfigError("bits_grid and epochs_grid must be nonempty")
        for b in self.bits_grid:
            if b not in (4, 8, 16, 32):
                raise ConfigError(f"bits_grid entry {b} not in {{4, 8, 16, 32}}")
        for r in self.prune_ratios:
            if not 0 < r < 1:
                raise ConfigError(f"prune ratio {r} outside (0, 1)")
        for n, m in self.nm_patterns:
            if not 0 < n < m:
                raise ConfigError(f"bad N:M pattern ({n}, {m})")
        if not 0 <= self.w <= 1:
            raise ConfigError(f"w must be in [0, 1], got {self.w}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")

    def lm_config(self) -> LmConfig:
        return LmConfig(
            d_model=self.d_model, n_layers=self.n_layers, n_heads=self.n_heads,
            d_ff=self.d_ff, max_seq=self.max_seq, init_seed=self.seed,
        )

    def meter_config(self) -> MeterConfig:
        d = dict(self.meter)
        d.setdefault("source", "constant-power")
        if "nm_patterns" in d:
            raise ConfigError("meter config got pipeline keys")
        try:
            return MeterConfig(**d)
        except TypeError as e:
            raise ConfigError(f"bad meter config: {e}") from e

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["nm_patterns"] = [list(p) for p in self.nm_patterns]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        d = dict(d)
        if "nm_patterns" in d:
            d["nm_patterns"] = [tuple(p) for p in d["nm_patterns"]]
        try:
            return cls(**d)
        except TypeError as e:
            raise ConfigError(f"bad config: {e}") from e

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        text = Path(path).read_text(encoding="utf-8")
        if str(path).endswith((".yaml", ".yml")):
            import yaml

            obj = yaml.safe_load(text)
        else:
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: not valid JSON: {e}") from e
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        return cls.from_dict(obj)


def _encode_train(records: list[DatasetRecord], max_seq: int) -> list[list[int]]:
    return [tinylm.encode_example(r.prompt, r.reference)[:max_seq] for r in records]


def evaluate_model(model: tinylm.TinyLm, adapters, eval_records, meter: Meter,
                   max_new: int) -> tuple[MetricScores, EnergyReport]:
    """Metered greedy decoding over the eval set, then metric scoring."""
    span = meter.start_span()
    t0 = time.monotonic()
    pairs = []
    n_generated = 0
    for rec in eval_records:
        prompt_ids = tinylm.encode_prompt(rec.prompt)
        out = tinylm.greedy_decode(model, adapters, prompt_ids, max_new)
        generated = out[len(prompt_ids):]
        n_generated += len(generated)
        pairs.append((tinylm.decode_ids(generated), rec.reference))
    wall = max(time.monotonic() - t0, 1e-9)
    energy = meter.stop_span(span)
    scores = score_outputs(pairs, n_generated, wall)
    return scores, energy


def run_finetune_grid(config: PipelineConfig, meter: Meter,
                      train_records, eval_records):
    """Loop 1: (bits x epochs) grid of LoRA fine-tunes over quantized bases.

    Returns (records, artifacts) where artifacts[id] holds the trained bundle,
    adapters, and the inference-span energy used as the loop-2 reference.
    """
    lm_cfg = config.lm_config()
    base32 = tinylm.init_model(lm_cfg)
    sequences = _encode_train(train_records, lm_cfg.max_seq)
    records: list[CandidateRecord] = []
    artifacts: dict[str, dict] = {}
    for bits in config.bits_grid:
        for epochs in config.epochs_grid:
            cid = f"ft-b{bits}-e{epochs}"
            lineage = {"precision_bits": bits, "epochs_trained": epochs,
                       "prune": None, "parent_id": None}
            try:
                bundle = quant_mod.quantize_bundle(base32, quant_mod.QuantSpec(bits))
                adapters = tinylm.init_adapters(
                    lm_cfg, rank=config.lora_rank, alpha=config.lora_alpha,
                    seed=config.seed,
                )
                model = tinylm.TinyLm(bundle)
                train_recs = []
                for e in range(1, epochs + 1):
                    adapters, tr = tinylm.train_epoch(
                        model, adapters, sequences, config.lr, meter=meter, epoch=e
                    )
                    train_recs.append(tr)
                scores, eval_energy = evaluate_model(
                    model, adapters, eval_records, meter, config.max_new_tokens
                )
                total = combine_reports([tr.energy for tr in train_recs] + [eval_energy])
                rec = CandidateRecord(
                    id=cid,
                    lineage=lineage,
                    scores=scores,
                    energy=total,
                    stage="finetune",
                    train_records=train_recs,
                    extra={"payload_bytes": payload_bytes(bundle),
                           "eval_energy": eval_energy.to_dict()},
                )
                artifacts[cid] = {"bundle": bundle, "adapters": adapters}
            except Exception as e:  # candidate failure is recorded, not fatal
                rec = _failed(cid, lineage, "finetune", e)
            records.append(rec)
    ok = [r for r in records if r.status == "ok"]
    if not ok:
        raise StageError("finetune-grid: every candidate failed")
    baseline = _pick_baseline(ok)
    baseline.baseline = True
    _score(ok, config.w, baseline.energy)  # phi = 1 - E/E = 0 for the baseline
    return records, artifacts


def _pick_baseline(ok_records: list[CandidateRecord]) -> CandidateRecord:
    """Baseline: highest-precision (32-bit when present), max-epochs, unpruned."""
    best_bits = max(r.lineage["precision_bits"] for r in ok_records)
    pool = [r for r in ok_records if r.lineage["precision_bits"] == best_bits]
    max_epochs = max(r.lineage["epochs_trained"] for r in pool)
    pool = [r for r in pool if r.lineage["epochs_trained"] == max_epochs]
    return pool[0]


def _score(records: list[CandidateRecord], w: float, ref_energy: EnergyReport) -> None:
    """Sets rho, phi (saving relative to `ref_energy`) and R on every record."""
    for rec in records:
        rec.rho = rank_mod.performance_score(rec.scores)
        rec.phi = rank_mod.efficiency_score(rec.energy, ref_energy)
        rec.r_score = rank_mod.rank_score(rec.phi, rec.rho, w)


def _failed(cid: str, lineage: dict, stage: str, exc: Exception) -> CandidateRecord:
    return CandidateRecord(id=cid, lineage=lineage, status="failed",
                           error=f"{type(exc).__name__}: {exc}", stage=stage)


def run_prune_grid(topk: list[CandidateRecord], artifacts: dict, config: PipelineConfig,
                   meter: Meter, eval_records, base_eval_energy: EnergyReport):
    """Loop 2: for each selected model, the unpruned reference evaluation plus
    every unstructured ratio and every N:M pattern, all metered at inference.
    phi is relative to the baseline model's inference-span energy."""
    records: list[CandidateRecord] = []
    for parent in topk:
        art = artifacts[parent.id]
        bundle: ModelBundle = art["bundle"]
        adapters = art["adapters"]
        if parent.lineage["precision_bits"] == 32:
            eff_bundle = tinylm.merge_adapters(bundle, adapters)
            eff_adapters = None
        else:
            eff_bundle, eff_adapters = bundle, adapters

        variants: list[tuple[str, prune_mod.PruneSpec | None]] = [(f"{parent.id}-unpruned", None)]
        for ratio in config.prune_ratios:
            variants.append((
                f"{parent.id}-mag{int(round(ratio * 100))}",
                prune_mod.PruneSpec("unstructured-magnitude", ratio=ratio),
            ))
        for n, m in config.nm_patterns:
            variants.append((
                f"{parent.id}-nm{n}x{m}",
                prune_mod.PruneSpec("structured-nm", n=n, m=m),
            ))

        for cid, spec in variants:
            lineage = {
                "precision_bits": parent.lineage["precision_bits"],
                "epochs_trained": parent.lineage["epochs_trained"],
                "prune": spec.to_dict() if spec else None,
                "parent_id": parent.id,
            }
            try:
                pruned = prune_mod.prune_bundle(eff_bundle, spec) if spec else eff_bundle
                if spec:
                    lineage["sparsity"] = pruned.lineage.sparsity
                model = tinylm.TinyLm(pruned)
                scores, energy = evaluate_model(
                    model, eff_adapters, eval_records, meter, config.max_new_tokens
                )
                rec = CandidateRecord(
                    id=cid, lineage=lineage, scores=scores, energy=energy,
                    stage="prune",
                    extra={"payload_bytes": payload_bytes(pruned),
                           "sparsity": prune_mod.sparsity(pruned)},
                )
            except Exception as e:  # candidate failure is recorded, not fatal
                rec = _failed(cid, lineage, "prune", e)
            records.append(rec)
    ok = [r for r in records if r.status == "ok"]
    if not ok:
        raise StageError("prune-grid: every candidate failed")
    _score(ok, config.w, base_eval_energy)
    return records


# ---------------------------------------------------------------------------
# reports

CSV_COLUMNS = [
    "id", "stage", "status", "baseline", "parent_id", "precision_bits",
    "epochs_trained", "prune_method", "prune_ratio", "prune_n", "prune_m",
    "sparsity", "payload_bytes", "bleu", "rouge1_f", "rouge2_f", "rougeL_f",
    "meteor", "cosine", "tokens_per_s", "cpu_joules", "ram_joules",
    "gpu_joules", "total_joules", "kwh", "co2e_kg", "phi", "rho", "w", "R",
]


def _csv_row(rec: CandidateRecord, w: float) -> dict:
    prune = rec.lineage.get("prune") or {}
    row = {
        "id": rec.id,
        "stage": rec.stage,
        "status": rec.status,
        "baseline": int(rec.baseline),
        "parent_id": rec.lineage.get("parent_id") or "",
        "precision_bits": rec.lineage.get("precision_bits"),
        "epochs_trained": rec.lineage.get("epochs_trained"),
        "prune_method": prune.get("method", ""),
        "prune_ratio": prune.get("ratio", ""),
        "prune_n": prune.get("n", ""),
        "prune_m": prune.get("m", ""),
        "sparsity": rec.extra.get("sparsity", rec.lineage.get("sparsity", "")),
        "payload_bytes": rec.extra.get("payload_bytes", ""),
        "phi": rec.phi, "rho": rec.rho, "w": w, "R": rec.r_score,
    }
    if rec.scores:
        row.update(rec.scores.to_dict())
    if rec.energy:
        row.update({
            "cpu_joules": rec.energy.joules.get("cpu", 0.0),
            "ram_joules": rec.energy.joules.get("ram", 0.0),
            "gpu_joules": rec.energy.joules.get("gpu", 0.0),
            "total_joules": rec.energy.total_joules,
            "kwh": rec.energy.kwh,
            "co2e_kg": rec.energy.co2e_kg,
        })
    return row


def emit_report(records: list[CandidateRecord], config: PipelineConfig, out_dir) -> dict:
    """Write report.json (raw), report.csv (flat), report.md (ranked summary)."""
    if not records:
        raise StageError("emit_report: empty collection")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    baseline = next((r for r in records if r.baseline), None)
    ok = [r for r in records if r.status == "ok"]
    ranked = sorted(ok, key=lambda r: (-r.r_score,
                                       r.energy.total_joules if r.energy else 0.0,
                                       r.id))
    derived = {}
    if baseline and baseline.energy:
        for rec in ok:
            if rec.energy is None:
                continue
            ref = _eval_energy(baseline) if rec.stage == "prune" else baseline.energy
            derived[rec.id] = {
                "energy_saving_pct": 100.0 * (1.0 - rec.energy.total_joules / ref.total_joules),
                "mean_metric_delta": rec.rho - baseline.rho,
            }
    payload = {
        "config": config.to_dict(),
        "baseline_id": baseline.id if baseline else None,
        "candidates": [r.to_dict() for r in records],
        "derived": derived,
    }
    (out / "report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    with open(out / "report.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow(_csv_row(rec, config.w))

    lines = ["# Energy/performance run report", "",
             f"Baseline: `{baseline.id if baseline else 'n/a'}`", "",
             "## Ranked candidates", "",
             "| rank | id | bits | prune | R | phi | rho | total J | kWh | kgCO2e |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    for i, rec in enumerate(ranked, 1):
        prune = rec.lineage.get("prune") or {}
        pdesc = (prune.get("method", "") +
                 (f" {prune['ratio']}" if prune.get("ratio") else "") +
                 (f" {prune['n']}:{prune['m']}" if prune.get("n") else "")) or "-"
        e = rec.energy
        lines.append(
            f"| {i} | {rec.id} | {rec.lineage.get('precision_bits')} | {pdesc} "
            f"| {rec.r_score:.4f} | {rec.phi:.4f} | {rec.rho:.4f} "
            f"| {e.total_joules:.3f} | {e.kwh:.3e} | {e.co2e_kg:.3e} |"
        )
    lines += ["", "## Energy vs training loss per epoch", "",
              "| candidate | epoch | loss | joules |", "|---|---|---|---|"]
    for rec in records:
        for tr in rec.train_records:
            j = tr.energy.total_joules if tr.energy else 0.0
            lines.append(f"| {rec.id} | {tr.epoch} | {tr.loss:.4f} | {j:.3f} |")
    (out / "report.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return payload


# ---------------------------------------------------------------------------
# staged state: every stage reads its inputs from and writes its outputs to
# files in out_dir, so `run_all` and the stage commands share one path.


def _record_from_dict(d: dict) -> CandidateRecord:
    rec = CandidateRecord(
        id=d["id"], lineage=d["lineage"],
        scores=MetricScores(**d["scores"]) if d.get("scores") else None,
        energy=report_from_dict(d["energy"]) if d.get("energy") else None,
        phi=d.get("phi", 0.0), rho=d.get("rho", 0.0), r_score=d.get("R", 0.0),
        baseline=d.get("baseline", False), stage=d.get("stage", "finetune"),
        status=d.get("status", "ok"), error=d.get("error"),
        extra=d.get("extra", {}),
    )
    for tr in d.get("train_records", []):
        rec.train_records.append(tinylm.TrainRecord(
            epoch=tr["epoch"], loss=tr["loss"],
            energy=report_from_dict(tr["energy"]) if tr.get("energy") else None,
        ))
    return rec


def _require(path: Path) -> Path:
    if not path.is_file():
        raise StageError(f"missing {path}; run the earlier stages into this out dir first")
    return path


def save_candidates(records: list[CandidateRecord], path) -> None:
    Path(path).write_text(
        json.dumps([r.to_dict() for r in records], sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def load_candidates(path) -> list[CandidateRecord]:
    text = _require(Path(path)).read_text(encoding="utf-8")
    return [_record_from_dict(d) for d in json.loads(text)]


def save_artifacts(artifacts: dict, out_dir) -> None:
    adir = Path(out_dir) / "artifacts"
    adir.mkdir(parents=True, exist_ok=True)
    for cid, art in artifacts.items():
        save_bundle(art["bundle"], adir / f"{cid}.ealm")
        ad = art["adapters"]
        arrays = {f"a:{n}": ad.a[n] for n in ad.a}
        arrays.update({f"b:{n}": ad.b[n] for n in ad.b})
        np.savez(adir / f"{cid}.adapters.npz",
                 rank=np.int64(ad.rank), alpha=np.float64(ad.alpha), **arrays)


def load_artifacts(ids: list[str], out_dir) -> dict:
    adir = Path(out_dir) / "artifacts"
    artifacts = {}
    for cid in ids:
        bundle = load_bundle(_require(adir / f"{cid}.ealm"))
        with np.load(_require(adir / f"{cid}.adapters.npz")) as z:
            a = {k[2:]: z[k] for k in z.files if k.startswith("a:")}
            b = {k[2:]: z[k] for k in z.files if k.startswith("b:")}
            adapters = tinylm.LoraAdapters(rank=int(z["rank"]), alpha=float(z["alpha"]), a=a, b=b)
        artifacts[cid] = {"bundle": bundle, "adapters": adapters}
    return artifacts


def _eval_energy(baseline: CandidateRecord) -> EnergyReport:
    """The baseline's loop-1 inference-span energy: loop 2's phi reference."""
    return report_from_dict(baseline.extra["eval_energy"])


def _load_dataset(path) -> list[DatasetRecord]:
    try:
        return load_jsonl(path)
    except Exception as e:
        raise StageError(f"dataset loading: {e}") from e


def build_meter(config: PipelineConfig, override: str | None = None) -> Meter:
    if override:
        return meter_from_spec(override, config.meter_config())
    return Meter(config.meter_config())


def finetune_stage(config: PipelineConfig, meter: Meter) -> list[CandidateRecord]:
    """Loop 1; writes candidates_loop1.json and artifacts/."""
    train_records = _load_dataset(config.train_path)
    eval_records = _load_dataset(config.eval_path)
    records, artifacts = run_finetune_grid(config, meter, train_records, eval_records)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_candidates(records, out / "candidates_loop1.json")
    save_artifacts(artifacts, out)
    return records


def rank_stage(config: PipelineConfig) -> list[CandidateRecord]:
    """Top-k of loop 1 by R; writes topk.json."""
    out = Path(config.out_dir)
    ok = [r for r in load_candidates(out / "candidates_loop1.json") if r.status == "ok"]
    topk = rank_mod.select_top_k(ok, RankingWeights(w=config.w, k=config.k))
    save_candidates(topk, out / "topk.json")
    return topk


def prune_stage(config: PipelineConfig, meter: Meter) -> list[CandidateRecord]:
    """Loop 2 over topk.json's models; writes candidates_loop2.json."""
    out = Path(config.out_dir)
    loop1_path = out / "candidates_loop1.json"
    baseline = next((r for r in load_candidates(loop1_path) if r.baseline), None)
    if baseline is None:
        raise StageError(f"{loop1_path} has no baseline candidate")
    topk = load_candidates(out / "topk.json")
    artifacts = load_artifacts([r.id for r in topk], out)
    eval_records = _load_dataset(config.eval_path)
    records = run_prune_grid(topk, artifacts, config, meter, eval_records,
                             _eval_energy(baseline))
    save_candidates(records, out / "candidates_loop2.json")
    return records


def report_stage(config: PipelineConfig) -> dict:
    """report.json/.csv/.md over loop 1 and, when it has run, loop 2."""
    out = Path(config.out_dir)
    records = load_candidates(out / "candidates_loop1.json")
    loop2_path = out / "candidates_loop2.json"
    if loop2_path.exists():
        records += load_candidates(loop2_path)
    return emit_report(records, config, out)


def run_all(config: PipelineConfig, meter: Meter | None = None) -> dict:
    """Full pipeline: fine-tune grid -> top-k -> prune grid -> ranked report."""
    meter = meter or build_meter(config)
    finetune_stage(config, meter)
    rank_stage(config)
    prune_stage(config, meter)
    return report_stage(config)
