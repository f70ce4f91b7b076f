"""Two-loop grid orchestrator: quantized LoRA fine-tuning with per-epoch
energy spans, top-k selection, pruning grid, and report generation.

Candidates run strictly sequentially so at most one energy span is ever open.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import prune as prune_mod
from . import quant as quant_mod
from . import rank as rank_mod
from . import tinylm
from .data import DataError, DatasetRecord, read_jsonl
from .meter import (
    EnergyReport,
    Meter,
    MeterConfig,
    MeterError,
    combine_reports,
    meter_from_spec,
    report_from_dict,
)
from .metrics import MetricScores, score_outputs
from .rank import CandidateRecord, TrainRecord
from .tensors import (BundleError, Lineage, LmConfig, ModelBundle, check_types, load_bundle,
                      payload_bytes, save_bundle, write_atomic)


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
    nm_patterns: list[list[int]] = field(default_factory=lambda: [[2, 4], [4, 8]])
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
        check_types(PipelineConfig, vars(self), ConfigError)
        if not self.bits_grid or not self.epochs_grid:
            raise ConfigError("bits_grid and epochs_grid must be nonempty")
        for p in self.nm_patterns:
            if len(p) != 2:
                raise ConfigError(f"nm_patterns entry {p!r} is not an [n, m] pair")
        for name, values in (("epochs_grid", self.epochs_grid), ("k", [self.k]),
                             ("lora_rank", [self.lora_rank]),
                             ("max_new_tokens", [self.max_new_tokens])):
            for v in values:
                if v < 1:
                    raise ConfigError(f"{name} must be >= 1, got {v}")
        try:
            for b in self.bits_grid:
                quant_mod.QuantSpec(b)
            variants = self.prune_variants()
        except (quant_mod.QuantError, prune_mod.PruneError) as e:
            raise ConfigError(f"bad bits or pruning grid: {e}") from e
        # a candidate's id names its grid cell, so a repeated cell repeats an id
        for what, cells in (("bits_grid", self.bits_grid), ("epochs_grid", self.epochs_grid),
                            ("prune_ratios and nm_patterns", [v for v, _ in variants])):
            if len(set(cells)) < len(cells):
                raise ConfigError(f"repeated candidate id from {what}: {cells}")
        if not 0 <= self.w <= 1:
            raise ConfigError(f"w must be in [0, 1], got {self.w}")
        for name in ("lr", "lora_alpha"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        try:
            self.lm_config()
        except ValueError as e:
            raise ConfigError(f"bad model shape: {e}") from e

    def prune_variants(self) -> list[tuple[str, prune_mod.PruneSpec | None]]:
        """Loop 2's variants of one parent as (id suffix, spec): the unpruned
        model, then every magnitude ratio, then every N:M pattern."""
        spec = prune_mod.PruneSpec
        return ([("unpruned", None)]
                + [(f"mag{int(round(r * 100))}", spec("unstructured-magnitude", ratio=r))
                   for r in self.prune_ratios]
                + [(f"nm{n}x{m}", spec("structured-nm", n=n, m=m)) for n, m in self.nm_patterns])

    def lm_config(self) -> LmConfig:
        return LmConfig(
            d_model=self.d_model, n_layers=self.n_layers, n_heads=self.n_heads,
            d_ff=self.d_ff, max_seq=self.max_seq, init_seed=self.seed,
        )

    def meter_config(self) -> MeterConfig:
        try:
            return MeterConfig(**self.meter)
        except TypeError as e:
            raise ConfigError(f"bad meter config: {e}") from e

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        try:
            return cls(**d)
        except TypeError as e:
            raise ConfigError(f"bad config: {e}") from e

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read {path}: {e}") from e
        if str(path).endswith((".yaml", ".yml")):
            try:
                import yaml
            except ImportError as e:
                raise ConfigError(f"{path}: reading a YAML config needs the pyyaml package") from e
            parse, syntax_error = yaml.safe_load, yaml.YAMLError
        else:
            parse, syntax_error = json.loads, json.JSONDecodeError
        try:
            obj = parse(text)
        except syntax_error as e:
            raise ConfigError(f"{path}: cannot parse: {e}") from e
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        return cls.from_dict(obj)


def _decode_all(model: tinylm.TinyLm, eval_records, max_new: int):
    """Greedy decoding of every eval prompt: ((text, reference) pairs, tokens)."""
    pairs = []
    n_generated = 0
    for rec in eval_records:
        prompt_ids = tinylm.encode_prompt(rec.prompt)
        out = tinylm.greedy_decode(model, None, prompt_ids, max_new)
        generated = out[len(prompt_ids):]
        n_generated += len(generated)
        pairs.append((tinylm.decode_ids(generated), rec.reference))
    return pairs, n_generated


def evaluate_model(model: tinylm.TinyLm, eval_records, meter: Meter,
                   max_new: int) -> tuple[MetricScores, EnergyReport]:
    """Metered greedy decoding over the eval set, then metric scoring.
    Throughput and energy read the same span clock."""
    (pairs, n_generated), energy = meter.measure(_decode_all, model, eval_records, max_new)
    scores = score_outputs(pairs, n_generated, max(energy.duration_s, 1e-9))
    return scores, energy


def run_finetune_grid(config: PipelineConfig, meter: Meter,
                      train_records, eval_records):
    """Loop 1: (bits x epochs) grid of LoRA fine-tunes over quantized bases.

    Each bit width runs one fine-tune: it quantizes the base once and trains
    one set of adapters for max(epochs_grid) epochs, each epoch in its own
    span. After each epoch N in epochs_grid the adapters of that moment are
    merged into the quantized bundle at its own width
    (`tinylm.merge_adapters`), outside every span, and that merged model is
    evaluated in its own span as candidate `ft-bX-eN`. A candidate is
    charged every epoch its adapters went through plus its own evaluation,
    so loop-1 candidates share epochs and their joules add up to more than
    the run spent. A quantization error fails all of a width's candidates, a
    training error at epoch j those with N >= j, and a merge or evaluation
    error only its own candidate.

    Returns (records, artifacts) in grid order, where artifacts[id] is the
    merged model the candidate was scored on, carrying its lineage: the
    model loop 2 prunes.
    """
    lm_cfg = config.lm_config()
    base32 = tinylm.init_model(lm_cfg)
    sequences = [tinylm.encode_example(r.prompt, r.reference) for r in train_records]
    records: list[CandidateRecord] = []
    artifacts: dict[str, ModelBundle] = {}
    for bits in config.bits_grid:
        lineages = {n: Lineage(precision_bits=bits, epochs_trained=n) for n in config.epochs_grid}
        done: dict[int, CandidateRecord] = {}
        try:
            bundle = quant_mod.quantize_bundle(base32, quant_mod.QuantSpec(bits))
            adapters = tinylm.init_adapters(
                lm_cfg, rank=config.lora_rank, alpha=config.lora_alpha, seed=config.seed,
            )
            model = tinylm.TinyLm(bundle)
            train_recs = []
            for epoch in range(1, max(config.epochs_grid) + 1):
                (adapters, loss), energy = meter.measure(
                    tinylm.train_epoch, model, adapters, sequences, config.lr
                )
                train_recs.append(TrainRecord(epoch, loss, energy))
                if epoch not in lineages:
                    continue
                cid, lineage = f"ft-b{bits}-e{epoch}", lineages[epoch]
                try:
                    # the model scored and staged for loop 2, built outside every span
                    merged = tinylm.merge_adapters(
                        dataclasses.replace(bundle, lineage=lineage), adapters)
                    scores, eval_energy = evaluate_model(
                        tinylm.TinyLm(merged), eval_records, meter, config.max_new_tokens
                    )
                    artifacts[cid] = merged
                except CANDIDATE_ERRORS as e:
                    done[epoch] = _failed(cid, lineage, "finetune", e)
                    continue
                total = combine_reports([tr.energy for tr in train_recs] + [eval_energy])
                done[epoch] = CandidateRecord(
                    id=cid,
                    lineage=lineage,
                    scores=scores,
                    energy=total,
                    stage="finetune",
                    train_records=list(train_recs),
                    extra={"payload_bytes": payload_bytes(merged),
                           "eval_energy": eval_energy.to_dict()},
                )
        except CANDIDATE_ERRORS as e:  # fails each candidate not yet reached
            for n, lineage in lineages.items():
                done.setdefault(n, _failed(f"ft-b{bits}-e{n}", lineage, "finetune", e))
        records += [done[n] for n in config.epochs_grid]
    ok = [r for r in records if r.status == "ok"]
    if not ok:
        raise StageError("finetune-grid: every candidate failed")
    # the baseline: highest precision, then most epochs; the first such on a tie
    baseline = max(ok, key=lambda r: (r.lineage.precision_bits, r.lineage.epochs_trained))
    baseline.baseline = True
    _score(ok, config.w, baseline)  # phi = 1 - E/E = 0 for the baseline
    return records, artifacts


def _reference_energy(baseline: CandidateRecord, rec: CandidateRecord) -> EnergyReport:
    """phi's reference for `rec`: the baseline's whole loop-1 energy for a
    loop-1 candidate; for a loop-2 candidate, which only runs inference, the
    baseline's loop-1 inference span."""
    if rec.stage == "prune":
        return report_from_dict(baseline.extra["eval_energy"])
    return baseline.energy


def _score(records: list[CandidateRecord], w: float, baseline: CandidateRecord) -> None:
    """Sets rho, phi (saving relative to `_reference_energy`) and R on every record."""
    for rec in records:
        rec.rho = rank_mod.performance_score(rec.scores)
        rec.phi = rank_mod.efficiency_score(rec.energy, _reference_energy(baseline, rec))
        rec.r_score = rank_mod.rank_score(rec.phi, rec.rho, w)


# What one candidate's own work can raise: it is recorded as a failed
# candidate and the grid goes on. Anything else (a bug, a meter failure)
# stops the run.
CANDIDATE_ERRORS = (tinylm.LmError, quant_mod.QuantError, prune_mod.PruneError)


def _failed(cid: str, lineage: Lineage, stage: str, exc: Exception) -> CandidateRecord:
    return CandidateRecord(id=cid, lineage=lineage, status="failed",
                           error=f"{type(exc).__name__}: {exc}", stage=stage)


def run_prune_grid(topk: list[CandidateRecord], artifacts: dict, config: PipelineConfig,
                   meter: Meter, eval_records, baseline: CandidateRecord):
    """Loop 2: for each selected model, the unpruned reference evaluation plus
    every unstructured ratio and every N:M pattern, all metered at inference.
    artifacts[id] is each parent's merged model (see `run_finetune_grid`), so
    the masks zero the weights the model computes on. phi is relative to
    `baseline`'s loop-1 inference span."""
    records: list[CandidateRecord] = []
    for parent in topk:
        bundle = artifacts[parent.id]
        for suffix, spec in config.prune_variants():
            cid = f"{parent.id}-{suffix}"
            lineage = dataclasses.replace(parent.lineage, parent_id=parent.id,
                                          prune=dataclasses.asdict(spec) if spec else None)
            try:
                pruned = prune_mod.prune_bundle(bundle, spec) if spec else bundle
                lineage.sparsity = prune_mod.sparsity(pruned)
                model = tinylm.TinyLm(pruned)
                scores, energy = evaluate_model(
                    model, eval_records, meter, config.max_new_tokens
                )
                rec = CandidateRecord(
                    id=cid, lineage=lineage, scores=scores, energy=energy,
                    stage="prune", extra={"payload_bytes": payload_bytes(pruned)},
                )
            except CANDIDATE_ERRORS as e:
                rec = _failed(cid, lineage, "prune", e)
            records.append(rec)
    ok = [r for r in records if r.status == "ok"]
    if not ok:
        raise StageError("prune-grid: every candidate failed")
    _score(ok, config.w, baseline)
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
    prune = rec.lineage.prune or {}
    row = {
        "id": rec.id,
        "stage": rec.stage,
        "status": rec.status,
        "baseline": int(rec.baseline),
        "parent_id": rec.lineage.parent_id or "",
        "precision_bits": rec.lineage.precision_bits,
        "epochs_trained": rec.lineage.epochs_trained,
        "prune_method": prune.get("method", ""),
        "prune_ratio": prune.get("ratio", ""),
        "prune_n": prune.get("n", ""),
        "prune_m": prune.get("m", ""),
        "sparsity": rec.lineage.sparsity,  # None (loop 1) writes as an empty cell
        "payload_bytes": rec.extra.get("payload_bytes", ""),
        "phi": rec.phi, "rho": rec.rho, "w": w, "R": rec.r_score,
    }
    if rec.scores:
        row.update(dataclasses.asdict(rec.scores))
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


def emit_report(records: list[CandidateRecord], baseline: CandidateRecord,
                config: PipelineConfig, out_dir) -> dict:
    """Write report.json (raw), report.csv (flat), report.md (ranked summary)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ok = [r for r in records if r.status == "ok"]
    ranked = sorted(ok, key=rank_mod.rank_key)
    derived = {
        rec.id: {
            "energy_saving_pct": 100.0 * (1.0 - rec.energy.total_joules
                                          / _reference_energy(baseline, rec).total_joules),
            "mean_metric_delta": rec.rho - baseline.rho,
        }
        for rec in ok
    }
    payload = {
        "config": dataclasses.asdict(config),
        "baseline_id": baseline.id,
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
             f"Baseline: `{baseline.id}`", "",
             "## Ranked candidates", "",
             "| rank | id | bits | prune | R | phi | rho | total J | kWh | kgCO2e |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    for i, rec in enumerate(ranked, 1):
        prune = rec.lineage.prune or {}
        pdesc = (prune.get("method", "") +
                 (f" {prune['ratio']}" if prune.get("ratio") else "") +
                 (f" {prune['n']}:{prune['m']}" if prune.get("n") else "")) or "-"
        e = rec.energy
        lines.append(
            f"| {i} | {rec.id} | {rec.lineage.precision_bits} | {pdesc} "
            f"| {rec.r_score:.4f} | {rec.phi:.4f} | {rec.rho:.4f} "
            f"| {e.total_joules:.3f} | {e.kwh:.3e} | {e.co2e_kg:.3e} |"
        )
    lines += ["", "## Energy vs training loss per epoch", "",
              "| candidate | epoch | loss | joules |", "|---|---|---|---|"]
    for rec in records:
        for tr in rec.train_records:
            lines.append(f"| {rec.id} | {tr.epoch} | {tr.loss:.4f} "
                         f"| {tr.energy.total_joules:.3f} |")
    (out / "report.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return payload


# ---------------------------------------------------------------------------
# staged state: every stage reads its inputs from and writes its outputs to
# files in out_dir, so `run_all` and the stage commands share one path.


def _unreadable(path, exc: Exception) -> StageError:
    """A staged input that is missing or cut short."""
    return StageError(f"cannot read {path} ({type(exc).__name__}: {exc}); "
                      "run the earlier stages into this out dir first")


def save_candidates(records: list[CandidateRecord], path) -> None:
    text = json.dumps([r.to_dict() for r in records], sort_keys=True, indent=2) + "\n"
    write_atomic(path, text.encode("utf-8"))


def load_candidates(path) -> list[CandidateRecord]:
    try:
        return [CandidateRecord.from_dict(d)
                for d in json.loads(Path(path).read_text(encoding="utf-8"))]
    except (OSError, ValueError, KeyError, TypeError) as e:  # ValueError: bad UTF-8 or JSON
        raise _unreadable(path, e) from e


def save_artifacts(artifacts: dict, out_dir) -> None:
    """Each candidate's merged model as the bundle file artifacts/<id>.merged.ealm."""
    adir = Path(out_dir) / "artifacts"
    adir.mkdir(parents=True, exist_ok=True)
    for cid, bundle in artifacts.items():
        save_bundle(bundle, adir / f"{cid}.merged.ealm")


def load_artifacts(ids: list[str], out_dir) -> dict:
    """Each id's merged model as save_artifacts wrote it; a file that is
    missing or that `load_bundle` refuses is a StageError."""
    artifacts = {}
    for cid in ids:
        path = Path(out_dir) / "artifacts" / f"{cid}.merged.ealm"
        try:
            artifacts[cid] = load_bundle(path)
        except (OSError, BundleError) as e:
            raise _unreadable(path, e) from e
    return artifacts


def _load_dataset(path, max_seq: int, train: bool) -> list[DatasetRecord]:
    """A dataset's records. A record whose model input encodes to more than
    `max_seq` tokens is refused before any work: for the train set the whole
    example (BOS + prompt + SEP + reference + EOS), which training could not
    fit; for the eval set the prompt (BOS + bytes + SEP), which greedy
    decoding could not start."""
    try:
        numbered = read_jsonl(path)
    except DataError as e:
        raise StageError(f"dataset loading: {e}") from e
    what = "training example" if train else "eval prompt"
    for lineno, rec in numbered:
        n = len(tinylm.encode_example(rec.prompt, rec.reference) if train
                else tinylm.encode_prompt(rec.prompt))
        if n > max_seq:
            raise StageError(f"{path}:{lineno}: {what} encodes to {n} tokens, "
                             f"more than max_seq {max_seq}")
    return [rec for _, rec in numbered]


def build_meter(config: PipelineConfig, override: str | None = None) -> Meter:
    """The `--meter` spec's or the config's meter; a bad setting is a ConfigError."""
    try:
        if override:
            return meter_from_spec(override, config.meter_config())
        return Meter(config.meter_config())
    except MeterError as e:
        raise ConfigError(f"bad meter config: {e}") from e


# The staged files in stage order; each is derived from the ones before it.
STAGED_FILES = ("candidates_loop1.json", "topk.json", "candidates_loop2.json",
                "report.json", "report.csv", "report.md")


def _remove_after(out: Path, name: str) -> None:
    """Removes every staged file after `name`: each was derived from the
    `name` of an earlier run, which the calling stage is about to replace."""
    for later in STAGED_FILES[STAGED_FILES.index(name) + 1:]:
        (out / later).unlink(missing_ok=True)


def finetune_stage(config: PipelineConfig, meter: Meter) -> list[CandidateRecord]:
    """Loop 1. Removes every staged file and every artifact it does not
    write, writes artifacts/, then candidates_loop1.json last: where that
    file exists, every artifact it names came from the same run."""
    train_records = _load_dataset(config.train_path, config.max_seq, train=True)
    eval_records = _load_dataset(config.eval_path, config.max_seq, train=False)
    records, artifacts = run_finetune_grid(config, meter, train_records, eval_records)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in STAGED_FILES:
        (out / name).unlink(missing_ok=True)
    written = {f"{cid}.merged.ealm" for cid in artifacts}
    for path in (out / "artifacts").glob("*.ealm"):
        if path.name not in written:
            path.unlink()
    save_artifacts(artifacts, out)
    save_candidates(records, out / "candidates_loop1.json")
    return records


def load_loop1(out_dir) -> tuple[list[CandidateRecord], CandidateRecord]:
    """candidates_loop1.json's records and the one ok baseline among them."""
    path = Path(out_dir) / "candidates_loop1.json"
    records = load_candidates(path)
    baselines = [r for r in records if r.baseline]
    if len(baselines) != 1 or baselines[0].status != "ok":
        raise StageError(f"{path} has {len(baselines)} baseline candidates, "
                         "not one that is ok")
    return records, baselines[0]


def rank_stage(config: PipelineConfig) -> list[CandidateRecord]:
    """Top-k of loop 1 by R at `config.w`; writes topk.json and removes the
    later stages' files."""
    out = Path(config.out_dir)
    records, baseline = load_loop1(out)
    ok = [r for r in records if r.status == "ok"]
    _score(ok, config.w, baseline)  # w may differ from the one finetune-grid used
    topk = rank_mod.select_top_k(ok, config.k)
    _remove_after(out, "topk.json")
    save_candidates(topk, out / "topk.json")
    return topk


def prune_stage(config: PipelineConfig, meter: Meter) -> list[CandidateRecord]:
    """Loop 2 over topk.json's models; writes candidates_loop2.json and
    removes the reports."""
    eval_records = _load_dataset(config.eval_path, config.max_seq, train=False)
    out = Path(config.out_dir)
    _, baseline = load_loop1(out)
    topk = load_candidates(out / "topk.json")
    artifacts = load_artifacts([r.id for r in topk], out)
    records = run_prune_grid(topk, artifacts, config, meter, eval_records, baseline)
    _remove_after(out, "candidates_loop2.json")
    save_candidates(records, out / "candidates_loop2.json")
    return records


def report_stage(config: PipelineConfig) -> dict:
    """report.json/.csv/.md over loop 1 and, when it has run, loop 2, scored
    at `config.w`."""
    out = Path(config.out_dir)
    records, baseline = load_loop1(out)
    loop2_path = out / "candidates_loop2.json"
    if loop2_path.exists():
        records += load_candidates(loop2_path)
    _score([r for r in records if r.status == "ok"], config.w, baseline)
    return emit_report(records, baseline, config, out)


def run_all(config: PipelineConfig, meter: Meter | None = None) -> dict:
    """Full pipeline: fine-tune grid -> top-k -> prune grid -> ranked report."""
    meter = meter or build_meter(config)
    finetune_stage(config, meter)
    rank_stage(config)
    prune_stage(config, meter)
    return report_stage(config)
