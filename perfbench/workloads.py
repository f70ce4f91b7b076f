"""Workload definitions and their seeded inputs.

Each workload is a `PipelineConfig` plus corpus sizes. Every workload
trains and evaluates on the README's corpus (`generate_synthetic_corpus`
with seed 0) from a model initialised with seed 0; the benchmark seed sets
the level of the flat power trace that the trace-replay meter charges.

The corpus does not follow the benchmark seed because it sets how much work
a sweep does. Over corpus seeds 0-9, quickstart decoded 3,333 to 4,905
tokens (its sweep took 6.2 to 10.2 s), since the trained model's EOS decides
decode length. Over five other seeds, decode-long decoded 5,290 to 6,144
tokens, and train-wide's sequences (whose length follows the reference
templates) moved its sweep by about 14%. Run-to-run noise on a shared
2-vCPU host (Python 3.11, numpy 2.4 with OpenBLAS) is about 6%, so either
effect would swamp a regression bound.

Why these three:
- quickstart: the README quick-start grid, the number everyone quotes. About
  1/3 of its time is training and 2/3 greedy decode.
- decode-long: evaluation dominated (long generations, one epoch), so a
  decode-side change shows fully and a training-only change shows nothing.
- train-wide: training dominated on a wider model (bigger matmuls, adapters
  change every step, backward pass), so a decode-side cache that costs
  training shows here, and a KV cache should not.

train-wide uses bits [4, 32] and one 2:4 pattern so that every layer the
trace reports (nibble packing, N:M masks) runs on every workload; neither
changes its training cost, which is the same float32 compute at any width.
"""

from __future__ import annotations

import random
from pathlib import Path

CORPUS_SEED = 0  # the README quick-start's `ealm gen-data --seed 0`

WORKLOADS: dict[str, dict] = {
    "quickstart": {
        "n_train": 16, "n_eval": 8,
        "config": {
            "bits_grid": [4, 8, 16, 32], "epochs_grid": [5, 10], "k": 2,
            "prune_ratios": [0.1, 0.3, 0.5], "nm_patterns": [[2, 4], [4, 8]],
            "d_model": 32,
        },
    },
    "decode-long": {
        "n_train": 16, "n_eval": 8,
        "config": {
            "bits_grid": [4, 32], "epochs_grid": [1], "k": 2,
            "prune_ratios": [0.3], "nm_patterns": [[2, 4]],
            "max_new_tokens": 96,
        },
    },
    "train-wide": {
        "n_train": 32, "n_eval": 4,
        "config": {
            "bits_grid": [4, 32], "epochs_grid": [3], "k": 1,
            "prune_ratios": [0.3], "nm_patterns": [[2, 4]],
            "d_model": 128, "n_heads": 4, "d_ff": 512, "max_new_tokens": 8,
        },
    },
}


def expected_candidates(spec: dict) -> int:
    """Loop 1 is bits x epochs; loop 2 is k parents x (unpruned + ratios + N:M)."""
    c = spec["config"]
    loop1 = len(c["bits_grid"]) * len(c["epochs_grid"])
    return loop1 + c["k"] * (1 + len(c["prune_ratios"]) + len(c["nm_patterns"]))


def write_trace(path: Path, seed: int) -> None:
    """A flat two-sample power trace; its level is drawn from the seed."""
    rng = random.Random(f"perfbench-trace:{seed}")
    cpu = round(rng.uniform(10.0, 30.0), 3)
    ram = round(rng.uniform(1.0, 5.0), 3)
    rows = ["timestamp_s,domain,watts"]
    for t in (0.0, 1.0):
        rows += [f"{t},cpu,{cpu}", f"{t},ram,{ram}"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def setup(spec: dict, seed: int, workdir: Path):
    """Everything before the first `run_all` call: import ealm, write the
    corpus and the trace, parse the config and build the meter.
    Returns (PipelineConfig, Meter, number of training sequences)."""
    from ealm.data import generate_synthetic_corpus, save_jsonl
    from ealm.pipeline import PipelineConfig, build_meter

    workdir.mkdir(parents=True, exist_ok=True)
    train, evalp, trace = workdir / "train.jsonl", workdir / "eval.jsonl", workdir / "trace.csv"
    save_jsonl(generate_synthetic_corpus(CORPUS_SEED, spec["n_train"]), train)
    save_jsonl(generate_synthetic_corpus(CORPUS_SEED, spec["n_eval"]), evalp)
    write_trace(trace, seed)
    config = PipelineConfig.from_dict({
        **spec["config"],
        "train_path": str(train), "eval_path": str(evalp),
        "out_dir": str(workdir / "out"),
        "meter": {"source": "trace-replay", "trace_path": str(trace)},
    })
    return config, build_meter(config), spec["n_train"]
