"""Dataset ingestion (JSONL prompt/reference pairs), a seeded synthetic
fault-ticket corpus generator, and token-length statistics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .tensors import check_types
from .tinylm import encode_example, named_rng


class DataError(Exception):
    pass


@dataclass(frozen=True)
class DatasetRecord:
    prompt: str
    reference: str

    def __post_init__(self):
        check_types(DatasetRecord, vars(self), DataError)
        if not self.prompt.strip() or not self.reference.strip():
            raise DataError("prompt and reference must be nonempty")
        try:  # the byte tokenizer encodes UTF-8; a lone surrogate has none
            self.prompt.encode("utf-8"), self.reference.encode("utf-8")
        except UnicodeEncodeError as e:
            raise DataError(f"prompt or reference is not UTF-8 encodable: {e}") from e


def load_jsonl(path) -> list[DatasetRecord]:
    return [rec for _, rec in read_jsonl(path)]


def read_jsonl(path) -> list[tuple[int, DatasetRecord]]:
    """Each record of a JSONL dataset with its 1-based line number."""
    records = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read dataset {path}: {e}") from e
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            records.append((lineno, DatasetRecord(prompt=obj["prompt"],
                                                  reference=obj["reference"])))
        except (json.JSONDecodeError, KeyError, TypeError, DataError) as e:
            raise DataError(f"{path}:{lineno}: bad record: {e}") from e
    if not records:
        raise DataError(f"{path}: empty dataset")
    return records


def save_jsonl(records: list[DatasetRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps({"prompt": rec.prompt, "reference": rec.reference},
                               sort_keys=True) + "\n")


_SYMPTOMS = ["loss signal", "high latency", "packet drops", "link flap",
             "cpu overload", "auth failure", "route leak", "fan alarm"]
_ACTIONS = ["reset", "replace", "reroute", "patch", "reseat", "restart"]
_PARTS = ["card", "port", "link", "node", "fiber", "psu"]


def generate_synthetic_corpus(seed: int, n_records: int, grammar_size: int = 4) -> list[DatasetRecord]:
    """Deterministic fault-code prompts with templated fix references.

    Each record carries a unique fault code plus one of ``grammar_size``
    symptom classes; the fix reference is a seeded template chosen per
    symptom class, so prompt -> reference is a function and the corpus is
    learnable by a small model.
    """
    if n_records < 1:
        raise DataError("n_records must be >= 1")
    g = max(1, min(grammar_size, len(_ACTIONS), len(_PARTS), len(_SYMPTOMS)))
    rng = named_rng(seed, "synthetic-corpus")
    class_fix = []
    for _ in range(g):
        action = _ACTIONS[int(rng.integers(len(_ACTIONS)))]
        part = _PARTS[int(rng.integers(len(_PARTS)))]
        slot = int(rng.integers(10))
        class_fix.append(f"{action} {part} {slot}")
    records = []
    for i in range(n_records):
        cls = i % g
        records.append(DatasetRecord(
            prompt=f"fault e{i:02d} {_SYMPTOMS[cls]}",
            reference=class_fix[cls],
        ))
    return records


def dataset_stats(records: list[DatasetRecord], bucket_width: int = 16) -> dict:
    """Token-length histogram (byte tokenizer, full training sequence)."""
    if not records:
        raise DataError("empty dataset")
    lengths = [len(encode_example(r.prompt, r.reference)) for r in records]
    hist: dict[str, int] = {}
    for n in lengths:
        lo = (n // bucket_width) * bucket_width
        key = f"[{lo},{lo + bucket_width})"
        hist[key] = hist.get(key, 0) + 1
    return {
        "histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0][1:].split(",")[0]))),
        "mean": sum(lengths) / len(lengths),
        "max": max(lengths),
        "count": len(lengths),
        "bucket_width": bucket_width,
    }
