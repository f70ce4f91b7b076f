"""Candidate ranking: R = w * phi + (1 - w) * rho, plus top-k selection.

phi is the candidate's energy saving relative to the baseline model, clamped
to [0, 1] (the baseline scores 0). rho is the mean of the six bounded quality
metrics; throughput is reported alongside but never averaged in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .meter import EnergyReport, report_from_dict
from .metrics import MetricScores
from .tensors import Lineage, fits, from_fields


class RankError(Exception):
    pass


# The `extra` keys the pipeline writes on an ok record, by stage; a failed one has none.
OK_EXTRA_KEYS = {"finetune": ["eval_energy", "payload_bytes"], "prune": ["payload_bytes"]}


@dataclass
class TrainRecord:
    epoch: int
    loss: float
    energy: EnergyReport


@dataclass
class CandidateRecord:
    id: str
    lineage: Lineage
    scores: MetricScores | None = None
    energy: EnergyReport | None = None
    phi: float = 0.0
    rho: float = 0.0
    r_score: float = 0.0
    baseline: bool = False
    stage: str = "finetune"  # "finetune" | "prune"
    status: str = "ok"  # "ok" | "failed"
    error: str | None = None
    train_records: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """`asdict` of the record, with `r_score` written as `R` and each
        energy report as `EnergyReport.to_dict` writes it."""
        d = asdict(self)
        d["R"] = d.pop("r_score")
        d["energy"] = self.energy.to_dict() if self.energy else None
        for tr, out in zip(self.train_records, d["train_records"]):
            out["energy"] = tr.energy.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CandidateRecord":
        """The record `to_dict` wrote, each value fitting its field's annotation;
        anything else is a KeyError, TypeError or ValueError."""
        if "r_score" in d:
            raise KeyError(f"record holds 'r_score'; R is written as 'R': {d!r}")
        nested = {
            "lineage": from_fields(Lineage, d["lineage"]),
            "scores": from_fields(MetricScores, d["scores"]) if d["scores"] is not None else None,
            "energy": report_from_dict(d["energy"]) if d["energy"] is not None else None}
        rec = from_fields(cls, {("r_score" if k == "R" else k): v
                                for k, v in {**d, **nested}.items()})
        rec.train_records = [
            from_fields(TrainRecord, {**tr, "energy": report_from_dict(tr["energy"])})
            for tr in rec.train_records]
        if rec.stage not in OK_EXTRA_KEYS or rec.status not in ("ok", "failed"):
            raise ValueError(f"record {rec.id!r} has stage {rec.stage!r} and status {rec.status!r}")
        if rec.status == "ok" and (rec.scores is None or rec.energy is None):
            raise KeyError(f"record {rec.id!r} is ok but has no scores or energy")
        extra, want = rec.extra, OK_EXTRA_KEYS[rec.stage] if rec.status == "ok" else []
        if sorted(extra) != want or ("payload_bytes" in extra
                                     and not fits(extra["payload_bytes"], int)):
            raise KeyError(f"record {rec.id!r} ({rec.stage}, {rec.status}) has extra {extra!r}")
        if "eval_energy" in extra:
            report_from_dict(extra["eval_energy"])
        return rec


def performance_score(scores: MetricScores) -> float:
    vals = scores.quality_values()
    return sum(vals) / len(vals)


def efficiency_score(e_candidate: EnergyReport, e_base: EnergyReport) -> float:
    if e_base.total_joules <= 0:
        raise RankError("baseline energy must be positive")
    phi = 1.0 - e_candidate.total_joules / e_base.total_joules
    return min(max(phi, 0.0), 1.0)


def rank_score(phi: float, rho: float, w: float) -> float:
    if not 0.0 <= w <= 1.0:
        raise RankError(f"w must be in [0, 1], got {w}")
    return w * phi + (1.0 - w) * rho


def rank_key(rec: CandidateRecord):
    """Descending R; ties broken by lower total joules, then id."""
    joules = rec.energy.total_joules if rec.energy else float("inf")
    return (-rec.r_score, joules, rec.id)


def select_top_k(collection: list[CandidateRecord], k: int) -> list[CandidateRecord]:
    """The first k by `rank_key`."""
    if k < 1:
        raise RankError(f"k must be >= 1, got {k}")
    if not collection:
        raise RankError("empty candidate collection")
    return sorted(collection, key=rank_key)[:k]
