import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ealm.meter import EnergyReport
from ealm.metrics import MetricScores
from ealm.rank import (
    CandidateRecord,
    RankError,
    TrainRecord,
    efficiency_score,
    performance_score,
    rank_score,
    select_top_k,
)
from ealm.tensors import Lineage

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def rep(j):
    return EnergyReport(joules={"cpu": j}, duration_s=1.0)


def cand(id, r, joules=1.0, **kw):
    return CandidateRecord(id=id, lineage=Lineage(), r_score=r, energy=rep(joules), **kw)


def test_rank_score_formula():
    assert rank_score(0.5, 1.0, 0.7) == pytest.approx(0.7 * 0.5 + 0.3 * 1.0, abs=1e-15)
    assert rank_score(0.2, 0.8, 0.0) == pytest.approx(0.8, abs=1e-15)
    assert rank_score(0.2, 0.8, 1.0) == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(RankError):
        rank_score(0.5, 0.5, 1.5)


@given(UNIT, UNIT, UNIT)
@settings(max_examples=300, deadline=None)
def test_rank_score_bounded_and_monotone(phi, rho, w):
    r = rank_score(phi, rho, w)
    assert 0.0 <= r <= 1.0
    assert rank_score(min(phi + 0.1, 1.0), rho, w) >= r - 1e-12


def test_performance_score_is_quality_mean():
    s = MetricScores(bleu=0.6, rouge1_f=0.5, rouge2_f=0.4, rougeL_f=0.5,
                     meteor=0.3, cosine=0.7, tokens_per_s=9999.0)
    # throughput must not enter the mean
    assert performance_score(s) == pytest.approx((0.6 + 0.5 + 0.4 + 0.5 + 0.3 + 0.7) / 6,
                                                 abs=1e-15)


def test_efficiency_score_clamped():
    base = rep(100.0)
    assert efficiency_score(rep(60.0), base) == pytest.approx(0.4, abs=1e-12)
    assert efficiency_score(rep(100.0), base) == 0.0
    assert efficiency_score(rep(250.0), base) == 0.0  # worse than baseline clamps
    assert efficiency_score(rep(0.0), base) == 1.0
    with pytest.raises(RankError):
        efficiency_score(rep(1.0), rep(0.0))


def test_select_top_k_ordering_and_ties():
    c = [
        cand("b", 0.5, joules=10.0),
        cand("a", 0.5, joules=10.0),  # tie on R and joules: id breaks it
        cand("d", 0.9, joules=50.0),
        cand("c", 0.5, joules=5.0),  # tie on R: fewer joules wins
    ]
    top = select_top_k(c, 3)
    assert [x.id for x in top] == ["d", "c", "a"]
    assert len(select_top_k(c, 10)) == 4
    with pytest.raises(RankError):
        select_top_k([], 1)


def test_weights_validation():
    with pytest.raises(RankError):
        rank_score(0.5, 0.5, -0.1)
    with pytest.raises(RankError):
        select_top_k([cand("a", 0.5, joules=1.0)], 0)


def test_record_serialization():
    r = cand("x", 0.25, joules=2.0, phi=0.5, rho=0.75, baseline=True)
    d = r.to_dict()
    assert d["R"] == 0.25
    assert d["baseline"] is True
    assert d["energy"]["total_joules"] == 2.0
    assert d["scores"] is None
    assert d["train_records"] == []


def test_record_roundtrips_through_json():
    r = CandidateRecord(
        id="x-mag50", r_score=0.25, energy=rep(2.0), phi=0.5, rho=0.75, stage="prune",
        lineage=Lineage(precision_bits=4, epochs_trained=3, parent_id="x",
                        prune={"method": "unstructured-magnitude", "ratio": 0.5,
                               "n": None, "m": None, "scope": "per-tensor"},
                        sparsity=0.5),
        scores=MetricScores(bleu=0.1, rouge1_f=0.2, rouge2_f=0.3, rougeL_f=0.4,
                            meteor=0.5, cosine=0.6, tokens_per_s=7.0),
        train_records=[TrainRecord(epoch=1, loss=2.5, energy=rep(1.5))],
        extra={"payload_bytes": 123})
    assert CandidateRecord.from_dict(json.loads(json.dumps(r.to_dict()))) == r
