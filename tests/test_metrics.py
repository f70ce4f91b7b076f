import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ealm.metrics import (
    MetricScores,
    corpus_bleu,
    cosine,
    meteor,
    rouge_l,
    rouge_n,
    score_outputs,
    tokenize,
)

WORDS = st.lists(st.sampled_from("a b c d e f g".split()), min_size=1, max_size=12)


def test_bleu_identity_and_brevity():
    c = "a b c d".split()
    assert corpus_bleu([(c, c)]) == pytest.approx(1.0, abs=1e-12)
    # all n-gram precisions 1, candidate half the reference length: BP = e^-1
    assert corpus_bleu([(c, "a b c d e f g h".split())]) == pytest.approx(
        math.exp(-1.0), abs=1e-12)
    # longer-than-reference candidates are not penalized by BP
    assert corpus_bleu([("a b c d e".split(), "a b c d".split())]) < 1.0  # precision < 1 only


def test_bleu_zero_without_smoothing():
    assert corpus_bleu([("x y z w".split(), "a b c d".split())]) == 0.0
    # any empty n-gram level zeroes the score: 3-token candidate has no 4-grams
    assert corpus_bleu([("a b c".split(), "a b c".split())]) == 0.0


def test_bleu_input_validation():
    assert corpus_bleu([]) == 0.0


def test_corpus_bleu_pools_counts():
    pairs = [("a b c d".split(), "a b c d".split()),
             ("e f g h".split(), "e f g h".split())]
    assert corpus_bleu(pairs) == pytest.approx(1.0, abs=1e-12)
    # pooling differs from averaging per-sentence scores
    mixed = [("a b c d".split(), "a b c d e f g h".split()),
             ("a b c d e f g h".split(), "a b c d e f g h".split())]
    pooled = corpus_bleu(mixed)
    assert pooled > 0.0
    # c_total = 12, r_total = 16 -> BP = e^(1 - 16/12)
    p1 = 12 / 12
    p2 = (3 + 7) / (3 + 7)
    assert pooled == pytest.approx(
        math.exp(1 - 16 / 12) * math.exp(
            (math.log(12 / 12) + math.log(10 / 10) + math.log(8 / 8) + math.log(6 / 6)) / 4
        ),
        abs=1e-12,
    )


def test_rouge_derived_values():
    c = "the cat sat".split()
    r = "the cat".split()
    # P = 2/3, R = 1 -> F1 = 0.8
    assert rouge_n(c, r, 1) == pytest.approx(0.8, abs=1e-12)
    # bigrams: overlap 1 of (cand 2, ref 1) -> P = 1/2, R = 1 -> F1 = 2/3
    assert rouge_n(c, r, 2) == pytest.approx(2 / 3, abs=1e-12)
    # LCS("a b c d", "a c b d") = 3 -> F1 = 0.75 on equal lengths
    assert rouge_l("a b c d".split(), "a c b d".split()) == pytest.approx(0.75, abs=1e-12)
    assert rouge_l(c, c) == pytest.approx(1.0, abs=1e-12)
    # trigrams: "the cat sat" vs a reference with none -> 0; on itself -> 1
    assert rouge_n(c, r, 3) == 0.0
    assert rouge_n(c, c, 3) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("metric", [
    lambda c, r: corpus_bleu([(c, r)]), lambda c, r: rouge_n(c, r, 1),
    lambda c, r: rouge_n(c, r, 2), rouge_l, meteor, cosine,
], ids=["bleu", "rouge1", "rouge2", "rougeL", "meteor", "cosine"])
def test_every_metric_is_zero_when_a_side_is_empty(metric):
    s = "reset card two".split()
    assert metric([], s) == metric(s, []) == metric([], []) == 0.0


def test_rouge_clipping():
    # candidate repeats a token beyond its reference count: overlap clips at 1
    c = "a a a".split()
    r = "a b".split()
    # P = 1/3, R = 1/2
    assert rouge_n(c, r, 1) == pytest.approx(0.4, abs=1e-12)


def test_meteor_derived_values():
    s = "reset card two".split()
    # perfect match, one chunk of 3: 1 - 0.5 * (1/3)^3
    assert meteor(s, s) == pytest.approx(1 - 0.5 / 27, abs=1e-12)
    # all tokens match but every match is its own chunk: penalty = 0.5
    assert meteor("a b c".split(), "c b a".split()) == pytest.approx(0.5, abs=1e-12)
    assert meteor("x y".split(), "a b".split()) == 0.0
    assert meteor([], s) == 0.0
    # partial: cand "a b x", ref "a b y": m=2, chunks=1, P=2/3, R=2/3
    p = r = 2 / 3
    f = 10 * p * r / (r + 9 * p)
    assert meteor("a b x".split(), "a b y".split()) == pytest.approx(
        f * (1 - 0.5 * (1 / 2) ** 3), abs=1e-12)


def test_cosine_derived_values():
    # tf vectors [2,1] vs [1,1]: 3 / (sqrt(5) * sqrt(2))
    assert cosine("a a b".split(), "a b".split()) == pytest.approx(
        3 / math.sqrt(10), abs=1e-12)
    assert cosine("a b".split(), "a b".split()) == pytest.approx(1.0, abs=1e-12)
    assert cosine("a".split(), "b".split()) == 0.0
    assert cosine([], []) == 0.0


def test_score_outputs_contract():
    pairs = [("reset card 2", "reset card 2"), ("", "reset card 2")]
    s = score_outputs(pairs, n_tokens=20, duration_s=2.0)
    # the unscorable empty candidate counts as zero in the means
    assert s.rouge1_f == pytest.approx(0.5, abs=1e-12)
    assert s.tokens_per_s == 10.0
    assert set(dataclasses.asdict(s)) == set(MetricScores.QUALITY_FIELDS) | {"tokens_per_s"}
    for v in s.quality_values():
        assert 0.0 <= v <= 1.0


def test_tokenize_lowercases():
    assert tokenize("Reset  CARD 2") == ["reset", "card", "2"]


@given(WORDS, WORDS)
@settings(max_examples=300, deadline=None)
def test_metrics_bounded_and_symmetric_identities(c, r):
    vals = [
        corpus_bleu([(c, r)]),
        rouge_n(c, r, 1),
        rouge_n(c, r, 2),
        rouge_l(c, r),
        meteor(c, r),
        cosine(c, r),
    ]
    for v in vals:
        assert 0.0 <= v <= 1.0
    # identity on self (BLEU needs >= 4 tokens for full n-gram coverage)
    if len(c) >= 4:
        assert corpus_bleu([(c, c)]) == pytest.approx(1.0, abs=1e-9)
    assert rouge_n(c, c, 1) == pytest.approx(1.0, abs=1e-12)
    assert rouge_l(c, c) == pytest.approx(1.0, abs=1e-12)
    assert cosine(c, c) == pytest.approx(1.0, abs=1e-9)
    # rouge F1 symmetry
    assert rouge_n(c, r, 1) == pytest.approx(rouge_n(r, c, 1), abs=1e-12)
    assert rouge_l(c, r) == pytest.approx(rouge_l(r, c), abs=1e-12)
    assert cosine(c, r) == pytest.approx(cosine(r, c), abs=1e-9)
