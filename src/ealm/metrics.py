"""Text-quality metrics (BLEU, ROUGE-1/2/L, METEOR, term-frequency cosine) plus
generation throughput.

All metrics compare an output with its one reference, operate on lowercased
whitespace tokens and stay in [0, 1]. Each is 0.0 when either side is empty.
BLEU uses no smoothing: any zero n-gram precision yields 0. METEOR runs the
exact-match stage only, with the canonical (10, 0.5, 3) parameters.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .kernels import lcs_length


@dataclass
class MetricScores:
    bleu: float = 0.0
    rouge1_f: float = 0.0
    rouge2_f: float = 0.0
    rougeL_f: float = 0.0
    meteor: float = 0.0
    cosine: float = 0.0
    tokens_per_s: float = 0.0

    QUALITY_FIELDS = ("bleu", "rouge1_f", "rouge2_f", "rougeL_f", "meteor", "cosine")

    def quality_values(self) -> list[float]:
        return [getattr(self, f) for f in self.QUALITY_FIELDS]


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def _ngrams(tokens, n) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _overlap(candidate, reference, n) -> tuple[int, int, int]:
    """(clipped n-gram matches, candidate n-grams, reference n-grams)."""
    cand, ref = _ngrams(candidate, n), _ngrams(reference, n)
    clipped = sum(min(cnt, ref[g]) for g, cnt in cand.items())
    return clipped, sum(cand.values()), sum(ref.values())


def corpus_bleu(pairs, max_n: int = 4) -> float:
    """BLEU over (candidate, reference) token pairs: pooled clipped counts and
    pooled brevity lengths."""
    clipped = [0] * max_n
    totals = [0] * max_n
    c_total = r_total = 0
    for candidate, reference in pairs:
        for n in range(1, max_n + 1):
            cl, tot, _ = _overlap(candidate, reference, n)
            clipped[n - 1] += cl
            totals[n - 1] += tot
        c_total += len(candidate)
        r_total += len(reference)
    log_p = 0.0
    for cl, tot in zip(clipped, totals):
        if cl == 0 or tot == 0:
            return 0.0
        log_p += math.log(cl / tot)
    # a zero unigram total returned above, so c_total > 0 here
    bp = min(1.0, math.exp(1.0 - r_total / c_total))
    return bp * math.exp(log_p / max_n)


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def rouge_n(candidate, reference, n: int) -> float:
    """ROUGE-N F1 for any n >= 1; 0.0 when either side has no n-gram."""
    overlap, n_cand, n_ref = _overlap(candidate, reference, n)
    if n_cand == 0 or n_ref == 0:
        return 0.0
    return _f1(overlap / n_cand, overlap / n_ref)


def _to_ids(candidate, reference):
    vocab = {}
    def ids(tokens):
        out = np.empty(len(tokens), dtype=np.int64)
        for i, t in enumerate(tokens):
            out[i] = vocab.setdefault(t, len(vocab))
        return out
    return ids(candidate), ids(reference)


def rouge_l(candidate, reference) -> float:
    if not candidate or not reference:
        return 0.0
    a, b = _to_ids(candidate, reference)
    lcs = lcs_length(a, b)
    return _f1(lcs / len(candidate), lcs / len(reference))


def _meteor_alignment(candidate, reference) -> tuple[int, int]:
    """Exact-match unigram alignment: maximum matches, chunks minimized by a
    deterministic greedy that prefers extending the previous contiguous run."""
    used = [False] * len(reference)
    pairs = []
    prev_j = None
    for i, tok in enumerate(candidate):
        chosen = None
        if prev_j is not None and prev_j + 1 < len(reference):
            j = prev_j + 1
            if not used[j] and reference[j] == tok:
                chosen = j
        if chosen is None:
            for j, rtok in enumerate(reference):
                if not used[j] and rtok == tok:
                    chosen = j
                    break
        if chosen is not None:
            used[chosen] = True
            pairs.append((i, chosen))
            prev_j = chosen
        else:
            prev_j = None
    chunks = 0
    last = None
    for i, j in pairs:
        if last is None or i != last[0] + 1 or j != last[1] + 1:
            chunks += 1
        last = (i, j)
    return len(pairs), chunks


def meteor(candidate, reference) -> float:
    m, chunks = _meteor_alignment(candidate, reference)
    if m == 0:
        return 0.0
    p = m / len(candidate)
    r = m / len(reference)
    f_mean = 10 * p * r / (r + 9 * p)
    penalty = 0.5 * (chunks / m) ** 3
    return f_mean * (1.0 - penalty)


def cosine(candidate, reference) -> float:
    """Cosine of the pair's term-frequency vectors over their shared vocabulary."""
    idx = {t: i for i, t in enumerate(sorted(set(candidate) | set(reference)))}
    a, b = np.zeros(len(idx)), np.zeros(len(idx))
    for t in candidate:
        a[idx[t]] += 1.0
    for t in reference:
        b[idx[t]] += 1.0
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), 0.0, 1.0))


def score_outputs(pairs, n_tokens: int, duration_s: float) -> MetricScores:
    """Corpus BLEU over the pairs with two nonempty sides, per-pair means of
    the other metrics over one or more (candidate_text, reference_text)
    pairs, and `n_tokens` generated in `duration_s` > 0 seconds."""
    tok_pairs = [(tokenize(c), tokenize(r)) for c, r in pairs]

    def mean(fn):
        return sum(fn(c, r) for c, r in tok_pairs) / len(tok_pairs)

    return MetricScores(
        bleu=corpus_bleu([(c, r) for c, r in tok_pairs if c and r]),
        rouge1_f=mean(lambda c, r: rouge_n(c, r, 1)),
        rouge2_f=mean(lambda c, r: rouge_n(c, r, 2)),
        rougeL_f=mean(rouge_l),
        meteor=mean(meteor),
        cosine=mean(cosine),
        tokens_per_s=n_tokens / duration_s,
    )
