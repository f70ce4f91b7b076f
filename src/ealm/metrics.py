"""Text-quality metrics (BLEU, ROUGE-1/2/L, METEOR, embedding cosine) plus
generation throughput.

All metrics operate on lowercased whitespace tokens and stay in [0, 1].
BLEU uses no smoothing: any zero n-gram precision yields 0. METEOR runs the
exact-match stage only, with the canonical (10, 0.5, 3) parameters.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .kernels import lcs_length


class MetricError(Exception):
    pass


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

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.QUALITY_FIELDS + ("tokens_per_s",)}


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def _ngrams(tokens, n) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_counts(candidate, references, n) -> tuple[int, int]:
    cand = _ngrams(candidate, n)
    best = Counter()
    for ref in references:
        for gram, cnt in _ngrams(ref, n).items():
            if cnt > best[gram]:
                best[gram] = cnt
    clipped = sum(min(cnt, best[g]) for g, cnt in cand.items())
    return clipped, sum(cand.values())


def _closest_ref_length(candidate, references) -> int:
    c = len(candidate)
    return min((abs(len(r) - c), len(r)) for r in references)[1]


def bleu(candidate, references, max_n: int = 4) -> float:
    """Corpus-style BLEU for a single candidate against one or more references."""
    if not candidate:
        raise MetricError("candidate must be nonempty")
    if not references:
        raise MetricError("reference set must be nonempty")
    log_p = 0.0
    for n in range(1, max_n + 1):
        clipped, total = _clipped_counts(candidate, references, n)
        if clipped == 0:
            return 0.0
        log_p += math.log(clipped / total)
    c = len(candidate)
    r = _closest_ref_length(candidate, references)
    bp = min(1.0, math.exp(1.0 - r / c))
    return bp * math.exp(log_p / max_n)


def corpus_bleu(pairs, max_n: int = 4) -> float:
    """BLEU over a corpus: pooled clipped counts and pooled brevity lengths."""
    if not pairs:
        raise MetricError("empty corpus")
    clipped = [0] * max_n
    totals = [0] * max_n
    c_total = r_total = 0
    for candidate, references in pairs:
        if isinstance(references[0], str):  # single reference passed bare
            references = [references]
        for n in range(1, max_n + 1):
            cl, tot = _clipped_counts(candidate, references, n)
            clipped[n - 1] += cl
            totals[n - 1] += tot
        c_total += len(candidate)
        r_total += _closest_ref_length(candidate, references)
    log_p = 0.0
    for cl, tot in zip(clipped, totals):
        if cl == 0 or tot == 0:
            return 0.0
        log_p += math.log(cl / tot)
    bp = min(1.0, math.exp(1.0 - r_total / c_total)) if c_total else 0.0
    return bp * math.exp(log_p / max_n)


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def rouge_n(candidate, reference, n: int) -> float:
    if n not in (1, 2):
        raise MetricError(f"rouge_n supports n in {{1, 2}}, got {n}")
    if not candidate or not reference:
        raise MetricError("rouge_n needs nonempty inputs")
    cand, ref = _ngrams(candidate, n), _ngrams(reference, n)
    overlap = sum(min(cnt, ref[g]) for g, cnt in cand.items())
    n_cand, n_ref = sum(cand.values()), sum(ref.values())
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
        raise MetricError("rouge_l needs nonempty inputs")
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
    if not candidate or not reference:
        return 0.0
    m, chunks = _meteor_alignment(candidate, reference)
    if m == 0:
        return 0.0
    p = m / len(candidate)
    r = m / len(reference)
    f_mean = 10 * p * r / (r + 9 * p)
    penalty = 0.5 * (chunks / m) ** 3
    return f_mean * (1.0 - penalty)


def tf_embedder_pair(candidate, reference) -> tuple[np.ndarray, np.ndarray]:
    """Term-frequency vectors over the shared vocabulary of the pair."""
    vocab = sorted(set(candidate) | set(reference))
    idx = {t: i for i, t in enumerate(vocab)}
    def vec(tokens):
        v = np.zeros(len(vocab))
        for t in tokens:
            v[idx[t]] += 1.0
        return v
    return vec(candidate), vec(reference)


def cosine(candidate, reference, embedder=None) -> float:
    if embedder is not None:
        a, b = np.asarray(embedder(candidate), float), np.asarray(embedder(reference), float)
        if a.shape != b.shape:
            raise MetricError("embedder produced mismatched dimensions")
    else:
        a, b = tf_embedder_pair(candidate, reference)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), 0.0, 1.0))


def tokens_per_second(n_tokens: int, duration_s: float) -> float:
    if duration_s <= 0:
        raise MetricError("duration must be positive")
    return n_tokens / duration_s


def score_outputs(pairs, n_tokens: int, duration_s: float, embedder=None) -> MetricScores:
    """Corpus BLEU plus per-pair means of the other metrics over
    (candidate_text, reference_text) pairs."""
    if not pairs:
        raise MetricError("score_outputs needs at least one pair")
    tok_pairs = [(tokenize(c), tokenize(r)) for c, r in pairs]
    scorable = [(c, r) for c, r in tok_pairs if c and r]
    n = len(tok_pairs)

    def mean(fn):
        return sum(fn(c, r) for c, r in scorable) / n if scorable else 0.0

    bleu_pairs = [(c, [r]) for c, r in scorable]
    return MetricScores(
        bleu=corpus_bleu(bleu_pairs) if bleu_pairs else 0.0,
        rouge1_f=mean(lambda c, r: rouge_n(c, r, 1)),
        rouge2_f=mean(lambda c, r: rouge_n(c, r, 2) if len(c) > 1 and len(r) > 1 else 0.0),
        rougeL_f=mean(rouge_l),
        meteor=mean(meteor),
        cosine=mean(lambda c, r: cosine(c, r, embedder)),
        tokens_per_s=tokens_per_second(n_tokens, duration_s),
    )
