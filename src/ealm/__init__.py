"""Energy-aware compression pipeline for a tiny language model.

Quantize a seeded base model over the {4, 8, 16, 32}-bit grid, fine-tune
low-rank adapters, meter energy and carbon per span, rank candidates by
R = w * phi + (1 - w) * rho, prune the top-k, and emit ranked reports.
"""

from .tensors import LmConfig, Lineage, ModelBundle, QuantizedTensor, load_bundle, payload_bytes, save_bundle
from .quant import QuantSpec, dequantize, quant_error, quantize, quantize_bundle
from .prune import PruneSpec, SparsityMask, apply_mask, magnitude_mask, nm_mask, prune_bundle, sparsity
from .meter import EnergyReport, Meter, MeterConfig, PowerSample, integrate
from .metrics import MetricScores, bleu, cosine, meteor, rouge_l, rouge_n, score_outputs, tokens_per_second
from .rank import CandidateRecord, RankingWeights, efficiency_score, performance_score, rank_score, select_top_k
from .tinylm import LoraAdapters, TinyLm, greedy_decode, init_adapters, init_model, merge_adapters, train_epoch
from .pipeline import PipelineConfig, run_all

__version__ = "0.1.0"
