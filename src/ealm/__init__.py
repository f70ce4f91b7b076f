"""Energy-aware compression pipeline for a tiny language model.

Quantize a seeded base model over the {4, 8, 16, 32}-bit grid, fine-tune
low-rank adapters, meter energy and carbon per span, rank candidates by
R = w * phi + (1 - w) * rho, prune the top-k, and emit ranked reports.
"""

__version__ = "0.1.0"
