"""Command-line interface for the energy/performance pipeline.

Exit codes: 0 success, 2 configuration error, 3 stage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline as pl
from .data import dataset_stats, generate_synthetic_corpus, load_jsonl, save_jsonl

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _load_config(args) -> pl.PipelineConfig:
    if args.config:
        cfg = pl.PipelineConfig.from_file(args.config)
    else:
        cfg = pl.PipelineConfig()
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "w", None) is not None:
        if not 0 <= args.w <= 1:
            raise pl.ConfigError(f"--w must be in [0, 1], got {args.w}")
        cfg.w = args.w
    if getattr(args, "k", None) is not None:
        cfg.k = args.k
    return cfg


def _build_meter(cfg: pl.PipelineConfig, args):
    return pl.build_meter(cfg, getattr(args, "meter", None))


def cmd_gen_data(args) -> int:
    records = generate_synthetic_corpus(args.seed or 0, args.n, args.grammar_size)
    save_jsonl(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    stats = dataset_stats(load_jsonl(args.data))
    print(json.dumps(stats, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_finetune_grid(args) -> int:
    cfg = _load_config(args)
    records = pl.finetune_stage(cfg, _build_meter(cfg, args))
    print(f"loop 1: {len(records)} candidates -> {cfg.out_dir}")
    return EXIT_OK


def cmd_rank(args) -> int:
    for rec in pl.rank_stage(_load_config(args)):
        print(f"{rec.id}\tR={rec.r_score:.4f}\tphi={rec.phi:.4f}\trho={rec.rho:.4f}")
    return EXIT_OK


def cmd_prune_grid(args) -> int:
    cfg = _load_config(args)
    records = pl.prune_stage(cfg, _build_meter(cfg, args))
    print(f"loop 2: {len(records)} candidates -> {cfg.out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _load_config(args)
    pl.report_stage(cfg)
    print(f"reports written to {cfg.out_dir}")
    return EXIT_OK


def cmd_run_all(args) -> int:
    cfg = _load_config(args)
    meter = _build_meter(cfg, args)
    pl.run_all(cfg, meter)
    print(f"pipeline complete; reports in {cfg.out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ealm",
        description="Energy-aware quantize/fine-tune/prune pipeline for a tiny LM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_meter=True):
        p.add_argument("--config", help="pipeline config file (JSON or YAML)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--w", type=float, help="ranking weight in [0, 1]")
        p.add_argument("--k", type=int, help="top-k selection size")
        if with_meter:
            p.add_argument("--meter", help="powercap | constant | trace:<path>")

    p = sub.add_parser("gen-data", help="generate a synthetic JSONL corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--grammar-size", type=int, default=4)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("stats", help="token-length statistics for a dataset")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)

    for name, fn in [("finetune-grid", cmd_finetune_grid), ("rank", cmd_rank),
                     ("prune-grid", cmd_prune_grid), ("report", cmd_report),
                     ("run-all", cmd_run_all)]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except pl.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except pl.StageError as e:
        print(f"stage error: {e}", file=sys.stderr)
        return EXIT_STAGE
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
