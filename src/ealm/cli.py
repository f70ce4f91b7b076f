"""Command-line interface for the energy/performance pipeline.

Exit codes: 0 success, 2 configuration error, 3 stage error. Any other
exception propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import pipeline as pl
from .data import DataError, dataset_stats, generate_synthetic_corpus, load_jsonl, save_jsonl
from .meter import MeterError
from .rank import RankError
from .tensors import BundleError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _load_config(args) -> pl.PipelineConfig:
    """The config file (or defaults) with the command-line overrides applied;
    `PipelineConfig` validates both the same way."""
    cfg = pl.PipelineConfig.from_file(args.config) if args.config else pl.PipelineConfig()
    overrides = {"out_dir": args.out, **{f: getattr(args, f, None) for f in ("seed", "w", "k")}}
    return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def cmd_gen_data(args) -> int:
    records = generate_synthetic_corpus(args.seed, args.n, args.grammar_size)
    save_jsonl(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    stats = dataset_stats(load_jsonl(args.data))
    print(json.dumps(stats, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_finetune_grid(args) -> int:
    cfg = _load_config(args)
    records = pl.finetune_stage(cfg, pl.build_meter(cfg, args.meter))
    print(f"loop 1: {len(records)} candidates -> {cfg.out_dir}")
    return EXIT_OK


def cmd_rank(args) -> int:
    for rec in pl.rank_stage(_load_config(args)):
        print(f"{rec.id}\tR={rec.r_score:.4f}\tphi={rec.phi:.4f}\trho={rec.rho:.4f}")
    return EXIT_OK


def cmd_prune_grid(args) -> int:
    cfg = _load_config(args)
    records = pl.prune_stage(cfg, pl.build_meter(cfg, args.meter))
    print(f"loop 2: {len(records)} candidates -> {cfg.out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _load_config(args)
    pl.report_stage(cfg)
    print(f"reports written to {cfg.out_dir}")
    return EXIT_OK


def cmd_run_all(args) -> int:
    cfg = _load_config(args)
    pl.run_all(cfg, pl.build_meter(cfg, args.meter))
    print(f"pipeline complete; reports in {cfg.out_dir}")
    return EXIT_OK


STAGE_FLAGS = {
    "--config": {"help": "pipeline config file (JSON or YAML)"},
    "--out": {"help": "output directory"},
    "--seed": {"type": int, "help": "master seed override"},
    "--w": {"type": float, "help": "ranking weight in [0, 1]"},
    "--k": {"type": int, "help": "top-k selection size"},
    "--meter": {"help": "powercap | constant | trace:<path>"},
}

# Each stage takes only the flags it reads: only loop 1 builds a model from
# the seed, only rank selects k models, and only the stages that meter a
# span take --meter.
STAGES = [
    ("finetune-grid", cmd_finetune_grid, ("--config", "--out", "--seed", "--w", "--meter")),
    ("rank", cmd_rank, ("--config", "--out", "--w", "--k")),
    ("prune-grid", cmd_prune_grid, ("--config", "--out", "--w", "--meter")),
    ("report", cmd_report, ("--config", "--out", "--w")),
    ("run-all", cmd_run_all, tuple(STAGE_FLAGS)),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ealm",
        description="Energy-aware quantize/fine-tune/prune pipeline for a tiny LM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic JSONL corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--grammar-size", type=int, default=4)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("stats", help="token-length statistics for a dataset")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)

    for name, fn, flags in STAGES:
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **STAGE_FLAGS[flag])
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
    except (DataError, MeterError, RankError, BundleError, OSError) as e:
        # a failed input, output or meter; anything else is a bug and keeps its traceback
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
