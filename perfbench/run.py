"""Pipeline benchmark: times `ealm.pipeline.run_all` on generated workloads.

Run from the root of a checkout (it times the `src/ealm` next to it):

    python3 perfbench/run.py --workload quickstart --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Each repetition is one `run_all` call in this process, repeated until
`--seconds` have passed. With `--trace 0` nothing is timed inside ealm and
the end-to-end metrics are printed; with `--trace 1` an untraced warm-up is
followed by alternating traced and untraced repetitions, and the per-layer
metrics (plus the tracing overhead) are printed. Every repetition goes through the output check in
`outcheck.py`. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup_s starts here, in a fresh process

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import outcheck  # noqa: E402
import probes  # noqa: E402
from workloads import WORKLOADS, expected_candidates, setup  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "train_seq_per_s": "1/s",
    "decode_tok_per_s": "1/s",
    "eval_span_p50_s": "s",
    "eval_span_p90_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
SETUP_PROBES = 11


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def environment(meter_source: str) -> dict:
    import numpy as np

    from ealm import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "numba": kernels.HAS_NUMBA,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": len(os.sched_getaffinity(0)),
        "meter": meter_source,
    }


def probe_setup(spec: dict, seed: int, workdir: Path, n: int) -> list[float]:
    """Set-up seconds of `n` fresh processes, after one uncounted warm-up
    (it writes the bytecode caches a fresh checkout lacks)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--spec", json.dumps(spec), "--seed", str(seed), "--workdir", str(workdir)]
    samples = []
    for _ in range(n + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples[1:]


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarize(payload: dict, sweep_s: float, n_train: int, decode_tokens: int) -> dict:
    ok = [c for c in payload["candidates"] if c["status"] == "ok"]
    train_spans = [tr["energy"]["duration_s"] for c in ok for tr in c["train_records"]]
    eval_spans = [c["extra"]["eval_energy"]["duration_s"] if c["stage"] == "finetune"
                  else c["energy"]["duration_s"] for c in ok]
    return {"sweep_s": sweep_s, "train_seq": n_train * len(train_spans),
            "train_s": sum(train_spans), "eval_spans": eval_spans,
            "decode_tokens": decode_tokens}


class Runner:
    """Repeats `run_all` and checks each repetition's outputs."""

    def __init__(self, spec: dict, config, meter, n_train: int):
        self.config, self.meter, self.n_train = config, meter, n_train
        self.want = expected_candidates(spec)
        self.reps: list[dict] = []  # summaries of repetitions that returned
        self.layer_reps: list[dict] = []  # per-layer values of traced ones
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.ref: dict | None = None  # outputs of the first repetition

    def repeat(self, seconds: float, trace: bool) -> None:
        tap = probes.DecodeTap()
        tap.install()
        start = time.perf_counter()
        try:
            # Traced runs start with an untraced warm-up (a process's first
            # sweep is often the slowest), then alternate traced and untraced.
            for i in itertools.count():
                self._one(tap, probes.Tracer() if trace and i % 2 == 1 else None,
                          warmup=trace and i == 0)
                if time.perf_counter() - start >= seconds and i >= 2 * trace:
                    break
        finally:
            tap.remove()

    def _one(self, tap, tracer, warmup: bool) -> None:
        from ealm.pipeline import run_all

        tap.reset()
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            payload = run_all(self.config, self.meter)
            sweep = time.perf_counter() - t0
        except Exception:  # a failed repetition is counted, not fatal
            self.problems.append(f"run_all raised\n{traceback.format_exc()}")
            self.attempted += self.want
            self.failed += self.want
            return
        finally:
            if tracer:
                tracer.remove()
        out = outcheck.outputs(payload, tap.tokens, tap.digest())
        self.ref = self.ref or out
        bad, found = outcheck.check(out, self.ref)
        n = len(out["candidates"])
        if n != self.want:
            found.append(f"{n} candidates, expected {self.want}")
            bad = max(n, self.want)
        self.attempted += max(n, self.want)
        self.failed += bad
        self.problems += [f"rep {len(self.reps)}: {p}" for p in found]
        self.reps.append(summarize(payload, sweep, self.n_train, tap.tokens)
                         | {"traced": bool(tracer), "warmup": warmup})
        if tracer:
            self.layer_reps.append(tracer.metrics(tap.tokens, n))

    def end_to_end(self, setup_samples: list[float]) -> dict[str, float]:
        # Each timing is taken per repetition and the median over repetitions
        # is reported, so one repetition slowed by a busy host does not move it.
        def per_rep(fn):
            return statistics.median(fn(r) for r in self.reps)

        return {
            "setup_s": statistics.median(setup_samples),
            "sweep_s": per_rep(lambda r: r["sweep_s"]),
            "train_seq_per_s": per_rep(lambda r: r["train_seq"] / r["train_s"]),
            "decode_tok_per_s": per_rep(lambda r: r["decode_tokens"] / sum(r["eval_spans"])),
            "eval_span_p50_s": per_rep(lambda r: statistics.median(r["eval_spans"])),
            "eval_span_p90_s": per_rep(lambda r: percentile(r["eval_spans"], 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": 1.0 - self.failed / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        for name in probes.EXACT_COUNTS:
            values = {m[name] for m in self.layer_reps}
            if len(values) > 1:
                self.problems.append(f"{name} differs between traced repetitions: "
                                     f"{sorted(values)}")
                self.failed += 1
        metrics = {name: statistics.median(m[name] for m in self.layer_reps)
                   for name in self.layer_reps[0]}
        traced = [r["sweep_s"] for r in self.reps if r["traced"]]
        plain = [r["sweep_s"] for r in self.reps if not (r["traced"] or r["warmup"])]
        if plain:  # else a repetition failed, and the run is not correct anyway
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            setup_probes: int = SETUP_PROBES,
            spec: dict | None = None) -> tuple[dict, list[str], list[str]]:
    """Runs the workload; returns (result object, report lines, problems)."""
    spec = spec or WORKLOADS[workload]
    setup_samples = [] if trace else probe_setup(spec, seed, workdir, setup_probes)
    config, meter, n_train = setup(spec, seed, workdir)
    runner = Runner(spec, config, meter, n_train)
    runner.repeat(seconds, trace)

    lines = [f"workload={workload} seed={seed} trace={int(trace)} "
             f"repetitions={len(runner.reps)} traced={len(runner.layer_reps)}",
             "env " + json.dumps(environment(config.meter_config().source), sort_keys=True)]
    metrics: dict[str, float] = {}
    if runner.ref:
        ref = runner.ref
        lines.append(f"digest {outcheck.digest(ref)} tokens {ref['token_digest']} "
                     f"decode_tokens {ref['decode_tokens']}")
        lines.append("sweep_s per repetition: "
                     + " ".join(f"{r['sweep_s']:.3f}" for r in runner.reps))
        if trace and runner.layer_reps:
            metrics = runner.per_layer()
        elif not trace:
            metrics = runner.end_to_end(setup_samples)
            lines.append(f"samples: setup {len(setup_samples)} processes, "
                         f"{len(runner.reps)} repetitions of "
                         f"{len(runner.reps[0]['eval_spans'])} eval spans")
    units = {name: layer_unit(name) if trace else E2E_UNITS[name] for name in metrics}
    lines += [f"metric {name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines, runner.problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"],
                    help="one workload, or 'all' to run each in a fresh process in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--spec", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.setup_probe and not args.workload:
        ap.error("--workload is required")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "ealm" / "__init__.py").is_file():
        print(f"perfbench: no src/ealm under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # One thread of compute: the matrices are too small for BLAS threads to
    # help (same wall time with 1 or 2), and idle BLAS threads spin on a CPU.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import ealm

    if Path(ealm.__file__).resolve().parent != (src / "ealm").resolve():
        print(f"perfbench: imported ealm from {ealm.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.setup_probe:
        setup(json.loads(args.spec), args.seed, Path(args.workdir))
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    workdir = root / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        result, lines, problems = measure(args.workload, args.seed, args.seconds,
                                          bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in problems:
        print("perfbench: problem: " + problem, file=sys.stderr)
    for line in lines:
        print("perfbench: " + line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
