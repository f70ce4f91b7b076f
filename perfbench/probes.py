"""Counters and timers wrapped around ealm's functions from outside.

Nothing inside `src/ealm` is instrumented. A `Patcher` replaces a function
on every loaded `ealm.*` module that binds it (so `from .x import f` call
sites are covered too), or a method on its class, and puts the originals
back on `restore()`.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from collections import defaultdict

# (defining module, attribute, metric prefix) for plain module functions.
FUNCTIONS = [
    ("ealm.tinylm", "greedy_decode", "tinylm.greedy_decode"),
    ("ealm.tinylm", "train_epoch", "pipeline.train_epoch"),
    ("ealm.quant", "quantize_bundle", "quant.quantize_bundle"),
    ("ealm.quant", "dequantize", "quant.dequantize"),
    ("ealm.prune", "prune_bundle", "prune.prune_bundle"),
    ("ealm.tensors", "save_bundle", "tensors.save_bundle"),
    ("ealm.metrics", "score_outputs", "metrics.score_outputs"),
    ("ealm.kernels", "lcs_length", "kernels.lcs_length"),
    ("ealm.kernels", "nm_mask_kernel", "kernels.nm_mask"),
    ("ealm.kernels", "pack_nibbles", "kernels.pack_nibbles"),
    ("ealm.pipeline", "run_finetune_grid", "pipeline.loop1"),
    ("ealm.pipeline", "run_prune_grid", "pipeline.loop2"),
    ("ealm.pipeline", "evaluate_model", "pipeline.evaluate_model"),
    ("ealm.pipeline", "save_candidates", "pipeline.persist"),
    ("ealm.pipeline", "save_artifacts", "pipeline.persist"),
    ("ealm.pipeline", "emit_report", "pipeline.persist"),
]

# (module, class, method, metric prefix).
METHODS = [
    ("ealm.tinylm", "TinyLm", "forward_cached", "tinylm.forward"),
    ("ealm.tinylm", "TinyLm", "loss_and_grads", "tinylm.loss_and_grads"),
    ("ealm.tinylm", "TinyLm", "__init__", "tinylm.model_build"),
    ("ealm.meter", "Meter", "start_span", "meter.start_span"),
    ("ealm.meter", "Meter", "stop_span", "meter.stop_span"),
]


class Patcher:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch_function(self, module: str, attr: str, make):
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "ealm" or name.startswith("ealm.")) and mod is not None:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def patch_method(self, module: str, cls: str, attr: str, make):
        owner = getattr(sys.modules[module], cls)
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class DecodeTap:
    """Counts and hashes the tokens `greedy_decode` generates. It is the one
    hook kept on untraced runs, so every repetition's decoded tokens can be
    checked; it costs one hash update per decoded prompt."""

    def __init__(self):
        self.patcher = Patcher()
        self.reset()

    def reset(self):
        self.tokens = 0
        self.hash = hashlib.sha256()

    def digest(self) -> str:
        return self.hash.hexdigest()[:16]

    def install(self):
        def make(fn):
            @functools.wraps(fn)
            def greedy_decode(model, adapters, prompt, max_new, *a, **kw):
                out = fn(model, adapters, prompt, max_new, *a, **kw)
                generated = out[len(prompt):]
                self.tokens += len(generated)
                self.hash.update(repr(list(generated)).encode())
                return out
            return greedy_decode
        self.patcher.patch_function("ealm.tinylm", "greedy_decode", make)

    def remove(self):
        self.patcher.restore()


class Tracer:
    """Per-module call counts and inclusive seconds for one repetition."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.patcher = Patcher()
        self.stage = None  # "loop1" | "loop2" while a loop runs
        self.in_decode = 0
        self.in_grads = 0
        self.grads_forward_s = 0.0

    def _timed(self, name, fn, enter=None, leave=None):
        clock, calls, secs = time.perf_counter, self.calls, self.secs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter:
                enter(args, kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[name] += 1
                secs[name] += dt
                if leave:
                    leave(args, kwargs, dt)
        return wrapper

    def install(self):
        hooks = {
            "tinylm.forward": (None, self._forward_done),
            "tinylm.greedy_decode": (self._decode_enter, self._decode_leave),
            "tinylm.loss_and_grads": (self._grads_enter, self._grads_leave),
            "pipeline.loop1": (self._stage("loop1"), self._stage(None)),
            "pipeline.loop2": (self._stage("loop2"), self._stage(None)),
            "pipeline.evaluate_model": (None, self._eval_done),
            "tensors.save_bundle": (None, self._saved),
        }
        for module, attr, name in FUNCTIONS:
            enter, leave = hooks.get(name, (None, None))
            self.patcher.patch_function(
                module, attr, lambda fn, n=name, e=enter, lv=leave: self._timed(n, fn, e, lv))
        for module, cls, attr, name in METHODS:
            enter, leave = hooks.get(name, (None, None))
            self.patcher.patch_method(
                module, cls, attr, lambda fn, n=name, e=enter, lv=leave: self._timed(n, fn, e, lv))

    def remove(self):
        self.patcher.restore()

    # hooks ---------------------------------------------------------------

    def _forward_done(self, args, kwargs, dt):
        tokens = args[1] if len(args) > 1 else kwargs["tokens"]
        n = len(tokens)
        self.counts["forward.positions"] += n
        if self.in_decode:
            self.counts["decode.positions"] += n
        if self.in_grads:
            self.grads_forward_s += dt

    def _decode_enter(self, args, kwargs):
        self.in_decode += 1

    def _decode_leave(self, args, kwargs, dt):
        self.in_decode -= 1

    def _grads_enter(self, args, kwargs):
        self.in_grads += 1

    def _grads_leave(self, args, kwargs, dt):
        self.in_grads -= 1

    def _stage(self, stage):
        def hook(*_):
            self.stage = stage
        return hook

    def _eval_done(self, args, kwargs, dt):
        self.secs[f"{self.stage}.eval"] += dt

    def _saved(self, args, kwargs, dt):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["save_bundle.bytes"] += os.path.getsize(path)

    # results -------------------------------------------------------------

    def metrics(self, decode_tokens: int, candidates: int) -> dict[str, float]:
        """Per-layer values of this repetition, keyed by BENCHMARK.json name."""
        c, s, n = self.calls, self.secs, self.counts
        out = {
            "tinylm.forward.calls": c["tinylm.forward"],
            "tinylm.forward.positions": n["forward.positions"],
            "tinylm.forward.s": s["tinylm.forward"],
            "tinylm.greedy_decode.calls": c["tinylm.greedy_decode"],
            "tinylm.greedy_decode.s": s["tinylm.greedy_decode"],
            "tinylm.decode.tokens": decode_tokens,
            "tinylm.decode.useful_ratio": decode_tokens / max(n["decode.positions"], 1),
            "tinylm.loss_and_grads.calls": c["tinylm.loss_and_grads"],
            "tinylm.loss_and_grads.s": s["tinylm.loss_and_grads"],
            "tinylm.backward.self_s": s["tinylm.loss_and_grads"] - self.grads_forward_s,
            "tinylm.model_build.s": s["tinylm.model_build"],
            "pipeline.loop1_train_s": s["pipeline.train_epoch"],
            "pipeline.loop1_eval_s": s["loop1.eval"],
            "pipeline.loop2_eval_s": s["loop2.eval"],
            "pipeline.persist_s": s["pipeline.persist"],
            "pipeline.candidates": candidates,
            "tensors.save_bundle.bytes": n["save_bundle.bytes"],
            "meter.spans": c["meter.start_span"],
            "meter.span_overhead_s": s["meter.start_span"] + s["meter.stop_span"],
        }
        for name in ("quant.quantize_bundle", "quant.dequantize", "prune.prune_bundle",
                     "tensors.save_bundle", "metrics.score_outputs", "kernels.lcs_length",
                     "kernels.nm_mask", "kernels.pack_nibbles"):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.s"] = s[name]
        return out


# Per-layer metrics that must repeat exactly across repetitions.
EXACT_COUNTS = ("tinylm.forward.calls", "tinylm.forward.positions",
                "tinylm.decode.tokens", "pipeline.candidates")
