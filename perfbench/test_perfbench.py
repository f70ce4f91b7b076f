"""Tests of the benchmark itself, on a tiny config.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import outcheck  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, expected_candidates  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EFFECTS = json.loads((HERE / "effects.json").read_text())

TINY = {
    "n_train": 2, "n_eval": 2,
    "config": {
        "bits_grid": [4, 32], "epochs_grid": [1], "k": 1,
        "prune_ratios": [0.5], "nm_patterns": [[2, 4]],
        "d_model": 16, "n_heads": 2, "d_ff": 32, "max_new_tokens": 4,
    },
}


def _measure(tmp_path, trace):
    return run.measure("tiny", 0, 0.0, trace, tmp_path / "work", setup_probes=1, spec=TINY)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _measure(tmp_path_factory.mktemp("plain"), trace=False)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _measure(tmp_path_factory.mktemp("traced"), trace=True)


def test_benchmark_json_names():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.E2E_UNITS
    for m in BENCH["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m["name"]


def test_every_layer_metric_names_what_it_moves():
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    workloads = {w["name"] for w in BENCH["workloads"]}
    assert set(EFFECTS) == {m["name"] for m in BENCH["per_layer"]}
    for name, effect in EFFECTS.items():
        assert effect["moves"] and set(effect["moves"]) <= e2e, name
        assert effect["on"] and set(effect["on"]) <= workloads, name
        assert effect["expect"].strip(), name


def test_untraced_run_reports_every_end_to_end_metric(untraced):
    result, lines, problems = untraced
    assert result["correct"], problems
    assert result["failed"] == 0
    assert result["attempted"] >= expected_candidates(TINY)
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert m["value"] > 0, name
        assert m["unit"] == run.E2E_UNITS[name]
    assert any(line.startswith("env ") and '"trace-replay"' in line for line in lines)


def test_traced_run_reports_every_layer_metric(traced):
    result, lines, problems = traced
    assert result["correct"], problems
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["pipeline.candidates"] == expected_candidates(TINY)
    assert 0 < metrics["tinylm.decode.useful_ratio"] <= 1
    for name in probes.EXACT_COUNTS:
        assert metrics[name] > 0


def test_tracing_leaves_ealm_unpatched(traced):
    from ealm import metrics, pipeline, tinylm

    assert tinylm.TinyLm.forward_cached.__qualname__ == "TinyLm.forward_cached"
    assert pipeline.score_outputs is metrics.score_outputs
    assert pipeline.evaluate_model.__module__ == "ealm.pipeline"
    assert not hasattr(tinylm.greedy_decode, "__wrapped__")


def _outputs():
    payload = {"config": {"w": 0.7}, "candidates": []}
    for i, parent in enumerate([None, None, "ft-a", "ft-a"]):
        scores = dict(zip(outcheck.QUALITY, [0.1 * i, 0.2, 0.3, 0.0, 0.5, 0.25]))
        rho = sum(scores.values()) / 6
        payload["candidates"].append({
            "id": f"c{i}", "status": "ok", "lineage": {"parent_id": parent},
            "scores": scores, "phi": 0.0, "rho": rho, "R": 0.3 * rho,
        })
    return outcheck.outputs(payload, 40, "abc")


def test_output_check_accepts_identical_repetition():
    ref = _outputs()
    assert outcheck.check(copy.deepcopy(ref), ref) == (0, [])
    assert outcheck.digest(ref) == outcheck.digest(copy.deepcopy(ref))


def test_output_check_rejects_tampered_quality_score():
    ref = _outputs()
    tampered = copy.deepcopy(ref)
    cand = tampered["candidates"][2]
    cand["scores"][4] += 0.125
    cand["rho"] = sum(cand["scores"]) / 6
    cand["R"] = 0.3 * cand["rho"]
    failed, problems = outcheck.check(tampered, ref)
    assert failed == 1
    assert problems == [f"c2: scores {cand['scores']!r} != first repetition's "
                        f"{ref['candidates'][2]['scores']!r}"]
    assert outcheck.digest(tampered) != outcheck.digest(ref)


def test_output_check_rejects_broken_identities():
    ref = _outputs()
    bad = copy.deepcopy(ref)
    bad["candidates"][1]["R"] += 0.01
    bad["candidates"][3]["rho"] = 1.5
    failed, problems = outcheck.check(bad, ref)
    assert failed == 2
    assert any("R != w*phi" in p for p in problems)
    assert any("outside [0, 1]" in p for p in problems)


def test_output_check_fails_whole_repetition_on_other_tokens():
    ref = _outputs()
    other = copy.deepcopy(ref)
    other["decode_tokens"] += 1
    failed, _ = outcheck.check(other, ref)
    assert failed == len(ref["candidates"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quickstart", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
