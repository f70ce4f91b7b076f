"""The output check applied to every repetition.

A repetition's outputs are reduced to `outputs(payload, tokens, digest)`.
The first repetition is the reference; every later one must match it
exactly (ids, statuses, loop-2 parents, the six quality scores, decoded
tokens), and every repetition must satisfy the ranking identities.
"""

from __future__ import annotations

import hashlib
import json

QUALITY = ("bleu", "rouge1_f", "rouge2_f", "rougeL_f", "meteor", "cosine")
TOL = 1e-12


def outputs(payload: dict, decode_tokens: int, token_digest: str) -> dict:
    cands = []
    for c in payload["candidates"]:
        scores = c.get("scores") or {}
        cands.append({
            "id": c["id"], "status": c["status"],
            "parent": c["lineage"].get("parent_id"),
            "scores": [scores.get(k) for k in QUALITY],
            "phi": c["phi"], "rho": c["rho"], "R": c["R"],
        })
    return {
        "w": payload["config"]["w"],
        "candidates": cands,
        "parents": sorted({c["parent"] for c in cands if c["parent"]}),
        "decode_tokens": decode_tokens,
        "token_digest": token_digest,
    }


def digest(out: dict) -> str:
    """Hash of what must not change between commits that claim "no change"."""
    key = {k: out[k] for k in ("parents", "decode_tokens", "token_digest")}
    key["candidates"] = [[c["id"], c["status"], c["parent"], c["scores"]]
                         for c in out["candidates"]]
    blob = json.dumps(key, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _identity_problems(c: dict, w: float) -> list[str]:
    if c["status"] != "ok":
        return [f"{c['id']}: status {c['status']}"]
    problems = []
    if not 0.0 <= c["rho"] <= 1.0:
        problems.append(f"{c['id']}: rho {c['rho']} outside [0, 1]")
    if abs(c["rho"] - sum(c["scores"]) / len(QUALITY)) > TOL:
        problems.append(f"{c['id']}: rho is not the mean of the six scores")
    if not 0.0 <= c["phi"] <= 1.0:
        problems.append(f"{c['id']}: phi {c['phi']} outside [0, 1]")
    if abs(c["R"] - (w * c["phi"] + (1.0 - w) * c["rho"])) > TOL:
        problems.append(f"{c['id']}: R != w*phi + (1-w)*rho")
    return problems


def check(out: dict, ref: dict) -> tuple[int, list[str]]:
    """Returns (failed candidates, problems) for one repetition against the
    reference repetition. A mismatch of the whole run (ids, parents, decoded
    tokens) fails every candidate of the repetition."""
    problems = []
    failed = set()
    for c in out["candidates"]:
        p = _identity_problems(c, out["w"])
        if p:
            failed.add(c["id"])
            problems += p
    ids = [c["id"] for c in out["candidates"]]
    run_level = []
    if ids != [c["id"] for c in ref["candidates"]]:
        run_level.append("candidate ids differ from the first repetition")
    for key in ("parents", "decode_tokens", "token_digest"):
        if out[key] != ref[key]:
            run_level.append(f"{key} differs from the first repetition: "
                             f"{out[key]!r} != {ref[key]!r}")
    if run_level:
        return len(ids), problems + run_level
    for c, r in zip(out["candidates"], ref["candidates"]):
        for key in ("status", "parent", "scores"):
            if c[key] != r[key]:
                failed.add(c["id"])
                problems.append(f"{c['id']}: {key} {c[key]!r} != first repetition's {r[key]!r}")
    return len(failed), problems
