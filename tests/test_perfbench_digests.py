"""The outputs of every perfbench workload at `--seed 0`, pinned: each
workload's `run_all` runs once, through the benchmark's own set-up, decode
tap and output check, and its digest line must equal the one committed in
`perfbench_digests.txt`, as `perfbench/run.py` prints it. A change that
claims to keep every output shows here, without a benchmark run."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import outcheck  # noqa: E402
import probes  # noqa: E402
from workloads import WORKLOADS, setup  # noqa: E402

from ealm.pipeline import run_all  # noqa: E402

PINNED = dict(zip(WORKLOADS, (HERE / "perfbench_digests.txt").read_text().splitlines()))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_digest_equals_the_committed_line(workload, tmp_path):
    config, meter, _ = setup(WORKLOADS[workload], 0, tmp_path)
    tap = probes.DecodeTap()
    tap.install()
    try:
        payload = run_all(config, meter)
    finally:
        tap.remove()
    out = outcheck.outputs(payload, tap.tokens, tap.digest())
    assert not outcheck.check(out, out)[1]
    line = (f"perfbench: digest {outcheck.digest(out)} tokens {out['token_digest']} "
            f"decode_tokens {out['decode_tokens']}")
    assert line == PINNED[workload]
