"""Self-tests of the benchmark's oracles and trace counters.

Run from the repository root:  python3 -m pytest -q perfbench/tests
They use a few frames per workload, so they take well under a minute.
"""

import dataclasses
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import env  # noqa: E402

env.pin_threads()
env.use_checkout_source()

import pytest  # noqa: E402

import harness  # noqa: E402

FEW_FRAMES = {"full_lp_n32": 20, "cuts_n120": 12, "mp_n240": 8}


def flip_first_codeword(name, decode):
    """Planted fault: flip one bit of the first codeword the decoder outputs."""
    planted = []

    def faulty(code, lam):
        res = decode(code, lam)
        if not planted and res.success:
            point = res.codeword()
            point[0] ^= 1
            planted.append(name)
            res = dataclasses.replace(res, point=point)
        return res

    return faulty


@pytest.mark.parametrize("workload", sorted(FEW_FRAMES))
def test_planted_fault_is_counted_as_failed(workload):
    frames = FEW_FRAMES[workload]
    clean = harness.run(workload, 5, 0, trace=False, frames=frames)["result"]
    assert clean["correct"] and clean["failed"] == 0
    assert clean["attempted"] == 2 * frames

    faulty = harness.run(workload, 5, 0, trace=False, frames=frames,
                         wrap_decoder=flip_first_codeword)["result"]
    assert not faulty["correct"]
    assert faulty["failed"] >= 1
    assert faulty["attempted"] == 2 * frames


def _counts(result):
    """Per-layer metrics that are counts or outcomes, not times."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in ("ms", "1/s") and not name.endswith("share")
            and name != "trace.share_sum"}


@pytest.mark.parametrize("workload", sorted(FEW_FRAMES))
def test_trace_counts_repeat_per_seed_and_follow_it(workload):
    frames = FEW_FRAMES[workload]
    first, again, other = (harness.run(workload, seed, 0, trace=True, frames=frames)["result"]
                           for seed in (1, 1, 2))
    assert _counts(first) == _counts(again)
    assert _counts(first) != _counts(other)
    for result in (first, again, other):
        assert result["failed"] == 0
        share_sum = result["metrics"]["trace.share_sum"]["value"]
        assert math.isclose(share_sum, 1.0, abs_tol=1e-9)
