"""The benchmark's stored output digests, held in tier-1.

Every benchmark run checks its outputs against
perfbench/reference_digests.json. This runs the same in-memory pass on
seed 0 of each workload, with perfbench/run.py imported read-only as
perfbench/smoke_check.py imports it, so a change of outputs fails here
before any benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402

run._import_program()

import workloads  # noqa: E402
from bgsub.scenes import generate_scene  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_0_outputs_match_reference_digest(name):
    wl = workloads.make_workload(name)
    frames, _ = generate_scene(wl.spec, 0)
    _, classes, events = run.latency_pass(wl, frames)
    want = run._reference_digest(name, 0)
    assert want is not None
    assert run.expected_outputs(classes, events)["outputs"] == want
