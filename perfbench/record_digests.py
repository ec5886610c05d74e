"""Rewrite reference_digests.json from the program in src/.

    python3 perfbench/record_digests.py

For each workload and each of the seeds in SEEDS, runs the in-memory pass a
benchmark run makes and stores the digest of the masks and events that
run_pipeline must write (``outputs_sha256`` in a run's details line).
Run it only in a change that means to alter outputs; every other change
must leave the stored digests matching.
"""

from __future__ import annotations

import json

import run

# Seeds with a stored digest; a run at another seed warns that its outputs
# go unchecked.
SEEDS = range(32)


def main() -> int:
    run._import_program()
    from bgsub.scenes import generate_scene

    from workloads import WORKLOADS, make_workload

    table: dict[str, dict[str, str]] = {}
    for name in WORKLOADS:
        wl = make_workload(name)
        table[name] = {}
        for seed in SEEDS:
            frames, _ = generate_scene(wl.spec, seed)
            _, classes, events = run.latency_pass(wl, frames)
            table[name][str(seed)] = run.expected_outputs(classes, events)["outputs"]
            print(name, seed, table[name][str(seed)], flush=True)
    path = run.HERE / "reference_digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
