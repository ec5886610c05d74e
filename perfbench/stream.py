"""Child process of the benchmark: run_pipeline passes and nothing else.

    python3 perfbench/stream.py --config CONFIG.json

CONFIG.json is a run config in the ``bgsub run`` format with ``input``
set. Once it has loaded bgsub, the process prints ``{"ready": true}``.
Then it reads commands from stdin, one a line, and answers each with one
JSON line on stdout:

* ``run DIR``: one ``bgsub.pipeline.run_pipeline`` pass into DIR; the
  answer holds its wall time, its error if it raised, and digests of what
  it wrote, which is then deleted.
* ``exit``: the answer is ``{"peak_rss_kb": ...}`` and the process ends.

The parent interleaves these passes with its own in-memory passes, so both
see the same machine conditions. This process never renders a scene or
holds frames in memory, so its peak RSS is that of a run alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest_outputs(out_dir: Path) -> dict:
    """sha256 of each mask file in frame order, of events.jsonl, and of both
    together (masks in order, then events), plus the parsed stats.json."""
    whole = hashlib.sha256()
    masks = []
    for path in sorted(out_dir.glob("mask_*.pgm")):
        data = path.read_bytes()
        masks.append(hashlib.sha256(data).hexdigest())
        whole.update(data)
    events_path = out_dir / "events.jsonl"
    events = None
    if events_path.exists():
        data = events_path.read_bytes()
        events = hashlib.sha256(data).hexdigest()
        whole.update(data)
    stats_path = out_dir / "stats.json"
    stats = json.loads(stats_path.read_text(encoding="utf-8")) if stats_path.exists() else None
    return {"masks": masks, "events": events, "outputs": whole.hexdigest(), "stats": stats}


def one_pass(run_pipeline, config, out: Path) -> dict:
    """One run_pipeline call into out: wall time, error and output digests."""
    config.output = str(out)
    error = None
    t0 = time.perf_counter()
    try:
        run_pipeline(config)
    except Exception as exc:  # reported as failed frames, not a crash
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    result = {"wall_s": wall, "error": error, **digest_outputs(out)}
    shutil.rmtree(out, ignore_errors=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="run_pipeline passes on command")
    parser.add_argument("--config", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from bgsub.config import load_config
    from bgsub.pipeline import run_pipeline

    config = load_config(args.config)
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        command, _, arg = line.strip().partition(" ")
        if command == "run":
            answer = one_pass(run_pipeline, config, Path(arg))
        elif command == "exit":
            answer = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        else:
            answer = {"error": f"unknown command {command!r}"}
        print(json.dumps(answer), flush=True)
        if command == "exit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
