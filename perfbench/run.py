"""bgsub benchmark: end-to-end and per-layer numbers for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Renders the workload's synthetic scene from the seed and writes its frames
to a scratch directory under ``.bench_work/`` (not timed), then measures
for about S seconds. With ``--trace 0`` it reports the end-to-end metrics
named in BENCHMARK.json, with its times scaled to the reference box's
speed by fixed reference work timed between the calls it measures
(reference.py), and with ``--trace 1`` the per-layer metrics of a traced run. Every run
checks the program's outputs; see README.md in this directory for the
metrics, the checks and the workloads.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details (environment, sample counts, times as measured before
scaling, output digests, event counts, tracing overhead). The program is
imported from ``src/`` of the checkout this file sits in, never from
elsewhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# FramePipeline construction plus the seeding frame, timed this many times
# before each latency pass; the median of all of them is setup_s.
SETUP_REPS = 10
# Longest wait for one run_pipeline pass of the child.
CHILD_TIMEOUT_S = 150.0


def _import_program():
    src = ROOT / "src"
    if not (src / "bgsub" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no bgsub sources under {src}")
    sys.path.insert(0, str(src))
    import bgsub

    if Path(bgsub.__file__).resolve().parent != (src / "bgsub").resolve():
        raise SystemExit(f"benchmark: imported bgsub from {bgsub.__file__}, not {src}")


def _metric_units(trace: int) -> dict[str, str]:
    """Name to unit of the metrics BENCHMARK.json asks of this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(seed: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_frames(frames, in_dir: Path) -> None:
    from bgsub.netpbm import encode_ppm

    in_dir.mkdir(parents=True)
    for i, frame in enumerate(frames):
        (in_dir / f"frame_{i:06d}.ppm").write_bytes(encode_ppm(frame))


def expected_outputs(classes, events) -> dict:
    """Digests of what run_pipeline must write for these in-memory results."""
    from bgsub.netpbm import encode_mask

    whole = hashlib.sha256()
    masks = []
    for c in classes:
        data = encode_mask(c)
        masks.append(hashlib.sha256(data).hexdigest())
        whole.update(data)
    data = "".join(json.dumps(e.to_json()) + "\n" for e in events).encode("utf-8")
    whole.update(data)
    return {"masks": masks, "events": hashlib.sha256(data).hexdigest(), "outputs": whole.hexdigest()}


def count_events(events) -> dict[str, int]:
    """Events by kind, keyed as stats.json keys them."""
    from bgsub.events import KIND_ABANDONED, KIND_INTRUSION, KIND_MOTION_STARTED

    kinds = {"intrusion": KIND_INTRUSION, "abandoned": KIND_ABANDONED, "motion_started": KIND_MOTION_STARTED}
    return {key: sum(1 for e in events if e.kind == kind) for key, kind in kinds.items()}


def check_pass(got: dict, expected: dict, event_counts: dict) -> tuple[int, list[str]]:
    """Failed frames of one run_pipeline pass, and what else went wrong.

    A frame fails when its mask is missing or differs from the expected
    one. Events or stats that disagree with the expected ones are problems
    of the whole pass.
    """
    n = len(expected["masks"])
    got_masks = got["masks"]
    failed = sum(1 for i in range(n) if i >= len(got_masks) or got_masks[i] != expected["masks"][i])
    problems = []
    if got.get("error"):
        problems.append(f"run raised {got['error']}")
    if len(got_masks) > n:
        problems.append(f"{len(got_masks)} masks written for {n} frames")
    if got["events"] != expected["events"]:
        problems.append("events.jsonl differs from the expected events")
    stats = got.get("stats")
    if stats is None or stats.get("frames") != n or stats.get("events") != event_counts:
        problems.append(f"stats.json {stats} disagrees with {n} frames and events {event_counts}")
    return failed, problems


def judge(run: Run, classes, events, passes: list[dict]) -> tuple[int, list[str], dict]:
    """Check run_pipeline passes against one in-memory pass of the same
    frames, and the in-memory labels against the workload's F1 floors.

    Returns the failed frames over all passes, the problems found, and
    the F1 scores, output digest and event counts of the in-memory pass.
    """
    from bgsub.metrics import score

    from workloads import WARMUP

    expected = expected_outputs(classes, events)
    event_counts = count_events(events)
    failed, problems = 0, []
    for i, got in enumerate(passes):
        pass_failed, pass_problems = check_pass(got, expected, event_counts)
        failed += pass_failed
        problems += [f"stream pass {i}: {p}" for p in pass_problems]

    per_class = score(classes, run.truths, WARMUP)["per_class"]
    fg_f1 = per_class["foreground"]["f1"] or 0.0
    shadow_f1 = per_class["shadow"]["f1"] or 0.0
    if fg_f1 < run.wl.fg_f1_floor:
        problems.append(f"fg_f1 {fg_f1:.4f} below floor {run.wl.fg_f1_floor}")
    if shadow_f1 < run.wl.shadow_f1_floor:
        problems.append(f"shadow_f1 {shadow_f1:.4f} below floor {run.wl.shadow_f1_floor}")
    found = {"fg_f1": fg_f1, "shadow_f1": shadow_f1, "outputs_sha256": expected["outputs"], "events": event_counts}
    return failed, problems, found


def _reference_digest(workload: str, seed: int) -> str | None:
    path = HERE / "reference_digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


class StreamChild:
    """The stream.py process: run_pipeline passes on command, then its peak RSS."""

    def __init__(self, config_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stream.py"), "--config", str(config_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        # Wait until the child has done its imports, so that its start-up
        # does not share the machine with the first timings.
        try:
            self._answer("start-up")
        except BaseException:
            self.proc.kill()
            self.close()
            raise

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._answer(repr(command))

    def _answer(self, what: str) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"stream child gave no answer to {what}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Run:
    """One workload at one seed: the rendered frames and truth, the frames
    on disk, and the run config that reads them."""

    def __init__(self, wl, seed: int, work: Path):
        from bgsub.scenes import generate_scene

        self.wl = wl
        self.work = work
        self.frames, self.truths = generate_scene(wl.spec, seed)
        self.in_dir = work / "in"
        write_frames(self.frames, self.in_dir)
        self.config = replace(wl.config, input=str(self.in_dir))
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(asdict(self.config)), encoding="utf-8")

    def setup_pass(self, times: list[float]) -> None:
        from bgsub.pipeline import FramePipeline

        wl = self.wl
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            p = FramePipeline(wl.config, wl.spec.width, wl.spec.height)
            p.process(self.frames[0])
            times.append(time.perf_counter() - t0)
            p.close()


def latency_pass(wl, frames, ref=None, ref_times=None) -> tuple[list[float], list, list]:
    """FramePipeline.process over frames in memory, each call timed.
    Given a ReferenceWork, also times one piece of it before each call,
    appending those times to ref_times. Returns the call times, seeding
    frame excluded, and the classes and events of the pass."""
    from bgsub.pipeline import FramePipeline

    samples, classes, events = [], [], []
    p = FramePipeline(wl.config, wl.spec.width, wl.spec.height)
    try:
        for i, frame in enumerate(frames):
            if ref is not None:
                t0 = time.perf_counter()
                ref.once()
                ref_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            result = p.process(frame)
            dt = time.perf_counter() - t0
            if i:
                samples.append(dt)
            classes.append(result.classes)
            events.extend(result.events)
    finally:
        p.close()
    return samples, classes, events


def _rounds(seconds: float):
    """Yield round numbers: at least one, and another one while it would
    end, at the mean round length so far, less than half a round past the
    budget."""
    t_start = time.perf_counter()
    rounds = 0
    while True:
        yield rounds
        rounds += 1
        now = time.perf_counter()
        if now + 0.5 * (now - t_start) / rounds > t_start + seconds:
            return


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Rounds of set-ups, one in-memory latency pass with the reference
    work timed between its calls, and one run_pipeline pass in the child."""
    from reference import ReferenceWork

    n = len(run.frames)
    setup: list[float] = []
    latencies: list[float] = []
    scaled_latencies: list[float] = []
    streams: list[dict] = []
    ref_times: list[float] = []
    diverged = 0
    classes = events = None
    ref = ReferenceWork(run.wl.spec.width * run.wl.spec.height)
    child = StreamChild(run.config_path)
    try:
        for _ in _rounds(seconds):
            run.setup_pass(setup)
            pass_ref: list[float] = []
            samples, got_classes, got_events = latency_pass(run.wl, run.frames, ref, pass_ref)
            pass_slowdown = statistics.median(pass_ref) * 1e3 / run.wl.reference_ms
            latencies += samples
            scaled_latencies += [dt / pass_slowdown for dt in samples]
            ref_times += pass_ref
            if classes is None:
                classes, events = got_classes, got_events
            else:
                diverged += sum(1 for a, b in zip(got_classes, classes) if not (a == b).all())
            streams.append(child.ask(f"run {run.work / f'out{len(streams)}'}"))
        peak_rss_kb = child.ask("exit")["peak_rss_kb"]
    finally:
        child.close()

    failed, problems, found = judge(run, classes, events, streams)
    failed += diverged
    if diverged:
        problems.append(f"{diverged} frames of later in-memory passes differ from the first")
    fps = [n / got["wall_s"] for got in streams if not got["error"]]

    # Latency percentiles pool the calls of every pass, so that the p95 of
    # a 50-frame scene rests on more than its two or three slowest calls.
    measured = {
        "fps": statistics.median(fps) if fps else 0.0,
        "frame_ms_p50": _percentile(latencies, 50) * 1e3,
        "frame_ms_p95": _percentile(latencies, 95) * 1e3,
        "setup_s": statistics.median(setup),
    }
    # Scale times to the reference box's speed (see reference.py): each
    # latency pass by the reference work timed between its calls, the
    # other times by all of the run's reference work.
    reference_ms = statistics.median(ref_times) * 1e3
    slowdown = reference_ms / run.wl.reference_ms
    metrics = {
        "fps": measured["fps"] * slowdown,
        "frame_ms_p50": _percentile(scaled_latencies, 50) * 1e3,
        "frame_ms_p95": _percentile(scaled_latencies, 95) * 1e3,
        "setup_s": measured["setup_s"] / slowdown,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "fg_f1": found.pop("fg_f1"),
        "shadow_f1": found.pop("shadow_f1"),
    }
    details = {
        "samples": {
            "fps": len(fps),
            "frame_ms": len(latencies),
            "latency_passes": len(streams),
            "setup_s": len(setup),
            "frames_per_pass": n,
            "reference": len(ref_times),
        },
        "speed": {"reference_ms": reference_ms, "slowdown": slowdown, "measured": measured},
        "failed_frac": failed / (2 * n * len(streams)),
        "problems": problems,
        **found,
    }
    return {"attempted": 2 * n * len(streams), "failed": failed, "metrics": metrics}, details


def measure_layers(run: Run, seconds: float) -> tuple[dict, dict]:
    """One in-memory pass that the outputs are checked against, then
    untraced and traced run_pipeline passes, alternating, in this process;
    the traced ones give the per-layer numbers, both give the overhead."""
    from bgsub.pipeline import run_pipeline
    from stream import one_pass
    from tracer import Tracer, install, layer_metrics

    t_start = time.perf_counter()
    n = len(run.frames)
    _, classes, events = latency_pass(run.wl, run.frames)
    config = replace(run.config)
    plain, traced, tracers = [], [], []

    def traced_run(cfg):
        tracer = Tracer()
        tracers.append(tracer)
        with install(tracer), tracer.run():
            return run_pipeline(cfg)

    for _ in _rounds(seconds - (time.perf_counter() - t_start)):
        plain.append(one_pass(run_pipeline, config, run.work / f"plain{len(plain)}"))
        traced.append(one_pass(traced_run, config, run.work / f"traced{len(traced)}"))

    failed, problems, found = judge(run, classes, events, plain + traced)
    plain_fps = statistics.median(n / p["wall_s"] for p in plain)
    traced_fps = statistics.median(n / p["wall_s"] for p in traced)
    layers = [layer_metrics(tracer.spans) for tracer in tracers]
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace.overhead_pct"] = (plain_fps / traced_fps - 1.0) * 100.0
    attempted = n * (len(plain) + len(traced))
    details = {
        "samples": {"traced_passes": len(traced), "untraced_passes": len(plain), "frames_per_pass": n},
        "trace_overhead": {"untraced_fps": plain_fps, "traced_fps": traced_fps},
        "failed_frac": failed / attempted,
        "problems": problems,
        **found,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, details


def measure(wl, seed: int, seconds: float, trace: int, units: dict) -> tuple[dict, dict]:
    """Result object and details for one workload; units maps metric name
    to unit for the metrics this mode must report."""
    work = WORK / f"{wl.name}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(wl, seed, work)
        if trace:
            result, details = measure_layers(run, seconds)
        else:
            result, details = measure_end_to_end(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = result.pop("metrics")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    reference = _reference_digest(wl.name, seed)
    details["outputs_vs_reference"] = (
        "no reference" if reference is None
        else "match" if reference == details["outputs_sha256"] else "DIFFERS"
    )
    details = {"workload": wl.name, "env": environment(seed), **details}
    correct = result["failed"] == 0 and not details["problems"]
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bgsub benchmark, one workload per run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    from workloads import make_workload

    units = _metric_units(args.trace)
    line, details = measure(make_workload(args.workload), args.seed, args.seconds, args.trace, units)
    if details["outputs_vs_reference"] == "DIFFERS":
        print(
            f"benchmark: {args.workload} seed {args.seed}: outputs differ from "
            "reference_digests.json (masks or events changed)",
            file=sys.stderr,
        )
    elif details["outputs_vs_reference"] == "no reference":
        print(
            f"benchmark: {args.workload} seed {args.seed}: reference_digests.json has "
            "no digest for this seed, so output changes go unchecked",
            file=sys.stderr,
        )
    for problem in details["problems"]:
        print(f"benchmark: {args.workload}: {problem}", file=sys.stderr)
    for name, m in line["metrics"].items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
