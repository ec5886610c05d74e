"""Acceptance gate: ten checks over the whole engine, one verdict line each.

Run `pytest -sv tests/test_acceptance.py` to see the verdict lines; each
check prints `[PASS]`/`[FAIL]` with the measured numbers before asserting.
"""

import time

import numpy as np
import pytest

from bgsub.bench import benchmark
from bgsub.config import RunConfig
from bgsub.events import KIND_ABANDONED, KIND_MOTION_STARTED, EventParams
from bgsub.frame_model import FrameModel
from bgsub.gmm import BACKGROUND, FIXED_ALPHA, PDF_FAITHFUL, ModelParams
from bgsub.metrics import score
from bgsub.netpbm import decode_pgm
from bgsub.pipeline import FramePipeline, run_pipeline
from bgsub.scenes import (
    Actor,
    SceneSpec,
    ShadowPatch,
    Waypoint,
    generate_scene,
    standard_scene,
    write_scene,
)
from bgsub.segmentation import EIGHT, FOUR, label_components
from bgsub.shadow import SHADOW

from oracles import absorption_frame, flood_fill_labels, oracle_init, oracle_params, oracle_step
from pixel_states import load_states, pixel_state, step


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def standard_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("standard_scene")
    write_scene(standard_scene(), seed=7, out_dir=path)
    return path


def test_c01_throughput():
    t0 = time.perf_counter()
    report = benchmark(config=RunConfig(workers=1), spec=standard_scene(), seed=7, reps=3)
    elapsed = time.perf_counter() - t0
    ok = report["mean_fps"] >= 20.0 and elapsed < 60.0
    _verdict(
        "C01 throughput",
        ok,
        f"160x120 single worker: mean {report['mean_fps']:.1f} fps, "
        f"min {report['min_fps']:.1f} fps (floor 20); check ran {elapsed:.1f}s",
    )
    assert report["mean_fps"] >= 20.0
    assert elapsed < 60.0


def _draw_value(rng):
    u = rng.random()
    if u < 0.5:
        return tuple(float(100.0 + rng.normal(0.0, 5.0)) for _ in range(3))
    if u < 0.8:
        return tuple(float(170.0 + rng.normal(0.0, 8.0)) for _ in range(3))
    return tuple(float(rng.uniform(0.0, 255.0)) for _ in range(3))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


_WALKS: dict = {}


def _update_walk(mode: str) -> dict:
    """10,000 steps of a one-pixel FrameModel against the straight-line
    reference."""
    if mode in _WALKS:
        return _WALKS[mode]
    params = ModelParams(rho_mode=mode)
    op = oracle_params(rho_mode=mode)
    rng = np.random.default_rng(97)
    z0 = _draw_value(rng)
    model = FrameModel(params, 1)
    step(model, z0)
    comps = oracle_init(z0, op)
    max_rel = 0.0
    max_sum_err = 0.0
    min_var = float("inf")
    decision_mismatches = 0
    for _ in range(10_000):
        z = _draw_value(rng)
        decision = step(model, z)
        comps, o_label, o_pos, o_b = oracle_step(comps, z, op)
        state = pixel_state(model, 0)
        if decision != (o_label, o_pos, o_b) or len(state) != len(comps):
            decision_mismatches += 1
            continue
        for got, want in zip(state, comps):
            max_rel = max(max_rel, _rel(got["w"], want["w"]))
            for gm, wm in zip(got["m"], want["m"]):
                max_rel = max(max_rel, _rel(gm, wm))
            max_rel = max(max_rel, _rel(got["v"], want["v"]))
        max_sum_err = max(max_sum_err, abs(sum(c["w"] for c in state) - 1.0))
        min_var = min(min_var, min(c["v"] for c in state))
    _WALKS[mode] = {
        "max_rel": max_rel,
        "max_sum_err": max_sum_err,
        "min_var": min_var,
        "decision_mismatches": decision_mismatches,
    }
    return _WALKS[mode]


def test_c02_update_equation_oracle():
    fixed = _update_walk(FIXED_ALPHA)
    faithful = _update_walk(PDF_FAITHFUL)
    ok = all(
        w["max_rel"] < 1e-9 and w["decision_mismatches"] == 0 for w in (fixed, faithful)
    )
    _verdict(
        "C02 update oracle",
        ok,
        f"10,000 steps per rho mode: max rel err {fixed['max_rel']:.2e} (fixed), "
        f"{faithful['max_rel']:.2e} (pdf); decision mismatches "
        f"{fixed['decision_mismatches']}+{faithful['decision_mismatches']}",
    )
    assert fixed["max_rel"] < 1e-9 and fixed["decision_mismatches"] == 0
    assert faithful["max_rel"] < 1e-9 and faithful["decision_mismatches"] == 0


def test_c03_normalization_invariant():
    fixed = _update_walk(FIXED_ALPHA)
    faithful = _update_walk(PDF_FAITHFUL)
    var_min = ModelParams().var_min
    ok = all(
        w["max_sum_err"] <= 1e-6 and w["min_var"] >= var_min for w in (fixed, faithful)
    )
    _verdict(
        "C03 normalization",
        ok,
        f"max |sum w - 1| = {max(fixed['max_sum_err'], faithful['max_sum_err']):.2e} "
        f"(bound 1e-6); min variance {min(fixed['min_var'], faithful['min_var']):.2f} "
        f"(floor {var_min})",
    )
    assert fixed["max_sum_err"] <= 1e-6 and fixed["min_var"] >= var_min
    assert faithful["max_sum_err"] <= 1e-6 and faithful["min_var"] >= var_min


def _prefix_oracle(weights, t):
    total = 0.0
    for i, w in enumerate(weights):
        total += w
        if total > t:
            return i + 1
    return len(weights)


def test_c04_background_prefix_oracle():
    # Each weight vector is one pixel's components, all at the origin with
    # equal variance; the value (0, 0, 0) matches slot 0, and b must be the
    # prefix of the weights after that update.
    rng = np.random.default_rng(29)
    mismatches = 0
    checks = 0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        w = np.sort(rng.random(k))[::-1]
        if rng.random() < 0.5:
            w = w / w.sum()
        else:
            w = w * (rng.uniform(0.2, 1.0) / w.sum())
        state = [{"w": float(x), "m": [0.0, 0.0, 0.0], "v": 10.0} for x in w]
        for t in (0.3, 0.5, 0.7, 0.9):
            checks += 1
            model = FrameModel(ModelParams(k=5, t=t), 1)
            load_states(model, [state])
            _, _, got = step(model, (0.0, 0.0, 0.0))
            weights = [c["w"] for c in pixel_state(model, 0)]
            if got != _prefix_oracle(weights, t):
                mismatches += 1
    ok = mismatches == 0
    _verdict(
        "C04 background prefix",
        ok,
        f"{checks} vector/threshold pairs, {mismatches} mismatches (exact match required)",
    )
    assert mismatches == 0


def test_c05_absorption_frame_exact():
    params = ModelParams()  # alpha 0.01, t 0.7, k 3, fixed-alpha rho
    old = (120.0, 120.0, 120.0)
    new = (200.0, 60.0, 30.0)
    predicted = absorption_frame(old, new, 400, oracle_params())
    model = FrameModel(params, 1)
    step(model, old)
    for _ in range(400):
        step(model, old)
    flipped = None
    for frame in range(1, 2001):
        label, _, _ = step(model, new)
        if label == BACKGROUND:
            flipped = frame
            break
    ok = predicted is not None and flipped == predicted
    _verdict(
        "C05 absorption",
        ok,
        f"label flips after {flipped} frames of the new value, oracle says {predicted} "
        f"(tolerance 0)",
    )
    assert predicted is not None
    assert flipped == predicted


def test_c06_shadow_band():
    gains = (0.45, 0.55, 0.65, 0.75, 0.85, 0.90)
    details = []
    all_ok = True
    for gain in gains:
        spec = SceneSpec(
            width=64,
            height=48,
            frames=46,
            background=(120, 120, 120),
            noise_sigma=2.0,
            shadows=(ShadowPatch(rect=(8, 8, 55, 39), gain=gain, from_frame=30),),
        )
        frames, truths = generate_scene(spec, seed=101)
        pipeline = FramePipeline(RunConfig(model=ModelParams(var_init=16.0)), 64, 48)
        shadow_hit = shadow_total = 0
        bg_fp = bg_total = 0
        try:
            for i, frame in enumerate(frames):
                classes = pipeline.process(frame).classes
                if i <= 30:
                    continue
                sm = truths[i] == SHADOW
                shadow_total += int(sm.sum())
                shadow_hit += int((classes[sm] == SHADOW).sum())
                bm = truths[i] == BACKGROUND
                bg_total += int(bm.sum())
                bg_fp += int((classes[bm] == 255).sum())
        finally:
            pipeline.close()
        recall = shadow_hit / shadow_total
        fp_rate = bg_fp / bg_total
        details.append(f"gain {gain:.2f}: shadow {recall:.1%}, bg fp {fp_rate:.3%}")
        all_ok = all_ok and recall >= 0.95 and fp_rate <= 0.01
    _verdict("C06 shadow band", all_ok, "; ".join(details))
    assert all_ok


def test_c07_ccl_equivalence():
    rng = np.random.default_rng(53)
    mismatches = 0
    for _ in range(1000):
        density = rng.uniform(0.2, 0.8)
        m = (rng.random((12, 12)) < density).astype(np.uint8) * 255
        for conn in (FOUR, EIGHT):
            got = label_components(m, conn)
            want = np.array(flood_fill_labels(m.tolist(), conn))
            if not np.array_equal(got, want):
                mismatches += 1
    ok = mismatches == 0
    _verdict(
        "C07 components",
        ok,
        f"1000 random 12x12 masks, both connectivities: {mismatches} label-map mismatches",
    )
    assert mismatches == 0


def test_c08_abandoned_object_end_to_end():
    alpha = 0.0015
    background = (120, 120, 120)
    square = (180, 60, 60)
    spec = SceneSpec(
        width=120,
        height=90,
        frames=170,
        background=background,
        noise_sigma=2.0,
        actors=(
            Actor(
                size=(20, 20),
                color=square,
                waypoints=(Waypoint(20, 10, 40), Waypoint(50, 70, 40)),
                from_frame=20,
            ),
        ),
    )
    frames, _ = generate_scene(spec, seed=19)
    config = RunConfig(
        model=ModelParams(alpha=alpha),
        events=EventParams(eps_move=1.0, n_static=100),
    )
    pipeline = FramePipeline(config, 120, 90)
    events = []
    try:
        for frame in frames:
            events.extend(pipeline.process(frame).events)
    finally:
        pipeline.close()
    abandoned = [e for e in events if e.kind == KIND_ABANDONED]
    started = [e for e in events if e.kind == KIND_MOTION_STARTED]

    # scalar model oracle: the parked square must outlive the alarm frame.
    # Its pixels get covered no earlier than frame 41, over a background
    # component trained for about 40 frames by then.
    steps = absorption_frame(
        tuple(map(float, background)), tuple(map(float, square)), 40, oracle_params(alpha=alpha)
    )
    absorb_at = None if steps is None else 41 + steps
    alarm_frame = abandoned[0].frame if abandoned else None
    ok = (
        len(abandoned) == 1
        and alarm_frame is not None
        and abs(alarm_frame - 150) <= 1
        and absorb_at is not None
        and absorb_at > 151
    )
    _verdict(
        "C08 abandoned object",
        ok,
        f"{len(abandoned)} alarm(s), frame {alarm_frame} (want 150±1); "
        f"model absorbs the square around frame {absorb_at}; "
        f"{len(started)} motion event(s)",
    )
    assert len(abandoned) == 1
    assert abs(alarm_frame - 150) <= 1
    assert absorb_at is not None and absorb_at > 151


def test_c09_determinism(standard_dir, tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_pipeline(RunConfig(input=str(standard_dir), output=str(out), workers=2))
        masks = [p.read_bytes() for p in sorted(out.glob("mask_*.pgm"))]
        overlays = [p.read_bytes() for p in sorted(out.glob("overlay_*.ppm"))]
        events = (out / "events.jsonl").read_bytes()
        outputs.append((masks, overlays, events))
    same = outputs[0] == outputs[1]
    n = len(outputs[0][0])
    _verdict(
        "C09 determinism",
        same,
        f"two runs over {n} frames (2 workers): masks, overlays and event log "
        f"{'identical' if same else 'DIFFER'}",
    )
    assert same


def test_c10_segmentation_quality(standard_dir, tmp_path):
    out = tmp_path / "out"
    run_pipeline(RunConfig(input=str(standard_dir), output=str(out)))
    pred = [decode_pgm(p.read_bytes()) for p in sorted(out.glob("mask_*.pgm"))]
    truth = [decode_pgm(p.read_bytes()) for p in sorted(standard_dir.glob("truth_*.pgm"))]
    report = score(pred, truth, warmup=30)
    fg = report["per_class"]["foreground"]["f1"]
    sh = report["per_class"]["shadow"]["f1"]
    ok = fg is not None and sh is not None and fg >= 0.90 and sh >= 0.80
    _verdict(
        "C10 segmentation quality",
        ok,
        f"standard scene after 30 warmup frames: foreground F1 {fg:.3f} (floor 0.90), "
        f"shadow F1 {sh:.3f} (floor 0.80)",
    )
    assert fg is not None and fg >= 0.90
    assert sh is not None and sh >= 0.80
