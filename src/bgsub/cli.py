"""Command line interface: run, gen, score, bench."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .bench import benchmark
from .config import EmitFlags, RunConfig, load_config, load_json
from .errors import BgsubError, LengthMismatch
from .metrics import score
from .netpbm import decode_pgm
from .pipeline import list_files, run_pipeline
from .scenes import SceneSpec, standard_scene, write_scene

_EMIT_CHOICES = ("masks", "overlays", "events", "stats")


def _parse_emit(text: str) -> EmitFlags:
    wanted = [part.strip() for part in text.split(",") if part.strip()]
    unknown = sorted(set(wanted) - set(_EMIT_CHOICES))
    if unknown:
        raise ValueError(f"--emit: unknown outputs {unknown}, choose from {list(_EMIT_CHOICES)}")
    return EmitFlags(**{name: name in wanted for name in _EMIT_CHOICES})


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    overrides = {
        "input": args.input,
        "output": args.output,
        "max_frames": args.frames,
        "width": args.width,
        "height": args.height,
        "emit": None if args.emit is None else _parse_emit(args.emit),
    }
    # replace() runs RunConfig's validation again, so a flag is checked
    # exactly as the same value in the config file would be.
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    stats = run_pipeline(config)
    print(json.dumps(stats, indent=2))
    return 0


def _load_scene(path: str | None):
    if path is None:
        return standard_scene()
    return load_json(SceneSpec, path, "scene")


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = _load_scene(args.spec)
    n = write_scene(spec, args.seed, args.out)
    print(json.dumps({"frames": n, "width": spec.width, "height": spec.height, "out": args.out}))
    return 0


def _read_mask_dir(dir_path: str, pattern: str):
    return [decode_pgm(p.read_bytes()) for p in list_files(dir_path, pattern)]


def _cmd_score(args: argparse.Namespace) -> int:
    pred = _read_mask_dir(args.pred, "mask_*.pgm")
    truth = _read_mask_dir(args.truth, "truth_*.pgm")
    if len(pred) != len(truth):
        raise LengthMismatch(f"{len(pred)} masks vs {len(truth)} truth frames")
    print(json.dumps(score(pred, truth, warmup=args.warmup), indent=2))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else RunConfig()
    spec = _load_scene(args.spec)
    result = benchmark(config, spec, seed=args.seed, reps=args.reps)
    print(json.dumps(result, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgsub",
        description="Adaptive background subtraction with shadow handling and events.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="process a frame stream")
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.add_argument("--input", help="frame directory, or - for raw RGB24 on stdin")
    p_run.add_argument("--output", help="directory for masks, overlays, events and stats")
    p_run.add_argument("--frames", type=int, help="stop after this many frames")
    p_run.add_argument("--width", type=int, help="raw stdin frame width")
    p_run.add_argument("--height", type=int, help="raw stdin frame height")
    p_run.add_argument("--emit", help="comma list of masks,overlays,events,stats")
    p_run.set_defaults(fn=_cmd_run)

    p_gen = sub.add_parser("gen", help="render a synthetic scene with ground truth")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--spec", help="scene JSON (defaults to the reference scene)")
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.set_defaults(fn=_cmd_gen)

    p_score = sub.add_parser("score", help="score masks against truth rasters")
    p_score.add_argument("--pred", required=True, help="directory with mask_*.pgm")
    p_score.add_argument("--truth", required=True, help="directory with truth_*.pgm")
    p_score.add_argument("--warmup", type=int, default=30, help="frames to skip")
    p_score.set_defaults(fn=_cmd_score)

    p_bench = sub.add_parser("bench", help="in-memory throughput benchmark")
    p_bench.add_argument("--config", help="JSON run configuration")
    p_bench.add_argument("--spec", help="scene JSON (defaults to the reference scene)")
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BgsubError, ValueError, OSError) as exc:
        print(f"bgsub: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
