"""Adaptive background subtraction with shadow handling, blobs and events."""

from .config import EmitFlags, RunConfig, SegmentationParams
from .events import EventParams, Zone
from .frame_model import FrameModel
from .gmm import ModelParams
from .pipeline import FramePipeline, FrameResult, run_pipeline
from .scenes import generate_scene, standard_scene
from .shadow import ShadowParams

__all__ = [
    "EmitFlags",
    "EventParams",
    "FrameModel",
    "FramePipeline",
    "FrameResult",
    "ModelParams",
    "RunConfig",
    "SegmentationParams",
    "ShadowParams",
    "Zone",
    "generate_scene",
    "run_pipeline",
    "standard_scene",
]
