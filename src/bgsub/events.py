"""Blob tracking and surveillance events.

Frame-to-frame association is greedy nearest-centroid: candidate pairs
within a gate radius are taken in ascending distance order, ties broken
by track id then blob index, each track and blob used at most once. That
is the right trade for surveillance scenes where frame-to-frame motion
is small compared to target separation; crossing targets at similar
distances can swap identities, which is accepted here.

EventTracker.process_frame makes one pass per frame: it associates the
blobs, opening tracks for the leftovers and dropping tracks unseen for
track_timeout frames, and then checks the tracks and the frame's
(track, blob) pairs for alarms. Its events come in this kind order:

* ``motion_started``: a blob appeared that no existing track claimed.
* ``abandoned``: a track's centroid has stayed put for n_static
  consecutive frames; latched so one episode fires once.
* ``intrusion``: a blob tracked this frame overlaps a named zone;
  latched per (track, zone) until a frame in which the track has no
  blob overlapping that zone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .segmentation import Blob

KIND_MOTION_STARTED = "motion_started"
KIND_ABANDONED = "abandoned"
KIND_INTRUSION = "intrusion"


@dataclass
class EventParams:
    max_assoc_dist: float = 30.0
    eps_move: float = 2.0
    n_static: int = 20
    track_timeout: int = 30

    def __post_init__(self) -> None:
        if not (math.isfinite(self.max_assoc_dist) and self.max_assoc_dist > 0.0):
            raise ValueError(f"max_assoc_dist must be finite and positive, got {self.max_assoc_dist}")
        if not (math.isfinite(self.eps_move) and self.eps_move > 0.0):
            raise ValueError(f"eps_move must be finite and positive, got {self.eps_move}")
        if self.n_static < 1:
            raise ValueError(f"n_static must be >= 1, got {self.n_static}")
        if self.track_timeout < 1:
            raise ValueError(f"track_timeout must be >= 1, got {self.track_timeout}")


@dataclass(frozen=True)
class Zone:
    """Named rectangle (x0, y0, x1, y1), corners inclusive."""

    name: str
    rect: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        x0, y0, x1, y1 = self.rect
        if x1 < x0 or y1 < y0:
            raise ValueError(f"zone {self.name!r} has an empty rect {self.rect}")


@dataclass
class TrackedBlob:
    id: int
    centroid: tuple[float, float]
    bbox: tuple[int, int, int, int]
    last_seen_frame: int
    frames_seen: int = 1
    frames_static: int = 0
    alarm_raised: bool = False


@dataclass(frozen=True)
class Event:
    frame: int
    kind: str
    track: int
    bbox: tuple[int, int, int, int]
    zone: str | None = None

    def to_json(self) -> dict:
        return {
            "frame": self.frame,
            "kind": self.kind,
            "track": self.track,
            "bbox": list(self.bbox),
            "zone": self.zone,
        }


def _boxes_overlap(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


class EventTracker:
    """Carries tracks and alarm latches across frames."""

    def __init__(self, params: EventParams, zones: tuple[Zone, ...] | list[Zone] = ()):
        self.params = params
        self.zones = list(zones)
        self.tracks: list[TrackedBlob] = []
        self._next_id = 1
        self._zone_hits: set[tuple[int, str]] = set()

    def process_frame(self, blobs: list[Blob], frame_index: int) -> list[Event]:
        """Track this frame's blobs; return its events in the fixed kind order:
        motion_started, then abandoned, then intrusion."""
        events, assignment = self._associate(blobs, frame_index)
        for track in self.tracks:
            if not track.alarm_raised and track.frames_static >= self.params.n_static:
                track.alarm_raised = True
                events.append(Event(frame_index, KIND_ABANDONED, track.id, track.bbox))
        current: set[tuple[int, str]] = set()
        for track, blob in assignment:
            for zone in self.zones:
                if _boxes_overlap(blob.bbox, zone.rect):
                    key = (track.id, zone.name)
                    current.add(key)
                    if key not in self._zone_hits:
                        events.append(
                            Event(frame_index, KIND_INTRUSION, track.id, blob.bbox, zone.name)
                        )
        self._zone_hits = current
        return events

    def _associate(
        self, blobs: list[Blob], frame_index: int
    ) -> tuple[list[Event], list[tuple[TrackedBlob, Blob]]]:
        """Match blobs to tracks, open tracks for leftovers, drop stale tracks.

        Returns the motion_started events of the new tracks and every
        (track, blob) pair of this frame, new tracks included.
        """
        p = self.params
        pairs = []
        for track in self.tracks:
            tx, ty = track.centroid
            for bi, blob in enumerate(blobs):
                dist = math.hypot(blob.centroid[0] - tx, blob.centroid[1] - ty)
                if dist <= p.max_assoc_dist:
                    pairs.append((dist, track.id, bi))
        pairs.sort()

        by_id = {t.id: t for t in self.tracks}
        used_tracks: set[int] = set()
        used_blobs: set[int] = set()
        assignment: list[tuple[TrackedBlob, Blob]] = []
        for dist, tid, bi in pairs:
            if tid in used_tracks or bi in used_blobs:
                continue
            used_tracks.add(tid)
            used_blobs.add(bi)
            track = by_id[tid]
            blob = blobs[bi]
            if dist < p.eps_move:
                track.frames_static += 1
            else:
                track.frames_static = 0
                track.alarm_raised = False
            track.centroid = blob.centroid
            track.bbox = blob.bbox
            track.last_seen_frame = frame_index
            track.frames_seen += 1
            assignment.append((track, blob))

        events = []
        for bi, blob in enumerate(blobs):
            if bi in used_blobs:
                continue
            track = TrackedBlob(
                id=self._next_id,
                centroid=blob.centroid,
                bbox=blob.bbox,
                last_seen_frame=frame_index,
            )
            self._next_id += 1
            self.tracks.append(track)
            assignment.append((track, blob))
            events.append(Event(frame_index, KIND_MOTION_STARTED, track.id, blob.bbox))

        self.tracks = [t for t in self.tracks if frame_index - t.last_seen_frame < p.track_timeout]
        return events, assignment
