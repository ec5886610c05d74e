"""Tracking, alarms, and zone checks."""

import numpy as np
import pytest

from bgsub.events import (
    KIND_ABANDONED,
    KIND_INTRUSION,
    KIND_MOTION_STARTED,
    Event,
    EventParams,
    EventTracker,
    Zone,
)
from bgsub.segmentation import Blob

from oracles import min_sum_assignment


def _blob(x, y, i=1, half=2):
    bbox = (int(x) - half, int(y) - half, int(x) + half, int(y) + half)
    return Blob(id=i, area=(2 * half + 1) ** 2, bbox=bbox, centroid=(float(x), float(y)))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_assoc_dist": 0.0},
        {"max_assoc_dist": -1.0},
        {"eps_move": 0.0},
        {"n_static": 0},
        {"track_timeout": 0},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        EventParams(**kwargs)


def test_zone_validation():
    Zone("ok", (0, 0, 0, 0))  # single-pixel zone is legal
    with pytest.raises(ValueError):
        Zone("bad", (5, 0, 4, 10))
    with pytest.raises(ValueError):
        Zone("bad", (0, 5, 10, 4))


def test_event_to_json():
    e = Event(frame=7, kind=KIND_INTRUSION, track=3, bbox=(1, 2, 3, 4), zone="door")
    assert e.to_json() == {
        "frame": 7,
        "kind": KIND_INTRUSION,
        "track": 3,
        "bbox": [1, 2, 3, 4],
        "zone": "door",
    }
    assert Event(0, KIND_MOTION_STARTED, 1, (0, 0, 1, 1)).to_json()["zone"] is None


def test_first_blobs_open_tracks():
    tr = EventTracker(EventParams())
    events = tr.process_frame([_blob(10, 10), _blob(100, 40)], 0)
    assert [e.kind for e in events] == [KIND_MOTION_STARTED, KIND_MOTION_STARTED]
    assert [e.track for e in events] == [1, 2]
    assert len(tr.tracks) == 2


def test_nearby_blob_continues_track():
    tr = EventTracker(EventParams())
    tr.process_frame([_blob(10, 10)], 0)
    events = tr.process_frame([_blob(14, 13)], 1)
    assert events == []
    assert len(tr.tracks) == 1
    assert tr.tracks[0].centroid == (14.0, 13.0)
    assert tr.tracks[0].id == 1
    assert tr.tracks[0].last_seen_frame == 1


def test_far_blob_opens_new_track():
    tr = EventTracker(EventParams(max_assoc_dist=30.0))
    tr.process_frame([_blob(10, 10)], 0)
    events = tr.process_frame([_blob(80, 10)], 1)
    assert [e.kind for e in events] == [KIND_MOTION_STARTED]
    assert len(tr.tracks) == 2


def test_gate_is_inclusive():
    tr = EventTracker(EventParams(max_assoc_dist=30.0))
    tr.process_frame([_blob(0, 0)], 0)
    events = tr.process_frame([_blob(30, 0)], 1)
    assert events == []  # dist exactly 30 still matches
    assert len(tr.tracks) == 1


def test_greedy_prefers_closer_pair():
    tr = EventTracker(EventParams())
    tr.process_frame([_blob(0, 0), _blob(20, 0)], 0)  # tracks 1, 2
    # blob at x=14 is closer to track 2, which claims it first; track 1 is
    # 40 away from the remaining blob, outside the 30 gate, so that blob
    # opens a third track
    events = tr.process_frame([_blob(14, 0), _blob(40, 0)], 1)
    assert [e.kind for e in events] == [KIND_MOTION_STARTED]
    assert events[0].track == 3
    by_id = {t.id: t for t in tr.tracks}
    assert by_id[2].centroid == (14.0, 0.0)
    assert by_id[1].centroid == (0.0, 0.0)
    assert by_id[3].centroid == (40.0, 0.0)


def test_equidistant_tie_goes_to_lower_track_id():
    tr = EventTracker(EventParams())
    tr.process_frame([_blob(0, 0), _blob(20, 0)], 0)
    events = tr.process_frame([_blob(10, 0)], 1)
    assert events == []
    by_id = {t.id: t for t in tr.tracks}
    assert by_id[1].centroid == (10.0, 0.0)
    assert by_id[2].centroid == (20.0, 0.0)


def test_static_counter_and_abandoned_latch():
    tr = EventTracker(EventParams(eps_move=2.0, n_static=3))
    tr.process_frame([_blob(10, 10)], 0)
    assert tr.process_frame([_blob(10, 10)], 1) == []
    assert tr.process_frame([_blob(10, 10)], 2) == []
    events = tr.process_frame([_blob(10, 10)], 3)
    assert [e.kind for e in events] == [KIND_ABANDONED]
    assert events[0].track == 1
    # latched: staying put longer does not refire
    assert tr.process_frame([_blob(10, 10)], 4) == []
    assert tr.process_frame([_blob(10, 10)], 5) == []


def test_movement_resets_counter_and_latch():
    tr = EventTracker(EventParams(eps_move=2.0, n_static=2))
    tr.process_frame([_blob(10, 10)], 0)
    tr.process_frame([_blob(10, 10)], 1)
    assert [e.kind for e in tr.process_frame([_blob(10, 10)], 2)] == [KIND_ABANDONED]
    # picked up and carried: counter and latch both clear
    tr.process_frame([_blob(20, 10)], 3)
    assert tr.tracks[0].frames_static == 0
    assert not tr.tracks[0].alarm_raised
    tr.process_frame([_blob(20, 10)], 4)
    events = tr.process_frame([_blob(20, 10)], 5)
    assert [e.kind for e in events] == [KIND_ABANDONED]


def test_displacement_equal_to_eps_resets():
    tr = EventTracker(EventParams(eps_move=2.0, n_static=1))
    tr.process_frame([_blob(10.0, 10.0)], 0)
    events = tr.process_frame([_blob(12.0, 10.0)], 1)  # moved exactly eps_move
    assert events == []
    assert tr.tracks[0].frames_static == 0


def test_timeout_drops_track():
    tr = EventTracker(EventParams(track_timeout=5))
    tr.process_frame([_blob(10, 10)], 0)
    for i in range(1, 5):
        tr.process_frame([], i)
        assert len(tr.tracks) == 1
    tr.process_frame([], 5)
    assert tr.tracks == []
    # the object coming back is a fresh track
    events = tr.process_frame([_blob(10, 10)], 6)
    assert [e.kind for e in events] == [KIND_MOTION_STARTED]
    assert events[0].track == 2


def test_reacquire_before_timeout_keeps_id():
    tr = EventTracker(EventParams(track_timeout=5))
    tr.process_frame([_blob(10, 10)], 0)
    for i in range(1, 5):
        tr.process_frame([], i)
    events = tr.process_frame([_blob(12, 10)], 5)
    assert events == []
    assert tr.tracks[0].id == 1


def test_intrusion_fires_on_entry():
    zone = Zone("door", (0, 0, 20, 20))
    tr = EventTracker(EventParams(), zones=[zone])
    events = tr.process_frame([_blob(50, 50)], 0)
    assert [e.kind for e in events] == [KIND_MOTION_STARTED]
    tr.process_frame([_blob(40, 40)], 1)
    events = tr.process_frame([_blob(21, 21)], 2)  # bbox reaches into the zone
    assert [e.kind for e in events] == [KIND_INTRUSION]
    assert events[0].zone == "door"


def test_intrusion_latched_while_inside():
    zone = Zone("door", (0, 0, 30, 30))
    tr = EventTracker(EventParams(), zones=[zone])
    events = tr.process_frame([_blob(10, 10)], 0)
    assert [e.kind for e in events] == [KIND_MOTION_STARTED, KIND_INTRUSION]
    for i in range(1, 4):
        assert tr.process_frame([_blob(10 + i, 10)], i) == []


def test_intrusion_refires_after_gap():
    zone = Zone("door", (0, 0, 10, 10))
    tr = EventTracker(EventParams(max_assoc_dist=40.0), zones=[zone])
    tr.process_frame([_blob(5, 5)], 0)  # motion + intrusion
    tr.process_frame([_blob(30, 30)], 1)  # left the zone
    events = tr.process_frame([_blob(5, 5)], 2)
    assert [e.kind for e in events] == [KIND_INTRUSION]


def test_blob_straddling_two_zones():
    zones = [Zone("left", (0, 0, 10, 50)), Zone("right", (12, 0, 30, 50))]
    tr = EventTracker(EventParams(), zones=zones)
    events = tr.process_frame([_blob(11, 25, half=3)], 0)
    kinds = [e.kind for e in events]
    assert kinds == [KIND_MOTION_STARTED, KIND_INTRUSION, KIND_INTRUSION]
    assert {e.zone for e in events if e.kind == KIND_INTRUSION} == {"left", "right"}


def test_zone_overlap_is_inclusive_at_edge():
    zone = Zone("edge", (10, 10, 20, 20))
    tr = EventTracker(EventParams(), zones=[zone])
    # bbox (6,6,10,10) touches the zone corner pixel
    events = tr.process_frame([_blob(8, 8, half=2)], 0)
    assert KIND_INTRUSION in [e.kind for e in events]


def _well_separated_points(rng, count, lo=10.0, hi=230.0, min_sep=25.0):
    pts = []
    while len(pts) < count:
        cand = (float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))
        if all((cand[0] - p[0]) ** 2 + (cand[1] - p[1]) ** 2 >= min_sep**2 for p in pts):
            pts.append(cand)
    return pts


def test_association_matches_optimal_when_separated():
    # with targets >= 25 px apart and jitter <= 5 px, greedy matching and
    # the optimal assignment must agree pair for pair
    rng = np.random.default_rng(17)
    params = EventParams(max_assoc_dist=30.0)
    for trial in range(300):
        n_tracks = int(rng.integers(1, 5))
        track_pts = _well_separated_points(rng, n_tracks)

        blob_pts = []
        origin = []  # track index each blob came from, -1 for newcomers
        for ti, (x, y) in enumerate(track_pts):
            if rng.random() < 0.8:
                jx, jy = rng.uniform(-5.0, 5.0, 2) * np.sqrt(0.5)
                blob_pts.append((x + float(jx), y + float(jy)))
                origin.append(ti)
        if rng.random() < 0.3:
            far = _well_separated_points(rng, 1, min_sep=60.0)
            if all(
                (far[0][0] - p[0]) ** 2 + (far[0][1] - p[1]) ** 2 >= 60.0**2 for p in track_pts
            ):
                blob_pts.append(far[0])
                origin.append(-1)

        tr = EventTracker(params)
        tr.process_frame([_blob(x, y, i=i + 1) for i, (x, y) in enumerate(track_pts)], 0)
        id_by_index = {ti: t.id for ti, t in enumerate(tr.tracks)}
        tr.process_frame([_blob(x, y, i=i + 1) for i, (x, y) in enumerate(blob_pts)], 1)

        want = min_sum_assignment(track_pts, blob_pts, params.max_assoc_dist)
        got = set()
        by_id = {t.id: t for t in tr.tracks}
        for ti in range(n_tracks):
            track = by_id[id_by_index[ti]]
            if track.last_seen_frame == 1:
                for bi, pt in enumerate(blob_pts):
                    if track.centroid == pt:
                        got.add((ti, bi))
        assert got == want, f"trial {trial}: greedy {got} vs optimal {want}"


def test_each_blob_claims_one_track():
    rng = np.random.default_rng(23)
    tr = EventTracker(EventParams())
    for frame in range(40):
        blobs = [
            _blob(rng.uniform(0, 200), rng.uniform(0, 200), i=i + 1)
            for i in range(int(rng.integers(0, 5)))
        ]
        tr.process_frame(blobs, frame)
        ids = [t.id for t in tr.tracks]
        assert len(ids) == len(set(ids))
        seen_this_frame = [t for t in tr.tracks if t.last_seen_frame == frame]
        # every blob landed on exactly one track
        assert len(seen_this_frame) == len(blobs)
