"""Mixture recurrence on one-pixel FrameModels: worked examples, invariants,
oracle agreement."""

import math

import numpy as np
import pytest
from oracles import oracle_init, oracle_params, oracle_step
from pixel_states import load_states, oracle_params_of, pixel_state, step

from bgsub.frame_model import FrameModel
from bgsub.gmm import BACKGROUND, FIXED_ALPHA, FOREGROUND, PDF_FAITHFUL, ModelParams


def _pixel(params, *comps):
    """A started one-pixel model holding comps, (weight, mean, variance)
    tuples in rank order."""
    fm = FrameModel(params, 1)
    load_states(fm, [[{"w": w, "m": list(m), "v": v} for w, m, v in comps]])
    return fm


def _seeded(params, first):
    fm = FrameModel(params, 1)
    step(fm, first)
    return fm


def test_seed_model():
    p = ModelParams(var_init=225.0)
    fm = _seeded(p, (100.0, 100.0, 100.0))
    assert fm.live_count[0] == 1
    assert pixel_state(fm, 0) == oracle_init((100.0, 100.0, 100.0), oracle_params(var_init=225.0))
    assert fm.weights[0, 0] == 1.0
    assert fm.mean_planes[:, 0, 0].tolist() == [100.0, 100.0, 100.0]
    assert fm.variances[0, 0] == 225.0


def test_init_at_black():
    fm = _seeded(ModelParams(), (0.0, 0.0, 0.0))
    assert fm.mean_planes[:, 0, 0].tolist() == [0.0, 0.0, 0.0]
    assert sum(c["w"] for c in pixel_state(fm, 0)) == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k": 0},
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"t": 0.0},
        {"t": 1.0},
        {"d": -1.0},
        {"var_init": 0.0},
        {"w_init": 0.0},
        {"w_init": 1.5},
        {"var_min": 0.0},
        {"rho_mode": "adaptive"},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_match_within_radius():
    fm = _pixel(ModelParams(d=2.5), (1.0, (100.0, 100.0, 100.0), 100.0))
    # distance sqrt(300) ~ 17.32 against radius d*sigma = 25
    assert step(fm, (110.0, 110.0, 110.0))[1] == 0
    assert fm.live_count[0] == 1


def test_match_outside_radius():
    fm = _pixel(ModelParams(d=2.5), (1.0, (100.0, 100.0, 100.0), 100.0))
    # distance sqrt(2700) ~ 51.96: a fresh component takes the value
    step(fm, (130.0, 130.0, 130.0))
    assert fm.live_count[0] == 2
    assert [130.0, 130.0, 130.0] in [c["m"] for c in pixel_state(fm, 0)]


def test_match_exact_mean():
    fm = _pixel(ModelParams(), (1.0, (42.0, 7.0, 99.0), 4.0))
    assert step(fm, (42.0, 7.0, 99.0))[1] == 0
    assert fm.live_count[0] == 1


def test_match_prefers_higher_rank():
    p = ModelParams()
    fm = _pixel(p, (0.6, (100.0, 100.0, 100.0), 100.0), (0.4, (101.0, 100.0, 100.0), 100.0))
    assert step(fm, (100.0, 100.0, 100.0))[1] == 0
    # Both are within reach; only the first absorbs the value.
    assert fm.weights[1, 0] == 0.4 * (1.0 - p.alpha)
    assert fm.mean_planes[:, 1, 0].tolist() == [101.0, 100.0, 100.0] and fm.variances[1, 0] == 100.0


def _matched_rho(params, var, z):
    """rho of the matched update of a lone component at the origin with
    variance var, read back from the updated mean, (1 - rho) * 0 + rho * z."""
    fm = _pixel(params, (1.0, (0.0, 0.0, 0.0), var))
    step(fm, z)
    assert fm.live_count[0] == 1
    return fm.mean_planes[0, 0, 0] / z[0]


# 2**-30 from the mean: the density there equals the density at the mean
# to the last bit (exp(-2**-60 / (2 var)) rounds to 1.0), and rho * 2**-30
# reads back exactly.
AT_MEAN = (2.0**-30, 0.0, 0.0)


def test_component_pdf_at_mean():
    # alpha 0.5 divides out exactly: the density is rho / alpha.
    p = ModelParams(alpha=0.5, rho_mode=PDF_FAITHFUL)
    density = _matched_rho(p, 100.0, AT_MEAN) / p.alpha
    expected = (2.0 * math.pi) ** -1.5 * 1e-3
    assert density == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(6.3494e-5, rel=1e-4)


def test_component_pdf_decays_with_distance():
    p = ModelParams(alpha=0.5, rho_mode=PDF_FAITHFUL)
    near = _matched_rho(p, 100.0, (5.0, 0.0, 0.0))
    far = _matched_rho(p, 100.0, (10.0, 0.0, 0.0))
    assert near < _matched_rho(p, 100.0, AT_MEAN)
    # adding 75 to the squared distance scales density by exp(-75/200)
    assert far == pytest.approx(near * math.exp(-75.0 / 200.0), rel=1e-12)


def test_rho_fixed_mode_ignores_z():
    p = ModelParams(alpha=0.05, rho_mode=FIXED_ALPHA)
    assert _matched_rho(p, 100.0, AT_MEAN) == 0.05
    assert _matched_rho(p, 100.0, (16.0, 0.0, 0.0)) == 0.05


def test_rho_pdf_mode_scales_by_density():
    p = ModelParams(alpha=0.05, rho_mode=PDF_FAITHFUL)
    rho = _matched_rho(p, 100.0, AT_MEAN)
    assert rho == pytest.approx(0.05 * (2.0 * math.pi) ** -1.5 * 1e-3, rel=1e-12)
    assert rho == pytest.approx(3.175e-6, rel=1e-3)


def test_rho_pdf_mode_clamps_to_one():
    p = ModelParams(alpha=0.05, rho_mode=PDF_FAITHFUL)
    assert _matched_rho(p, 1e-9, AT_MEAN) == 1.0


def test_update_on_match_worked_example():
    p = ModelParams(alpha=0.05, rho_mode=FIXED_ALPHA)
    fm = _pixel(p, (0.5, (100.0, 100.0, 100.0), 100.0))
    step(fm, (110.0, 110.0, 110.0))
    (c,) = pixel_state(fm, 0)
    assert c["w"] == pytest.approx(0.525, rel=1e-12)
    assert c["m"][0] == pytest.approx(100.5, rel=1e-12)
    assert c["m"][1] == pytest.approx(100.5, rel=1e-12)
    assert c["m"][2] == pytest.approx(100.5, rel=1e-12)
    # variance pulls toward the squared distance from the updated mean
    assert c["v"] == pytest.approx(0.95 * 100.0 + 0.05 * (9.5**2 * 3), rel=1e-12)
    assert c["v"] == pytest.approx(108.5375, rel=1e-12)


def test_update_on_match_zero_innovation_shrinks_variance():
    fm = _pixel(ModelParams(alpha=0.05), (1.0, (50.0, 60.0, 70.0), 100.0))
    step(fm, (50.0, 60.0, 70.0))
    (c,) = pixel_state(fm, 0)
    assert c["m"] == [50.0, 60.0, 70.0]
    assert c["v"] == pytest.approx(95.0, rel=1e-12)


def test_update_on_match_variance_floor():
    fm = _pixel(ModelParams(alpha=0.5, var_min=4.0), (1.0, (50.0, 60.0, 70.0), 4.5))
    for _ in range(10):
        step(fm, (50.0, 60.0, 70.0))
    assert fm.variances[0, 0] == 4.0


def test_update_on_match_decays_unmatched():
    fm = _pixel(
        ModelParams(alpha=0.1),
        (0.7, (0.0, 0.0, 0.0), 25.0),
        (0.3, (200.0, 200.0, 200.0), 25.0),
    )
    step(fm, (0.0, 0.0, 0.0))
    weights = sorted(c["w"] for c in pixel_state(fm, 0))
    assert weights[0] == pytest.approx(0.27, rel=1e-12)
    assert weights[1] == pytest.approx(0.73, rel=1e-12)


def test_update_on_no_match_appends_below_capacity():
    fm = _seeded(ModelParams(k=3, alpha=0.05, w_init=0.05), (10.0, 10.0, 10.0))
    step(fm, (200.0, 30.0, 30.0))
    comps = pixel_state(fm, 0)
    assert len(comps) == 2
    assert [200.0, 30.0, 30.0] in [c["m"] for c in comps]
    assert sum(c["w"] for c in comps) == pytest.approx(1.0, abs=1e-12)


def test_update_on_no_match_replacement_worked_example():
    p = ModelParams(k=2, alpha=0.05, w_init=0.05)
    fm = _pixel(p, (0.7, (0.0, 0.0, 0.0), 25.0), (0.3, (80.0, 80.0, 80.0), 25.0))
    step(fm, (200.0, 200.0, 200.0))
    comps = pixel_state(fm, 0)
    assert len(comps) == 2
    by_weight = sorted(comps, key=lambda c: c["w"])
    # survivor 0.7*0.95 = 0.665 and fresh 0.05, renormalized by 0.715
    assert by_weight[1]["w"] == pytest.approx(0.93007, rel=1e-4)
    assert by_weight[0]["w"] == pytest.approx(0.06993, rel=1e-4)
    assert by_weight[0]["m"] == [200.0, 200.0, 200.0]
    assert by_weight[0]["v"] == p.var_init


def test_update_on_no_match_replaces_lowest_weight_first_on_tie():
    p = ModelParams(k=2, alpha=0.05)
    fm = _pixel(p, (0.5, (0.0, 0.0, 0.0), 25.0), (0.5, (80.0, 80.0, 80.0), 25.0))
    step(fm, (200.0, 200.0, 200.0))
    survivors = [c["m"] for c in pixel_state(fm, 0)]
    assert [80.0, 80.0, 80.0] in survivors  # first of the tie was replaced
    assert [0.0, 0.0, 0.0] not in survivors


def test_update_on_no_match_replaces_lowest_decayed_weight():
    # The two lighter weights are one ulp apart and decay to the same
    # float. Every weight decays before the slot to replace is chosen, so
    # the first of that tie, mean 100, is replaced, not mean 150, whose
    # weight was the lower one before the decay.
    p = ModelParams(k=3, alpha=0.01)
    specs = [
        (0.4544602805591598, (50.0,) * 3, 25.0),
        (0.2727698597204201, (100.0,) * 3, 25.0),
        (0.27276985972042006, (150.0,) * 3, 25.0),
    ]
    w1, w2 = specs[1][0], specs[2][0]
    assert np.nextafter(w2, 1.0) == w1 and w1 * (1.0 - p.alpha) == w2 * (1.0 - p.alpha)
    fm = _pixel(p, *specs)
    got = step(fm, (250.0, 0.0, 250.0))
    means = [c["m"] for c in pixel_state(fm, 0)]
    assert [150.0] * 3 in means and [100.0] * 3 not in means
    comps = [{"w": w, "m": list(m), "v": v} for w, m, v in specs]
    comps, label, pos, b = oracle_step(comps, [250.0, 0.0, 250.0], oracle_params_of(p))
    assert got == (label, pos, b)
    assert pixel_state(fm, 0) == comps


# In the background-prefix examples the value matches slot 0, whose
# weight grows by the update while the others shrink; b is taken over the
# weights after the update.


def test_background_count_prefix():
    p7 = ModelParams(t=0.7)
    fm = _pixel(
        p7,
        (0.5, (0.0, 0.0, 0.0), 25.0),
        (0.3, (1.0, 1.0, 1.0), 25.0),
        (0.2, (2.0, 2.0, 2.0), 25.0),
    )
    # weights after the update: 0.505, 0.297, 0.198
    assert step(fm, (0.0, 0.0, 0.0))[2] == 2
    fm = _pixel(p7, (0.9, (0.0, 0.0, 0.0), 25.0), (0.1, (1.0, 1.0, 1.0), 25.0))
    assert step(fm, (0.0, 0.0, 0.0))[2] == 1


def test_background_count_strictly_greater():
    # alpha 0.5 keeps the update exact: the weights become 0.75 and 0.25.
    p = ModelParams(t=0.75, alpha=0.5)
    fm = _pixel(p, (0.5, (0.0, 0.0, 0.0), 25.0), (0.5, (1.0, 1.0, 1.0), 25.0))
    b = step(fm, (0.0, 0.0, 0.0))[2]
    assert fm.weights[:2, 0].tolist() == [0.75, 0.25]
    # prefix sum 0.75 is not strictly above t=0.75
    assert b == 2


def test_background_count_degenerate_falls_back_to_live():
    p = ModelParams(t=0.95)
    fm = _pixel(p, (0.4, (0.0, 0.0, 0.0), 25.0), (0.3, (1.0, 1.0, 1.0), 25.0))
    # weights after the update 0.406 and 0.297: no prefix gets above t
    assert step(fm, (0.0, 0.0, 0.0))[2] == 2


def test_dominant_match_is_background():
    fm = _seeded(ModelParams(), (100.0, 100.0, 100.0))
    label, pos, b = step(fm, (101.0, 100.0, 99.0))
    assert label == BACKGROUND
    assert pos == 0
    assert b >= 1


def test_replacement_is_foreground():
    fm = _seeded(ModelParams(), (100.0, 100.0, 100.0))
    label, pos, b = step(fm, (250.0, 10.0, 10.0))
    assert label == FOREGROUND
    assert pos >= b


def test_constant_feed_stays_background():
    fm = _seeded(ModelParams(), (77.0, 40.0, 200.0))
    for _ in range(100):
        assert step(fm, (77.0, 40.0, 200.0))[0] == BACKGROUND


def _draw_value(rng):
    # near the main mode, near a second mode, or far away
    roll = rng.random()
    if roll < 0.5:
        return tuple(rng.normal(100.0, 4.0, 3))
    if roll < 0.8:
        return tuple(rng.normal(170.0, 4.0, 3))
    return tuple(rng.uniform(0.0, 255.0, 3))


@pytest.mark.parametrize("rho_mode", [FIXED_ALPHA, PDF_FAITHFUL])
def test_oracle_agreement_random_walk(rho_mode):
    p = ModelParams(alpha=0.04, rho_mode=rho_mode)
    op = oracle_params(alpha=0.04, rho_mode=rho_mode)
    rng = np.random.default_rng(11 if rho_mode == FIXED_ALPHA else 12)
    for _ in range(20):
        first = tuple(rng.uniform(0.0, 255.0, 3))
        fm = _seeded(p, first)
        ref = oracle_init(first, op)
        for _ in range(100):
            z = _draw_value(rng)
            got = step(fm, z)
            ref, rlabel, rpos, rb = oracle_step(ref, z, op)
            assert got == (rlabel, rpos, rb)
            mine = pixel_state(fm, 0)
            assert len(ref) == len(mine)
            for c, theirs in zip(mine, ref):
                assert c["w"] == pytest.approx(theirs["w"], rel=1e-9)
                assert c["v"] == pytest.approx(theirs["v"], rel=1e-9)
                for a, bb in zip(c["m"], theirs["m"]):
                    assert a == pytest.approx(bb, rel=1e-9)
            # step invariants
            assert sum(c["w"] for c in mine) == pytest.approx(1.0, abs=1e-6)
            assert all(c["v"] >= p.var_min for c in mine)
            ranks = [c["w"] / math.sqrt(c["v"]) for c in mine]
            assert ranks == sorted(ranks, reverse=True)
            assert len(mine) <= p.k
