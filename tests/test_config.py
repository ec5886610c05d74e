"""Config parsing: defaults, strictness, and error paths."""

import json
from dataclasses import asdict

import pytest

from bgsub.config import EmitFlags, RunConfig, SegmentationParams, config_from_dict, load_config
from bgsub.events import EventParams, Zone
from bgsub.gmm import FIXED_ALPHA, PDF_FAITHFUL, ModelParams
from bgsub.shadow import ShadowParams
from bgsub.segmentation import EIGHT, FOUR


def test_empty_config_gives_defaults():
    cfg = config_from_dict({})
    assert cfg.input is None and cfg.output is None
    assert cfg.workers == 1
    assert cfg.queue_depth == 4
    assert cfg.model.k == 3
    assert cfg.model.alpha == 0.01
    assert cfg.model.t == 0.7
    assert cfg.model.rho_mode == FIXED_ALPHA
    assert cfg.shadow.bd_low == 0.4
    assert cfg.segmentation.connectivity == EIGHT
    assert cfg.segmentation.min_area == 15
    assert cfg.events.n_static == 20
    assert cfg.zones == []
    assert cfg.emit == EmitFlags(True, True, True, True)


def test_full_config_parses():
    cfg = config_from_dict(
        {
            "input": "frames/",
            "output": "out/",
            "width": 320,
            "height": 240,
            "max_frames": 50,
            "workers": 3,
            "queue_depth": 8,
            "model": {"k": 4, "alpha": 0.005, "t": 0.8, "rho_mode": "pdf_faithful"},
            "shadow": {"bd_low": 0.5, "bd_high": 0.9, "cd_max": 0.08},
            "segmentation": {"connectivity": "four", "min_area": 9},
            "events": {"n_static": 60, "eps_move": 1.5},
            "zones": [
                {"name": "door", "rect": [0, 0, 30, 60]},
                {"name": "window", "rect": [100, 0, 130, 40]},
            ],
            "emit": {"overlays": False},
        }
    )
    assert cfg.model.k == 4
    assert cfg.model.rho_mode == "pdf_faithful"
    assert cfg.segmentation.connectivity == "four"
    assert cfg.events.n_static == 60
    assert [z.name for z in cfg.zones] == ["door", "window"]
    assert cfg.zones[0].rect == (0, 0, 30, 60)
    assert cfg.emit.overlays is False and cfg.emit.masks is True


def test_unknown_top_level_key():
    with pytest.raises(ValueError, match="unknown keys.*'modle'"):
        config_from_dict({"modle": {}})


def test_unknown_section_key_names_section():
    with pytest.raises(ValueError, match=r"model: unknown keys \['kk'\]"):
        config_from_dict({"model": {"kk": 3}})
    with pytest.raises(ValueError, match="shadow: unknown keys"):
        config_from_dict({"shadow": {"bd_lo": 0.4}})


def test_type_errors_name_the_path():
    with pytest.raises(ValueError, match="model.alpha"):
        config_from_dict({"model": {"alpha": "fast"}})
    with pytest.raises(ValueError, match="model.k"):
        config_from_dict({"model": {"k": 2.5}})
    with pytest.raises(ValueError, match="emit.masks"):
        config_from_dict({"emit": {"masks": 1}})
    with pytest.raises(ValueError, match="config.workers"):
        config_from_dict({"workers": "two"})
    with pytest.raises(ValueError, match="config.input"):
        config_from_dict({"input": 7})
    with pytest.raises(ValueError, match="config.workers"):
        config_from_dict({"workers": None})
    with pytest.raises(ValueError, match="config.input: expected a non-empty string"):
        config_from_dict({"input": ""})


def test_bool_is_not_an_int():
    with pytest.raises(ValueError):
        config_from_dict({"model": {"k": True}})
    with pytest.raises(ValueError):
        config_from_dict({"workers": True})


def test_int_accepted_for_float_field():
    cfg = config_from_dict({"shadow": {"cd_max": 1}})
    assert cfg.shadow.cd_max == 1.0


def test_int_for_float_field_is_stored_as_float():
    cfg = config_from_dict({"model": {"var_init": 225}, "events": {"eps_move": 2}})
    assert type(cfg.model.var_init) is float and type(cfg.events.eps_move) is float


def test_section_must_be_object():
    with pytest.raises(ValueError, match="model: expected an object"):
        config_from_dict({"model": [1, 2]})


def test_validation_errors_carry_section():
    with pytest.raises(ValueError, match="model:"):
        config_from_dict({"model": {"alpha": 1.5}})
    with pytest.raises(ValueError, match="segmentation:"):
        config_from_dict({"segmentation": {"connectivity": "six"}})


def test_zone_parsing_errors():
    with pytest.raises(ValueError, match=r"zones\[0\].name"):
        config_from_dict({"zones": [{"name": "", "rect": [0, 0, 1, 1]}]})
    with pytest.raises(ValueError, match=r"zones\[0\].rect"):
        config_from_dict({"zones": [{"name": "a", "rect": [0, 0, 1]}]})
    with pytest.raises(ValueError, match=r"zones\[1\]: unknown keys"):
        config_from_dict(
            {"zones": [{"name": "a", "rect": [0, 0, 1, 1]}, {"name": "b", "rect": [0, 0, 1, 1], "color": "red"}]}
        )
    with pytest.raises(ValueError, match="config.zones"):
        config_from_dict({"zones": {"name": "a"}})
    with pytest.raises(ValueError, match=r"zones\[0\]: missing required key 'name'"):
        config_from_dict({"zones": [{"rect": [0, 0, 1, 1]}]})
    with pytest.raises(ValueError, match=r"zones\[0\].name"):
        config_from_dict({"zones": [{"name": None, "rect": [0, 0, 1, 1]}]})
    with pytest.raises(ValueError, match=r"zones\[0\].rect\[3\]"):
        config_from_dict({"zones": [{"name": "a", "rect": [0, 0, 1, True]}]})


def test_duplicate_zone_names_rejected():
    with pytest.raises(ValueError, match="unique"):
        config_from_dict(
            {"zones": [{"name": "a", "rect": [0, 0, 1, 1]}, {"name": "a", "rect": [2, 2, 3, 3]}]}
        )


def test_runconfig_direct_validation():
    with pytest.raises(ValueError):
        RunConfig(workers=0)
    with pytest.raises(ValueError):
        RunConfig(queue_depth=0)
    with pytest.raises(ValueError):
        RunConfig(width=0)
    with pytest.raises(ValueError):
        RunConfig(max_frames=-1)
    with pytest.raises(ValueError):
        SegmentationParams(min_area=0)


# Every float field of every section. The JSON literals NaN and Infinity
# parse to floats, and a NaN slips past any plain `x <= 0` test.
_FLOAT_FIELDS = [
    ("model", ModelParams, name) for name in ("alpha", "t", "d", "var_init", "w_init", "var_min")
] + [
    ("shadow", ShadowParams, name) for name in ("bd_low", "bd_high", "cd_max")
] + [
    ("events", EventParams, name) for name in ("max_assoc_dist", "eps_move")
]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("section, cls, name", _FLOAT_FIELDS)
def test_non_finite_floats_rejected(section, cls, name, literal):
    text = f'{{"{section}": {{"{name}": {literal}}}}}'
    with pytest.raises(ValueError, match=f"{section}: .*{name}"):
        config_from_dict(json.loads(text))
    with pytest.raises(ValueError, match=name):
        cls(**{name: float(literal.lower().replace("infinity", "inf"))})


def test_null_optional_ints_allowed():
    cfg = config_from_dict({"width": None, "max_frames": None})
    assert cfg.width is None and cfg.max_frames is None


def test_asdict_json_round_trip():
    # The benchmark writes a run config as json.dumps(asdict(config)) and
    # its stream child reads it back with load_config.
    cfg = RunConfig(
        input="frames/",
        output="out/",
        width=320,
        height=240,
        max_frames=50,
        workers=3,
        queue_depth=8,
        model=ModelParams(
            k=4, alpha=0.005, t=0.8, d=3.0, var_init=100.0, w_init=0.1, var_min=2.0, rho_mode=PDF_FAITHFUL
        ),
        shadow=ShadowParams(bd_low=0.5, bd_high=0.9, cd_max=0.08),
        segmentation=SegmentationParams(connectivity=FOUR, min_area=9),
        events=EventParams(max_assoc_dist=12.5, eps_move=1.5, n_static=60, track_timeout=10),
        zones=[Zone("door", (0, 0, 30, 60)), Zone("window", (100, 0, 130, 40))],
        emit=EmitFlags(masks=False, overlays=False, events=False, stats=False),
    )
    assert config_from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"workers": 2, "model": {"alpha": 0.02}}))
    cfg = load_config(path)
    assert cfg.workers == 2
    assert cfg.model.alpha == 0.02


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="broken.json"):
        load_config(path)


def test_load_config_top_level_not_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="expected an object"):
        load_config(path)


def test_load_config_k_range(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"k": 255}}))
    assert load_config(path).model.k == 255
    path.write_text(json.dumps({"model": {"k": 256}}))
    with pytest.raises(ValueError, match=r"config\.model: k must be in \[1, 255\], got 256"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "nope.json")
