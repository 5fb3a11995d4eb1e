import math
import warnings

import numpy as np
import pytest

from vlcsim import (
    ConfigParseError,
    ConfigValidationError,
    LambertianPattern,
    TabulatedPattern,
    config_hash,
    default_config,
    load_config,
    load_pattern,
    loads_config,
    save_config,
)
from vlcsim.config import _DATA_DIR


def test_empty_text_gives_defaults():
    assert loads_config("") == default_config()
    assert loads_config("# only a comment\n") == default_config()


def test_load_config_round_trip(tmp_path):
    cfg = default_config().merged(
        {"receiver": {"fov_deg": 60.0}, "array": {"rows": 2}}
    )
    path = tmp_path / "run.yaml"
    save_config(cfg, path)
    again = load_config(path)
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(tmp_path / "nope.yaml")


def test_parse_errors():
    with pytest.raises(ConfigParseError):
        loads_config("array: [")
    with pytest.raises(ConfigParseError):
        loads_config("- 1\n- 2\n")


def test_unknown_keys_name_their_path():
    with pytest.raises(ConfigValidationError, match="receiver.fov_degrees_typo"):
        loads_config("receiver:\n  fov_degrees_typo: 10\n")
    with pytest.raises(ConfigValidationError, match="unknown configuration key: receivers"):
        loads_config("receivers: {}\n")
    with pytest.raises(ConfigValidationError, match="must be a mapping"):
        loads_config("receiver: 5\n")


# deprecated keys are still validated; setting one warns first
@pytest.mark.filterwarnings("ignore::FutureWarning")
@pytest.mark.parametrize(
    "override",
    [
        {"array": {"rows": 0}},
        {"array": {"rows": 2.5}},
        {"array": {"rows": True}},
        {"array": {"pattern": {"type": "spotlight"}}},
        {"array": {"pattern": {"type": "file", "path": None}}},
        {"receiver": {"fov_deg": 0.0}},
        {"receiver": {"fov_deg": 91.0}},
        {"receiver": {"n_pd": 3, "theta_pd_deg": 0.0}},
        {"receiver": {"n_pd": 3, "theta_pd_deg": 90.0}},
        {"receiver": {"distance_m": 0.0}},
        {"receiver": {"concentrator": "yes"}},
        {"receiver": {"concentrator_mode": "parabolic"}},
        {"evolution": {"birth_rate_per_m": 0.0}},
        {"clusters": {"sb_ratio": 1.5}},
        {"clusters": {"scatterers_per_cluster": 0}},
        {"spectrum": {"wavelength_lo_nm": 700.0, "wavelength_hi_nm": 500.0}},
        {"spectrum": {"material_weights": {"floor": -0.1}}},
        {
            "spectrum": {
                "material_weights": {
                    "floor": 0.0, "pine_wood": 0.0, "plaster": 0.0, "plate_glass": 0.0,
                }
            }
        },
        {"time": {"start_s": 1.0, "stop_s": 0.5}},
        {"frequency": {"points": 1}},
        {"ensemble": {"size": 0}},
        {"receiver": {"azimuth_deg": math.nan}},
        {"receiver": {"distance_m": math.inf}},
        {"array": {"pattern": {"type": "lambertian", "order": math.inf}}},
        {"array": {"pattern": {"type": "lambertian", "order": True}}},
        {"spectrum": {"material_weights": {"floor": math.inf}}},
        {"spectrum": {"material_weights": {"floor": True}}},
    ],
)
def test_validation_rejects(override):
    with pytest.raises(ConfigValidationError):
        default_config().merged(override)


def test_single_detector_allows_flat_tilt():
    cfg = default_config().merged({"receiver": {"n_pd": 1, "theta_pd_deg": 0.0}})
    assert cfg.receiver().n_pd == 1


def test_merged_does_not_mutate_original():
    cfg = default_config()
    changed = cfg.merged({"receiver": {"distance_m": 3.5}})
    assert cfg.data["receiver"]["distance_m"] == 2.0
    assert changed.data["receiver"]["distance_m"] == 3.5
    assert cfg != changed


@pytest.mark.parametrize(
    "override",
    [
        {"array": {"rows": 5}},
        {"receiver": {"fov_deg": 84.0}},
        {"spectrum": {"material_weights": {"floor": 0.31}}},
        {"ensemble": {"master_seed": 1}},
    ],
)
def test_hash_tracks_every_field(override):
    base = default_config()
    assert config_hash(base.merged(override)) != config_hash(base)
    assert config_hash(base.merged({})) == config_hash(base)


def test_builders_convert_degrees():
    cfg = default_config()
    rx = cfg.receiver()
    assert rx.azimuth == pytest.approx(math.pi)
    assert rx.optics.fov == pytest.approx(math.radians(85.0))
    dist = cfg.distribution()
    assert dist.tx_azimuth_std == pytest.approx(math.radians(40.0))
    assert dist.rx_azimuth_mean == pytest.approx(math.pi)
    array = cfg.led_array()
    assert array.orientation.row_azimuth == pytest.approx(math.pi / 2)
    assert array.orientation.col_elevation == pytest.approx(math.pi / 2)
    evo = cfg.evolution()
    assert evo.initial_count == 20


def test_pattern_builders():
    assert isinstance(default_config().pattern(), LambertianPattern)
    sharp = default_config().merged(
        {"array": {"pattern": {"type": "lambertian", "order": 20.0}}}
    )
    assert sharp.pattern().order == 20.0
    bundled = default_config().merged({"array": {"pattern": {"type": "narrow"}}})
    assert isinstance(bundled.pattern(), TabulatedPattern)
    from_file = default_config().merged(
        {
            "array": {
                "pattern": {
                    "type": "file",
                    "path": str(_DATA_DIR / "pattern_batwing.csv"),
                }
            }
        }
    )
    assert isinstance(from_file.pattern(), TabulatedPattern)


def test_equal_pattern_sections_share_one_pattern():
    cfg = default_config().merged({"array": {"pattern": {"type": "narrow"}}})
    same = cfg.merged({"receiver": {"fov_deg": 60.0}})
    assert same.pattern() is cfg.pattern()
    lam = default_config().merged({"array": {"pattern": {"order": 3.0}}})
    assert lam.pattern() is lam.merged({"array": {"rows": 2}}).pattern()
    other_order = lam.merged({"array": {"pattern": {"order": 4.0}}}).pattern()
    assert other_order is not lam.pattern() and other_order.order == 4.0
    other_type = cfg.merged({"array": {"pattern": {"type": "batwing"}}}).pattern()
    assert other_type is not cfg.pattern()
    assert not np.array_equal(other_type.values, cfg.pattern().values)


def test_gamma_table_is_a_fresh_dict_per_call():
    cfg = default_config()
    table = cfg.gamma_table()
    expected = dict(table)
    table["plaster"] = -1.0
    table["marble"] = 0.5
    assert cfg.merged({"receiver": {"fov_deg": 60.0}}).gamma_table() == expected


def _rewrite(path, source):
    path.write_text(source.read_text())


def test_rewritten_pattern_file_gives_the_new_table(tmp_path):
    path = tmp_path / "pattern.csv"
    _rewrite(path, _DATA_DIR / "pattern_narrow.csv")
    cfg = default_config().merged(
        {"array": {"pattern": {"type": "file", "path": str(path)}}})
    first = cfg.pattern()
    _rewrite(path, _DATA_DIR / "pattern_batwing.csv")
    second = cfg.merged({"receiver": {"fov_deg": 60.0}}).pattern()
    assert np.array_equal(first.values, load_pattern(_DATA_DIR / "pattern_narrow.csv").values)
    assert np.array_equal(second.values, load_pattern(_DATA_DIR / "pattern_batwing.csv").values)


def test_rewritten_led_file_gives_the_new_gamma_table(tmp_path):
    path = tmp_path / "led.csv"
    _rewrite(path, _DATA_DIR / "led_white.csv")
    cfg = default_config().merged({"spectrum": {"led": str(path)}})
    assert cfg.gamma_table() == default_config().gamma_table()
    _rewrite(path, _DATA_DIR / "led_red.csv")
    red = default_config().merged({"spectrum": {"led": "red"}}).gamma_table()
    assert cfg.merged({"receiver": {"fov_deg": 60.0}}).gamma_table() == red
    assert red != default_config().gamma_table()


def test_material_weights_drop_zero_entries():
    cfg = default_config().merged(
        {"spectrum": {"material_weights": {"plate_glass": 0.0}}}
    )
    weights = cfg.material_weights()
    assert "plate_glass" not in weights
    assert set(cfg.gamma_table()) == set(weights)


def test_grids():
    f = default_config().frequency_grid()
    assert f.size == 2048
    assert f[0] == 0.0 and f[-1] == 2.0e8


def test_ensemble_properties_and_seeds():
    cfg = default_config()
    assert cfg.master_seed == 20220101
    assert cfg.threads == 1
    seeds = cfg.run_seeds(8)
    assert seeds == cfg.run_seeds(8)
    assert len(set(seeds)) == 8
    assert seeds[:4] == cfg.run_seeds(4)
    other = cfg.merged({"ensemble": {"master_seed": 99}})
    assert other.run_seeds(8) != seeds


def test_scene_fingerprint_is_config_hash():
    cfg = default_config().merged({"array": {"rows": 1, "cols": 1}})
    scene = cfg.build_scene(5)
    assert scene.fingerprint == config_hash(cfg)


INTEGER_KEYS = [
    ("array", "rows", 2),
    ("array", "cols", 3),
    ("receiver", "n_pd", 3),
    ("clusters", "scatterers_per_cluster", 10),
    ("frequency", "points", 64),
    ("ensemble", "master_seed", 5),
    ("ensemble", "size", 100),
    ("ensemble", "threads", 4),
]


@pytest.mark.parametrize("section, key, value", INTEGER_KEYS)
def test_integer_key_given_as_a_whole_float_holds_its_int(section, key, value):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FutureWarning)   # ensemble.size and .threads
        as_int = loads_config(f"{section}:\n  {key}: {value}\n")
        loaded = loads_config(f"{section}:\n  {key}: {float(value)}\n")
        merged = default_config().merged({section: {key: float(value)}})
    for cfg in (loaded, merged):
        got = cfg.data[section][key]
        assert type(got) is int and got == value
        assert cfg == as_int
        assert config_hash(cfg) == config_hash(as_int)
    assert type(loaded.threads) is int


DEPRECATED = [
    ("time", "start_s", 0.5),
    ("time", "stop_s", 3.0),
    ("time", "step_s", 0.02),
    ("ensemble", "size", 100),
    ("ensemble", "threads", 4),
]


@pytest.mark.parametrize("section, key, value", DEPRECATED)
def test_deprecated_key_warns_once_and_keeps_hash(section, key, value):
    base = default_config()
    with pytest.warns(FutureWarning, match=f"{section}.{key} is deprecated") as record:
        merged = base.merged({section: {key: value}})
    assert len([w for w in record if w.category is FutureWarning]) == 1
    assert merged.data[section][key] == value
    assert config_hash(merged) == config_hash(base)
    with pytest.warns(FutureWarning, match=f"{section}.{key} is deprecated"):
        loaded = loads_config(f"{section}:\n  {key}: {value}\n")
    assert config_hash(loaded) == config_hash(base)


def test_deprecated_keys_at_their_defaults_do_not_warn(tmp_path):
    path = tmp_path / "defaults.yaml"
    save_config(default_config(), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_config(path) == default_config()
        default_config().merged({"time": {"step_s": 0.01}, "ensemble": {"threads": 1}})
