"""Configuration: a single YAML file with nested sections.

Angles are degrees and lengths meters at this interface; everything is
converted to radians/SI when domain objects are built. An empty file (or
missing sections) falls back to the reference indoor setup: a 4x4 array
with 1 m spacing on a wall, a bare 1 cm^2 detector 2 m away looking back
at the first element, 85 degree field of view, white LED over 380-780 nm
and the four-material reflectance mix.

Unknown keys anywhere in the tree are rejected, so typos fail loudly.
The ``time`` section, ``ensemble.size`` and ``ensemble.threads`` are
deprecated: nothing reads them, so they are still accepted and validated
but a non-default value warns and never changes the config hash.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np
import yaml

from . import optics, scene
from .errors import ConfigParseError, ConfigValidationError
from .geometry import ArrayOrientation

__all__ = [
    "SimulationConfig",
    "config_hash",
    "default_config",
    "load_config",
    "save_config",
]

_DATA_DIR = Path(__file__).parent / "data"

DEFAULTS: dict = {
    "array": {
        "rows": 4,
        "cols": 4,
        "spacing_h_m": 1.0,
        "spacing_v_m": 1.0,
        "row_azimuth_deg": 90.0,
        "row_elevation_deg": 0.0,
        "col_azimuth_deg": 180.0,
        "col_elevation_deg": 90.0,
        "tx_power_w": 1.0,
        "pattern": {"type": "lambertian", "order": 1.0, "path": None},
    },
    "receiver": {
        "distance_m": 2.0,
        "n_pd": 1,
        "theta_pd_deg": 45.0,
        "area_m2": 1.0e-4,
        "azimuth_deg": 180.0,
        "elevation_deg": 0.0,
        "rot_azimuth_deg_s": 0.0,
        "rot_elevation_deg_s": 0.0,
        "speed_m_s": 0.0,
        "travel_azimuth_deg": 0.0,
        "travel_elevation_deg": 0.0,
        "fov_deg": 85.0,
        "refractive_index": 1.5,
        "concentrator": False,
        "concentrator_mode": "constant",
        "filter_gain": 1.0,
    },
    "evolution": {
        "birth_rate_per_m": 80.0,
        "death_rate_per_m": 4.0,
        "correlation_factor_m": 10.0,
    },
    "clusters": {
        "tx_azimuth_mean_deg": 0.0,
        "tx_azimuth_std_deg": 40.0,
        "tx_elevation_mean_deg": 0.0,
        "tx_elevation_std_deg": 40.0,
        "rx_azimuth_mean_deg": 180.0,
        "rx_azimuth_std_deg": 40.0,
        "rx_elevation_mean_deg": 0.0,
        "rx_elevation_std_deg": 40.0,
        "distance_mean_m": None,
        "sigma_ds_m": 1.0,
        "sigma_as_m": 1.0,
        "sigma_es_m": 1.0,
        "scatterers_per_cluster": 100,
        "effective_area_m2": 1.0,
        "sb_ratio": 0.9,
        "speed_m_s": 0.0,
        "travel_azimuth_deg": 0.0,
        "travel_elevation_deg": 0.0,
    },
    "spectrum": {
        "led": "white",
        "wavelength_lo_nm": 380.0,
        "wavelength_hi_nm": 780.0,
        "material_weights": {
            "floor": 0.3,
            "pine_wood": 0.2,
            "plaster": 0.4,
            "plate_glass": 0.1,
        },
    },
    "time": {"start_s": 0.0, "stop_s": 2.0, "step_s": 0.01},
    "frequency": {"max_hz": 2.0e8, "points": 2048},
    "ensemble": {"size": 500, "master_seed": 20220101, "threads": 1},
}

_PATTERN_TYPES = ("lambertian", "narrow", "batwing", "file")

# deprecated keys, with their defaults: still validated, read by nothing
_DEPRECATED = {
    f"{section}.{key}": DEFAULTS[section][key]
    for section, key in (("time", "start_s"), ("time", "stop_s"), ("time", "step_s"),
                         ("ensemble", "size"), ("ensemble", "threads"))
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigValidationError(f"unknown configuration key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigValidationError(f"{where} must be a mapping")
            out[key] = _merge(base[key], value, where)
        else:
            if where in _DEPRECATED and value != _DEPRECATED[where]:
                warnings.warn(f"{where} is deprecated and ignored", FutureWarning)
            out[key] = value
    return out


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigValidationError(message)


def _number(value, where, lo=None, hi=None, integer=False):
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{where} must be a number")
    _require(math.isfinite(value), f"{where} must be finite")
    if integer:
        _require(float(value).is_integer(), f"{where} must be an integer")
        value = int(value)
    if lo is not None:
        _require(value >= lo, f"{where} must be >= {lo}")
    if hi is not None:
        _require(value <= hi, f"{where} must be <= {hi}")
    return value


def _num(tree, section, key, lo=None, hi=None, integer=False, optional=False):
    value = tree[section][key]
    if value is None and optional:
        return None
    return _number(value, f"{section}.{key}", lo, hi, integer)


def _validate(tree: dict):
    _num(tree, "array", "rows", lo=1, integer=True)
    _num(tree, "array", "cols", lo=1, integer=True)
    _num(tree, "array", "spacing_h_m", lo=1e-9)
    _num(tree, "array", "spacing_v_m", lo=1e-9)
    for key in ("row_azimuth_deg", "row_elevation_deg", "col_azimuth_deg",
                "col_elevation_deg"):
        _num(tree, "array", key)
    _num(tree, "array", "tx_power_w", lo=0.0)
    pattern = tree["array"]["pattern"]
    _require(pattern["type"] in _PATTERN_TYPES,
             f"array.pattern.type must be one of {_PATTERN_TYPES}")
    if pattern["type"] == "lambertian":
        _number(pattern["order"], "array.pattern.order", lo=0)
    if pattern["type"] == "file":
        path = pattern["path"]
        _require(isinstance(path, str) and Path(path).is_file(),
                 f"array.pattern.path must name an existing file, got {path!r}")

    _num(tree, "receiver", "distance_m", lo=1e-9)
    _num(tree, "receiver", "n_pd", lo=1, integer=True)
    theta = _num(tree, "receiver", "theta_pd_deg")
    if tree["receiver"]["n_pd"] > 1:
        _require(0.0 < theta < 90.0, "receiver.theta_pd_deg must lie in (0, 90)")
    _num(tree, "receiver", "area_m2", lo=1e-12)
    for key in ("azimuth_deg", "elevation_deg", "rot_azimuth_deg_s",
                "rot_elevation_deg_s", "travel_azimuth_deg", "travel_elevation_deg"):
        _num(tree, "receiver", key)
    _num(tree, "receiver", "speed_m_s", lo=0.0)
    fov = _num(tree, "receiver", "fov_deg")
    _require(0.0 < fov <= 90.0, "receiver.fov_deg must lie in (0, 90]")
    _num(tree, "receiver", "refractive_index", lo=1.0)
    _require(isinstance(tree["receiver"]["concentrator"], bool),
             "receiver.concentrator must be true/false")
    _require(tree["receiver"]["concentrator_mode"] in ("constant", "pointwise"),
             "receiver.concentrator_mode must be 'constant' or 'pointwise'")
    _num(tree, "receiver", "filter_gain", lo=0.0)

    _num(tree, "evolution", "birth_rate_per_m", lo=1e-12)
    _num(tree, "evolution", "death_rate_per_m", lo=1e-12)
    _num(tree, "evolution", "correlation_factor_m", lo=1e-12)

    for key in ("tx_azimuth_mean_deg", "tx_elevation_mean_deg",
                "rx_azimuth_mean_deg", "rx_elevation_mean_deg",
                "travel_azimuth_deg", "travel_elevation_deg"):
        _num(tree, "clusters", key)
    for key in ("tx_azimuth_std_deg", "tx_elevation_std_deg",
                "rx_azimuth_std_deg", "rx_elevation_std_deg"):
        _num(tree, "clusters", key, lo=0.0)
    _num(tree, "clusters", "distance_mean_m", lo=1e-9, optional=True)
    for key in ("sigma_ds_m", "sigma_as_m", "sigma_es_m"):
        _num(tree, "clusters", key, lo=0.0)
    _num(tree, "clusters", "scatterers_per_cluster", lo=1, integer=True)
    _num(tree, "clusters", "effective_area_m2", lo=0.0)
    _num(tree, "clusters", "sb_ratio", lo=0.0, hi=1.0)
    _num(tree, "clusters", "speed_m_s", lo=0.0)

    led = tree["spectrum"]["led"]
    _require(isinstance(led, str) and optics.led_psd_path(led).is_file(),
             f"spectrum.led must be a bundled name or an existing file, got {led!r}")
    lo = _num(tree, "spectrum", "wavelength_lo_nm", lo=100.0)
    hi = _num(tree, "spectrum", "wavelength_hi_nm", lo=100.0)
    _require(lo <= hi, "spectrum wavelength window is inverted")
    weights = tree["spectrum"]["material_weights"]
    total = sum(_number(w, f"spectrum.material_weights.{name}", lo=0)
                for name, w in weights.items())
    _require(total > 0.0, "material weights must not all be zero")

    _num(tree, "time", "start_s")
    _num(tree, "time", "stop_s")
    _require(tree["time"]["stop_s"] >= tree["time"]["start_s"],
             "time.stop_s must be >= time.start_s")
    _num(tree, "time", "step_s", lo=1e-12)
    _num(tree, "frequency", "max_hz", lo=1.0)
    _num(tree, "frequency", "points", lo=2, integer=True)
    _num(tree, "ensemble", "size", lo=1, integer=True)
    _num(tree, "ensemble", "master_seed", lo=0, integer=True)
    _num(tree, "ensemble", "threads", lo=1, integer=True)


# Tables shared by configs that read equal values, built from bundled
# data only (a user file could be rewritten between two configs). Keyed
# by the JSON of those values: JSON keeps 1 apart from 1.0, and the merged
# tree fixes key order. Bounded, so a long sweep holds at most a few.

def _canonical(value) -> str:
    return json.dumps(value, separators=(",", ":"))


@lru_cache(maxsize=16)
def _bundled_pattern(section: str):
    p = json.loads(section)
    if p["type"] == "lambertian":
        return optics.LambertianPattern(p["order"])
    return optics.load_pattern(_DATA_DIR / f"pattern_{p['type']}.csv")


@lru_cache(maxsize=16)
def _bundled_gamma_table(args: str) -> dict[str, float]:
    # callers get a copy: the cached dict is never handed out
    return scene.gamma_table(*json.loads(args))


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Validated configuration tree plus builders for the domain objects."""

    data: dict

    def __eq__(self, other):
        return isinstance(other, SimulationConfig) and self.data == other.data

    def merged(self, overrides: dict) -> "SimulationConfig":
        """New config with ``overrides`` applied (same validation rules)."""
        tree = _merge(self.data, overrides)
        _validate(tree)
        return SimulationConfig(tree)

    # --- builders ---

    def led_array(self) -> scene.LedArray:
        a = self.data["array"]
        return scene.LedArray(
            rows=a["rows"],
            cols=a["cols"],
            spacing_h=a["spacing_h_m"],
            spacing_v=a["spacing_v_m"],
            orientation=ArrayOrientation(
                row_azimuth=math.radians(a["row_azimuth_deg"]),
                row_elevation=math.radians(a["row_elevation_deg"]),
                col_azimuth=math.radians(a["col_azimuth_deg"]),
                col_elevation=math.radians(a["col_elevation_deg"]),
            ),
            pattern=self.pattern(),
        )

    def pattern(self):
        """Emission pattern of ``array.pattern``; shared by every config
        with the same section, except a user ``file``, read every call."""
        p = self.data["array"]["pattern"]
        if p["type"] == "file":
            return optics.load_pattern(p["path"])
        return _bundled_pattern(_canonical(p))

    def receiver(self) -> scene.Receiver:
        r = self.data["receiver"]
        return scene.Receiver(
            distance=float(r["distance_m"]),
            n_pd=r["n_pd"],
            theta_pd=math.radians(r["theta_pd_deg"]),
            area=float(r["area_m2"]),
            azimuth=math.radians(r["azimuth_deg"]),
            elevation=math.radians(r["elevation_deg"]),
            rot_azimuth=math.radians(r["rot_azimuth_deg_s"]),
            rot_elevation=math.radians(r["rot_elevation_deg_s"]),
            speed=float(r["speed_m_s"]),
            travel_azimuth=math.radians(r["travel_azimuth_deg"]),
            travel_elevation=math.radians(r["travel_elevation_deg"]),
            optics=optics.RxOptics(
                fov=math.radians(r["fov_deg"]),
                refractive_index=float(r["refractive_index"]),
                concentrator=r["concentrator"],
                concentrator_mode=r["concentrator_mode"],
                filter_gain=float(r["filter_gain"]),
            ),
        )

    def evolution(self) -> scene.EvolutionParams:
        e = self.data["evolution"]
        return scene.EvolutionParams(
            birth_rate=float(e["birth_rate_per_m"]),
            death_rate=float(e["death_rate_per_m"]),
            correlation_factor=float(e["correlation_factor_m"]),
        )

    def distribution(self) -> scene.ClusterDistribution:
        c = self.data["clusters"]
        return scene.ClusterDistribution(
            tx_azimuth_mean=math.radians(c["tx_azimuth_mean_deg"]),
            tx_azimuth_std=math.radians(c["tx_azimuth_std_deg"]),
            tx_elevation_mean=math.radians(c["tx_elevation_mean_deg"]),
            tx_elevation_std=math.radians(c["tx_elevation_std_deg"]),
            rx_azimuth_mean=math.radians(c["rx_azimuth_mean_deg"]),
            rx_azimuth_std=math.radians(c["rx_azimuth_std_deg"]),
            rx_elevation_mean=math.radians(c["rx_elevation_mean_deg"]),
            rx_elevation_std=math.radians(c["rx_elevation_std_deg"]),
            distance_mean=(
                None if c["distance_mean_m"] is None else float(c["distance_mean_m"])
            ),
            sigma_ds=float(c["sigma_ds_m"]),
            sigma_as=float(c["sigma_as_m"]),
            sigma_es=float(c["sigma_es_m"]),
            scatterers_per_cluster=c["scatterers_per_cluster"],
            effective_area=float(c["effective_area_m2"]),
            sb_ratio=float(c["sb_ratio"]),
            speed=float(c["speed_m_s"]),
            travel_azimuth=math.radians(c["travel_azimuth_deg"]),
            travel_elevation=math.radians(c["travel_elevation_deg"]),
        )

    def material_weights(self) -> dict[str, float]:
        w = self.data["spectrum"]["material_weights"]
        return {k: float(v) for k, v in w.items() if v > 0.0}

    def gamma_table(self) -> dict[str, float]:
        """Effective reflectance per material, as a new dict each call.

        Shared by every config with the same LED, wavelength window and
        material weights, except an LED given as a CSV path: user files
        are read every call, so a rewritten file is never stale.
        """
        s = self.data["spectrum"]
        args = (s["led"], s["wavelength_lo_nm"], s["wavelength_hi_nm"],
                self.material_weights())
        if optics.led_psd_path(s["led"]).parent != _DATA_DIR:
            return scene.gamma_table(*args)
        return dict(_bundled_gamma_table(_canonical(args)))

    def frequency_grid(self) -> np.ndarray:
        f = self.data["frequency"]
        return np.linspace(0.0, f["max_hz"], f["points"])

    @property
    def master_seed(self) -> int:
        return self.data["ensemble"]["master_seed"]

    @property
    def threads(self) -> int:
        """Deprecated ``ensemble.threads``; runs are always serial."""
        return self.data["ensemble"]["threads"]

    @cached_property
    def _scene_inputs(self) -> dict:
        # built on the first build_scene and shared by every scene after it;
        # the tree is never edited in place (merged returns a new config)
        return {
            "array": self.led_array(),
            "receiver": self.receiver(),
            "evolution": self.evolution(),
            "distribution": self.distribution(),
            "gamma_by_material": self.gamma_table(),
            "material_weights": self.material_weights(),
            "fingerprint": config_hash(self),
        }

    def build_scene(self, seed: int) -> scene.Scene:
        """Realize one scene; ``seed`` is the per-run sub-seed."""
        return scene.build_scene(seed=seed, **self._scene_inputs)

    def run_seeds(self, n: int) -> list[int]:
        """Deterministic per-run seeds derived from the master seed."""
        ss = np.random.SeedSequence(self.master_seed)
        return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]


def default_config() -> SimulationConfig:
    return SimulationConfig(copy.deepcopy(DEFAULTS))


def load_config(path) -> SimulationConfig:
    """Parse and validate a YAML config; empty file means all defaults."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    return loads_config(text)


def loads_config(text: str) -> SimulationConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigParseError("top level of the config must be a mapping")
    tree = _merge(DEFAULTS, raw)
    _validate(tree)
    return SimulationConfig(tree)


def save_config(cfg: SimulationConfig, path):
    Path(path).write_text(yaml.safe_dump(cfg.data, sort_keys=True))


def config_hash(cfg: SimulationConfig) -> str:
    """sha256 over the canonical JSON form; changes iff any field changes,
    except the deprecated keys, which count as their defaults."""
    tree = dict(cfg.data)
    for where, default in _DEPRECATED.items():
        section, key = where.split(".")
        tree[section] = {**tree[section], key: default}
    blob = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
