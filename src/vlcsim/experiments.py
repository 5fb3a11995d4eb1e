"""Prebuilt sweeps that exercise the simulator end to end.

Each preset derives an effective configuration from the one passed in,
realizes an ensemble of random scenes one after another, reduces the
runs in index order and returns a ResultTable ready for CSV or JSON
export. Randomness comes only from per-run seeds spawned off the master
seed; reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import stats
from ._version import __version__
from .channel import Cir, _cirs, _matrices, channel_over_time, cir_snapshot
from .config import SimulationConfig, config_hash, default_config
from .errors import ConfigValidationError, UnknownExperimentError

__all__ = [
    "PRESETS",
    "Preset",
    "ResultTable",
    "ensemble_map",
    "export",
    "list_experiments",
    "result_schema",
    "run_experiment",
]

_SCHEMA_PATH = Path(__file__).parent / "data" / "result_schema.json"


def _fmt(value) -> str:
    # repr() of a float is the shortest round-trip form: stable across runs
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _plain(value):
    """JSON-safe copy: numpy scalars to python, non-finite floats to null."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return None if not math.isfinite(v) else v
    return value


@dataclass(frozen=True, eq=False)
class ResultTable:
    """One tidy table of swept quantities plus run provenance.

    ``columns`` are bare names and ``units`` their SI unit strings (empty
    for dimensionless); CSV headers join the two as ``name_unit``. The
    provenance block always carries config hash, master seed and package
    version, never wall-clock state.
    """

    name: str
    columns: tuple[str, ...]
    units: tuple[str, ...]
    rows: tuple[tuple, ...]
    provenance: dict

    def header(self) -> list[str]:
        return [f"{c}_{u}" if u else c for c, u in zip(self.columns, self.units)]

    def to_csv(self) -> str:
        lines = [f"# experiment: {self.name}"]
        for key in ("config_hash", "seed", "version"):
            lines.append(f"# {key}: {_fmt(self.provenance[key])}")
        for key in sorted(self.provenance):
            if key not in ("config_hash", "seed", "version"):
                lines.append(f"# {key}: {_fmt(self.provenance[key])}")
        lines.append(",".join(self.header()))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "experiment": self.name,
            "provenance": _plain(self.provenance),
            "columns": list(self.columns),
            "units": list(self.units),
            "rows": [[_plain(v) for v in row] for row in self.rows],
        }


def result_schema() -> dict:
    return json.loads(_SCHEMA_PATH.read_text())


def _validate_result(doc: dict):
    try:
        import jsonschema
    except ImportError:
        return
    jsonschema.validate(doc, result_schema())


def export(table: ResultTable, path, fmt: str):
    """Write a table as CSV (provenance in '#' header lines) or JSON."""
    path = Path(path)
    if fmt == "csv":
        path.write_text(table.to_csv(), encoding="utf-8")
    elif fmt == "json":
        doc = table.to_json()
        _validate_result(doc)
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        path.write_text(text + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown export format: {fmt!r}")


def ensemble_map(worker: Callable, seeds) -> list:
    """Run ``worker(index, seed)`` per seed, in order; results ordered by index."""
    return [worker(k, s) for k, s in enumerate(seeds)]


def _build_scenes(cfg: SimulationConfig, n_runs: int) -> list:
    return ensemble_map(lambda k, s: cfg.build_scene(s), cfg.run_seeds(n_runs))


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    if arr.size == 1:
        return float(arr[0]), float("nan")
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _total_power(cfg: SimulationConfig, seed: int, t: float = 0.0) -> float:
    scene = cfg.build_scene(seed)
    matrix = channel_over_time(scene, [t])[0]
    _, totals = stats.received_power(matrix, cfg.data["array"]["tx_power_w"])
    return float(totals[0])


# === presets ===

def _acf_time(cfg, n_runs):
    eff = cfg.merged({
        "receiver": {
            "speed_m_s": 0.5,
            "travel_azimuth_deg": 0.0,
            "travel_elevation_deg": 90.0,
        },
    })
    lags = np.round(np.arange(0.0, 0.2000001, 0.01), 10)
    scenes = _build_scenes(eff, n_runs)
    anchors = (0.0, 1.0, 2.0)
    # one call, so each scene builds its LED-side halves once for all anchors
    estimates = stats.stfcf_many(
        scenes, [((1, 1, 1), (1, 1, 1), anchor, 1.0e8, lags, 0.0) for anchor in anchors])
    rows = []
    for anchor, series in zip(anchors, estimates):
        norm = np.abs(series.normalized)
        se = series.normalized_standard_error
        for k, lag in enumerate(lags):
            rows.append((float(anchor), float(lag), float(norm[k]), float(se[k])))
    return ("anchor", "lag", "corr_abs", "corr_se"), ("s", "s", "", ""), rows, {}


def _ccf_space(cfg, n_runs):
    eff = cfg.merged({"array": {"rows": 4, "cols": 4}})
    dh = eff.data["array"]["spacing_h_m"]
    dv = eff.data["array"]["spacing_v_m"]
    scenes = _build_scenes(eff, n_runs)
    pairs = [((ri, rj), k) for ri, rj in ((1, 1), (4, 4)) for k in range(1, 5)]
    # one call, so each scene evaluates each of the 4 diagonal CIRs once
    estimates = stats.stfcf_many(
        scenes, [((ri, rj, 1), (k, k, 1), 0.0, 0.0, 0.0, 0.0) for (ri, rj), k in pairs])
    rows = []
    for ((ri, rj), k), series in zip(pairs, estimates):
        offset = math.hypot((k - ri) * dh, (k - rj) * dv)
        rows.append((
            f"L{ri}{rj}",
            float(offset),
            float(np.abs(series.normalized[0])),
            float(series.normalized_standard_error[0]),
        ))
    return ("reference", "offset", "corr_abs", "corr_se"), ("", "m", "", ""), rows, {}


def _fcf_color(cfg, n_runs):
    df_lags = np.arange(0.0, 1.0000001e8, 5.0e6)
    rows = []
    for color, sigma in (("red", 1.0), ("green", 1.1), ("blue", 1.2)):
        eff = cfg.merged({
            "spectrum": {"led": color},
            "clusters": {
                "sigma_ds_m": sigma, "sigma_as_m": sigma, "sigma_es_m": sigma,
            },
        })
        scenes = _build_scenes(eff, n_runs)
        series = stats.fcf(scenes, (1, 1, 1), 0.0, 0.0, df_lags)
        norm = np.abs(series.normalized)
        se = series.normalized_standard_error
        for k, df in enumerate(df_lags):
            rows.append((color, float(df), float(norm[k]), float(se[k])))
    return ("led", "df", "corr_abs", "corr_se"), ("", "hz", "", ""), rows, {}


def _power_vs_distance(cfg, n_runs):
    rows = []
    for spacing in (1.0, 1.5, 2.0):
        for d in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            eff = cfg.merged({
                "array": {"spacing_h_m": spacing, "spacing_v_m": spacing},
                "receiver": {"distance_m": d},
            })
            powers = ensemble_map(
                lambda k, s: _total_power(eff, s), eff.run_seeds(n_runs))
            mean, se = _mean_se(powers)
            rows.append((spacing, d, mean, se))
    cols = ("spacing", "distance", "power", "power_se")
    return cols, ("m", "m", "w", "w"), rows, {}


def _power_rotation_fov(cfg, n_runs):
    times = np.round(np.arange(0.0, 1.8000001, 0.01), 10).tolist()
    rows = []
    for fov in (45.0, 60.0, 90.0):
        eff = cfg.merged({
            "receiver": {"fov_deg": fov, "rot_azimuth_deg_s": 45.0},
        })
        tx_power = eff.data["array"]["tx_power_w"]

        def worker(k, s):
            scene = eff.build_scene(s)
            out = np.empty(len(times))
            # fold each instant as it comes, so one instant's taps are alive at a time
            for ti, matrix in enumerate(_matrices(scene, times)):
                out[ti] = stats.received_power(matrix, tx_power)[1][0]
            return out

        runs = np.stack(ensemble_map(worker, eff.run_seeds(n_runs)))
        mean_t = runs.mean(axis=0)
        for ti, t in enumerate(times):
            rows.append((fov, float(t), float(mean_t[ti])))
    return ("fov", "time", "power"), ("deg", "s", "w"), rows, {}


def _rms_or_nan(cir: Cir) -> float:
    """RMS delay spread of ``cir``; NaN when it has no taps or no power."""
    if cir.powers.size == 0 or float(cir.powers.sum()) <= 0.0:
        return float("nan")
    return stats.rms_delay_spread(cir)


def _nlos_rms(cfg: SimulationConfig, seed: int) -> float:
    scene = cfg.build_scene(seed)
    return _rms_or_nan(cir_snapshot(1, 1, 1, scene, 0.0).nlos_only())


def _rms_rows(label, values):
    finite = [v for v in values if not math.isnan(v)]
    mean, se = _mean_se(finite)
    median = float(np.median(finite)) if finite else float("nan")
    return (label, len(finite), median, mean, se)


def _rms_patterns(cfg, n_runs):
    rows = []
    for pattern in ("lambertian", "narrow", "batwing"):
        eff = cfg.merged({"array": {"pattern": {"type": pattern}}})
        values = ensemble_map(lambda k, s: _nlos_rms(eff, s), eff.run_seeds(n_runs))
        rows.append(_rms_rows(pattern, values))
    cols = ("pattern", "n", "rms_median", "rms_mean", "rms_se")
    return cols, ("", "", "s", "s", "s"), rows, {}


def _rms_adr(cfg, n_runs):
    eff = cfg.merged({
        "receiver": {"n_pd": 3, "fov_deg": 60.0, "theta_pd_deg": 45.0},
    })

    def worker(k, s):
        # the three detectors share one layout of element (1, 1)'s rays
        plan = [[(1, 1, pd) for pd in (1, 2, 3)]]
        return [_rms_or_nan(cir) for *_, cir in _cirs(eff.build_scene(s), [0.0], plan)]

    per_run = ensemble_map(worker, eff.run_seeds(n_runs))
    rows = []
    for pd in (1, 2, 3):
        rows.append(_rms_rows(pd, [run[pd - 1] for run in per_run]))
    cols = ("pd", "n", "rms_median", "rms_mean", "rms_se")
    return cols, ("", "", "s", "s", "s"), rows, {}


def _pl_ci(cfg, n_runs):
    # single-element link so the close-in slope is the bare inverse-square
    # law; a full array's extent would flatten the short-range slope
    eff = cfg.merged({
        "array": {"rows": 1, "cols": 1},
        "evolution": {"death_rate_per_m": 20.0},
    })
    distances = np.arange(1.0, 6.001, 0.5)
    n_elements = eff.data["array"]["rows"] * eff.data["array"]["cols"]
    tx_total = eff.data["array"]["tx_power_w"] * n_elements
    all_seeds = eff.run_seeds(distances.size * n_runs)
    rows = []
    sample_d: list[float] = []
    sample_pl: list[float] = []
    for di, d in enumerate(distances):
        eff_d = eff.merged({"receiver": {"distance_m": float(d)}})
        seeds = all_seeds[di * n_runs:(di + 1) * n_runs]
        pls = ensemble_map(
            lambda k, s: stats.path_loss(tx_total, _total_power(eff_d, s)),
            seeds,
        )
        sample_d += [float(d)] * len(pls)
        sample_pl += pls
        arr = np.asarray(pls)
        std = float(arr.std(ddof=1)) if arr.size > 1 else float("nan")
        rows.append((float(d), float(arr.mean()), std, len(pls)))
    fit = stats.fit_ci(sample_d, sample_pl, d0=1.0)
    extras = {
        "pl_exponent": float(fit.exponent),
        "pl_at_d0_db": float(fit.pl_d0),
    }
    if len(sample_pl) >= 30:
        shadow = stats.shadowing_stats(fit.residuals)
        extras.update({
            "shadow_sigma_db": shadow.std,
            "ks_distance": shadow.ks_distance,
            "ks_critical": shadow.ks_critical,
            "ks_pass": shadow.passes_normality,
        })
    cols = ("distance", "pl_mean", "pl_std", "n")
    return cols, ("m", "db", "db", ""), rows, extras


def _bandwidth_fov(cfg, n_runs):
    # single narrow-beam element aimed at the off-axis cluster field, so
    # the direct ray is negligible and the response is multipath-shaped;
    # a runless frequency crossing (flat response) counts as unbounded
    eff0 = cfg.merged({
        "array": {
            "rows": 1, "cols": 1,
            "row_azimuth_deg": 150.0,
            "pattern": {"type": "narrow"},
        },
        "receiver": {"distance_m": 2.6345},
        "evolution": {"death_rate_per_m": 8.0},
        "clusters": {
            "tx_azimuth_mean_deg": 60.0, "tx_azimuth_std_deg": 45.5,
            "tx_elevation_mean_deg": 15.0, "tx_elevation_std_deg": 45.0,
            "sigma_ds_m": 3.422, "sigma_as_m": 2.691, "sigma_es_m": 3.719,
            "scatterers_per_cluster": 150, "effective_area_m2": 5.0,
        },
        "spectrum": {
            "led": "blue", "wavelength_lo_nm": 445.0, "wavelength_hi_nm": 445.0,
        },
    })
    freqs = eff0.frequency_grid()
    rows = []
    for fov in (30.0, 45.0, 60.0, 85.0):
        eff = eff0.merged({"receiver": {"fov_deg": fov}})

        def worker(k, s):
            scene = eff.build_scene(s)
            cir = cir_snapshot(1, 1, 1, scene, 0.0)
            if cir.powers.size == 0:
                return float("nan")
            bw = stats.bandwidth_3db(cir, freqs)
            return float("nan") if bw is None else float(bw)

        values = ensemble_map(worker, eff.run_seeds(n_runs))
        finite = [v for v in values if not math.isnan(v)]
        mean, se = _mean_se(finite)
        median = float(np.median([math.inf if math.isnan(v) else v for v in values]))
        if math.isinf(median):
            median = float("nan")
        rows.append((fov, len(finite), len(values), median, mean, se))
    cols = ("fov", "n_defined", "n_runs", "bandwidth_median", "bandwidth_mean",
            "bandwidth_se")
    return cols, ("deg", "", "", "hz", "hz", "hz"), rows, {}


@dataclass(frozen=True)
class Preset:
    description: str
    default_ensemble: int
    func: Callable
    # correlation estimates need two runs to average over
    min_ensemble: int = 1


PRESETS: dict[str, Preset] = {
    "acf-time": Preset(
        "temporal autocorrelation at three track anchors", 40, _acf_time,
        min_ensemble=2),
    "ccf-space": Preset(
        "spatial correlation along the array diagonal from two references",
        40, _ccf_space, min_ensemble=2),
    "fcf-color": Preset(
        "frequency correlation for red/green/blue source spectra",
        30, _fcf_color, min_ensemble=2),
    "power-vs-distance": Preset(
        "received power over link distance for three element spacings",
        20, _power_vs_distance),
    "power-rotation-fov": Preset(
        "received power under receiver rotation for three fields of view",
        4, _power_rotation_fov),
    "rms-patterns": Preset(
        "diffuse-only delay spread for three emission patterns",
        30, _rms_patterns),
    "rms-adr": Preset(
        "delay spread per detector of a three-element angle-diversity head",
        30, _rms_adr),
    "pl-ci": Preset(
        "path loss over distance with close-in model fit and shadowing check",
        6, _pl_ci),
    "bandwidth-fov": Preset(
        "3 dB bandwidth over a field-of-view sweep", 20, _bandwidth_fov),
}


def list_experiments() -> list[tuple[str, str]]:
    return [(name, PRESETS[name].description) for name in sorted(PRESETS)]


def run_experiment(
    name: str,
    cfg: SimulationConfig | None = None,
    ensemble: int | None = None,
    threads: int | None = None,
) -> ResultTable:
    """Run one named preset and return its table.

    ``ensemble`` overrides the preset's default run count; it never
    changes the statistical meaning of a row. Runs are always serial:
    ``threads`` is deprecated and ignored, apart from a count below 1,
    which is still refused. Out-of-range values raise
    ConfigValidationError before any scene is built.
    """
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise UnknownExperimentError(f"unknown experiment {name!r}; known: {known}")
    preset = PRESETS[name]
    if cfg is None:
        cfg = default_config()
    n_runs = preset.default_ensemble if ensemble is None else int(ensemble)
    if n_runs < preset.min_ensemble:
        raise ConfigValidationError(
            f"{name} needs an ensemble size of at least {preset.min_ensemble}")
    if threads is not None:
        if int(threads) < 1:
            raise ConfigValidationError("thread count must be at least 1")
        warnings.warn("threads is deprecated and ignored: runs are serial",
                      FutureWarning, stacklevel=2)
    columns, units, rows, extras = preset.func(cfg, n_runs)
    provenance = {
        "config_hash": config_hash(cfg),
        "seed": cfg.master_seed,
        "version": __version__,
        "ensemble": n_runs,
        **extras,
    }
    return ResultTable(
        name=name,
        columns=tuple(columns),
        units=tuple(units),
        rows=tuple(tuple(r) for r in rows),
        provenance=provenance,
    )
