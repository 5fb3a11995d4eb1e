import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import vlcsim
from vlcsim import (
    PRESETS,
    ConfigValidationError,
    ResultTable,
    SimulationConfig,
    UnknownExperimentError,
    channel_over_time,
    default_config,
    export,
    list_experiments,
    received_power,
    run_experiment,
)
from vlcsim.cli import main
from vlcsim.experiments import ensemble_map, result_schema

DEMO = ResultTable(
    name="demo",
    columns=("distance", "power", "label"),
    units=("m", "w", ""),
    rows=((1.0, 2.5e-06, "a"), (2.0, 1.25e-06, "b")),
    provenance={
        "config_hash": "0" * 64,
        "seed": 20220101,
        "version": "0.1.0",
        "ensemble": 2,
    },
)


def test_result_table_csv_layout():
    text = DEMO.to_csv()
    lines = text.splitlines()
    assert lines[0] == "# experiment: demo"
    assert lines[1] == f"# config_hash: {'0' * 64}"
    assert lines[2] == "# seed: 20220101"
    assert lines[3] == "# version: 0.1.0"
    assert lines[4] == "# ensemble: 2"
    assert lines[5] == "distance_m,power_w,label"
    assert lines[6] == "1.0,2.5e-06,a"
    assert text.endswith("\n") and "\r" not in text


def test_result_table_csv_parses_back():
    body = [l for l in DEMO.to_csv().splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    assert rows[0] == ["distance_m", "power_w", "label"]
    assert len(rows) == 3
    assert all(len(r) == 3 for r in rows)
    assert float(rows[1][1]) == 2.5e-06


def test_result_table_json_matches_schema():
    doc = DEMO.to_json()
    jsonschema.validate(doc, result_schema())
    assert doc["experiment"] == "demo"
    assert doc["columns"] == ["distance", "power", "label"]

    broken = dict(doc)
    broken.pop("provenance")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(broken, result_schema())

    stray = dict(doc, extra=1)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(stray, result_schema())


def test_json_turns_non_finite_into_null():
    table = ResultTable(
        name="demo",
        columns=("x",),
        units=("",),
        rows=((float("nan"),), (float("inf"),)),
        provenance=DEMO.provenance,
    )
    doc = table.to_json()
    assert doc["rows"] == [[None], [None]]
    jsonschema.validate(doc, result_schema())


def test_export_formats(tmp_path):
    export(DEMO, tmp_path / "demo.csv", "csv")
    assert (tmp_path / "demo.csv").read_text() == DEMO.to_csv()
    export(DEMO, tmp_path / "demo.json", "json")
    loaded = json.loads((tmp_path / "demo.json").read_text())
    assert loaded == json.loads(json.dumps(DEMO.to_json()))
    with pytest.raises(ValueError):
        export(DEMO, tmp_path / "demo.xml", "xml")


def test_ensemble_map_is_order_stable():
    seeds = list(range(20))
    calls = []

    def worker(k, s):
        calls.append(k)
        return (k, s * s)

    assert ensemble_map(worker, seeds) == [(k, s * s) for k, s in enumerate(seeds)]
    assert calls == list(range(20))


def test_ensemble_map_propagates_errors():
    def worker(k, s):
        if k == 3:
            raise RuntimeError("boom")
        return k

    with pytest.raises(RuntimeError):
        ensemble_map(worker, list(range(5)))


def test_list_experiments_names_presets():
    listed = dict(list_experiments())
    assert set(listed) == set(PRESETS)
    assert len(listed) == 9
    assert all(listed.values())


def test_run_experiment_guards(monkeypatch):
    with pytest.raises(UnknownExperimentError, match="bandwidth-fov"):
        run_experiment("does-not-exist")
    # run arguments are checked before any scene is built
    monkeypatch.setattr(SimulationConfig, "build_scene", None)
    with pytest.raises(ConfigValidationError):
        run_experiment("rms-adr", ensemble=0)
    with pytest.raises(ConfigValidationError):
        run_experiment("ccf-space", threads=0)
    # counts are integers: 2.7 used to run 2 scenes, True 1 and "3" 3
    for bad in (2.7, True, np.True_, "3"):
        with pytest.raises(ConfigValidationError, match="ensemble size must be an integer"):
            run_experiment("rms-adr", ensemble=bad)
    for bad in (1.5, True, "2"):
        with pytest.raises(ConfigValidationError, match="thread count must be an integer"):
            run_experiment("ccf-space", threads=bad)
    for name in ("acf-time", "ccf-space", "fcf-color"):
        with pytest.raises(ConfigValidationError, match="at least 2"):
            run_experiment(name, ensemble=1)


@pytest.fixture(scope="module")
def ccf_table():
    return run_experiment("ccf-space", default_config(), ensemble=3)


def test_power_rotation_fov_folds_one_instant_at_a_time():
    cfg = default_config()
    times = np.round(np.arange(0.0, 1.8000001, 0.01), 10)
    expected = []
    for fov in (45.0, 60.0, 90.0):
        eff = cfg.merged({"receiver": {"fov_deg": fov, "rot_azimuth_deg_s": 45.0}})
        scene = eff.build_scene(eff.run_seeds(1)[0])
        tx_power = eff.data["array"]["tx_power_w"]
        expected += [received_power(m, tx_power)[1][0] for m in channel_over_time(scene, times)]
    tracemalloc.start()
    try:
        table = run_experiment("power-rotation-fov", cfg, ensemble=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole series of taps took ~46 MB; one instant's take ~3.5 MB
    assert peak < 16e6
    got = np.array([row[2] for row in table.rows])
    assert got.tobytes() == np.array(expected).tobytes()


def test_run_experiment_provenance(ccf_table):
    prov = ccf_table.provenance
    from vlcsim import config_hash

    assert prov["config_hash"] == config_hash(default_config())
    assert prov["seed"] == 20220101
    assert prov["ensemble"] == 3
    assert "threads" not in prov
    assert len(ccf_table.columns) == len(ccf_table.units)
    assert all(len(r) == len(ccf_table.columns) for r in ccf_table.rows)


def test_run_experiment_thread_count_does_not_change_bytes(ccf_table):
    # runs are serial: a thread count is deprecated, warned about and
    # ignored; numpy integers count as integers
    with pytest.warns(FutureWarning, match="threads is deprecated"):
        pooled = run_experiment("ccf-space", default_config(), ensemble=np.int64(3),
                                threads=np.int32(4))
    assert pooled.to_csv() == ccf_table.to_csv()


@pytest.mark.parametrize(
    "override",
    [
        {"ensemble": {"threads": 2}},
        {"ensemble": {"size": 7}},
        {"time": {"start_s": 0.5, "stop_s": 3.0, "step_s": 0.02}},
    ],
)
def test_deprecated_keys_do_not_change_output(ccf_table, override):
    with pytest.warns(FutureWarning, match="is deprecated"):
        cfg = default_config().merged(override)
    assert run_experiment("ccf-space", cfg, ensemble=3).to_csv() == ccf_table.to_csv()


def test_run_experiment_seed_changes_rows(ccf_table):
    other_cfg = default_config().merged({"ensemble": {"master_seed": 7}})
    other = run_experiment("ccf-space", other_cfg, ensemble=3)
    assert other.rows != ccf_table.rows
    assert other.provenance["config_hash"] != ccf_table.provenance["config_hash"]


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_python_dash_m_runs_the_command_line():
    src = str(Path(vlcsim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "vlcsim", "--list"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "ccf-space: " in proc.stdout


def test_cli_requires_experiment():
    assert main([]) == 2


def test_cli_unknown_experiment():
    assert main(["--experiment", "nope"]) == 2


_PATTERN_HEAD = "elevation_deg,azimuth_deg,intensity\n"
_LED_HEAD = "wavelength_nm,value\n"


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("receiver: [\n")
    assert main(["--experiment", "ccf-space", "--config", str(bad)]) == 2
    typo = tmp_path / "typo.yaml"
    typo.write_text("receiver:\n  fov: 60\n")
    assert main(["--experiment", "ccf-space", "--config", str(typo)]) == 2
    # data files that do not exist fail at load, before anything runs
    missing = tmp_path / "missing.csv"
    for name, text in [
        ("pattern.yaml", f"array:\n  pattern: {{type: file, path: {missing}}}\n"),
        ("led.yaml", f"spectrum:\n  led: {missing}\n"),
    ]:
        cfg = tmp_path / name
        cfg.write_text(text)
        out = tmp_path / name.replace(".yaml", "")
        assert main(["--experiment", "ccf-space", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert not out.exists()
    # data files whose contents are bad, and wavelength windows outside the
    # LED spectrum or the material tables, fail when the run builds its
    # tables, still as config errors
    patterns = {
        "ragged.csv": _PATTERN_HEAD + "0,0,1\n0,10,1\n10,0,1\n",
        "word.csv": _PATTERN_HEAD + "0,0,1\n0,10,one\n10,0,1\n10,10,1\n",
        "dark.csv": _PATTERN_HEAD + "0,0,0\n0,10,0\n10,0,0\n10,10,0\n",
        "infinite.csv": _PATTERN_HEAD + "0,0,1\n0,10,inf\n10,0,1\n10,10,1\n",
        "one_elevation.csv": _PATTERN_HEAD + "0,0,1\n0,10,1\n",
        # lit only behind the emitter: no forward-hemisphere power
        "backward.csv": _PATTERN_HEAD + "0,120,1\n0,180,1\n10,120,1\n10,180,1\n",
    }
    leds = {
        "one_row.csv": _LED_HEAD + "500,1\n",
        "negative.csv": _LED_HEAD + "400,1\n500,-1\n600,1\n",
        "not_a_number.csv": _LED_HEAD + "400,1\n500,nan\n600,1\n",
    }
    for name, text in {**patterns, **leds}.items():
        (tmp_path / name).write_text(text)
    cases = [("array.pattern.path", f"array:\n  pattern: {{type: file, path: {tmp_path / name}}}\n")
             for name in patterns]
    cases += [("spectrum.led", f"spectrum:\n  led: {tmp_path / name}\n") for name in leds]
    cases += [("spectrum.wavelength_lo_nm",
               f"spectrum:\n  wavelength_lo_nm: 100\n  wavelength_hi_nm: {hi}\n")
              for hi in (200, 100)]
    # an integer beyond the float range, and a zero gain or power, which
    # would give a traceback, NaN rows or an all-zero table
    huge = "1" + "0" * 400
    cases += [("array.rows", f"array:\n  rows: {huge}\n"),
              ("frequency.max_hz", f"frequency:\n  max_hz: {huge}\n"),
              ("receiver.filter_gain", "receiver:\n  filter_gain: 0.0\n"),
              ("array.tx_power_w", "array:\n  tx_power_w: 0.0\n")]
    for key, text in cases:
        cfg = tmp_path / "contents.yaml"
        cfg.write_text(text)
        out = tmp_path / "contents"
        capsys.readouterr()
        assert main(["--experiment", "rms-adr", "--config", str(cfg),
                     "--out", str(out)]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("vlcsim: config error: ") and key in err, err
        assert not out.exists()


def test_cli_runs_a_config_with_a_whole_float_integer_key(tmp_path):
    cfg = tmp_path / "rows.yaml"
    cfg.write_text("array:\n  rows: 2.0\n")
    assert main(["--experiment", "power-vs-distance", "--ensemble", "1", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "power-vs-distance.csv").exists()


def test_cli_rejects_non_finite_config(tmp_path, capsys):
    for key, text in [
        ("receiver.distance_m", "receiver:\n  distance_m: .inf\n"),
        ("array.pattern.order",
         "array:\n  pattern: {type: lambertian, order: .inf}\n"),
        ("spectrum.material_weights.floor",
         "spectrum:\n  material_weights: {floor: .inf}\n"),
    ]:
        far = tmp_path / "far.yaml"
        far.write_text(text)
        assert main(["--experiment", "rms-adr", "--config", str(far),
                     "--out", str(tmp_path)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "rms-adr.csv").exists()


def test_cli_rejects_bad_ensemble(tmp_path, capsys):
    assert main(["--experiment", "ccf-space", "--ensemble", "0"]) == 2
    # a correlation needs two runs: refused as a config error, nothing written
    assert main(["--experiment", "ccf-space", "--ensemble", "1",
                 "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "ccf-space.csv").exists()


def test_cli_reports_failures_during_a_run_as_runtime_errors(tmp_path, capsys,
                                                               monkeypatch):
    import vlcsim.stats

    def broken(cir):
        raise ValueError("math domain error")

    # raised inside the preset, after its scenes are built
    monkeypatch.setattr(vlcsim.stats, "rms_delay_spread", broken)
    assert main(["--experiment", "rms-adr", "--ensemble", "2",
                 "--out", str(tmp_path)]) == 3
    assert "runtime error: ValueError: math domain error" in capsys.readouterr().err
    assert not (tmp_path / "rms-adr.csv").exists()


def test_cli_reports_on_axis_cluster_centers_as_a_runtime_error(tmp_path, capsys):
    cfg = tmp_path / "on-axis.yaml"
    cfg.write_text("clusters:\n  tx_azimuth_std_deg: 0\n  tx_elevation_std_deg: 0\n")
    out = tmp_path / "out"
    assert main(["--experiment", "rms-adr", "--ensemble", "2", "--config", str(cfg),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "DegenerateNormalError: could not draw an off-axis cluster center" in err
    assert not out.exists()


def test_cli_runs_and_writes(tmp_path, capsys):
    code = main(
        [
            "--experiment", "ccf-space",
            "--ensemble", "2",
            "--out", str(tmp_path),
            "--format", "csv",
        ]
    )
    assert code == 0
    out_file = tmp_path / "ccf-space.csv"
    assert capsys.readouterr().out.strip() == str(out_file)
    text = out_file.read_text()
    assert text.startswith("# experiment: ccf-space\n")

    # same invocation, byte-identical output
    rerun = tmp_path / "again"
    assert main(
        ["--experiment", "ccf-space", "--ensemble", "2", "--out", str(rerun)]
    ) == 0
    assert (rerun / "ccf-space.csv").read_text() == text


def test_cli_seed_option_changes_output(tmp_path):
    args = ["--experiment", "ccf-space", "--ensemble", "2", "--out"]
    assert main(args + [str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(args + [str(tmp_path / "b"), "--seed", "2"]) == 0
    a = (tmp_path / "a" / "ccf-space.csv").read_text()
    b = (tmp_path / "b" / "ccf-space.csv").read_text()
    assert a != b
    assert "# seed: 1" in a and "# seed: 2" in b


def test_cli_json_output_validates(tmp_path):
    code = main(
        [
            "--experiment", "ccf-space",
            "--ensemble", "2",
            "--out", str(tmp_path),
            "--format", "json",
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "ccf-space.json").read_text())
    jsonschema.validate(doc, result_schema())
    assert doc["experiment"] == "ccf-space"


def test_cli_unwritable_output(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(
        ["--experiment", "ccf-space", "--ensemble", "2", "--out", str(blocker)]
    )
    assert code == 3
