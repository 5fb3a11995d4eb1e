import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

import vlcsim
from vlcsim import channel, config, experiments, geometry, optics, scene, stats


@pytest.mark.parametrize(
    "module", [vlcsim, channel, stats, geometry, optics, scene, config, experiments]
)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


_ROOT = Path(__file__).resolve().parent.parent


def _perfbench(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    # the benchmark wraps these names by lookup; renaming or inlining one
    # must fail here rather than in a benchmark run
    tracing = _perfbench("tracing")
    missing = [(owner.__name__, attr) for owner, attr, _ in tracing.patch_points()
               if attr not in vars(owner)]
    assert missing == []
    assert config.default_config().threads == 1


_WORKLOADS = _perfbench("workloads")


@pytest.mark.parametrize("workload, preset, ensemble", [
    (workload, preset, ensemble)
    for workload, tables in _WORKLOADS.WORKLOADS.items() for preset, ensemble in tables
])
def test_tables_match_the_benchmark_reference(workload, preset, ensemble):
    # output bytes are the contract: each benchmark table at the default
    # seed has the CSV sha256 that perfbench/reference.json records, and
    # its JSON follows the result schema, which export does not check
    seed = _WORKLOADS.DEFAULT_SEED
    reference = json.loads((_ROOT / "perfbench" / "reference.json").read_text())
    cfg = vlcsim.loads_config(_WORKLOADS.config_text(seed))
    table = experiments.run_experiment(preset, cfg, ensemble=ensemble)
    got = hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest()
    assert got == reference["csv_sha256"][str(seed)][workload][preset]
    jsonschema.validate(table.to_json(), experiments.result_schema())


def test_readme_python_blocks_run(capsys):
    # the blocks run in order and share one namespace: later ones use
    # names the Quick start defines
    readme = _ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
    assert "DC gain" in capsys.readouterr().out
    assert namespace["moving"].data["receiver"]["speed_m_s"] == 0.5


def test_readme_yaml_blocks_load_as_the_defaults():
    # PyYAML reads YAML 1.1, where 2.0e8 is a string: the reference block
    # must load, warn about nothing and give exactly the defaults
    readme = _ROOT / "README.md"
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config.loads_config(block) == config.default_config()
    with pytest.raises(vlcsim.ConfigValidationError, match="max_hz must be a number, got '2.0e8'"):
        config.loads_config("frequency: {max_hz: 2.0e8}\n")


_SCIPY_FREE = """
import runpy
import sys

import vlcsim
from vlcsim import cir_snapshot, loads_config
from vlcsim.optics import _DATA_DIR, load_pattern

cfg = loads_config("ensemble:\\n  master_seed: 3\\n")
load_pattern(_DATA_DIR / "pattern_narrow.csv").intensity([0.1, 2.0], [0.2, 0.3])
cir_snapshot(1, 1, 1, cfg.build_scene(seed=1), t=0.0)
sys.argv = ["vlcsim", "--list"]
try:
    runpy.run_module("vlcsim", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
vlcsim.shadowing_stats([float(k % 7) for k in range(30)])
vlcsim.run_experiment("pl-ci", cfg, ensemble=3)
print("scipy:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _python(script: str) -> subprocess.CompletedProcess:
    """``script`` run by a fresh interpreter that imports this checkout's vlcsim."""
    src = str(Path(vlcsim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_no_vlcsim_call_imports_scipy():
    # scipy is a test-only oracle: the normality check, pattern loads and
    # whole runs work without it
    proc = _python(_SCIPY_FREE)
    assert "ccf-space: " in proc.stdout
    assert proc.stdout.splitlines()[-1] == "scipy: []"


# import names whose distribution is named otherwise
_DISTRIBUTIONS = {"yaml": "pyyaml"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_runtime_import_is_a_declared_dependency():
    import tomllib

    root = Path(vlcsim.__file__).resolve().parent
    project = tomllib.loads((root.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~ \[;]", d, maxsplit=1)[0].lower()
                for d in project["dependencies"]}
    imported = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"vlcsim"}
    assert {_DISTRIBUTIONS.get(m, m) for m in third_party} == declared
    assert "scipy" not in imported and "scipy" not in declared


_JSON_EXPORT = """
import sys
import tempfile
from pathlib import Path

from vlcsim.experiments import ResultTable, export

table = ResultTable("demo", ("x",), ("m",), ((1.0,),),
                    {"config_hash": "0" * 64, "seed": 1, "version": "0.1.0"})
with tempfile.TemporaryDirectory() as tmp:
    export(table, Path(tmp) / "demo.json", "json")
print("jsonschema" in sys.modules)
"""


def test_json_export_does_not_import_jsonschema():
    # jsonschema is a test-only package: the run path writes JSON without
    # it, and the tests check the schema
    assert _python(_JSON_EXPORT).stdout.splitlines() == ["False"]
