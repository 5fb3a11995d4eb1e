import importlib.util
import re
from pathlib import Path

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


def test_benchmark_hooks_resolve():
    # the benchmark wraps these names by lookup; renaming or inlining one
    # must fail here rather than in a benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(owner.__name__, attr) for owner, attr, _ in tracing.patch_points()
               if attr not in vars(owner)]
    assert missing == []
    assert config.default_config().threads == 1


def test_readme_python_blocks_run(capsys):
    # the blocks run in order and share one namespace: later ones use
    # names the Quick start defines
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
    assert "DC gain" in capsys.readouterr().out
    assert namespace["moving"].data["receiver"]["speed_m_s"] == 0.5
