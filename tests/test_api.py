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
