"""README's library examples run as written."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.MULTILINE | re.DOTALL)


def test_readme_has_the_quickstart_and_the_lower_level_example():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block", range(len(BLOCKS)), ids=["quickstart", "lower-level"])
def test_readme_example_runs(block):
    namespace = {}
    exec(compile(BLOCKS[block], f"README.md python block {block}", "exec"), namespace)
    if "fc" in namespace:  # the Quickstart's forecast
        fc = namespace["fc"]
        assert fc.mean.shape == fc.variance.shape == (18,) and np.all(fc.variance > 0)
    else:  # the lower-level example's posterior
        posterior = namespace["posterior"]
        assert posterior.mean.shape == (18,) and np.all(posterior.observation_variance > 0)
