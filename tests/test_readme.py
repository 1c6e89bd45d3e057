"""The README's Python examples run as written."""

import re
import warnings
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_every_python_block_runs_without_a_runtime_warning():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})
