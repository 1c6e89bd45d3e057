"""The README's Python examples run as written, and its config schema is the parser's."""

import re
import warnings
from pathlib import Path

from covlearn import cli

README = Path(__file__).parent.parent / "README.md"


def test_every_python_block_runs_without_a_runtime_warning():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_config_schema_table_names_exactly_the_accepted_keys():
    section = README.read_text().split("### Config schema", 1)[1].split("\n## ", 1)[0]
    first_cells = re.findall(r"^\| (`.*?) \|", section, flags=re.M)
    documented = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(documented) == sorted({**cli._SCALAR_KEYS, **cli._LIST_KEYS})


def test_the_quick_start_recovers_its_sources(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"^```python\n(.*?)^```", section, flags=re.M | re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    # the Gaussian dictionary's sources by every runner, then the steering
    # grid's two sources as its two largest peaks
    assert [line.split("]")[0] + "]" for line in lines[:-1]] == ["[3, 40, 171]"] * 5
    assert lines[-1] == "[700, 930]"
