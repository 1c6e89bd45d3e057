"""The benchmark's reference batches, replayed in process.

perfbench/references/<workload>.json records the results.csv of one
`covlearn run` of perfbench/workloads/<cfg> at a stored seed and trial
count. Every change must reproduce that text exactly; the files are only
read here.
"""

import json
from pathlib import Path

import pytest

from covlearn.cli import main

BENCH = Path(__file__).parent.parent / "perfbench"
REFERENCES = sorted((BENCH / "references").glob("*.json"))


@pytest.mark.parametrize("path", REFERENCES, ids=[p.stem for p in REFERENCES])
def test_reference_batch_reproduces_its_csv(tmp_path, path):
    ref = json.loads(path.read_text())
    argv = ["run", "--config", str(BENCH / "workloads" / ref["cfg"]), "--seed", str(ref["seed"]),
            "--trials", str(ref["trials"]), "--threads", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "results.csv").read_text() == ref["csv"]  # universal newlines


def test_both_workloads_have_a_reference():
    assert [p.stem for p in REFERENCES] == ["doa", "ssr"]
