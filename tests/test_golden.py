"""Every method tag's outputs, replayed in process against committed records.

tests/golden/records.json holds, for each config of
``scripts/record_golden.py``, the records of one run at the config's seed and
a small trial count: every shipped ``scripts/*.cfg`` and configs that together
run all eleven tags. Every change must reproduce them; the file is only read
here, and a change that alters bits on purpose re-records it with the script.

trials, failures, per and mean_iters must match exactly. rmse_theta_deg and
nmse_gamma must match bit for bit on the numpy and BLAS build the records name:
a one-ulp change to one solver step moves them by 1e-16 to 1e-14 and leaves
every other field as it was. On another build they must match to 1e-9, as the
benchmark's references do.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from covlearn.methods import METHOD_TAGS

ROOT = Path(__file__).parent.parent
EXACT = ("method", "snr_db", "trials", "failures", "per", "mean_iters")
ROUNDED = ("rmse_theta_deg", "nmse_gamma")
REL_TOL = 1e-9


def _load_recorder():
    path = ROOT / "scripts" / "record_golden.py"
    spec = importlib.util.spec_from_file_location("record_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_recorder()
RECORDS = json.loads(golden.RECORDS.read_text())
RUNS = {run["cfg"]: run for run in RECORDS["runs"]}


def _close(have, want, exact: bool) -> bool:
    if have is None or want is None or exact:
        return have == want
    return math.isclose(have, want, rel_tol=REL_TOL, abs_tol=0.0)


@pytest.mark.parametrize("cfg", list(RUNS))
def test_a_golden_run_reproduces_its_records(cfg):
    run = RUNS[cfg]
    exact = {key: RECORDS[key] for key in ("numpy", "blas")} == golden.build()
    have = golden.run(cfg, run["trials"])
    assert [{key: r[key] for key in EXACT} for r in have] == [
        {key: r[key] for key in EXACT} for r in run["records"]
    ]
    for h, w in zip(have, run["records"]):
        for key in ROUNDED:
            assert _close(h[key], w[key], exact), (h["method"], h["snr_db"], key, h[key], w[key])


def test_the_records_cover_every_shipped_config_and_tag():
    shipped = {f"scripts/{p.name}" for p in (ROOT / "scripts").glob("*.cfg")}
    assert shipped <= set(RUNS) and list(RUNS) == list(golden.GOLDEN)
    assert all(RUNS[cfg]["trials"] == trials for cfg, trials in golden.GOLDEN.items())
    tags = {r["method"] for run in RUNS.values() for r in run["records"]}
    assert tags == set(METHOD_TAGS)


def test_the_records_keep_the_capped_runs_in_view():
    # on the shipped two-source geometry samv2, sbl, sbl1 and msbl stop at the
    # cap, and msbl reports a spurious endfire source: a re-recording at
    # another seed or trial count must not draw these out of the records
    (capped,) = [run for cfg, run in RUNS.items() if cfg.endswith("capped.cfg")]
    by_tag = {r["method"]: r for r in capped["records"]}
    assert all(by_tag[tag]["mean_iters"] == 500.0 for tag in ("samv2", "sbl", "sbl1", "msbl"))
    assert by_tag["msbl"]["rmse_theta_deg"] > 80.0
