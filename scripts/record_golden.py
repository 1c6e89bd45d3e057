#!/usr/bin/env python3
"""Record the golden outputs that tests/test_golden.py replays for every method tag.

Usage (from the repository root):

    python3 scripts/record_golden.py

Runs each config of GOLDEN in process, at the config's seed and the trial
count given there, with BLAS pinned to one thread, and writes every
(method, SNR) record's trials, failures, per, mean_iters, rmse_theta_deg and
nmse_gamma to tests/golden/records.json, with the numpy and BLAS build they
were recorded on. The records pin the outputs of the commit they were
recorded at: a change that keeps its outputs must reproduce them, and a
change that alters bits on purpose re-records them and says so.
"""

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RECORDS = REPO / "tests" / "golden" / "records.json"
FIELDS = ("method", "snr_db", "trials", "failures", "per", "mean_iters", "rmse_theta_deg",
          "nmse_gamma")

# Config -> trials. Every shipped config, at a count that crosses a chunk
# boundary on the steering grid (ssr_per_sweep.cfg takes about 0.6 s a trial,
# mostly samv2 and sbl), then configs that together run every tag, cwo's
# per-atom sweeps being most of their time, though cwo solves each chunk as
# one stack like every power-iteration method: at 2, 1 and 4 trials they take
# about 2.5-3.1, 1.1-1.4 and 1.2-1.3 s of CPU with BLAS on one thread (least of
# three runs on a shared 2-vCPU box), and the capped two-source run 0.6 s.
GOLDEN = {
    "scripts/doa_correlated.cfg": 6,
    "scripts/doa_single_source.cfg": 6,
    "scripts/doa_two_source.cfg": 6,
    "scripts/ssr_per_sweep.cfg": 2,
    "tests/golden/ula_all_k2.cfg": 2,
    "tests/golden/ula_all_k1.cfg": 1,
    "tests/golden/ssr_all.cfg": 4,
    "tests/golden/doa_two_source_capped.cfg": 2,
}


def build() -> dict:
    """The numpy version and the BLAS numpy was built against."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def run(cfg: str, trials: int) -> list:
    """The records of ``trials`` trials of the config at ``cfg`` (relative to
    the repository root), one dict of FIELDS per (method, SNR)."""
    from covlearn.cli import parse_spec
    from covlearn.scenario import run_monte_carlo

    spec = parse_spec(REPO / cfg)
    records = run_monte_carlo(replace(spec.scenario, trials=trials), spec.methods)
    return [{name: getattr(rec, name) for name in FIELDS} for rec in records]


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported
    sys.path.insert(0, str(REPO / "src"))
    runs = []
    for cfg, trials in GOLDEN.items():
        runs.append({"cfg": cfg, "trials": trials, "records": run(cfg, trials)})
        print(f"{cfg}: {trials} trials")
    RECORDS.write_text(json.dumps({**build(), "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
