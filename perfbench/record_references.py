#!/usr/bin/env python3
"""Record the reference cells the benchmark's correctness gate compares against.

Usage (from the repository root):

    python3 perfbench/record_references.py

For each workload config it runs ``covlearn run`` at the config's own seed
with a small trial count, one engine worker and BLAS pinned to one thread,
and stores the resulting ``results.csv`` text in ``references/<cfg>.json``.
The references pin the outputs of the commit they were recorded at; a
change that claims a speed-up must reproduce them, not re-record them.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_TRIALS = {"ssr": 8, "doa": 4}


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported
    sys.path.insert(0, str(HERE.parent / "src"))
    from covlearn.cli import main as covlearn_main, parse_spec

    (HERE / "references").mkdir(exist_ok=True)
    for name, trials in REFERENCE_TRIALS.items():
        cfg = HERE / "workloads" / f"{name}.cfg"
        seed = parse_spec(cfg).scenario.seed
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            argv = ["run", "--config", str(cfg), "--seed", str(seed), "--trials", str(trials),
                    "--threads", "1", "--out", tmp]
            if covlearn_main(argv) != 0:
                return 1
            text = (Path(tmp) / "results.csv").read_text()
        record = {"cfg": cfg.name, "seed": seed, "trials": trials, "csv": text}
        (HERE / "references" / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"{name}: seed {seed}, {trials} trials")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
