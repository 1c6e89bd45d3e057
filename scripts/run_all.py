#!/usr/bin/env python3
"""Run every experiment config in this directory and print a results digest.

Usage:
    python scripts/run_all.py [--trials N] [--threads N] [--configs a.cfg b.cfg]

Full-scale sweeps (trials = 500) take a while; pass --trials 50 for a
quick look. Results land in each config's output_dir. The default is 4
engine threads, and BLAS runs on one thread.
"""

import argparse
import csv
import os
import sys
from pathlib import Path

# one BLAS thread per engine thread: unpinned BLAS threads oversubscribe the
# cores, and a threaded run takes longer than a serial one
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before covlearn, and with it numpy, is imported

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from covlearn.cli import main as covlearn_main, parse_spec  # noqa: E402


def digest(out_dir: Path):
    with open(out_dir / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    methods = sorted({r["method"] for r in rows})
    snrs = list(dict.fromkeys(r["snr_db"] for r in rows))  # config order
    metric = "rmse_theta_deg" if any(r["rmse_theta_deg"] for r in rows) else "per"
    print(f"  metric: {metric};  snr grid: {snrs}")
    for m in methods:
        by_snr = {r["snr_db"]: r[metric] for r in rows if r["method"] == m}
        pretty = " ".join(f"{float(by_snr[s]):7.3f}" if by_snr.get(s) else "      -" for s in snrs)
        print(f"  {m:8s} {pretty}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--configs", nargs="*", default=None)
    args = ap.parse_args()

    cfg_dir = Path(__file__).resolve().parent
    configs = args.configs or sorted(p.name for p in cfg_dir.glob("*.cfg"))
    for name in configs:
        cfg = cfg_dir / name
        spec = parse_spec(cfg)
        print(f"== {name} -> {spec.output_dir}")
        argv = ["run", "--config", str(cfg), "--threads", str(args.threads), "--timings"]
        if args.trials is not None:
            argv += ["--trials", str(args.trials)]
        rc = covlearn_main(argv)
        if rc != 0:
            return rc
        digest(Path(spec.output_dir))  # CLI writes relative to the working directory
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
