#!/usr/bin/env python3
"""covlearn benchmark: Monte-Carlo trials per second on an SSR and a DOA workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ssr --seed 1 --seconds 40 --trace 0

Each run starts fresh ``perfbench/worker.py`` processes that import covlearn
from ``src/`` and call ``covlearn.cli.main(["run", ...])``. Set-up is measured
in several processes and reported as the median; trials are timed from
outside the program in batches whose seeds derive from ``--seed``. Every
batch's outputs, a fixed reference batch and byte-identity invariants are
checked. ``--trace 1`` splits the time between an untraced and a traced
replay of the same batches and reports the per-layer metrics of
``tracing.py``. See README.md in this directory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record,
machine block included, is written to ``perfbench/out/<run>/result.json``.
The exit code is 0 when the correctness gate passes, 1 when it fails and
2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Inputs per workload. A batch is one `covlearn run` call of `batch_trials`
# trials with its own seed; a run replays all its batches in rounds. The 80
# and 40 distinct trials even out the data-dependent iteration counts, and a
# round (about 5 s) leaves room for several rounds in a run.
WORKLOADS = {
    "ssr": {"batches": 20, "batch_trials": 4},
    "doa": {"batches": 20, "batch_trials": 2},
}
SETUP_BEFORE, SETUP_AFTER = 2, 2  # set-up-only processes around the measuring one
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
VALUE_COLUMNS = ("per", "rmse_theta_deg", "nmse_gamma", "mean_iters")
EXACT_COLUMNS = ("trials", "per", "mean_iters")  # ratios of counts: no roundoff
REL_TOL = 1e-9  # rmse_theta_deg and nmse_gamma against the recorded references
MAX_ITER = 500  # the configs' iteration cap (the CLI default)
RUN_LIMIT_S = 170.0
# Trial times are reported in reference seconds: seconds scaled by
# PROBE_REF_S over the median time of worker.speed_probe between the run's
# batches. PROBE_REF_S is the probe's time on an unloaded core of the machine
# the bounds were set on (Intel Xeon, 2 vCPUs, OpenBLAS 0.3.31), so reference
# seconds read close to seconds there; plain seconds are kept in result.json.
# Set-up barely follows the probe, so setup_s stays in plain seconds.
PROBE_REF_S = 0.0055


# ---------------------------------------------------------------------------
# workload processes
# ---------------------------------------------------------------------------


def worker_env() -> dict:
    """The caller's environment with BLAS pinned to one thread."""
    return {**os.environ, **{k: "1" for k in BLAS_ENV}}


def start_worker(args, wl, ref, out: Path, setup_only: bool, deadline: float):
    """Start one worker; return (process, set-up seconds, kill timer)."""
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--cfg", str(HERE / "workloads" / f"{args.workload}.cfg"),
           "--batches", str(wl["batches"]),
           "--batch-trials", str(wl["batch_trials"]),
           "--ref-seed", str(ref["seed"]), "--ref-trials", str(ref["trials"]),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    except BaseException:
        finish(proc, timer)
        raise
    setup = time.perf_counter() - started
    if line.strip() != "ready":
        finish(proc, timer)
        raise RuntimeError(f"worker did not become ready (exit {proc.returncode})")
    return proc, setup, timer


def finish(proc, timer) -> None:
    """Wait for a worker (killing it if interrupted) and check its exit code."""
    try:
        proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def csv_cells(text: str) -> dict:
    return {(r["method"], r["snr_db"]): r for r in csv.DictReader(io.StringIO(text))}


def compare_reference(expected_csv: str, got_csv: str, label: str) -> list:
    """Cells of ``got_csv`` that differ from the recorded reference."""
    want, got = csv_cells(expected_csv), csv_cells(got_csv)
    if want.keys() != got.keys():
        return [f"{label}: cells {sorted(got)} != reference {sorted(want)}"]
    bad = []
    for key, w in want.items():
        g = got[key]
        for col in ("trials", *VALUE_COLUMNS):
            a, b = w[col], g[col]
            if (a == "") != (b == ""):
                same = False
            elif a == "" or col in EXACT_COLUMNS:
                same = a == b
            else:
                same = math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=0.0)
            if not same:
                bad.append(f"{label}: cell {key[0]}@{key[1]} {col} = {b!r}, reference {a!r}")
    return bad


def check_batch(batch: dict, reference_csv: str, label: str):
    """Checks of one timed batch; returns (solves, failed solves, mismatches).

    A cell that fails a check counts all its solves as failed.
    """
    rows = json.loads((Path(batch["out"]) / "results.json").read_text())
    ref = csv_cells(reference_csv)
    trials = batch["trials"]
    solves = trials * len(ref)
    got = {(r["method"], format(r["snr_db"], ".12g")): r for r in rows}
    if got.keys() != ref.keys():
        return solves, solves, [f"{label}: cells {sorted(got)} != {sorted(ref)}"]
    failed, bad = 0, []
    for key, r in got.items():
        cell = f"{label}: cell {key[0]}@{key[1]}"
        problems = []
        if r["trials"] + r["failures"] != trials:
            problems.append(f"counts {r['trials']}+{r['failures']} solves, expected {trials}")
        # A cell with failures may lack any value; only its counts are checked.
        for col in VALUE_COLUMNS if not r["failures"] else ():
            v = r[col]
            if (v is None) != (ref[key][col] == ""):
                problems.append(f"{col} is {v!r}, expected {'a value' if v is None else 'none'}")
            elif v is not None and not (
                math.isfinite(v)
                and v >= 0
                and (col != "per" or v <= 1)
                and (col != "mean_iters" or 1 <= v <= MAX_ITER)
            ):
                problems.append(f"{col} = {v!r} out of range")
        failed += trials if problems else r["failures"]
        bad += [f"{cell} {p}" for p in problems]
    return solves, failed, bad


def gate(report: dict, reference: dict):
    """Run every check; returns (attempted, failed, mismatches).

    Every timed batch is checked, every replay of a batch (later rounds and
    traced rounds) must write the same results.csv as its first run, and
    the reference batch must reproduce the recorded cells.
    """
    ref_csv = reference["csv"]
    attempted = failed = 0
    bad = []
    rounds = report["rounds"] + report.get("traced_rounds", [])
    for r, batches in enumerate(rounds):
        for b, first in zip(batches, rounds[0]):
            label = f"round {r} batch seed {b['seed']}"
            solves, lost, cells = check_batch(b, ref_csv, label)
            attempted += solves
            failed += lost
            bad += cells
            replay = (Path(b["out"]) / "results.csv").read_bytes()
            if r and replay != (Path(first["out"]) / "results.csv").read_bytes():
                bad.append(f"{label}: results.csv differs from its first run")
    got = (Path(report["reference"]["out"]) / "results.csv").read_text()
    bad += compare_reference(ref_csv, got, f"reference seed {reference['seed']}")
    parallel = (Path(report["reference_parallel"]["out"]) / "results.csv").read_text()
    if parallel != got:
        bad.append("reference batch: results.csv at 2 engine workers differs from 1 worker")
    return attempted, failed, bad


def rate(rounds, scale: float = 1.0) -> tuple:
    """(trials per second, CPU seconds per trial) over one pass of the batches.

    Each batch's time is its median over rounds, multiplied by ``scale``.
    """
    per_batch = list(zip(*rounds))
    trials = sum(runs[0]["trials"] for runs in per_batch)
    wall = sum(statistics.median(b["wall_s"] for b in runs) for runs in per_batch) * scale
    cpu = sum(statistics.median(b["cpu_s"] for b in runs) for runs in per_batch) * scale
    return trials / wall, cpu / trials


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git (None if absent)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_block(process: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **process,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    run_start = time.monotonic()
    if not (ROOT / "src" / "covlearn" / "cli.py").is_file():
        print(f"error: no covlearn source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    reference = json.loads((HERE / "references" / f"{args.workload}.json").read_text())
    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = run_start + RUN_LIMIT_S

    def setup_only(i):
        proc, setup, timer = start_worker(args, wl, reference, run_dir / f"setup{i}", True,
                                          deadline)
        finish(proc, timer)
        return setup

    try:
        setups = [setup_only(i) for i in range(SETUP_BEFORE)]
        proc, setup, timer = start_worker(args, wl, reference, run_dir, False, deadline)
        setups.append(setup)
        finish(proc, timer)
        setups += [setup_only(SETUP_BEFORE + i) for i in range(SETUP_AFTER)]
    except RuntimeError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    report = json.loads((run_dir / "worker.json").read_text())
    probe_s = statistics.median(report["probes"])
    scale = PROBE_REF_S / probe_s

    attempted, failed, bad = gate(report, reference)
    trials_per_s, cpu_s_per_trial = rate(report["rounds"], scale)
    raw_trials_per_s, raw_cpu_s_per_trial = rate(report["rounds"])
    e2e = {
        "trials_per_s": trials_per_s,
        "cpu_s_per_trial": cpu_s_per_trial,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }
    layers = report.get("layers")
    if layers is not None:
        traced_scale = PROBE_REF_S / statistics.median(report["traced_probes"])
        layers["trace.overhead"] = rate(report["traced_rounds"], traced_scale)[0] / trials_per_s
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        chosen = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in chosen.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: {wl['batches']} "
          f"batches of {wl['batch_trials']} trials x {len(report['rounds'])} rounds, "
          f"BLAS threads {report['process']['blas_threads']}")
    for name, value in e2e.items():
        print(f"  {name:16s} {value:12.6g} {units[name]}")
    print(f"  {'failed_frac':16s} {failed / attempted:12.6g} ratio "
          f"({failed} of {attempted} solves)")
    print(f"  in plain seconds: trials_per_s {raw_trials_per_s:.6g}, cpu_s_per_trial "
          f"{raw_cpu_s_per_trial:.6g}, set-up samples {', '.join(f'{s:.3f}' for s in setups)}; "
          f"median probe {probe_s * 1e3:.3f} ms")
    if args.trace:
        for name, value in chosen.items():
            print(f"  {name:44s} {value:12.6g} {units[name]}")
    for line in bad:
        print(f"MISMATCH {line}", file=sys.stderr)
    print("correctness: " + ("ok" if not bad else f"FAILED ({len(bad)} mismatches)"))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_block(report["process"]),
        "end_to_end": e2e,
        "plain_seconds": {"trials_per_s": raw_trials_per_s, "cpu_s_per_trial": raw_cpu_s_per_trial},
        "setup_samples_s": setups,
        "probe_s": {"median": probe_s, "reference": PROBE_REF_S},
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "mismatches": bad,
        "per_layer": layers,
        "rounds": report["rounds"],
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not bad else 1


if __name__ == "__main__":
    raise SystemExit(main())
