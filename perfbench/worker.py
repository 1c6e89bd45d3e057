"""One workload process of the benchmark: set up, time Monte-Carlo batches, report.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread.
It drives only the public entry point ``covlearn.cli.main(["run", ...])``
and times every call from outside.

Protocol: after set-up (imports plus a warm-up run) it prints ``ready``;
with ``--setup-only`` it exits there. Otherwise it draws one seed per batch from ``--seed`` and runs
all the batches in rounds for ``--seconds`` seconds (half of it untraced and
as many rounds again traced with ``--trace 1``), then the fixed reference
batch of the correctness gate at 1 and at 2 engine workers, and writes
``worker.json`` (and, when tracing, ``spans.npz``) into ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import random
import resource
import sys
import time
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PARALLEL_WORKERS = 2  # engine workers of the reference batch's byte-identity check


def blas_threads():
    """Thread count in force in numpy's bundled OpenBLAS, or None if not found."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        dll = ctypes.CDLL(str(lib))  # the handle numpy already loaded
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def process_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def speed_probe() -> float:
    """Seconds for a fixed kernel of small complex linear algebra and
    interpreter work, the same mix as covlearn's, with no covlearn code.

    The machine is shared and its speed drifts by tens of percent over
    seconds; timing this kernel between batches lets run.py express times
    at a reference machine speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    A = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    A = A @ A.conj().T + 32 * np.eye(32)
    B = rng.standard_normal((32, 256)) + 1j * rng.standard_normal((32, 256))
    started = time.perf_counter()
    for _ in range(40):
        q = np.einsum("ij,ij->j", B.conj(), np.linalg.inv(A) @ B).real
        total = 0.0
        for v in q[:200]:
            total += float(v)
    return time.perf_counter() - started


def run_batch(cli, cfg, seed, trials, out, workers=1) -> dict:
    argv = ["run", "--config", str(cfg), "--seed", str(seed), "--trials", str(trials),
            "--threads", str(workers), "--out", str(out)]
    c0, w0 = time.process_time(), time.perf_counter()
    rc = cli.main(argv)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if rc != 0:
        raise SystemExit(f"covlearn run exited with {rc} for {argv}")
    return {"seed": seed, "trials": trials, "wall_s": wall, "cpu_s": cpu, "out": str(out)}


def run_rounds(cli, args, seeds, out, suffix, budget=None, count=None):
    """Run every batch once per round: ``count`` rounds, or as many as start
    within ``budget`` seconds (at least two).

    Returns the rounds and the speed probes timed before the first batch
    and after each batch.
    """
    rounds = []
    probes = [speed_probe()]
    started = time.perf_counter()
    while (len(rounds) < count if count is not None
           else len(rounds) < 2 or time.perf_counter() - started < budget):
        batches = []
        for i, seed in enumerate(seeds):
            batches.append(run_batch(cli, args.cfg, seed, args.batch_trials,
                                     out / f"r{len(rounds)}-b{i}{suffix}"))
            probes.append(speed_probe())
        rounds.append(batches)
    return rounds, probes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cfg", required=True)
    ap.add_argument("--batches", type=int, required=True)
    ap.add_argument("--batch-trials", type=int, required=True)
    ap.add_argument("--ref-seed", type=int, required=True)
    ap.add_argument("--ref-trials", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)

    import covlearn
    from covlearn import cli

    # Warm-up: the workload's shapes and methods, one trial, two iterations.
    warm_cfg = out / "warmup.cfg"
    warm_cfg.write_text(Path(args.cfg).read_text() + "\nmax_iter = 2\n")
    run_batch(cli, warm_cfg, args.seed, 1, out / "warmup")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rng = random.Random(args.seed)
    seeds = [rng.randrange(2**31) for _ in range(args.batches)]
    budget = args.seconds / 2 if args.trace else args.seconds
    report = {}
    report["rounds"], report["probes"] = run_rounds(cli, args, seeds, out, "", budget=budget)
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["process"] = process_facts()

    if args.trace:
        tracer = Tracer()
        tracer.install(covlearn)
        try:
            report["traced_rounds"], report["traced_probes"] = run_rounds(
                cli, args, seeds, out, "-traced", count=len(report["rounds"]))
        finally:
            tracer.restore()
        report["layers"] = tracer.layer_metrics(len(report["traced_rounds"]))
        tracer.save(out / "spans.npz")

    report["reference"] = run_batch(cli, args.cfg, args.ref_seed, args.ref_trials,
                                    out / "reference")
    report["reference_parallel"] = run_batch(cli, args.cfg, args.ref_seed, args.ref_trials,
                                             out / "reference-parallel", PARALLEL_WORKERS)
    (out / "worker.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
