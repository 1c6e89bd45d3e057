"""Batch experiment runner.

Reads a line-oriented ``key = value`` config (documented in the README),
runs the Monte-Carlo campaign, and writes ``results.csv``, ``results.json``
and ``meta.json`` into the output directory. Output rows are deterministic
for a fixed config and seed at any thread count; the timing column (CPU
time of the solving thread, ``time.thread_time``) is only populated when
``--timings`` is passed, so the default CSV is byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import __version__
from .clbcd import SolverConfig
from .methods import METHOD_DESCRIPTIONS, METHOD_TAGS, check_methods, resolve_methods
from .scenario import MetricsRecord, ScenarioConfig, run_monte_carlo

CSV_COLUMNS = (
    "method",
    "snr_db",
    "trials",
    "per",
    "rmse_theta_deg",
    "nmse_gamma",
    "mean_iters",
    "mean_runtime_s",
)

_RECORD_FIELDS = tuple(f.name for f in fields(MetricsRecord))
_SCENARIO_FIELDS = tuple(f.name for f in fields(ScenarioConfig))

_SCALAR_KEYS = {
    "kind": str,
    "n": int,
    "m": int,
    "l": int,
    "k": int,
    "rho": float,
    "noise_var": float,
    "seed": int,
    "trials": int,
    "max_iter": int,
    "output_dir": str,
}
_LIST_KEYS = {
    "snr_db": float,
    "source_offsets_db": float,
    "true_doas_deg": float,
    "methods": str,
}
_REQUIRED_KEYS = ("kind", "n", "m", "l", "k", "snr_db", "methods")
# the config keys whose ScenarioConfig field has another name
_FIELD_OF_KEY = {"n": "n_sensors", "m": "n_atoms", "l": "n_snapshots"}


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment: scenario, method list and output directory."""

    scenario: ScenarioConfig
    methods: tuple
    output_dir: str = "results"


class SpecError(ValueError):
    """Config file failed to parse or validate."""


def _parse_value(kind, raw, where):
    try:
        return kind(raw)
    except ValueError:
        raise SpecError(f"{where}: expected {kind.__name__}, got {raw!r}") from None


def parse_spec(path) -> ExperimentSpec:
    """Parse and validate a config file into an ExperimentSpec.

    Every diagnostic names the offending key and its line number. A key the
    config does not set takes the default of its ScenarioConfig or
    ExperimentSpec field.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise SpecError(f"cannot read config {path}: {exc}") from exc

    entries: dict[str, tuple[str, int]] = {}
    for ln, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not sep or not key:
            raise SpecError(f"{path}:{ln}: expected 'key = value', got {line.strip()!r}")
        if not value:
            raise SpecError(f"{path}:{ln}: key {key!r} has no value")
        if key in entries:
            raise SpecError(f"{path}:{ln}: key {key!r} already set on line {entries[key][1]}")
        entries[key] = (value, ln)

    values: dict = {}
    for key, (value, ln) in entries.items():
        where = f"{path}:{ln}: key {key!r}"
        if key in _SCALAR_KEYS:
            values[key] = _parse_value(_SCALAR_KEYS[key], value, where)
        elif key in _LIST_KEYS:
            items = [v.strip() for v in value.split(",") if v.strip()]
            if not items:
                raise SpecError(f"{where}: empty list")
            values[key] = tuple(_parse_value(_LIST_KEYS[key], v, where) for v in items)
        else:
            raise SpecError(f"{where}: unknown key")
        if key == "max_iter":
            # a cap every trial would reject is a config error
            try:
                SolverConfig(max_iter=values[key])
            except ValueError as exc:
                raise SpecError(f"{where}: {exc}") from None

    for key in _REQUIRED_KEYS:
        if key not in values:
            raise SpecError(f"{path}: missing required key {key!r}")

    tags = values.pop("methods")
    output_dir = values.pop("output_dir", ExperimentSpec.output_dir)

    try:
        scenario = ScenarioConfig(**{_FIELD_OF_KEY.get(k, k): v for k, v in values.items()})
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from exc

    try:
        methods = resolve_methods(tags)
        check_methods(methods, scenario.kind, scenario.k)
    except ValueError as exc:
        raise SpecError(f"{path}:{entries['methods'][1]}: key 'methods': {exc}") from exc

    return ExperimentSpec(scenario, methods, output_dir)


def _fmt(value) -> str:
    return "" if value is None else format(value, ".12g")


def _record_row(rec) -> list:
    return [
        rec.method,
        _fmt(rec.snr_db),
        str(rec.trials),
        _fmt(rec.per),
        _fmt(rec.rmse_theta_deg),
        _fmt(rec.nmse_gamma),
        _fmt(rec.mean_iters),
        _fmt(rec.mean_runtime_s),
    ]


def _write_json(path: Path, obj) -> None:
    """obj as indented JSON plus a newline, in one write."""
    path.write_text(json.dumps(obj, indent=2) + "\n")


def run_experiment(
    spec: ExperimentSpec,
    out_dir,
    threads: int = 1,
    timings: bool = False,
) -> int:
    """Execute the campaign and write results.csv / results.json / meta.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    records = run_monte_carlo(spec.scenario, spec.methods, threads=threads)
    wall = time.perf_counter() - started
    if not timings:  # both writers leave the runtime out, so their bytes reproduce
        records = [replace(rec, mean_runtime_s=None) for rec in records]

    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(_record_row, records))

    # every field is a scalar, so a shallow dict serializes as asdict's copy does
    rows = [{name: getattr(rec, name) for name in _RECORD_FIELDS} for rec in records]
    _write_json(out / "results.json", rows)

    meta = {
        "scenario": {name: getattr(spec.scenario, name) for name in _SCENARIO_FIELDS},
        "methods": [m.tag for m in spec.methods],
        "seed": spec.scenario.seed,
        "build_version": __version__,
        "wall_time_s": wall,
        "threads": threads,
        "timings": timings,
        "runtime_clock": "thread_time",
        "failures": {
            f"{rec.method}@{rec.snr_db}": rec.failures for rec in records if rec.failures
        },
    }
    _write_json(out / "meta.json", meta)
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    :func:`main` call; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="covlearn", description="covariance-learning sparse recovery benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a Monte-Carlo experiment from a config file")
    run_p.add_argument("--config", required=True, help="path to the experiment config")
    run_p.add_argument("--out", default=None, help="output directory (default: the config's output_dir)")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--trials", type=int, default=None, help="override the trial count")
    run_p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="trial-level parallelism (default: 1); results are invariant to it",
    )
    run_p.add_argument(
        "--timings",
        action="store_true",
        help="populate the per-solve CPU time column (forfeits byte-reproducible CSV output)",
    )

    sub.add_parser("list-methods", help="list supported method tags")

    val_p = sub.add_parser("validate", help="parse and validate a config file")
    val_p.add_argument("--config", required=True, help="path to the experiment config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-methods":
        for tag in METHOD_TAGS:
            print(f"{tag:8s} {METHOD_DESCRIPTIONS[tag]}")
        return 0

    try:
        spec = parse_spec(args.config)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"{args.config}: ok")
        return 0

    overrides = {"seed": args.seed, "trials": args.trials}
    try:
        scenario = replace(spec.scenario, **{k: v for k, v in overrides.items() if v is not None})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = replace(spec, scenario=scenario)
    if args.threads < 1:
        print(f"error: --threads must be at least 1, got {args.threads}", file=sys.stderr)
        return 2

    out_dir = args.out if args.out is not None else spec.output_dir
    try:
        return run_experiment(spec, out_dir, threads=args.threads, timings=args.timings)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
