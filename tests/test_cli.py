import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from util import json_outputs

import covlearn
from covlearn import MethodSpec, ScenarioConfig, SolverConfig, cli, methods
from covlearn.cli import SpecError, main, parse_spec, run_experiment

ROOT = Path(__file__).parent.parent
SHIPPED_CONFIGS = sorted((ROOT / "scripts").glob("*.cfg"))
WORKLOAD_CONFIGS = sorted((ROOT / "perfbench" / "workloads").glob("*.cfg"))
# the line perfbench's warm-up batch appends to each workload config
WARM_UP_SUFFIX = "\nmax_iter = 2\n"
# every config a shipped script or the benchmark runs, as (path, appended text)
CONFIG_TRAFFIC = (
    [pytest.param(p, "", id=p.name) for p in SHIPPED_CONFIGS]
    + [pytest.param(p, "", id=f"perfbench-{p.name}") for p in WORKLOAD_CONFIGS]
    + [pytest.param(p, WARM_UP_SUFFIX, id=f"perfbench-{p.name}-warm-up") for p in WORKLOAD_CONFIGS]
)

MINI = """\
# smallest useful experiment
kind = gaussian-ssr
n = 10
m = 30
l = 12
k = 2
snr_db = 4, 8
methods = cl-omp, somp
seed = 21
trials = 6
"""

DOA = """\
kind = ula-doa
n = 12
m = 361
l = 20
k = 1
snr_db = 0
true_doas_deg = -24.8
trials = 2
"""


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseSpec:
    def test_minimal_spec_defaults(self, tmp_path):
        spec = parse_spec(write(tmp_path, MINI))
        assert spec.scenario.kind == "gaussian-ssr"
        assert spec.scenario.trials == 6
        assert spec.emit == ("csv", "json")
        assert spec.methods == (MethodSpec("cl-omp"), MethodSpec("somp"))
        assert spec.scenario.max_iter == 500

    def test_unset_knobs_take_solver_config_defaults(self, tmp_path):
        cfg = MINI.replace("cl-omp, somp", "cl-bcd, msbl")
        assert parse_spec(write(tmp_path, cfg)).scenario.max_iter == SolverConfig().max_iter

    def test_sparsity_constraint_named(self, tmp_path):
        bad = MINI.replace("k = 2", "k = 10")
        with pytest.raises(SpecError, match="k=10"):
            parse_spec(write(tmp_path, bad))

    def test_unknown_method_lists_supported(self, tmp_path):
        bad = MINI.replace("methods = cl-omp, somp", "methods = cl-omp, nonsense")
        with pytest.raises(SpecError, match="supported:.*cl-bcd"):
            parse_spec(write(tmp_path, bad))

    def test_unknown_key_is_line_anchored(self, tmp_path):
        bad = MINI + "mystery_knob = 3\n"
        with pytest.raises(SpecError, match=r":11: key 'mystery_knob'"):
            parse_spec(write(tmp_path, bad))

    def test_duplicate_key_rejected(self, tmp_path):
        bad = MINI + "n = 11\n"
        with pytest.raises(SpecError, match="already set"):
            parse_spec(write(tmp_path, bad))

    def test_bad_value_names_key(self, tmp_path):
        bad = MINI.replace("n = 10", "n = ten")
        with pytest.raises(SpecError, match="key 'n'"):
            parse_spec(write(tmp_path, bad))

    def test_trials_zero_rejected(self, tmp_path):
        bad = MINI.replace("trials = 6", "trials = 0")
        with pytest.raises(SpecError, match="trials"):
            parse_spec(write(tmp_path, bad))

    def test_top_level_max_iter_applies_to_every_method(self, tmp_path):
        # one cap for the run; the methods are tags only
        cfg = MINI.replace("cl-omp, somp", "cl-bcd, somp") + "max_iter = 7\n"
        spec = parse_spec(write(tmp_path, cfg))
        assert spec.scenario.max_iter == 7
        assert spec.methods == (MethodSpec("cl-bcd"), MethodSpec("somp"))

    # per-method overrides (method.<tag>.<field>) are not part of the grammar
    @pytest.mark.parametrize(
        "tag,field",
        [("music", "max_iter"), ("cl-omp", "tol"), ("somp", "known_sigma2"), ("iaa", "known_sigma2")],
    )
    def test_override_the_method_never_reads_rejected(self, tmp_path, tag, field):
        cfg = MINI.replace("cl-omp, somp", tag) + f"method.{tag}.{field} = 3\n"
        with pytest.raises(SpecError, match=rf":11: key 'method.{tag}.{field}': unknown key"):
            parse_spec(write(tmp_path, cfg))

    @pytest.mark.parametrize("field", ["b", "prune_threshold"])
    def test_deleted_override_fields_rejected(self, tmp_path, field):
        cfg = MINI.replace("cl-omp, somp", "sbl, cl-bcd") + f"method.sbl.{field} = 0.5\n"
        with pytest.raises(SpecError, match=rf":11: key 'method.sbl.{field}': unknown key"):
            parse_spec(write(tmp_path, cfg))

    @pytest.mark.parametrize(
        "line",
        [
            "tol = 0",
            "known_sigma2 = 0",
            "peak = true",
            "method.msbl.known_sigma2 = -1",
            "method.cl-bcd.tol = -1e-3",
        ],
    )
    def test_removed_keys_are_unknown(self, tmp_path, capsys, line):
        # tol is SolverConfig's, msbl/cwo get the scenario's noise_var and
        # the support rule follows kind; none of them is a config key
        key = line.split(" =")[0]
        cfg = write(tmp_path, MINI.replace("cl-omp, somp", "cl-bcd, msbl") + line + "\n")
        with pytest.raises(SpecError, match=rf":11: key '{key}': unknown key"):
            parse_spec(cfg)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f":11: key '{key}': unknown key" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "line,key,message",
        [("max_iter = 0", "max_iter", "max_iter must be at least 1")],
    )
    def test_value_every_trial_rejects_is_a_spec_error(self, tmp_path, line, key, message):
        cfg = MINI.replace("cl-omp, somp", "cl-bcd, msbl") + line + "\n"
        with pytest.raises(SpecError, match=rf":11: key '{key}': {message}"):
            parse_spec(write(tmp_path, cfg))

    def test_mle1_outside_its_scenario_rejected(self, tmp_path):
        ssr = MINI.replace("k = 2", "k = 1").replace("cl-omp, somp", "cl-omp, mle1")
        with pytest.raises(SpecError, match=r":8: key 'methods': mle1 needs kind = ula-doa"):
            parse_spec(write(tmp_path, ssr))
        doa = DOA.replace("k = 1", "k = 2").replace("-24.8", "-24.8, 10.2") + "methods = mle1\n"
        with pytest.raises(SpecError, match="k = 2"):
            parse_spec(write(tmp_path, doa, "doa.cfg"))
        assert parse_spec(write(tmp_path, DOA + "methods = mle1\n", "ok.cfg")).methods

    def test_override_for_absent_method_rejected(self, tmp_path):
        cfg = MINI + "method.iaa.tol = 1e-3\n"
        with pytest.raises(SpecError, match=r":11: key 'method.iaa.tol': unknown key"):
            parse_spec(write(tmp_path, cfg))

    def test_repeated_method_tag_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, MINI.replace("cl-omp, somp", "iaa, somp, iaa"))
        with pytest.raises(SpecError, match=r":8: key 'methods': method tags repeated: iaa"):
            parse_spec(cfg)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "repeated: iaa" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_output_dir_key(self, tmp_path):
        spec = parse_spec(write(tmp_path, MINI + "output_dir = out/bench\n"))
        assert spec.output_dir == "out/bench"
        assert parse_spec(write(tmp_path, MINI, "d.cfg")).output_dir == "results"

    def test_doa_spec_round_trip(self, tmp_path):
        spec = parse_spec(write(tmp_path, DOA + "methods = cl-omp\n"))
        assert spec.scenario.peak is True
        assert spec.scenario.true_doas_deg == (-24.8,)

    @pytest.mark.parametrize("cfg,suffix", CONFIG_TRAFFIC)
    def test_shipped_configs_validate(self, tmp_path, cfg, suffix):
        # the warm-up variant as perfbench/worker.py writes it
        path = write(tmp_path, cfg.read_text() + suffix, cfg.name) if suffix else cfg
        spec = parse_spec(path)
        assert spec.methods
        assert spec.scenario.trials >= 100  # full-scale experiments; perfbench sets its own
        if suffix:
            assert spec.scenario.max_iter == 2


class TestRunExperiment:
    def test_outputs_and_reproducibility(self, tmp_path):
        spec = parse_spec(write(tmp_path, MINI))
        for sub in ("a", "b"):
            assert run_experiment(spec, tmp_path / sub, threads=1 if sub == "a" else 3) == 0
        csv_a = (tmp_path / "a" / "results.csv").read_bytes()
        csv_b = (tmp_path / "b" / "results.csv").read_bytes()
        assert csv_a == csv_b
        lines = csv_a.decode().strip().splitlines()
        assert lines[0].startswith("method,snr_db,trials,per")
        assert len(lines) == 1 + 2 * 2  # header + methods x snrs
        meta = json.loads((tmp_path / "a" / "meta.json").read_text())
        assert meta["seed"] == 21
        assert meta["scenario"]["n_atoms"] == 30
        assert "wall_time_s" in meta
        results = json.loads((tmp_path / "a" / "results.json").read_text())
        assert len(results) == 4
        assert all(r["mean_runtime_s"] is None for r in results)

    def test_timings_flag_populates_runtime(self, tmp_path):
        spec = parse_spec(write(tmp_path, MINI))
        for threads in (1, 2):
            out = tmp_path / f"timed{threads}"
            run_experiment(spec, out, threads=threads, timings=True)
            rows = (out / "results.csv").read_text().strip().splitlines()[1:]
            assert all(float(row.rsplit(",", 1)[1]) >= 0.0 for row in rows)
            assert json.loads((out / "meta.json").read_text())["runtime_clock"] == "thread_time"

    def test_meta_lists_the_tags_and_echoes_the_cap_once(self, tmp_path):
        spec = parse_spec(ROOT / "scripts" / "doa_single_source.cfg")
        spec = replace(spec, scenario=replace(spec.scenario, trials=1, snr_db=(0.0,), max_iter=9))
        run_experiment(spec, tmp_path / "meta")
        meta = json.loads((tmp_path / "meta" / "meta.json").read_text())
        assert meta["methods"] == ["cl-omp", "cl-bcd", "iaa", "music", "mle1"]
        assert meta["scenario"]["max_iter"] == 9
        assert "max_iter" not in meta

    def test_csv_only_emit(self, tmp_path):
        spec = parse_spec(write(tmp_path, MINI + "emit = csv\n"))
        run_experiment(spec, tmp_path / "csvonly")
        assert (tmp_path / "csvonly" / "results.csv").exists()
        assert not (tmp_path / "csvonly" / "results.json").exists()
        assert (tmp_path / "csvonly" / "meta.json").exists()


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = write(tmp_path, MINI)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        cfg = write(tmp_path, MINI.replace("k = 2", "k = 10"))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_methods(self, capsys):
        assert main(["list-methods"]) == 0
        out = capsys.readouterr().out
        for tag in ("cl-bcd", "cl-omp", "somp", "music"):
            assert tag in out

    def test_run_with_overrides(self, tmp_path):
        cfg = write(tmp_path, MINI)
        out = tmp_path / "run_out"
        assert main(
            ["run", "--config", str(cfg), "--out", str(out), "--seed", "99", "--trials", "3"]
        ) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 99
        assert meta["scenario"]["trials"] == 3

    def test_run_mle1_on_ssr_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, MINI.replace("k = 2", "k = 1").replace("somp", "mle1"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "mle1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_run_max_iter_zero_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, MINI.replace("cl-omp, somp", "cl-bcd, msbl") + "max_iter = 0\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "key 'max_iter'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_repeated_runs_in_one_process_are_byte_identical(self, tmp_path):
        # the steering grid and the parser are shared between the calls
        cfg = write(tmp_path, DOA.replace("k = 1", "k = 2").replace("-24.8", "-24.8, 10.2")
                    + "methods = cl-omp, cl-bcd, iaa, music\n")
        outputs = []
        for run in range(2):
            for threads in ("1", "2"):
                out = tmp_path / f"r{run}-t{threads}"
                argv = ["run", "--config", str(cfg), "--out", str(out), "--threads", threads]
                assert main(argv) == 0
                outputs.append((out / "results.csv").read_bytes())
        assert len(set(outputs)) == 1

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_run_threads_below_one_rejected(self, tmp_path, capsys, threads):
        cfg = write(tmp_path, MINI)
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "x"), "--threads", threads]
        assert main(argv) == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_and_singular_source_covariance_exit_2(self, tmp_path, capsys):
        # each once passed validate and then crashed run after creating --out, or
        # (the non-finite levels) ran with every cell counted as failed
        # rho next to 1 passes |rho| < 1, yet leaves the source covariance without a Cholesky factor
        doa = DOA.replace("k = 1", "k = 2").replace("-24.8", "-24.8, 10.2") + "methods = cl-omp\n"
        bad = {
            "seed": ("seed", MINI.replace("seed = 21", "seed = -1")),
            "rho": ("rho", MINI.replace("k = 2", "k = 3") + "rho = -0.9\n"),
            "rho-near-one": ("rho", MINI.replace("k = 2", "k = 3") + "rho = 0.9999999999999999\n"),
            "noise-var-inf": ("noise_var", MINI + "noise_var = inf\n"),
            "offset-inf": ("source_offsets_db", MINI + "source_offsets_db = 0, inf\n"),
            "doa-noise-var-inf": ("noise_var", doa + "noise_var = inf\n"),
            "doa-offset-inf": ("source_offsets_db", doa + "source_offsets_db = 0, inf\n"),
            "doa-offset-minus-inf": ("source_offsets_db", doa + "source_offsets_db = 0, -inf\n"),
            # finite levels whose powers overflow to inf or underflow to 0
            "snr-high": ("snr_db", MINI.replace("snr_db = 4, 8", "snr_db = 4, 4000")),
            "snr-low": ("snr_db", MINI.replace("snr_db = 4, 8", "snr_db = -4000")),
            "doa-snr-high": ("snr_db", doa.replace("snr_db = 0", "snr_db = 4000")),
            "doa-snr-low": ("snr_db", doa.replace("snr_db = 0", "snr_db = 0, -4000")),
        }
        for name, (key, text) in bad.items():
            cfg = write(tmp_path, text, f"{name}.cfg")
            assert main(["validate", "--config", str(cfg)]) == 2
            assert f"{key}=" in capsys.readouterr().err
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 2
            assert f"{key}=" in capsys.readouterr().err
            assert not (tmp_path / name).exists()
        cfg = write(tmp_path, MINI)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x"), "--seed", "-1"]) == 2
        assert "seed=-1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_run_with_seed_and_trials_validates_the_scenario_twice(self, tmp_path, monkeypatch):
        # once in parse_spec, once for both overrides together
        check, checks = ScenarioConfig.__post_init__, []

        def counting(self):
            checks.append(self.seed)
            check(self)

        monkeypatch.setattr(ScenarioConfig, "__post_init__", counting)
        argv = ["run", "--config", str(write(tmp_path, MINI)), "--out", str(tmp_path / "o"),
                "--seed", "5", "--trials", "2"]
        assert main(argv) == 0
        assert checks == [21, 5]

    def test_run_trials_zero_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, MINI)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x"), "--trials", "0"]) == 2
        assert "trials" in capsys.readouterr().err


class TestOutputBytes:
    """results.json and meta.json keep the bytes of the deep-copying writer."""

    @pytest.mark.parametrize("timings", [False, True])
    def test_json_files_match_the_asdict_writer(self, tmp_path, monkeypatch, timings):
        runs = []

        def keeping(*args, **kwargs):
            runs.append(run_monte_carlo(*args, **kwargs))
            return runs[-1]

        music, calls = methods.baselines.music_doas, []

        def flaky_music(*args, **kwargs):  # every other solve fails, so failures are counted
            calls.append(None)
            if len(calls) % 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return music(*args, **kwargs)

        run_monte_carlo = cli.run_monte_carlo
        monkeypatch.setattr(cli, "run_monte_carlo", keeping)
        monkeypatch.setattr(methods.baselines, "music_doas", flaky_music)
        text = DOA.replace("k = 1", "k = 2").replace("-24.8", "-24.8, 10.2").replace(
            "snr_db = 0", "snr_db = 0, 6.5").replace("trials = 2", "trials = 3")
        cfg = write(tmp_path, text + "methods = cl-omp, cl-bcd, music\n")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg), "--out", str(out), "--threads", "1"]
        assert main(argv + ["--timings"] * timings) == 0
        (records,) = runs
        assert any(r.failures for r in records) and any(r.trials for r in records)
        # the wall time is the one value the oracle cannot know: read it back
        wall = json.loads((out / "meta.json").read_text())["wall_time_s"]
        results, meta = json_outputs(parse_spec(cfg), records, 1, timings, wall,
                                     covlearn.__version__)
        assert (out / "results.json").read_bytes() == results.encode()
        assert (out / "meta.json").read_bytes() == meta.encode()
        assert json.loads(meta)["failures"]


def test_importing_the_cli_loads_no_metadata_or_pool_module(tmp_path):
    # importlib.metadata (with email and socket) and concurrent.futures (with
    # logging) cost more to import than a small run takes; meta.json's version
    # is covlearn.__version__, and only --threads > 1 imports the pool
    cfg = write(tmp_path, MINI)
    probe = (
        "import sys, covlearn.cli; "
        f"assert covlearn.cli.main(['run', '--config', {str(cfg)!r}, '--out', "
        f"{str(tmp_path / 'o')!r}, '--threads', '1']) == 0; "
        "print(sorted(m for m in ('importlib.metadata', 'concurrent.futures') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


def test_build_version_is_the_distribution_version(tmp_path):
    from importlib.metadata import PackageNotFoundError, version

    out = tmp_path / "o"
    assert main(["run", "--config", str(write(tmp_path, MINI)), "--out", str(out),
                 "--trials", "1"]) == 0
    written = json.loads((out / "meta.json").read_text())["build_version"]
    try:  # an installed distribution is built with the package's string
        installed = version("covlearn")
    except PackageNotFoundError:  # a source checkout
        installed = covlearn.__version__
    assert written == covlearn.__version__ == installed
