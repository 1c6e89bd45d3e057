"""The names perfbench's tracer reads stay live in the library.

``perfbench/tracing.py`` wraps the public functions of the covlearn layer
modules by name and reads iteration counts from the runners it lists. A
renamed or deleted runner would leave its benchmark metrics silently at
zero, so one traced CLI run must record every one of them.
"""

import importlib.util
from pathlib import Path

import covlearn
import covlearn.cli

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"

CONFIG = """\
kind = ula-doa
n = 8
m = 181
l = 16
k = 2
snr_db = 10
true_doas_deg = -20, 30
methods = cl-omp, cl-bcd, iaa, somp, music
trials = 1
"""


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runners_and_solve_spans_are_recorded(tmp_path):
    tracing = _load_tracing()
    cfg = tmp_path / "doa.cfg"
    cfg.write_text(CONFIG)
    tracer = tracing.Tracer()
    tracer.install(covlearn)
    try:
        status = covlearn.cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert status == 0
    for name, counts in tracer.counts.items():
        assert counts, f"{name} recorded no (iterations, converged) pair"
        assert all(iterations >= 1 for iterations, _ in counts)
    labels = {span[1] for span in tracer.spans}
    for tag in tracing.SOLVE_TAGS:
        assert f"methods.solve_trial.{tag}" in labels
    assert not hasattr(covlearn.clbcd.run_clbcd, "__wrapped__")  # restored


def test_every_timed_name_records_a_span(tmp_path):
    # a timed function moved to another module would read 0 calls, not fail
    tracing = _load_tracing()
    cfg = tmp_path / "doa.cfg"
    cfg.write_text(CONFIG)
    tracer = tracing.Tracer()
    tracer.install(covlearn)
    try:
        status = covlearn.cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert status == 0
    labels = {span[1] for span in tracer.spans}
    assert [name for name in tracing.TIMED if name not in labels] == []
