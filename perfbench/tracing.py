"""Outside-in span tracing of the covlearn modules, and the per-layer metrics.

The program is not edited: :meth:`Tracer.install` replaces every public
function of the layer modules with a timing wrapper, in every module
namespace that bound it (``build_covariance`` is imported by name into
``clbcd``, ``clomp`` and ``baselines``, so all four bindings are patched),
and :meth:`Tracer.restore` puts the originals back.

Spans stay in memory as (id, name, start, end, parent, thread, self) tuples.
A span stack per thread attributes each span's duration to its parent, so a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time

import numpy as np

LAYERS = ("cli", "scenario", "methods", "clbcd", "clomp", "baselines", "model", "sparsity")

# Functions whose per-call cost is reported (calls, p50, p90, self share).
TIMED = (
    "model.build_covariance",
    "model.atom_quadratic_forms",
    "model.noise_mle",
    "model.provisional_mle",
    "model.pseudo_inverse_apply",
    "model.sample_covariance",
    "sparsity.hard_threshold",
)

# Method tags of the benchmark workloads; each gets methods.solve_trial.<tag>.
SOLVE_TAGS = ("cl-omp", "cl-bcd", "somp", "iaa", "music")


def _solver_counts(result):
    return result.iterations, result.converged


# Solver runners and how to read (iterations, converged) from what they return.
# somp and music_doas return a SupportSet: somp takes one greedy step per atom
# and MUSIC one eigendecomposition, as the methods layer counts them.
RUNNERS = {
    "clbcd.run_clbcd": _solver_counts,
    "clomp.run_clomp": _solver_counts,
    "baselines.run_iaa": _solver_counts,
    "baselines.somp": lambda support: (len(support), True),
    "baselines.music_doas": lambda support: (1, True),
}


class Tracer:
    """Records spans around the public functions of the covlearn layer modules."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1, thread, self seconds)
        self.counts = {name: [] for name in RUNNERS}  # name -> [(iterations, converged)]
        # next() on itertools.count and list.append are single bytecode-level
        # C calls, so pool threads can share them without a lock.
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []  # (module, attribute, original)

    def install(self, package) -> None:
        modules = [getattr(package, name) for name in LAYERS]
        originals = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}", obj)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local
        counts, read = self.counts.get(name), RUNNERS.get(name)
        label_by_tag = name == "methods.solve_trial"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]  # span id, time covered by child spans
            label = f"{name}.{args[0].tag}" if label_by_tag else name
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append((frame[0], label, start, end, parent[0] if parent else -1,
                              threading.get_ident(), end - start - frame[1]))
            if counts is not None:
                counts.append(read(result))
            return result

        return traced

    def save(self, path) -> None:
        """Write the spans as parallel arrays (names indexed into ``names``)."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = sorted({s[5] for s in self.spans})
        tindex = {t: i for i, t in enumerate(threads)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        np.savez(
            path,
            names=np.array(names),
            span_id=np.array(cols[0], dtype=np.int64),
            name=np.array([index[n] for n in cols[1]], dtype=np.int32),
            start=np.array(cols[2], dtype=np.float64),
            end=np.array(cols[3], dtype=np.float64),
            parent=np.array(cols[4], dtype=np.int64),
            thread=np.array([tindex[t] for t in cols[5]], dtype=np.int32),
            self_s=np.array(cols[6], dtype=np.float64),
        )

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics from the recorded spans, named as in BENCHMARK.json.

        ``calls`` counts the calls of one pass over the run's inputs, which
        were traced ``passes`` times. ``self_share`` is a function's self
        time over the traced thread time, the summed duration of every
        thread's outermost spans.
        """
        by_name = {}
        for _, label, start, end, parent, _, self_s in self.spans:
            by_name.setdefault(label, []).append((end - start, self_s, parent))
        busy = sum(d for rows in by_name.values() for d, _, p in rows if p == -1)
        out = {}
        for fn in (*TIMED, "cli.run_experiment"):
            rows = by_name.get(fn, [])
            out[f"{fn}.self_share"] = sum(s for _, s, _ in rows) / busy if busy else 0.0
            if fn in TIMED:
                durs = np.array([d for d, _, _ in rows]) * 1e6
                out[f"{fn}.calls"] = len(rows) / passes
                out[f"{fn}.us_p50"] = _pct(durs, 50)
                out[f"{fn}.us_p90"] = _pct(durs, 90)
        for tag in SOLVE_TAGS:
            durs = np.array([d for d, _, _ in by_name.get(f"methods.solve_trial.{tag}", [])]) * 1e3
            out[f"methods.solve_trial.{tag}.ms_p50"] = _pct(durs, 50)
            out[f"methods.solve_trial.{tag}.ms_p90"] = _pct(durs, 90)
        for fn, rows in self.counts.items():
            iters = np.array([it for it, _ in rows], dtype=np.float64)
            out[f"{fn}.iters_p50"] = _pct(iters, 50)
            out[f"{fn}.iters_p90"] = _pct(iters, 90)
            out[f"{fn}.converged_frac"] = sum(c for _, c in rows) / len(rows) if rows else 0.0

        # The engine runs trials on one thread here, so solve_trial spans nest
        # inside run_monte_carlo spans and their durations add up.
        engine_wall = sum(d for d, _, _ in by_name.get("scenario.run_monte_carlo", []))
        solve_busy = sum(d for tag in SOLVE_TAGS
                         for d, _, _ in by_name.get(f"methods.solve_trial.{tag}", []))
        out["scenario.engine_self_share"] = 1.0 - solve_busy / engine_wall if engine_wall else 0.0
        return out


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0
