"""Spans and counters recorded from outside the wecfarm package.

`Tracer` swaps module and class attributes for timing wrappers under
the names their callers resolve (``kernels.j0`` for every caller that
writes ``kernels.j0(...)``, ``optimize.solve_motion`` for the function
``optimize`` imports from ``dynamics``), records one span per call
(id, name, start, end, parent id, run id) plus per-name work counts,
and restores the originals on `uninstall`. Spans stay in memory until
the caller writes them out. `ItemTimer` is the untraced counterpart:
one timer around a single function, nothing else, and `Calibrator`
measures how fast the machine runs while it does.
"""

import bisect
import signal
import time
from collections import defaultdict

import numpy as np

from wecfarm import climate, cli, hydro, kernels, mbe, nn, optimize, surrogate, svg

PROBE_NUMPY_LOOPS = 25
PROBE_PYTHON_LOOPS = 3000
PROBE_REFERENCE_S = 0.4e-3  # the probe's typical time on a 2.1 GHz Xeon VM core
PROBE_EVERY_S = 0.02


def _rows(arg_index):
    def work(args, kwargs, result):
        return {"rows": np.shape(args[arg_index])[0]}

    return work


def _one_row(args, kwargs, result):
    return {"rows": 1}


def _elems(args, kwargs, result):
    return {"elems": np.size(args[0])}


def _mlp_train_work(args, kwargs, result):
    # computed, not measured: 2 flops per multiply-add, forward plus a
    # backward pass twice its size per step, one full-set forward at the end
    x, _, weights, batches = args[:4]
    params = sum(w.size for w in weights[::2])
    steps, width = np.shape(batches)
    flops = (6.0 * steps * width + 2.0 * np.shape(x)[0]) * params
    return {"steps": steps, "gflop": flops / 1e9}


def _compose_work(args, kwargs, result):
    n = args[2].n
    return {"pairs": n * (n - 1) // 2}


def _singles_hit(args, kwargs):
    provider, geom = args[0], args[1]
    key = (geom.radius, geom.slenderness)
    return {"cache_hits": int(key in getattr(provider, "_singles", {}))}


# (owner, attribute, span name, work counter, pre-call counter)
TARGETS = [
    (kernels, "j0", "kernels.j0", _elems, None),
    (kernels, "y0", "kernels.y0", _elems, None),
    (kernels, "j1", "kernels.j1", _elems, None),
    (kernels, "solve_batch", "kernels.solve_batch", None, None),
    (kernels, "mlp_forward", "kernels.mlp_forward", _rows(0), None),
    (kernels, "mlp_train", "kernels.mlp_train", _mlp_train_work, None),
    (hydro, "solve_dispersion", "hydro.solve_dispersion", None, None),
    (surrogate, "solve_dispersion", "hydro.solve_dispersion", None, None),
    (hydro, "single_coefficients", "hydro.single_coefficients", None, None),
    (surrogate, "single_coefficients", "hydro.single_coefficients", None, None),
    (hydro, "pair_coefficients", "hydro.pair_coefficients", None, None),
    (hydro.ReferenceProvider, "single", "hydro.provider_single", None, None),
    (hydro.ReferenceProvider, "pair", "hydro.provider_pair", None, None),
    (mbe, "compose_farm", "mbe.compose_farm", _compose_work, None),
    (optimize, "solve_motion", "dynamics.solve_motion", None, None),
    (climate.SiteClimate, "spectral_matrix", "climate.spectral_matrix", None, None),
    (nn, "epoch_schedule", "nn.epoch_schedule", None, None),
    (nn.Regressor, "train", "nn.train", None, None),
    (nn.Regressor, "predict", "nn.predict", None, None),
    (surrogate.SurrogateProvider, "single", "surrogate.provider_single", _one_row,
     _singles_hit),
    (surrogate.SurrogateProvider, "pair", "surrogate.provider_pair", _one_row, None),
    (surrogate.Committee, "apply", "surrogate.committee_apply", _rows(1), None),
    (surrogate.Committee, "features", "surrogate.features", _rows(1), None),
    (surrogate, "label_inputs", "surrogate.label_inputs", _rows(1), None),
    (surrogate, "build_datasets", "surrogate.build_datasets",
     lambda a, k, r: {"rows": a[1]}, None),
    (surrogate, "train_committee", "surrogate.train_committee", None, None),
    (surrogate, "qbc_round", "surrogate.qbc_round", None, None),
    (surrogate, "validate_on_grid", "surrogate.validate_on_grid",
     lambda a, k, r: {"rows": r.points.shape[0]}, None),
    (optimize, "evaluate_design", "optimize.evaluate_design",
     lambda a, k, r: {"feasible": int(r.feasible)}, None),
    (optimize, "sensitivity_map", "optimize.sensitivity_map", None, None),
    (cli, "cmd_optimize", "cli.cmd_optimize", None, None),
    (svg, "write_layout", "svg.write_layout", None, None),
    (svg, "write_convergence", "svg.write_convergence", None, None),
    (svg, "write_heatmap", "svg.write_heatmap", None, None),
    (svg, "write_histogram", "svg.write_histogram", None, None),
]


def _original(owner, attr):
    # a class attribute is taken raw so that restoring it is exact
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Span recorder; `install` patches every target, `uninstall` undoes it."""

    def __init__(self, run_id=None):
        self.spans = []  # (id, name, start, end, parent id, run id), in end order
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)  # "span name.counter" -> total
        self.generation_s = []
        self.run_id = run_id
        self._stack = []  # open spans as [id, summed child duration]
        self._next_id = 0
        self._patched = []

    def install(self):
        for owner, attr, name, work, before in TARGETS:
            self._wrap(owner, attr, name, work, before)
        self._wrap_run_ga()

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _wrap(self, owner, attr, name, work, before):
        original = _original(owner, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                self._count(name, before(args, kwargs))
            result = self.call(name, original, args, kwargs)
            if work is not None:
                self._count(name, work(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _wrap_run_ga(self):
        # run_ga reports the end of each generation through `progress`;
        # the first generation starts when the initial population's last
        # evaluation ends
        original = _original(optimize, "run_ga")

        def run_ga(spec, grid, env, provider, eff=None, progress=None):
            stamps = []

            def stamped(row):
                stamps.append(time.perf_counter())
                if progress is not None:
                    progress(row)

            first = len(self.spans)
            result = self.call(
                "optimize.run_ga", original, (spec, grid, env, provider),
                {"eff": eff, "progress": stamped},
            )
            ends = sorted(
                s[3] for s in self.spans[first:] if s[1] == "optimize.evaluate_design"
            )
            if stamps and len(ends) >= spec.ga.population:
                marks = [ends[spec.ga.population - 1]] + stamps
                self.generation_s.extend(np.diff(marks).tolist())
            return result

        setattr(optimize, "run_ga", run_ga)
        self._patched.append((optimize, "run_ga", original))

    def _count(self, name, counts):
        for key, value in counts.items():
            self.work[f"{name}.{key}"] += value

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            self.spans.append((span_id, name, start, end, parent, self.run_id))

    def to_json(self):
        return {
            "fields": ["id", "name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "work": dict(self.work),
            "generation_s": self.generation_s,
        }


class Calibrator:
    """Machine speed, sampled by a fixed probe loop every PROBE_EVERY_S.

    A shared virtual machine can run the same code up to twice as fast
    in one second as in the next. While `start`ed, a SIGALRM interval
    timer runs the probe loop (this file's own code, so no change to
    wecfarm moves it) between two bytecodes of whatever is running;
    `scaled` turns a wall time into the time it would take on a machine
    where the probe runs in exactly PROBE_REFERENCE_S. Callers subtract
    `spent` (time inside probes) from what they time.
    """

    def __init__(self):
        self.times = []  # probe midpoints
        self.durations = []
        self.spent = 0.0
        self.tracer = None  # probes inside a traced unit become spans
        self._x = np.linspace(0.5, 60.0, 200)

    def _loop(self):
        # half small-array numpy, half bare interpreter, as in wecfarm: a
        # neighbour's load slows the two by different factors
        x = self._x
        for _ in range(PROBE_NUMPY_LOOPS):
            x * x + np.sin(x) * np.exp(-x)
        total = 0
        for i in range(PROBE_PYTHON_LOOPS):
            total += i * i
        return total

    def probe(self, *_signal_args):
        start = time.perf_counter()
        if self.tracer is None:
            self._loop()
        else:
            self.tracer.call("perfbench.probe", self._loop, (), {})
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.durations.append(end - start)
        self.spent += end - start

    def start(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def scaled(self, start, end):
        """Wall time over [start, end] at the reference machine speed.

        Between two consecutive probes the machine runs at the mean of
        their durations; before the first probe or after the last one, at
        that probe's duration.
        """
        times, durations = self.times, self.durations
        edges = ([start] + times[bisect.bisect_right(times, start):bisect.bisect_left(times, end)]
                 + [end])
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            k = bisect.bisect_right(times, a)
            if k == 0 or k == len(times):
                local = durations[min(k, len(times) - 1)]
            else:
                local = 0.5 * (durations[k - 1] + durations[k])
            total += (b - a) * PROBE_REFERENCE_S / local
        return total

    def scaled_without_probes(self, start, end, probes):
        """`scaled` of an interval, less the `probes` seconds spent probing in it."""
        return self.scaled(start, end) * (end - start - probes) / (end - start)


class ItemTimer:
    """Start, end and probe time inside every call to one function."""

    def __init__(self, owner, attr, calibrator):
        self.owner = owner
        self.attr = attr
        self.calibrator = calibrator
        self.intervals = []
        self._original = None

    def install(self):
        original = self._original = _original(self.owner, self.attr)
        intervals = self.intervals
        calibrator = self.calibrator

        def timed(*args, **kwargs):
            probes = calibrator.spent
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                intervals.append((start, time.perf_counter(), calibrator.spent - probes))

        setattr(self.owner, self.attr, timed)

    def uninstall(self):
        setattr(self.owner, self.attr, self._original)


# metric layer -> span names it sums, and the counters it reports
LAYERS = {
    "kernels.bessel": (("kernels.j0", "kernels.y0", "kernels.j1"), ("calls", "elems", "self_s")),
    "kernels.solve_batch": (("kernels.solve_batch",), ("calls", "self_s")),
    "kernels.mlp_forward": (("kernels.mlp_forward",), ("calls", "rows", "self_s")),
    "kernels.mlp_train": (("kernels.mlp_train",), ("calls", "steps", "self_s", "gflop")),
    "hydro.single": (("hydro.single_coefficients",), ("calls", "self_s")),
    "hydro.pair": (("hydro.pair_coefficients",), ("calls", "self_s")),
    "hydro.dispersion": (("hydro.solve_dispersion",), ("calls", "self_s")),
    "mbe.compose": (("mbe.compose_farm",), ("calls", "self_s", "pairs")),
    "dynamics.solve": (("dynamics.solve_motion",), ("calls", "self_s")),
    "climate.spectral_matrix": (("climate.spectral_matrix",), ("calls", "self_s")),
    "nn.train": (("nn.train",), ("self_s",)),
    "nn.predict": (("nn.predict",), ("self_s",)),
    "nn.epoch_schedule": (("nn.epoch_schedule",), ("self_s",)),
    "surrogate.provider_single": (("surrogate.provider_single",), ("calls", "rows", "self_s")),
    "surrogate.provider_pair": (("surrogate.provider_pair",), ("calls", "rows", "self_s")),
    "surrogate.committee_apply": (("surrogate.committee_apply",), ("calls", "rows", "self_s")),
    "surrogate.features": (("surrogate.features",), ("calls", "rows", "self_s")),
    "surrogate.label": (
        ("surrogate.label_inputs", "surrogate.build_datasets"), ("calls", "rows", "self_s")
    ),
    "surrogate.validate": (("surrogate.validate_on_grid",), ("calls", "rows", "self_s")),
    "optimize.evaluate": (("optimize.evaluate_design",), ("calls", "self_s")),
    "optimize.run_ga": (("optimize.run_ga",), ("self_s",)),
    "cli.artifacts": (("cli.cmd_optimize",), ("self_s",)),
    "svg.write": (
        ("svg.write_layout", "svg.write_convergence", "svg.write_heatmap", "svg.write_histogram"),
        ("self_s",),
    ),
}

UNITS = {"calls": "count", "elems": "count", "rows": "count", "steps": "count",
         "pairs": "count", "self_s": "s", "gflop": "GFLOP"}


def _span_shares(spans):
    """Bessel self time and outermost surrogate-provider time inside design
    evaluations, and the evaluations' total, all in seconds and without
    the calibration probes inside them; and the pair queries of compose."""
    child_s = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        child_s[parent] += end - start
    names, in_eval, in_provider = {}, {}, {}
    bessel = provider = evaluate = 0.0
    for span_id, name, start, end, parent, _ in sorted(spans):
        names[span_id] = name
        above = names.get(parent, "")
        in_eval[span_id] = parent is not None and (
            above == "optimize.evaluate_design" or in_eval[parent])
        in_provider[span_id] = parent is not None and (
            above.startswith("surrogate.provider_") or in_provider[parent])
        duration = end - start
        if name == "optimize.evaluate_design" and not in_eval[span_id]:
            evaluate += duration
        elif not in_eval[span_id]:
            continue
        elif name == "perfbench.probe":
            evaluate -= duration
            provider -= duration if in_provider[span_id] else 0.0
        elif name in ("kernels.j0", "kernels.y0", "kernels.j1"):
            bessel += duration - child_s[span_id]
        elif name.startswith("surrogate.provider_") and not in_provider[span_id]:
            provider += duration
    pair_queries = sum(
        1
        for _, name, _, _, parent, _ in spans
        if name.endswith("provider_pair") and names.get(parent) == "mbe.compose_farm"
    )
    return bessel, provider, evaluate, pair_queries


def layer_metrics(tracer, extras):
    """Every per-layer metric as name -> (value, unit).

    `extras` carries what the trace cannot see: the tracing overhead,
    the bytes of CLI artifacts and the workload's result figures.
    """
    bessel, provider, evaluate, pair_queries = _span_shares(tracer.spans)
    out = {}
    for layer, (span_names, counters) in LAYERS.items():
        for counter in counters:
            if counter == "calls":
                value = sum(tracer.calls[n] for n in span_names)
            elif counter == "self_s":
                value = sum(tracer.self_s[n] for n in span_names)
            else:
                value = sum(tracer.work[f"{n}.{counter}"] for n in span_names)
            out[f"{layer}.{counter}"] = (value, UNITS[counter])
        if layer == "mbe.compose":
            out["mbe.compose.pair_queries"] = (pair_queries, "count")
    singles = tracer.calls["surrogate.provider_single"]
    hits = tracer.work["surrogate.provider_single.cache_hits"]
    out["surrogate.singles_cache.hit_ratio"] = (hits / singles if singles else 0.0, "ratio")
    gens = tracer.generation_s
    out["optimize.generation_s_p50"] = (float(np.median(gens)) if gens else 0.0, "s")
    evals = tracer.calls["optimize.evaluate_design"]
    feasible = tracer.work["optimize.evaluate_design.feasible"]
    out["optimize.feasible_ratio"] = (feasible / evals if evals else 0.0, "ratio")
    out["cli.artifacts.bytes"] = (extras.get("artifact_bytes", 0), "bytes")
    out["kernels.bessel.share_of_evaluate"] = (bessel / evaluate if evaluate else 0.0, "ratio")
    out["surrogate.provider.share_of_evaluate"] = (
        provider / evaluate if evaluate else 0.0, "ratio"
    )
    out["optimize.best_pv"] = (extras.get("best_pv", 0.0), "W/m3")
    out["surrogate.best_pv_rel_err"] = (extras.get("best_pv_rel_err", 0.0), "ratio")
    out["surrogate.val_mse"] = (extras.get("val_mse", 0.0), "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.overhead_ratio"] = (extras["overhead_ratio"], "ratio")
    return out
