"""Pipeline benchmark for wecfarm: one workload in one fresh process.

    python3 perfbench/run.py --workload study2-ref --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
./src, so nothing is installed or built. The workloads are study2-ref,
study2-sur, layout-scan and surrogate-train (workloads.py says what
each one runs and why).

--trace 0 runs units of work back to back, with a single timer around
the workload's per-item function, and prints the end-to-end metrics.
--trace 1 runs the first unit with every layer wrapped in spans and then
the same unit untraced; it prints the per-layer metrics, the tracing
overhead, and writes the spans to .perfbench_work/.

Every unit's outputs are checked. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 1 when a check failed and 2 when the run cannot start.
"""

import os

# one thread: the pipeline is single-threaded by design, and BLAS threads
# would tie the timings to whatever else the machine is running
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("study2-ref", "study2-sur", "layout-scan", "surrogate-train")
SETUP_REPEATS = 3
MIN_ITEMS = 100  # at least ten timed items beyond p90


def machine_facts():
    from wecfarm import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and ref.is_file():
            commit = ref.read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "kernels_backend": kernels.backend(),
        "scipy": importlib.util.find_spec("scipy") is not None,
        "commit": commit,
        "peak_rss_source": "resource.getrusage(RUSAGE_SELF).ru_maxrss (KiB on Linux)",
    }


def _unit(workload, ctx, seed, timer, tracer=None):
    """One unit of work under the timer (and the tracer, outermost, if given).

    Times are kept raw here, with the probe time inside them; `_scale`
    turns them into reference-speed times once the run is over.
    """
    hooks = [h for h in (tracer, timer) if h is not None]
    for hook in hooks:
        hook.install()
    first = len(timer.intervals)
    probes = timer.calibrator.spent
    start = time.perf_counter()
    try:
        outputs, error = workload.unit(ctx, seed), None
    except Exception as exc:  # the run reports a failed unit and goes on to print
        traceback.print_exc()
        outputs, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter()
        for hook in reversed(hooks):
            hook.uninstall()
    return {
        "seed": seed,
        "interval": (start, end, timer.calibrator.spent - probes),
        "item_intervals": timer.intervals[first:],
        "outputs": outputs,
        "error": error,
        "traced": tracer is not None,
    }


def _scale(unit, calibrator):
    start, end, probes = unit["interval"]
    unit["wall"] = end - start - probes
    unit["scaled"] = calibrator.scaled_without_probes(start, end, probes)
    unit["items"] = [calibrator.scaled_without_probes(*i) for i in unit["item_intervals"]]


def _untraced_units(workload, ctx, seed, seconds, timer, unit_seed, min_items):
    """Units back to back until `seconds` are spent and `min_items` are timed;
    a unit that would clearly overrun `seconds` is not started."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(_unit(workload, ctx, unit_seed(seed, len(units)), timer))
        if units[-1]["error"] is not None:
            return units
        typical = statistics.median(u["interval"][1] - u["interval"][0] for u in units)
        if len(timer.intervals) >= min_items and (
            time.perf_counter() - start + typical > seconds
        ):
            return units


def main(argv=None, small=False):
    """Run one workload; `small` shrinks every unit for the benchmark's tests."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wecfarm").is_dir() or not (ROOT / "data").is_dir():
        print(f"error: {ROOT} is not a wecfarm checkout (needs src/wecfarm and data/)",
              file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](small=small)
    calibrator = spans.Calibrator()
    timer = spans.ItemTimer(*workload.item, calibrator)
    tracer = None
    setups = []
    calibrator.start()
    try:
        for _ in range(SETUP_REPEATS):
            probes = calibrator.spent
            start = time.perf_counter()
            ctx = workload.setup(args.seed)
            setups.append((start, time.perf_counter(), calibrator.spent - probes))
        if args.trace:
            seed = workloads.unit_seed(args.seed, 0)
            tracer = spans.Tracer(run_id=f"{workload.name}/{seed}")
            calibrator.tracer = tracer
            units = [_unit(workload, ctx, seed, timer, tracer)]
            calibrator.tracer = None
            units.append(_unit(workload, ctx, seed, timer))
        else:
            units = _untraced_units(workload, ctx, args.seed, args.seconds, timer,
                                    workloads.unit_seed, 1 if small else MIN_ITEMS)
    finally:
        calibrator.stop()
    setups = [calibrator.scaled_without_probes(*s) for s in setups]
    for unit in units:
        _scale(unit, calibrator)

    expected = {} if small else workloads.load_expected()
    checks = [workloads.check_unit(workload, ctx, u, expected) for u in units]
    errors = [] if small else workloads.probe_errors(ctx, expected)
    if tracer is not None and units[0]["outputs"] != units[1]["outputs"]:
        errors.append("traced outputs differ from untraced outputs")
    # a unit that raised before its first item still counts as one failed item
    counts = [len(u["items"]) or int(u["error"] is not None) for u in units]
    attempted = sum(counts)
    failed = attempted if errors else sum(
        n for n, (errs, _) in zip(counts, checks) if errs)
    errors += [e for errs, _ in checks for e in errs]
    # best_pv, best_pv_rel_err, val_mse, artifact_bytes: not timed, first unit's
    figures = checks[0][1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        items = [d for u in units for d in u["items"]]
        scaled = [u["scaled"] for u in units]
        p50, p90 = 1e3 * np.percentile(items, [50, 90]) if items else (0.0, 0.0)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(scaled), "s"),
            "evals_per_s": (len(items) / sum(scaled), "1/s"),
            "eval_ms_p50": (p50, "ms"),
            "eval_ms_p90": (p90, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        overhead = units[0]["scaled"] / units[1]["scaled"] - 1.0
        metrics = spans.layer_metrics(tracer, {**figures, "overhead_ratio": overhead})

    facts = machine_facts()
    facts["probe_ms_median"] = 1e3 * statistics.median(calibrator.durations)
    _report(args, facts, setups, units, metrics, figures, errors)
    _write_result(args, facts, setups, units, metrics, figures, errors, tracer)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


def _report(args, facts, setups, units, metrics, figures, errors):
    mode = "traced" if args.trace else "untraced"
    items = sum(len(u["items"]) for u in units)
    print(f"perfbench {args.workload} seed={args.seed} {mode}: {len(units)} unit(s), "
          f"{items} timed items, setup x{len(setups)}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    if args.trace:
        traced, untraced = units[0]["scaled"], units[1]["scaled"]
        print(f"tracing overhead: traced unit {traced:.3f} s, untraced {untraced:.3f} s "
              f"(scaled), ratio {traced / untraced - 1.0:+.3%}")
    for u in units:
        print(f"unit seed={u['seed']}: wall {u['wall']:.3f} s, scaled {u['scaled']:.3f} s, "
              f"{len(u['items'])} items")
    for name, (value, unit) in metrics.items():
        note = f"  (n={items})" if name == "eval_ms_p90" else ""
        print(f"  {name:42s} {value:>14.6g} {unit}{note}")
    for name, value in figures.items():
        print(f"  figure {name:35s} {value:>14.6g}")
    print("checks: " + ("ok" if not errors else f"{len(errors)} failed"))
    for error in errors[:20]:
        print(f"  FAILED {error}")


def _write_result(args, facts, setups, units, metrics, figures, errors, tracer):
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": facts,
        "setup_s": setups,
        "units": [{k: u[k] for k in ("seed", "wall", "scaled", "error", "traced")}
                  | {"items": len(u["items"])} for u in units],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        "figures": figures,
        "errors": errors,
    }
    (work / f"result_{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if tracer is not None:
        with open(work / f"spans_{stem}.json", "w") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
