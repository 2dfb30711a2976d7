"""Benchmark trajectory: perfbench medians over seeds, written as one JSON file.

    python3 scripts/bench_trajectory.py --out BENCH_32.json --seeds 11-20
    python3 scripts/bench_trajectory.py --out BENCH_32.json --seeds 11-20 \\
        --parent ../base --parent-out BENCH_31.json

For each workload of `BENCHMARK.json` and each seed, it runs
`perfbench/run.py --workload W --seed s --seconds S --trace 0` in a fresh
subprocess from the root of the checkout and reads the JSON object on
the run's last line. Then it makes one `--trace 1` run per workload at
seed 0, and runs tier-1 (`python -m pytest -q
--continue-on-collection-errors --durations=5`) once, timing it.
S is the benchmark's `run_seconds`.

`--parent` names a second checkout, usually the parent commit. Each run
is then made in both checkouts back to back, and the side that goes
first alternates from one pair to the next, so that a slow spell of a
shared machine falls on both sides alike. The parent's file goes to
`--parent-out`. Each checkout runs its own `perfbench/`.

The file holds, per workload, every run: its seed, exit code, `correct`,
`attempted`, `failed` and metrics. A run that is incorrect or printed
nothing is kept. Per end-to-end metric it holds the median, the
quartiles and n over the runs that printed the metric. It also holds the
traced run's per-layer metrics, the tier-1 wall time with its summary
and `--durations=5` lines, the machine facts, and `git rev-parse HEAD`
with a flag for modified tracked files. It is strict JSON: a non-finite
value is written as null.
"""

import argparse
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DURATION = re.compile(r"^\d+\.\d+s (call|setup|teardown) ")


def _finite(value):
    """A float, or None where JSON has no number for it."""
    value = float(value)
    return value if math.isfinite(value) else None


def _result(line):
    """The JSON object a perfbench run prints last, or None."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and "metrics" in doc else None


def _run_entry(seed, exit_code, line):
    doc = _result(line)
    entry = {"seed": seed, "exit": exit_code, "correct": False, "attempted": None,
             "failed": None, "metrics": {}}
    if doc is not None:
        entry.update(
            correct=doc.get("correct") is True,
            attempted=doc.get("attempted"),
            failed=doc.get("failed"),
            metrics={name: _finite(m["value"]) for name, m in doc["metrics"].items()},
        )
    return entry, doc


def assemble(runs, traced, tier1, machine, git, command, seconds):
    """The trajectory document of one checkout.

    `runs` and `traced` are (workload, seed, exit code, last output
    line) tuples of `--trace 0` and `--trace 1` runs, `tier1` the dict
    of `run_tier1`. Every run is carried, the incorrect and the silent
    ones included; a metric's median and quartiles are taken over the
    runs that printed a finite value of it.
    """
    workloads = {}
    for workload, seed, exit_code, line in runs:
        slot = workloads.setdefault(workload, {"runs": [], "units": {}})
        entry, doc = _run_entry(seed, exit_code, line)
        slot["runs"].append(entry)
        if doc is not None:
            slot["units"].update({name: m["unit"] for name, m in doc["metrics"].items()})
    for workload, seed, exit_code, line in traced:
        slot = workloads.setdefault(workload, {"runs": [], "units": {}})
        slot["traced"] = _run_entry(seed, exit_code, line)[0]
    for slot in workloads.values():
        summary = {}
        for name, unit in slot.pop("units").items():
            values = [r["metrics"][name] for r in slot["runs"]
                      if r["metrics"].get(name) is not None]
            if not values:
                continue
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            summary[name] = {"unit": unit, "median": float(median), "q1": float(q1),
                             "q3": float(q3), "n": len(values)}
        slot["correct"] = all(r["correct"] for r in slot["runs"])
        slot["failed"] = sum(r["failed"] or 0 for r in slot["runs"])
        slot["metrics"] = summary
    return {"command": command, "git": git, "machine": machine, "seconds": seconds,
            "workloads": workloads, "tier1": tier1}


def dumps(doc):
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


def run_perfbench(tree, workload, seed, seconds, trace):
    """(workload, seed, exit code, last output line) of one fresh run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    print(f"{tree.name}: {workload} seed={seed} trace={trace} exit={proc.returncode}",
          file=sys.stderr, flush=True)
    return workload, seed, proc.returncode, lines[-1] if lines else ""


def run_tier1(tree):
    """Tier-1's wall time, exit code, summary line and slowest-five lines."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "--durations=5", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": proc.returncode, "summary": lines[-1] if lines else "",
            "durations": [line for line in lines if DURATION.match(line)]}


def git_facts(tree):
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, stdout=subprocess.PIPE,
                              text=True).stdout.strip()
    return {"head": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def machine_facts():
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def parse_seeds(text):
    """'11-20' as the list of seeds from 11 to 20."""
    first, last = text.split("-")
    return list(range(int(first), int(last) + 1))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="first-last, as 11-20")
    parser.add_argument("--parent", type=Path, help="a second checkout, run in pairs")
    parser.add_argument("--parent-out", type=Path)
    args = parser.parse_args(argv)
    if (args.parent is None) != (args.parent_out is None):
        parser.error("--parent and --parent-out go together")
    if args.parent is not None and not args.parent.is_dir():
        parser.error(f"--parent {args.parent} is not a directory")
    seconds = bench["run_seconds"]
    trees = [ROOT] + ([args.parent.resolve()] if args.parent else [])
    names = [w["name"] for w in bench["workloads"]]
    runs = {tree: [] for tree in trees}
    pair = 0
    for workload in names:
        for seed in args.seeds:
            order = trees if pair % 2 == 0 else trees[::-1]
            for tree in order:
                runs[tree].append(run_perfbench(tree, workload, seed, seconds, 0))
            pair += 1
    command = [Path(sys.argv[0]).name, *(sys.argv[1:] if argv is None else argv)]
    for tree, out in zip(trees, [args.out, args.parent_out]):
        traced = [run_perfbench(tree, workload, 0, seconds, 1) for workload in names]
        doc = assemble(runs[tree], traced, run_tier1(tree), machine_facts(), git_facts(tree),
                       command, seconds)
        out.write_text(dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
