"""Digests of the benchmark workloads' unit outputs, one line per unit.

    python3 scripts/output_digests.py > digests.txt

For every workload of `perfbench/workloads.py`, at seeds 0 and 1, it runs
`setup(seed)` and then units 0 and 1 (`unit(ctx, unit_seed(seed, rep))`),
and prints `workload seed unit digest`, where the digest is the first 16
hex digits of the SHA-256 of `json.dumps(outputs, sort_keys=True)`. A
workload whose set-up trains committees (study2-sur) first prints
`workload seed target_id digest` per committee, the digest taken of the
file `surrogate.save_committee` writes. After each study2-ref unit, which
runs `wecfarm optimize`, it also prints `workload seed unit/file digest`
for the run's `best_design.json` and `history.csv`, the digest taken of
the file as written: the design's provenance hash lives only there. Run
it in two source checkouts and `diff` the outputs: equal lines mean the
two trees compute the same unit outputs, run files and committee files
byte for byte. Nothing is checked against recorded values;
`perfbench/run.py` does that.

The workloads are imported as they are. The package comes from the
checkout's `src`, and BLAS runs one thread, as in the benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from wecfarm import surrogate  # noqa: E402

SEEDS = (0, 1)
UNITS = (0, 1)
# files each unit writes into the workload's `work/out` run directory
RUN_FILES = {"study2-ref": ("best_design.json", "history.csv")}


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def main(small=False):
    """Print and return one digest line per committee file, unit and run file.

    `small` runs the reduced workloads.
    """
    lines = []

    def emit(line):
        lines.append(line)
        print(line, flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "committee.json"
        for name, workload_type in workloads.WORKLOADS.items():
            workload = workload_type(small=small)
            for seed in SEEDS:
                ctx = workload.setup(seed)
                for tid, committee in ctx.get("committees", {}).items():
                    surrogate.save_committee(committee, path)
                    emit(f"{name} {seed} {tid} {_digest(path.read_bytes())}")
                for rep in UNITS:
                    outputs = workload.unit(ctx, workloads.unit_seed(seed, rep))
                    text = json.dumps(outputs, sort_keys=True)
                    emit(f"{name} {seed} {rep} {_digest(text.encode())}")
                    for file in RUN_FILES.get(name, ()):
                        data = (ctx["work"] / "out" / file).read_bytes()
                        emit(f"{name} {seed} {rep}/{file} {_digest(data)}")
    return lines


if __name__ == "__main__":
    main()
