"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record.py

Writes perfbench/expected.json: the seed-independent probe values and the
outputs of each workload's recorded unit (seed 0, first unit) at full size.
Rerun it only when the model is meant to change (MODEL_LEDGER.txt), and
say so in the change that does it.
"""

import json
import sys
from pathlib import Path

import run  # noqa: F401  (pins BLAS to one thread before numpy loads)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main():
    doc = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        ctx = workload.setup(0)
        seed = workloads.unit_seed(0, 0)
        outputs = workload.unit(ctx, seed)
        errors, _ = workload.check(ctx, outputs)
        if errors:
            raise SystemExit(f"{name}: not recording outputs that fail their checks: {errors}")
        doc[name] = {"seed": seed, "outputs": outputs}
        if "probe" not in doc and "site" in ctx:
            doc["probe"] = workloads.probe_values(ctx["site"], ctx["grid"], ctx["env"])
        print(f"recorded {name}", flush=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
