import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_trajectory():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(correct, failed, p50, **more):
    metrics = {"eval_ms_p50": {"value": p50, "unit": "ms"}}
    metrics.update({name: {"value": v, "unit": "ratio"} for name, v in more.items()})
    return json.dumps({"correct": correct, "attempted": 100, "failed": failed,
                       "metrics": metrics})


def test_assemble_carries_every_run_and_takes_medians_and_quartiles():
    module = _bench_trajectory()
    runs = [
        ("study2-sur", 1, 0, _line(True, 0, 3.0)),
        ("study2-sur", 2, 1, _line(False, 4, 5.0)),
        ("study2-sur", 3, 0, _line(True, 0, 4.0)),
        ("study2-sur", 4, 0, _line(True, 0, 1.0)),
        # a run that died before its result line
        ("study2-sur", 5, 2, "Traceback (most recent call last):"),
        ("study2-ref", 1, 0, _line(True, 0, 2.0)),
    ]
    # a traced run's per-layer metric that is not a number
    traced = [("study2-sur", 0, 0, _line(True, 0, 3.5, **{"trace.overhead_ratio": float("nan")}))]
    tier1 = {"wall_s": 50.0, "exit": 0, "summary": "433 passed in 50.00s", "durations": []}
    doc = module.assemble(runs, traced, tier1, {"cpu_count": 2}, {"head": "abc", "dirty": False},
                          ["bench_trajectory.py"], 20.0)
    sur = doc["workloads"]["study2-sur"]
    assert [r["seed"] for r in sur["runs"]] == [1, 2, 3, 4, 5]
    # the incorrect run is carried and its time counts; the silent one is carried
    assert [r["correct"] for r in sur["runs"]] == [True, False, True, True, False]
    assert sur["runs"][1]["failed"] == 4 and sur["runs"][1]["exit"] == 1
    assert sur["runs"][4] == {"seed": 5, "exit": 2, "correct": False, "attempted": None,
                              "failed": None, "metrics": {}}
    assert sur["correct"] is False and sur["failed"] == 4
    assert sur["metrics"]["eval_ms_p50"] == {
        "unit": "ms", "median": 3.5, "q1": 2.5, "q3": 4.25, "n": 4,
    }
    assert sur["traced"]["metrics"] == {"eval_ms_p50": 3.5, "trace.overhead_ratio": None}
    ref = doc["workloads"]["study2-ref"]
    assert ref["correct"] is True and ref["metrics"]["eval_ms_p50"]["n"] == 1
    assert "traced" not in ref
    # strict JSON: the NaN went out as null
    text = module.dumps(doc)
    assert "NaN" not in text and json.loads(text) == doc
    assert doc["tier1"] == tier1 and doc["git"] == {"head": "abc", "dirty": False}


def test_parse_seeds():
    module = _bench_trajectory()
    assert module.parse_seeds("11-14") == [11, 12, 13, 14]
