"""Tests of the benchmark itself, at reduced size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from wecfarm import hydro, kernels, optimize  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# spans each workload must produce, one per layer the benchmark reports on it
EXPECTED_SPANS = {
    "study2-ref": [
        "cli.cmd_optimize", "optimize.run_ga", "optimize.evaluate_design", "mbe.compose_farm",
        "hydro.provider_single", "hydro.provider_pair", "hydro.pair_coefficients",
        "hydro.single_coefficients", "hydro.solve_dispersion", "kernels.j0", "kernels.y0",
        "kernels.j1", "dynamics.solve_motion", "kernels.solve_batch",
        "climate.spectral_matrix", "svg.write_layout", "svg.write_convergence",
    ],
    "study2-sur": [
        "optimize.run_ga", "optimize.evaluate_design", "mbe.compose_farm",
        "surrogate.provider_single", "surrogate.provider_pair", "surrogate.committee_apply",
        "surrogate.features", "nn.predict", "kernels.mlp_forward", "kernels.j0", "kernels.y0",
        "dynamics.solve_motion", "kernels.solve_batch", "climate.spectral_matrix",
    ],
    "layout-scan": [
        "optimize.sensitivity_map", "optimize.evaluate_design", "mbe.compose_farm",
        "hydro.provider_pair", "hydro.pair_coefficients", "hydro.single_coefficients",
        "hydro.solve_dispersion", "kernels.j0", "kernels.y0", "kernels.j1",
        "dynamics.solve_motion", "kernels.solve_batch", "climate.spectral_matrix",
    ],
    "surrogate-train": [
        "surrogate.build_datasets", "surrogate.train_committee", "surrogate.qbc_round",
        "surrogate.validate_on_grid", "surrogate.label_inputs", "surrogate.committee_apply",
        "surrogate.features", "nn.epoch_schedule", "nn.train", "nn.predict",
        "kernels.mlp_train", "kernels.mlp_forward", "hydro.provider_pair",
        "hydro.pair_coefficients", "hydro.single_coefficients", "kernels.j0", "kernels.y0",
    ],
}


def _run(capsys, name, trace, seed=0):
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.1",
                     "--trace", str(trace)], small=True)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(capsys, name, trace):
    code, lines, result = _run(capsys, name, trace)
    assert code == 0 and result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    text = "\n".join(lines[:-1])
    for metric in declared:
        assert metric["name"] in text
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced_and_wrappers_fire(name):
    workload = workloads.WORKLOADS[name](small=True)
    ctx = workload.setup(1)
    seed = workloads.unit_seed(1, 0)
    plain = workload.unit(ctx, seed)
    tracer = spans.Tracer(run_id="test")
    tracer.install()
    try:
        traced = workload.unit(ctx, seed)
    finally:
        tracer.uninstall()
    assert traced == plain
    errors, _ = workload.check(ctx, traced)
    assert errors == []
    missing = [s for s in EXPECTED_SPANS[name] if tracer.calls[s] == 0]
    assert missing == []
    # every span closed, with a known parent, inside its parent
    by_id = {s[0]: s for s in tracer.spans}
    for span_id, _, start, end, parent, run_id in tracer.spans:
        assert start <= end and run_id == "test"
        if parent is not None:
            assert by_id[parent][2] <= start and end <= by_id[parent][3]


def test_uninstall_restores_every_attribute():
    before = [spans._original(owner, attr) for owner, attr, *_ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    assert kernels.j0 is not before[0]
    tracer.uninstall()
    after = [spans._original(owner, attr) for owner, attr, *_ in spans.TARGETS]
    assert all(a is b for a, b in zip(after, before))
    assert optimize.run_ga.__module__ == "wecfarm.optimize"


def test_self_time_excludes_children():
    tracer = spans.Tracer()

    def child():
        return sum(range(20000))

    def parent():
        return tracer.call("child", child, (), {})

    tracer.call("parent", parent, (), {})
    (child_span, parent_span) = tracer.spans
    child_s = child_span[3] - child_span[2]
    parent_s = parent_span[3] - parent_span[2]
    assert child_span[4] == parent_span[0]
    assert tracer.self_s["parent"] == pytest.approx(parent_s - child_s, abs=1e-12)


def test_shares_leave_out_calibration_probes():
    spans_ = [
        (3, "perfbench.probe", 3.0, 4.0, 2, "r"),
        (2, "kernels.j0", 2.0, 5.0, 1, "r"),
        (4, "perfbench.probe", 6.0, 7.0, 1, "r"),
        (1, "surrogate.provider_pair", 1.0, 9.0, 0, "r"),
        (0, "optimize.evaluate_design", 0.0, 10.0, None, "r"),
    ]
    assert spans._span_shares(spans_) == (2.0, 6.0, 8.0, 0)


def test_scaled_time_follows_probe_speed():
    cal = spans.Calibrator()
    ref = spans.PROBE_REFERENCE_S
    cal.times = [1.0, 2.0, 3.0]
    cal.durations = [ref, 2 * ref, ref]
    assert cal.scaled(0.0, 1.0) == pytest.approx(1.0)
    assert cal.scaled(1.0, 2.0) == pytest.approx(1.0 / 1.5)
    assert cal.scaled(0.5, 3.5) == pytest.approx(0.5 + 2.0 / 1.5 + 0.5)


def test_recorded_check_fails_physics_change_and_passes_rounding(monkeypatch):
    expected = workloads.load_expected()
    site = workloads.build_site()
    grid, env = hydro.FrequencyGrid.default(), hydro.Environment()
    assert workloads.mismatches(workloads.probe_values(site, grid, env), expected["probe"],
                                workloads.RTOL) == []
    for name in ("j0", "y0", "j1"):
        exact = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda x, f=exact: f(x) * (1.0 + 1e-12))
    assert workloads.mismatches(workloads.probe_values(site, grid, env), expected["probe"],
                                workloads.RTOL) == []
    monkeypatch.setattr(hydro, "INTERACTION_EPS", hydro.INTERACTION_EPS * 1.001)
    assert workloads.mismatches(workloads.probe_values(site, grid, env), expected["probe"],
                                workloads.RTOL) != []


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "study2-ref", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
