import csv
import hashlib
import json
import os

import numpy as np
import pytest

from wecfarm import cli, climate, optimize, surrogate
from wecfarm.dynamics import PtoSettings
from wecfarm.hydro import Environment, FrequencyGrid, ReferenceProvider, WecGeometry
from wecfarm.mbe import Layout

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def assert_manifest_complete(out):
    """Every output the manifest lists exists, and every file in the run
    directory is a listed output, a listed input or the manifest itself
    (which does not list itself). Returns the manifest."""
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    outputs = {os.path.abspath(p) for p in manifest["outputs"]}
    inputs = {os.path.abspath(p) for p in manifest["inputs"]}
    assert os.path.abspath(os.path.join(out, "manifest.json")) not in outputs
    for path in outputs:
        assert os.path.isfile(path), path
    for name in os.listdir(out):
        path = os.path.abspath(os.path.join(out, name))
        assert name == "manifest.json" or path in outputs | inputs, name
    return manifest


def read_numeric_csv(path):
    """Header and rows of a CSV; every data cell must parse with float()."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [[float(cell) for cell in row] for row in rows]


@pytest.fixture(scope="module")
def site_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("site")
    rc = cli.main([
        "sites", "build",
        "--records", os.path.join(DATA, "site_alpha.csv"),
        "--config", os.path.join(DATA, "site_alpha_config.json"),
        "--out-dir", str(out),
    ])
    assert rc == 0
    return str(out / "alpha.json")


@pytest.fixture(scope="module")
def design_path(tmp_path_factory):
    design = optimize.DesignPoint(
        geometry=WecGeometry(radius=3.0, slenderness=1.5),
        pto=PtoSettings(stiffness=-6e4, damping=8e4),
        layout=Layout([[0.0, 0.0], [42.0, 16.0], [88.0, -24.0]]),
        site_id="alpha",
    )
    path = tmp_path_factory.mktemp("design") / "design.json"
    with open(path, "w") as fh:
        json.dump(optimize.design_to_dict(design), fh)
    return str(path)


def test_sites_build_outputs_and_manifest(site_path):
    out = os.path.dirname(site_path)
    site = climate.load_site(site_path)
    assert site.site_id == "alpha"
    assert site.probability.shape == (20, 20)
    manifest = assert_manifest_complete(out)
    assert manifest["command"] == "sites build"
    recorded = {os.path.basename(k): v for k, v in manifest["inputs"].items()}
    assert recorded["site_alpha.csv"] == sha256(os.path.join(DATA, "site_alpha.csv"))
    assert recorded["site_alpha_config.json"] == sha256(
        os.path.join(DATA, "site_alpha_config.json")
    )
    assert any(p.endswith("alpha_probability.svg") for p in manifest["outputs"])
    # exactly one manifest in the run directory
    assert sum(f == "manifest.json" for f in os.listdir(out)) == 1


def test_sites_build_bimodal_record_set(tmp_path):
    rc = cli.main([
        "sites", "build",
        "--records", os.path.join(DATA, "site_bravo.csv"),
        "--config", os.path.join(DATA, "site_bravo_config.json"),
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    site = climate.load_site(str(tmp_path / "bravo.json"))
    p = site.probability
    interior = p[1:-1, 1:-1]
    neighbors = [
        p[1 + di : p.shape[0] - 1 + di, 1 + dj : p.shape[1] - 1 + dj]
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
        if (di, dj) != (0, 0)
    ]
    is_peak = np.all([interior > nb for nb in neighbors], axis=0)
    peaks = is_peak & (interior > 0.2 * p.max())
    assert peaks.sum() == 2


def test_sites_build_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("hs_m,tp_s\n1.0,notanumber\n")
    rc = cli.main([
        "sites", "build", "--records", str(bad),
        "--config", os.path.join(DATA, "site_alpha_config.json"),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_usage_error_maps_to_validation_exit(capsys):
    assert cli.main(["sites", "build", "--no-such-flag"]) == 1
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_missing_site_file_is_validation_error(design_path, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "eval", "--design", design_path, "--site", str(tmp_path / "nope.json"),
        "--out-dir", str(out),
    ])
    assert rc == 1
    assert "site file not found" in capsys.readouterr().err
    assert not out.exists()


def test_eval_prints_result_and_writes_manifest(site_path, design_path, tmp_path, capsys):
    rc = cli.main([
        "eval", "--design", design_path, "--site", site_path,
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p_v"] > 0 and doc["feasible"] is True
    on_disk = json.load(open(tmp_path / "evaluation.json"))
    assert on_disk == doc
    manifest = assert_manifest_complete(str(tmp_path))
    assert str(tmp_path / "evaluation.json") in manifest["outputs"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_eval_overlapping_design_writes_strict_json(site_path, tmp_path, capsys):
    design = optimize.DesignPoint(
        geometry=WecGeometry(radius=3.0, slenderness=1.5),
        pto=PtoSettings(stiffness=-6e4, damping=8e4),
        layout=Layout([[0.0, 0.0], [4.0, 0.0]]),
        site_id="alpha",
    )
    design_file = tmp_path / "overlap.json"
    design_file.write_text(json.dumps(optimize.design_to_dict(design)))
    rc = cli.main([
        "eval", "--design", str(design_file), "--site", site_path,
        "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    text = (tmp_path / "out" / "evaluation.json").read_text()
    on_disk = json.loads(text, parse_constant=_reject_constant)
    assert on_disk == printed
    assert on_disk["feasible"] is False
    assert on_disk["q_factor"] is None


def test_eval_rejects_a_design_with_nan_stiffness(site_path, design_path, tmp_path, capsys):
    # a NaN stiffness, and a NaN device position
    for name, field, index, word in [
        ("stiffness", "pto_stiffness", None, "stiffness"),
        ("position", "positions", (2, 0), "x positions"),
    ]:
        doc = json.load(open(design_path))
        if index is None:
            doc[field] = [float("nan")]
        else:
            doc[field][index[0]][index[1]] = float("nan")
        design_file = tmp_path / f"nan_{name}.json"
        design_file.write_text(json.dumps(doc))
        assert "NaN" in design_file.read_text()
        out = tmp_path / f"out_{name}"
        rc = cli.main([
            "eval", "--design", str(design_file), "--site", site_path, "--out-dir", str(out),
        ])
        assert rc == 1, name
        assert word in capsys.readouterr().err, name
        assert not (out / "evaluation.json").exists(), name


@pytest.mark.parametrize("axis, value", [("tp_nodes", float("nan")), ("hs_nodes", float("inf"))])
def test_eval_on_a_site_with_a_non_finite_node_is_validation_error(
    site_path, design_path, tmp_path, capsys, axis, value
):
    doc = json.load(open(site_path))
    doc[axis][3] = value
    bad_site = tmp_path / "site.json"
    bad_site.write_text(json.dumps(doc))
    rc = cli.main([
        "eval", "--design", design_path, "--site", str(bad_site),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "strictly positive" in capsys.readouterr().err
    assert not (tmp_path / "out" / "evaluation.json").exists()


def test_out_root_env_var(site_path, design_path, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["eval", "--design", design_path, "--site", site_path])
    assert rc == 0
    assert (tmp_path / "eval" / "evaluation.json").exists()


def _run_tiny_study(site_path, out, seed=None, study="II"):
    cfg = {
        "study": study,
        "n_devices": 3,
        "ga": {"population": 4, "generations": 2, "seed": 9},
    }
    cfg_path = os.path.join(out, "study.json")
    os.makedirs(out, exist_ok=True)
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    argv = ["optimize", "--config", cfg_path, "--site", site_path, "--out-dir", out]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return cli.main(argv)


def test_optimize_run_artifacts(site_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert _run_tiny_study(site_path, out) == 0
    capsys.readouterr()
    best = json.load(open(os.path.join(out, "best_design.json")))
    design = optimize.design_from_dict(best)
    assert design.layout.n == 3
    assert best["evaluation"]["feasible"] is True
    with open(os.path.join(out, "history.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].split(",")[0] == "generation"
    assert len(lines) == 1 + 2  # header plus one row per generation
    for name in ("layout.svg", "convergence.svg", "config_snapshot.json", "manifest.json"):
        assert os.path.exists(os.path.join(out, name)), name
    assert_manifest_complete(out)


def test_optimize_study_three_writes_a_numeric_control_table(site_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert _run_tiny_study(site_path, out, study="III") == 0
    capsys.readouterr()
    best = json.load(open(os.path.join(out, "best_design.json")))
    header, rows = read_numeric_csv(os.path.join(out, "pto_per_device.csv"))
    assert header == ["device", "x", "y", "stiffness", "damping", "lifetime_power"]
    assert [row[0] for row in rows] == [0.0, 1.0, 2.0]
    assert [row[1:3] for row in rows] == best["positions"]
    assert [row[3] for row in rows] == best["pto_stiffness"]
    assert [row[4] for row in rows] == best["pto_damping"]
    assert [row[5] for row in rows] == best["evaluation"]["per_device_power"]
    read_numeric_csv(os.path.join(out, "history.csv"))
    manifest = assert_manifest_complete(out)
    config = os.path.join(out, "study.json")
    assert manifest["inputs"][config] == sha256(config)


def test_optimize_with_a_missing_config_makes_no_run_directory(site_path, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "optimize", "--config", str(tmp_path / "nope.json"), "--site", site_path,
        "--out-dir", str(out),
    ])
    assert rc == 1
    assert "config file not found" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_with_no_models_makes_no_run_directory(site_path, tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"study": "II", "n_devices": 3, "ga": {"population": 4}}))
    models = tmp_path / "models"
    models.mkdir()
    out = tmp_path / "run"
    rc = cli.main([
        "optimize", "--config", str(cfg), "--site", site_path,
        "--provider", "surrogate", "--models", str(models), "--out-dir", str(out),
    ])
    assert rc == 1
    assert "missing model file" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_rerun_is_numerically_identical(site_path, tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run_tiny_study(site_path, a) == 0
    assert _run_tiny_study(site_path, b) == 0
    capsys.readouterr()
    for name in ("history.csv", "best_design.json", "layout.svg", "convergence.svg"):
        assert open(os.path.join(a, name)).read() == open(os.path.join(b, name)).read(), name


def test_optimize_seed_flag_overrides_config(site_path, tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run_tiny_study(site_path, a, seed=9) == 0
    assert _run_tiny_study(site_path, b, seed=10) == 0
    capsys.readouterr()
    assert json.load(open(os.path.join(a, "best_design.json")))["seed"] == 9
    assert json.load(open(os.path.join(b, "best_design.json")))["seed"] == 10


def test_optimize_study_control_mismatch_is_config_error(site_path, tmp_path, capsys):
    cfg = {
        "study": "III",
        "n_devices": 3,
        "fixed_control": [-6e4, 8e4],
        "ga": {"population": 4, "generations": 1},
    }
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main([
        "optimize", "--config", str(cfg_path), "--site", site_path,
        "--out-dir", str(tmp_path / "run"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("study", [None, "IV"], ids=["missing", "unknown"])
def test_optimize_injection_without_a_known_study_is_config_error(
    site_path, design_path, tmp_path, capsys, study
):
    cfg = {"n_devices": 3, "inject_design": design_path, "ga": {"population": 4, "generations": 1}}
    if study is not None:
        cfg["study"] = study
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main([
        "optimize", "--config", str(cfg_path), "--site", site_path,
        "--out-dir", str(tmp_path / "run"),
    ])
    assert rc == 1
    assert "study must be one of" in capsys.readouterr().err


def test_benchmark_cheating_is_exactly_zero(site_path, tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"n": 100, "n_devices": 3, "seed": 5}))
    out = str(tmp_path / "run")
    rc = cli.main([
        "analyze", "benchmark", "--cheat", "--config", str(cfg),
        "--site", site_path, "--out-dir", out,
    ])
    assert rc == 0
    capsys.readouterr()
    doc = json.load(open(os.path.join(out, "benchmark.json")))
    assert doc["percentiles"]["99"] == 0.0
    assert doc["skipped"] == 0
    header, rows = read_numeric_csv(os.path.join(out, "errors.csv"))
    assert header == ["pv_reference", "pv_surrogate", "relative_error"]
    assert len(rows) == 100
    assert all(ref == sur and err == 0.0 for ref, sur, err in rows)
    assert os.path.exists(os.path.join(out, "error_histogram.svg"))
    assert os.path.exists(os.path.join(out, "scatter.svg"))
    manifest = assert_manifest_complete(out)
    assert manifest["inputs"][str(cfg)] == sha256(cfg)


def test_benchmark_without_models_is_config_error(site_path, tmp_path, capsys):
    rc = cli.main([
        "analyze", "benchmark", "--provider", "surrogate",
        "--site", site_path, "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    assert "--models" in capsys.readouterr().err


def test_random_layouts_deterministic(site_path, design_path, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        rc = cli.main([
            "analyze", "random-layouts", "--design", design_path,
            "--site", site_path, "--n", "100", "--seed", "2", "--out-dir", out,
        ])
        assert rc == 0
        assert_manifest_complete(out)
        outs.append(json.load(open(os.path.join(out, "random_layouts.json"))))
    capsys.readouterr()
    assert outs[0] == outs[1]
    assert 0.0 <= outs[0]["percentile"] <= 100.0
    assert outs[0]["n"] == 100


def test_sensitivity_artifacts(site_path, design_path, tmp_path, capsys):
    # two runs, so the reference provider's memo of the previous pair
    # query is pinned end to end: the map must come out byte-identical
    outs = [str(tmp_path / name) for name in ("a", "b")]
    for out in outs:
        rc = cli.main([
            "analyze", "sensitivity", "--design", design_path, "--site", site_path,
            "--wec", "1", "--resolution", "10", "--out-dir", out,
        ])
        assert rc == 0
    capsys.readouterr()
    out = outs[0]
    doc = json.load(open(os.path.join(out, "sensitivity.json")))
    assert len(doc["values"]) == 10 and len(doc["values"][0]) == 10
    assert doc["argmax_offset"] >= 0.0
    assert os.path.exists(os.path.join(out, "sensitivity.svg"))
    assert_manifest_complete(out)
    texts = [open(os.path.join(o, "sensitivity.json"), "rb").read() for o in outs]
    assert texts[0] == texts[1]


@pytest.fixture(scope="module")
def tiny_committees():
    """Under-trained committees of every map, quick to fit."""
    grid = FrequencyGrid.default(count=30)
    env = Environment()
    oracle = ReferenceProvider()
    rng = np.random.default_rng(3)
    tiny = {}
    for kind in ("single", "pair"):
        inputs = surrogate.sample_inputs(kind, 60, rng)
        ids = (
            surrogate.SINGLE_TARGET_IDS if kind == "single" else surrogate.PAIR_TARGET_IDS
        )
        datasets = {
            tid: surrogate.Dataset(
                tid, inputs,
                surrogate.label_inputs(tid, inputs, grid, env, oracle),
                grid, env,
            )
            for tid in ids
        }
        config = surrogate.CommitteeConfig(hidden=(8, 8), epochs=10, round_epochs=5, min_samples=10)
        for tid in ids:
            tiny[tid] = surrogate.train_committee(datasets[tid], config)
    return tiny


def test_surrogate_train_writes_models(tiny_committees, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        surrogate, "train_standard_committees", lambda *a, **k: tiny_committees
    )
    out = str(tmp_path / "models")
    rc = cli.main(["surrogate", "train", "--out-dir", out])
    assert rc == 0
    capsys.readouterr()
    for tid in surrogate.ALL_TARGET_IDS:
        assert os.path.exists(os.path.join(out, f"committee_{tid}.json")), tid
        assert os.path.exists(os.path.join(out, f"dataset_{tid}.csv")), tid
    manifest = assert_manifest_complete(out)
    assert len(manifest["outputs"]) == 18

    # under-trained committees must fail the validation gate
    rc = cli.main([
        "surrogate", "validate", "--models", out, "--out-dir", str(tmp_path / "val"),
    ])
    assert rc == 2
    assert "above the" in capsys.readouterr().err


def test_surrogate_validate_ignores_a_retired_model_file(tiny_committees, tmp_path, capsys):
    # a model directory from before the imaginary single excitation map was
    # retired still holds its committee file; only the listed maps are read
    models = tmp_path / "models"
    models.mkdir()
    for tid, committee in tiny_committees.items():
        surrogate.save_committee(committee, models / f"committee_{tid}.json")
    doc = json.load(open(models / "committee_single_excitation_re.json"))
    doc["target_id"] = "single_excitation_im"
    (models / "committee_single_excitation_im.json").write_text(json.dumps(doc))

    out = tmp_path / "val"
    rc = cli.main(["surrogate", "validate", "--models", str(models), "--out-dir", str(out)])
    assert rc == 2  # under-trained, but every listed map was validated
    capsys.readouterr()
    manifest = assert_manifest_complete(str(out))
    assert sorted(os.path.basename(p) for p in manifest["inputs"]) == sorted(
        f"committee_{tid}.json" for tid in surrogate.ALL_TARGET_IDS
    )
    rows = json.load(open(out / "validation.json"))["maps"]
    assert [row["target_id"] for row in rows] == list(surrogate.ALL_TARGET_IDS)
    assert len(rows) == 9


# one misspelt key per command, and the retired haskind_projection and kinds;
# the known keys keep each command quick should the check ever let one through
@pytest.mark.parametrize("command, config, key", [
    ("sites build", {"bounds": [[0.3, 6.0], [3.5, 13.0]], "frequency_cout": 30}, "frequency_cout"),
    ("surrogate train", {"frequency_cout": 30}, "frequency_cout"),
    ("surrogate train", {"kinds": ["single", "pair"]}, "kinds"),
    ("surrogate validate", {"frequency_count": 10, "frequency_cout": 30}, "frequency_cout"),
    ("optimize", {"study": "II", "ga": {"population": 4, "generations": 1}, "frequency_cout": 30},
     "frequency_cout"),
    ("optimize", {"study": "II", "ga": {"population": 4, "generations": 1},
                  "haskind_projection": True}, "haskind_projection"),
    ("analyze benchmark", {"n": 10, "n_devices": 3, "frequency_cout": 30}, "frequency_cout"),
    ("analyze benchmark", {"n": 10, "n_devices": 3, "haskind_projection": True},
     "haskind_projection"),
])
def test_an_unknown_config_key_is_config_error(
    site_path, tmp_path, monkeypatch, capsys, command, config, key
):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(surrogate, "train_standard_committees", no_training)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    inputs = {
        "sites build": ["--records", os.path.join(DATA, "site_alpha.csv")],
        "surrogate validate": ["--cheat"],
        "optimize": ["--site", site_path],
        "analyze benchmark": ["--cheat", "--site", site_path],
    }.get(command, [])
    out = tmp_path / "run"
    rc = cli.main(command.split() + ["--config", str(cfg), "--out-dir", str(out)] + inputs)
    assert rc == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_that_is_not_an_object_is_config_error(site_path, tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(["study", "II"]))
    rc = cli.main([
        "optimize", "--config", str(cfg), "--site", site_path, "--out-dir", str(tmp_path / "run"),
    ])
    assert rc == 1
    assert "config must be a JSON object" in capsys.readouterr().err


def test_surrogate_validate_without_models_or_cheat_is_config_error(tmp_path, capsys):
    rc = cli.main(["surrogate", "validate", "--out-dir", str(tmp_path / "val")])
    assert rc == 1
    assert "--models or --cheat" in capsys.readouterr().err


def test_surrogate_validate_models_reads_no_config_key(tmp_path, capsys):
    # stored committees bring their own grid; a key that would be ignored
    # is refused before the models are read or a run directory is made
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frequency_count": 30}))
    out = tmp_path / "run"
    rc = cli.main([
        "surrogate", "validate", "--models", str(tmp_path / "no_models"), "--config", str(cfg),
        "--out-dir", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown config key 'frequency_count'" in err and "reads no key" in err
    assert not out.exists()


def test_surrogate_validate_cheat_is_zero(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frequency_count": 30}))
    out = str(tmp_path / "run")
    rc = cli.main([
        "surrogate", "validate", "--cheat", "--config", str(cfg), "--out-dir", out,
    ])
    assert rc == 0
    capsys.readouterr()
    doc = json.load(open(os.path.join(out, "validation.json")))
    assert doc["failed"] == []
    assert all(row["mean_mse"] == 0.0 for row in doc["maps"])
    assert len(doc["maps"]) == 9
