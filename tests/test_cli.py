import csv
import hashlib
import json
import os

import numpy as np
import pytest

from wecfarm import cli, climate, optimize, surrogate
from wecfarm.dynamics import PtoSettings
from wecfarm.hydro import WecGeometry
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


# valid JSON of the wrong shape in each kind of file the command line reads
WRONG_SHAPES = {
    "design-list": ("design", lambda doc: []),
    "design-radius-string": ("design", lambda doc: {**doc, "radius": "2"}),
    "design-radius-null": ("design", lambda doc: {**doc, "radius": None}),
    "site-list": ("site", lambda doc: []),
    "site-schema-only": ("site", lambda doc: {"schema_version": 1}),
    "site-years-list": ("site", lambda doc: {**doc, "years": [1]}),
    "committee-list": ("committee", lambda doc: []),
}


@pytest.mark.parametrize("kind, reshape", WRONG_SHAPES.values(), ids=WRONG_SHAPES)
def test_a_file_of_the_wrong_shape_is_config_error(
    site_path, design_path, tmp_path, capsys, kind, reshape
):
    out = tmp_path / "run"
    if kind == "committee":
        models = tmp_path / "models"
        models.mkdir()
        for tid in surrogate.ALL_TARGET_IDS:
            (models / f"committee_{tid}.json").write_text(json.dumps(reshape(None)))
        bad = models / f"committee_{surrogate.ALL_TARGET_IDS[0]}.json"
        argv = ["surrogate", "validate", "--models", str(models)]
    else:
        source = {"design": design_path, "site": site_path}[kind]
        bad = tmp_path / f"{kind}.json"
        bad.write_text(json.dumps(reshape(json.load(open(source)))))
        files = {"design": design_path, "site": site_path, kind: str(bad)}
        argv = ["eval", "--design", files["design"], "--site", files["site"]]
    assert cli.main(argv + ["--out-dir", str(out)]) == 1
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()


# a site or design field that parses but holds the wrong kind of value
WRONG_FIELDS = {
    "site-years-fraction": ("site", "years", 2.5),
    "site-years-string": ("site", "years", "30"),
    "site-years-bool": ("site", "years", True),
    "site-hs-nodes-2d": ("site", "hs_nodes", [[1]]),
    "site-tp-nodes-empty": ("site", "tp_nodes", []),
    "site-weights-1d": ("site", "quadrature_weights", [0.5, 0.5]),
    "site-probability-short": ("site", "probability", lambda rows: rows[:-1]),
    "site-hs-nodes-strings": ("site", "hs_nodes", lambda nodes: [str(v) for v in nodes]),
    "site-probability-bool": ("site", "probability", lambda rows: [[True, *rows[0][1:]], *rows[1:]]),
    "site-weights-null": ("site", "quadrature_weights", lambda rows: [[None, *rows[0][1:]], *rows[1:]]),
    "design-radius-true": ("design", "radius", True),
    "design-stiffness-bool": ("design", "pto_stiffness", [True]),
    "design-positions-bool": ("design", "positions", lambda rows: [*rows[:2], [88.0, False]]),
    "design-site-id-number": ("design", "site_id", 7),
    "site-site-id-number": ("site", "site_id", 5),
}


@pytest.mark.parametrize("kind, name, value", WRONG_FIELDS.values(), ids=WRONG_FIELDS)
def test_eval_names_the_file_and_field_of_a_wrong_value(
    site_path, design_path, tmp_path, capsys, kind, name, value
):
    files = {"design": design_path, "site": site_path}
    doc = json.load(open(files[kind]))
    doc[name] = value(doc[name]) if callable(value) else value
    bad = tmp_path / f"{kind}.json"
    bad.write_text(json.dumps(doc))
    files[kind] = str(bad)
    out = tmp_path / "run"
    rc = cli.main([
        "eval", "--design", files["design"], "--site", files["site"], "--out-dir", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(bad) in err and name in err
    assert not out.exists()


def test_written_results_carry_the_provenance_of_their_design(
    site_path, design_path, tmp_path, capsys
):
    # the provider, the seed (none for eval, which draws no random
    # number) and the hash of the design the file holds
    out = str(tmp_path / "study")
    assert _run_tiny_study(site_path, out) == 0
    best = json.load(open(os.path.join(out, "best_design.json")))
    assert best["evaluation"]["provenance"] == {
        "provider": "reference", "seed": 9,
        "config_hash": optimize.design_hash(optimize.design_from_dict(best)),
    }
    rc = cli.main([
        "eval", "--design", design_path, "--site", site_path,
        "--out-dir", str(tmp_path / "eval"),
    ])
    assert rc == 0
    capsys.readouterr()
    doc = json.load(open(tmp_path / "eval" / "evaluation.json"))
    design = optimize.design_from_dict(json.load(open(design_path)))
    assert doc["provenance"] == {
        "provider": "reference", "seed": None, "config_hash": optimize.design_hash(design)
    }


def test_out_root_env_var(site_path, design_path, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["eval", "--design", design_path, "--site", site_path])
    assert rc == 0
    assert (tmp_path / "eval" / "evaluation.json").exists()


def test_seed_and_out_dir_go_after_the_subcommand(site_path, design_path, tmp_path, capsys):
    out = tmp_path / "run"
    for flag, value, command in (("--seed", "3", ["analyze", "random-layouts"]),
                                 ("--out-dir", str(out), ["eval"])):
        rc = cli.main([flag, value, *command, "--design", design_path, "--site", site_path])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage: wecfarm" in err and f"{flag}: flags follow the subcommand" in err
    assert not out.exists()


def _run_tiny_study(site_path, out, study="II"):
    cfg = {
        "study": study,
        "n_devices": 3,
        "ga": {"population": 4, "generations": 2, "seed": 9},
    }
    cfg_path = os.path.join(out, "study.json")
    os.makedirs(out, exist_ok=True)
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    return cli.main(["optimize", "--config", cfg_path, "--site", site_path, "--out-dir", out])


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
        "--models", str(models), "--out-dir", str(out),
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


def test_benchmark_writes_its_artifacts(site_path, models_path, tmp_path, capsys):
    # the exact zero of the reference against itself is pinned in
    # test_optimize, below the command
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"n": 100, "n_devices": 3, "seed": 5}))
    out = str(tmp_path / "run")
    rc = cli.main([
        "analyze", "benchmark", "--models", models_path, "--config", str(cfg),
        "--site", site_path, "--out-dir", out,
    ])
    assert rc == 0
    capsys.readouterr()
    doc = json.load(open(os.path.join(out, "benchmark.json")))
    assert (doc["mode"], doc["n"], doc["seed"], doc["skipped"]) == ("surrogate", 100, 5, 0)
    header, rows = read_numeric_csv(os.path.join(out, "errors.csv"))
    assert header == ["pv_reference", "pv_surrogate", "relative_error"]
    assert len(rows) == 100
    assert all(err == abs(sur - ref) / ref for ref, sur, err in rows)
    assert doc["percentiles"]["99"] == np.percentile([row[2] for row in rows], 99)
    assert os.path.exists(os.path.join(out, "error_histogram.svg"))
    assert os.path.exists(os.path.join(out, "scatter.svg"))
    manifest = assert_manifest_complete(out)
    assert manifest["inputs"][str(cfg)] == sha256(cfg)


def test_benchmark_without_models_is_config_error(site_path, tmp_path, capsys):
    # --cheat, which benchmarked the reference against itself, is retired
    out = tmp_path / "run"
    for flags in ([], ["--cheat"]):
        rc = cli.main(["analyze", "benchmark", *flags, "--site", site_path, "--out-dir", str(out)])
        assert rc == 1
        assert "the following arguments are required: --models" in capsys.readouterr().err
        assert not out.exists()


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
    # analyze benchmark always runs on --models, so frequency_count is retired there
    ("analyze benchmark", {"n": 10, "n_devices": 3, "frequency_count": 30}, "frequency_count"),
    ("optimize", {"study": "II", "ga": {"population": 4, "generations": 1}, "frequency_cout": 30},
     "frequency_cout"),
    ("optimize", {"study": "II", "ga": {"population": 4, "generations": 1},
                  "haskind_projection": True}, "haskind_projection"),
    ("analyze benchmark", {"n": 10, "n_devices": 3, "frequency_cout": 30}, "frequency_cout"),
    ("analyze benchmark", {"n": 10, "n_devices": 3, "haskind_projection": True},
     "haskind_projection"),
    # the GA's operators are fixed; a retired setting is an unknown key
    ("optimize", {"study": "II", "ga": {"population": 4, "generations": 1, "tournament": 3}},
     "ga.tournament"),
    ("optimize", {"study": "II", "ga": {"populaton": 4, "generations": 1}}, "ga.populaton"),
])
def test_an_unknown_config_key_is_config_error(
    site_path, tmp_path, monkeypatch, capsys, command, config, key
):
    assert_config_error(command, config, f"unknown config key {key!r}",
                        site_path, tmp_path, monkeypatch, capsys)


def assert_config_error(command, config, message, site_path, tmp_path, monkeypatch, capsys):
    """The command on `config` exits 1 with `message`, before training or any output."""
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(surrogate, "train_standard_committees", no_training)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    # keys are read before the models, so a missing model directory is
    # never opened
    inputs = {
        "sites build": ["--records", os.path.join(DATA, "site_alpha.csv")],
        "optimize": ["--site", site_path],
        "analyze benchmark": ["--models", str(tmp_path / "no_models"), "--site", site_path],
    }.get(command, [])
    out = tmp_path / "run"
    rc = cli.main(command.split() + ["--config", str(cfg), "--out-dir", str(out)] + inputs)
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


BOUNDS = [[0.3, 6.0], [3.5, 13.0]]
QUICK_GA = {"population": 4, "generations": 1}


# a value of the wrong JSON type, one per key the commands read as a
# number, list, object or string; an integer key takes 5.0 but not 2.7
@pytest.mark.parametrize("command, config, key", [
    # a number here was once opened as a file descriptor
    ("optimize", {"study": "II", "ga": QUICK_GA, "inject_design": 5}, "inject_design"),
    ("optimize", {"study": "II", "ga": 5}, "ga"),
    ("optimize", {"study": "I", "ga": QUICK_GA, "fixed_control": 7}, "fixed_control"),
    ("optimize", {"study": "I", "ga": QUICK_GA, "fixed_control": ["a", "b"]}, "fixed_control"),
    ("optimize", {"study": "II", "ga": QUICK_GA, "n_devices": 2.7}, "n_devices"),
    ("optimize", {"study": "II", "ga": QUICK_GA, "frequency_count": "30"}, "frequency_count"),
    ("sites build", {"bounds": [1, 2]}, "bounds"),
    ("sites build", {}, "bounds"),
    ("sites build", {"bounds": BOUNDS, "n_gq": 2.7}, "n_gq"),
    ("sites build", {"bounds": BOUNDS, "years": True}, "years"),
    ("sites build", {"bounds": BOUNDS, "site_id": 5}, "site_id"),
    ("surrogate train", {"seed": 0.5}, "seed"),
    ("surrogate train", {"frequency_count": None}, "frequency_count"),
    ("analyze benchmark", {"n": 10.5, "n_devices": 3}, "n"),
    ("analyze benchmark", {"n": 10, "n_devices": [3]}, "n_devices"),
    ("analyze benchmark", {"n": 10, "n_devices": 3, "seed": "1"}, "seed"),
    ("optimize", {"study": "II", "ga": {**QUICK_GA, "seed": 2.7}}, "ga.seed"),
    ("optimize", {"study": "II", "ga": {"population": 4, "generations": 1.5}}, "ga.generations"),
    ("optimize", {"study": "II", "ga": {**QUICK_GA, "population": "4"}}, "ga.population"),
])
def test_a_config_value_of_the_wrong_type_is_config_error(
    site_path, tmp_path, monkeypatch, capsys, command, config, key
):
    assert_config_error(command, config, f"config key {key!r} must be",
                        site_path, tmp_path, monkeypatch, capsys)


def test_an_out_of_bounds_fixed_control_is_config_error(site_path, tmp_path, monkeypatch, capsys):
    config = {"study": "I", "ga": QUICK_GA, "fixed_control": [1e9, 10.0]}
    assert_config_error("optimize", config, "fixed_control [1000000000.0, 10.0]: pto stiffness",
                        site_path, tmp_path, monkeypatch, capsys)


def test_an_integer_config_key_takes_an_integral_float():
    assert cli._config_int({"n": 5.0}, "n", 1) == 5
    assert type(cli._config_int({"n": 5.0}, "n", 1)) is int
    assert cli._config_int({}, "n", 7) == 7


def test_a_config_that_is_not_an_object_is_config_error(site_path, tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(["study", "II"]))
    rc = cli.main([
        "optimize", "--config", str(cfg), "--site", site_path, "--out-dir", str(tmp_path / "run"),
    ])
    assert rc == 1
    assert "config must be a JSON object" in capsys.readouterr().err


def test_surrogate_validate_without_models_or_cheat_is_config_error(tmp_path, capsys):
    # --cheat, which validated the oracle against itself, is retired
    out = tmp_path / "val"
    for flags in ([], ["--cheat"]):
        rc = cli.main(["surrogate", "validate", *flags, "--out-dir", str(out)])
        assert rc == 1
        assert "the following arguments are required: --models" in capsys.readouterr().err
        assert not out.exists()


def test_surrogate_validate_takes_no_config(tmp_path, capsys):
    # it reads no key: the committees bring their grid
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    out = tmp_path / "val"
    rc = cli.main([
        "surrogate", "validate", "--models", str(tmp_path / "no_models"), "--config", str(cfg),
        "--out-dir", str(out),
    ])
    assert rc == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, reads", [
    ("optimize", {"study": "II", "ga": QUICK_GA}, "reads study, n_devices"),
    ("analyze benchmark", {"n": 10, "n_devices": 3}, "reads n, n_devices, seed"),
], ids=["optimize", "analyze benchmark"])
def test_with_models_frequency_count_is_no_config_key(site_path, tmp_path, capsys, command,
                                                       config, reads):
    # stored committees bring their own grid; a key that would be ignored
    # is refused before the models are read or a run directory is made
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "frequency_count": 30}))
    out = tmp_path / "run"
    rc = cli.main([
        *command.split(), "--models", str(tmp_path / "no_models"), "--config", str(cfg),
        "--site", site_path, "--out-dir", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown config key 'frequency_count'" in err
    assert f"{command} with --models {reads}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["surrogate validate", "analyze benchmark"])
def test_models_and_cheat_together_is_config_error(site_path, tmp_path, capsys, command):
    out = tmp_path / "run"
    site = [] if command == "surrogate validate" else ["--site", site_path]
    rc = cli.main([
        *command.split(), "--models", str(tmp_path / "no_models"), "--cheat", *site,
        "--out-dir", str(out),
    ])
    assert rc == 1
    assert "unrecognized arguments: --cheat" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def models_path(tiny_committees, tmp_path_factory):
    """The 30-frequency tiny committees saved as a model directory."""
    models = tmp_path_factory.mktemp("models")
    for tid, committee in tiny_committees.items():
        surrogate.save_committee(committee, models / f"committee_{tid}.json")
    return str(models)


def test_models_select_the_surrogate_and_its_grid(
    site_path, design_path, models_path, tmp_path, capsys
):
    # committees on a 30-point grid serve every command that evaluates
    # designs, with no config naming that grid
    study = tmp_path / "study.json"
    study.write_text(json.dumps({"study": "II", "n_devices": 3, "ga": QUICK_GA}))
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"n": 100, "n_devices": 3}))
    stored = ["--design", design_path, "--site", site_path]
    runs = {
        "eval": (["eval", *stored], "evaluation.json", ["provider"]),
        "optimize": (["optimize", "--config", str(study), "--site", site_path],
                     "best_design.json", ["evaluation", "provenance", "provider"]),
        "random-layouts": (["analyze", "random-layouts", *stored, "--n", "100"],
                           "random_layouts.json", ["provider"]),
        "sensitivity": (["analyze", "sensitivity", *stored, "--wec", "1", "--resolution", "10"],
                        "sensitivity.json", ["provider"]),
        "benchmark": (["analyze", "benchmark", "--config", str(bench), "--site", site_path],
                      "benchmark.json", ["mode"]),
    }
    for name, (argv, written, keys) in runs.items():
        out = tmp_path / name
        assert cli.main([*argv, "--models", models_path, "--out-dir", str(out)]) == 0, name
        doc = json.load(open(out / written))
        for key in keys:
            doc = doc[key]
        assert doc == "surrogate", name
        manifest = assert_manifest_complete(str(out))
        assert sum(os.path.basename(p).startswith("committee_") for p in manifest["inputs"]) == 9
    capsys.readouterr()


def test_a_committee_file_with_nan_is_config_error(
    site_path, design_path, models_path, tmp_path, capsys
):
    # json.load reads NaN as a float; the committee would predict NaN and
    # eval would report a null p_v as feasible
    models = tmp_path / "models"
    models.mkdir()
    for tid in surrogate.ALL_TARGET_IDS:
        doc = json.load(open(os.path.join(models_path, f"committee_{tid}.json")))
        if tid == "single_damping":
            doc["members"][0]["weights"][0][0] = float("nan")
        (models / f"committee_{tid}.json").write_text(json.dumps(doc))
    out = tmp_path / "run"
    rc = cli.main([
        "eval", "--design", design_path, "--site", site_path, "--models", str(models),
        "--out-dir", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{models / 'committee_single_damping.json'}: non-finite number NaN" in err
    assert not out.exists()


def test_surrogate_validate_writes_one_map_per_committee(models_path, tmp_path, capsys):
    # the exact zero of the oracle against itself is pinned in
    # test_surrogate, below the command
    out = tmp_path / "val"
    rc = cli.main(["surrogate", "validate", "--models", models_path, "--out-dir", str(out)])
    assert rc == 2
    assert "above the" in capsys.readouterr().err
    doc = json.load(open(out / "validation.json"))
    assert doc["gate"] == cli.MSE_GATE
    assert [row["target_id"] for row in doc["maps"]] == list(surrogate.ALL_TARGET_IDS)
    assert doc["failed"] == [row["target_id"] for row in doc["maps"]
                             if row["mean_mse"] > cli.MSE_GATE] != []
    manifest = assert_manifest_complete(str(out))
    assert sorted(os.path.basename(p) for p in manifest["outputs"]) == sorted(
        [f"mse_{tid}.svg" for tid in surrogate.ALL_TARGET_IDS] + ["validation.json"]
    )
    assert sorted(os.path.basename(p) for p in manifest["inputs"]) == sorted(
        f"committee_{tid}.json" for tid in surrogate.ALL_TARGET_IDS
    )
