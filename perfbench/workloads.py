"""The benchmark's workloads: inputs from a seed, one unit of work, checks.

A unit is one thing a wecfarm user waits for, run through the package's
public API exactly as a caller would:

study2-ref       `wecfarm optimize` in-process (cli.main): study II, N=5,
                 population 40, reference provider, site alpha. Every genome
                 has its own radius, so evaluations share nothing; the
                 Bessel kernels and pair coefficients dominate.
study2-sur       the same GA through optimize.run_ga with a SurrogateProvider
                 over ten committees of the stock topology, trained briefly
                 in set-up; the surrogate's per-query J0/Y0 features and
                 forward passes dominate.
layout-scan      optimize.sensitivity_map of an N=10 design: plant and control
                 fixed, one device moves, so 36 of 45 pairs repeat between
                 neighbouring points. A cross-evaluation cache or a batched
                 assembly gains here and not on study2-ref.
surrogate-train  one pair map: oracle labelling (build_datasets), committee
                 fit, one query-by-committee round and validation on the
                 1800-point grid. Exercises nn training and the oracle and
                 bypasses mbe, dynamics, climate and the GA.

Checks compare against values recorded in expected.json for the recorded
unit (seed 0, first unit) and, for every seed, against invariants and
independent re-evaluations.
"""

import contextlib
import csv
import io
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from wecfarm import climate, cli, hydro, mbe, optimize, surrogate
from wecfarm.dynamics import PTO_STIFFNESS_BOUNDS, PtoSettings
from wecfarm.hydro import WecGeometry

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# A changed model constant moves outputs by far more than 1e-9 relative;
# a reordered sum or a Bessel backend agreeing to 1e-12 moves them by less.
# Training amplifies rounding through Adam, so trained outputs get 1e-6.
RTOL = 1e-9
RTOL_TRAINED = 1e-6
PENALTY = optimize.GaConfig().penalty_coeff
DESIGN_KEYS = ("radius", "slenderness", "pto_stiffness", "pto_damping", "pto_mode",
               "positions", "site_id")


def unit_seed(seed, rep):
    """Seed of the rep-th unit of a run; the recorded unit is unit_seed(0, 0)."""
    return 1000 * seed + rep


def mismatches(actual, expected, rtol, path="outputs"):
    """Where two JSON-like values differ beyond a relative tolerance."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        out = []
        for key in expected:
            out += mismatches(actual[key], expected[key], rtol, f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += mismatches(a, e, rtol, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=rtol, abs_tol=1e-300):
            return []
        return [f"{path}: {actual!r} != {expected!r} (rtol {rtol:g})"]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


def check_unit(workload, ctx, unit, expected):
    """Errors and untimed figures of one unit; recorded values where they exist."""
    if unit["error"] is not None:
        return [unit["error"]], {}
    errors, figures = workload.check(ctx, unit["outputs"])
    recorded = expected.get(workload.name)
    if recorded is not None and recorded["seed"] == unit["seed"]:
        errors += mismatches(unit["outputs"], recorded["outputs"], workload.rtol)
    return errors, figures


def probe_errors(ctx, expected):
    site = ctx.get("site") or build_site()
    return mismatches(probe_values(site, ctx["grid"], ctx["env"]), expected["probe"], RTOL,
                      "probe")


# --- shared inputs ------------------------------------------------------------


def build_site():
    data = ROOT / "data"
    config = json.loads((data / "site_alpha_config.json").read_text())
    (hs, tp) = config["bounds"]
    return climate.build_site_climate(
        climate.read_records_csv(data / "site_alpha.csv"),
        n_gq=config["n_gq"],
        bounds=(tuple(hs), tuple(tp)),
        years=config["years"],
        site_id=config["site_id"],
    )


def probe_design():
    return optimize.DesignPoint(
        WecGeometry(3.0, 1.5),
        PtoSettings(np.array([1e4]), np.array([2e5])),
        mbe.Layout(np.array([[0.0, 0.0], [40.0, 30.0], [80.0, -20.0], [20.0, -60.0],
                             [110.0, 50.0]])),
        site_id="alpha",
    )


def probe_values(site, grid, env):
    """Seed-independent reference outputs, checked in every run."""
    res = optimize.evaluate_design(probe_design(), grid, env, hydro.ReferenceProvider(), site)
    pair = hydro.pair_coefficients(WecGeometry(2.5, 1.0), 30.0, 0.7, grid, env)
    return {
        "p_a": res.p_a,
        "p_v": res.p_v,
        "q_factor": res.q_factor,
        "per_device_power": res.per_device_power.tolist(),
        "pair_added_mass_cross": pair.added_mass[::40, 0, 1].tolist(),
        "pair_damping_diag": pair.damping[::40, 0, 0].tolist(),
        "pair_excitation_re": pair.excitation[::40, 1].real.tolist(),
        "pair_excitation_im": pair.excitation[::40, 1].imag.tolist(),
    }


def _ga_outputs(best_pv, best_pa, best_fitness, evaluations, design, history):
    return {
        "best_pv": best_pv,
        "best_pa": best_pa,
        "best_fitness": best_fitness,
        "evaluations": evaluations,
        "design": design,
        "history_best_fitness": [row["best_fitness"] for row in history],
        "history_median_fitness": [row["median_fitness"] for row in history],
        "history_best_pv": [row["best_pv"] for row in history],
    }


def _ga_checks(out, population, generations, provider, site, grid, env):
    errors = []
    expected_evals = population + (population - 1) * generations
    if out["evaluations"] != expected_evals:
        errors.append(f"evaluations {out['evaluations']} != {expected_evals}")
    if len(out["history_best_pv"]) != generations:
        errors.append("history does not have one row per generation")
    best = out["history_best_fitness"]
    if any(later > earlier for earlier, later in zip(best, best[1:])):
        errors.append("best fitness increased between generations")
    errors += mismatches(out["history_best_pv"][-1], out["best_pv"], RTOL, "history best_pv")
    redo = optimize.evaluate_design(
        optimize.design_from_dict(out["design"]), grid, env, provider, site, with_q=False
    )
    errors += mismatches(redo.p_v, out["best_pv"], RTOL, "re-evaluated best_pv")
    errors += mismatches(
        optimize.penalized_fitness(redo, PENALTY), out["best_fitness"], RTOL,
        "re-evaluated best_fitness",
    )
    if not out["best_pv"] > 0.0:
        errors.append("best design absorbs no power")
    return errors


# --- workloads ----------------------------------------------------------------


class Study2Ref:
    name = "study2-ref"
    why = "the headline `wecfarm optimize` run, reference provider: Bessel-bound, nothing shared"
    item = (optimize, "evaluate_design")
    rtol = RTOL

    def __init__(self, small=False):
        self.population = 4 if small else 40
        self.generations = 1 if small else 2

    def setup(self, seed):
        work = WORK / self.name
        work.mkdir(parents=True, exist_ok=True)
        site = build_site()
        site_path = work / "alpha.json"
        climate.save_site(site, site_path)
        grid, env = hydro.FrequencyGrid.default(), hydro.Environment()
        optimize.evaluate_design(probe_design(), grid, env, hydro.ReferenceProvider(), site)
        return {"work": work, "site": site, "site_path": site_path, "grid": grid, "env": env}

    def unit(self, ctx, seed):
        config_path = ctx["work"] / "study2.json"
        config_path.write_text(json.dumps({
            "study": "II",
            "n_devices": 5,
            "ga": {"population": self.population, "generations": self.generations,
                   "seed": seed},
        }))
        out_dir = ctx["work"] / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["optimize", "--config", str(config_path),
                             "--site", str(ctx["site_path"]), "--out-dir", str(out_dir)])
        if code != 0:
            raise RuntimeError(f"wecfarm optimize exited with {code}")
        best = json.loads((out_dir / "best_design.json").read_text())
        with open(out_dir / "history.csv", newline="") as fh:
            history = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        design = {k: best[k] for k in DESIGN_KEYS}
        ctx["artifact_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
        ev = best["evaluation"]
        return _ga_outputs(ev["p_v"], ev["p_a"], best["best_fitness"], best["evaluations"],
                           design, history)

    def check(self, ctx, out):
        errors = _ga_checks(out, self.population, self.generations,
                            hydro.ReferenceProvider(), ctx["site"], ctx["grid"], ctx["env"])
        return errors, {"best_pv": out["best_pv"], "artifact_bytes": ctx["artifact_bytes"]}


def train_brief_committees(seed, grid, env, small=False):
    """Ten stock-topology committees on small labelled sets and few epochs.

    The forward cost depends on the topology only, so it matches fully
    trained models; the accuracy does not, and is reported, not gated.
    """
    oracle = hydro.ReferenceProvider()
    sizes = {"single": 50, "pair": 50} if small else {"single": 60, "pair": 120}
    epochs = 2 if small else 20
    committees = {}
    with warnings.catch_warnings():
        # the single-body excitation phase is zero, so that map is constant
        warnings.filterwarnings("ignore", message=".*constant outputs")
        for kind, n in sizes.items():
            datasets = surrogate.build_datasets(
                kind, n, seed=[seed, kind == "pair"], grid=grid, env=env, oracle=oracle,
                edge_fraction=surrogate.EDGE_FRACTION,
            )
            for tid, data in datasets.items():
                config = replace(surrogate.default_config(tid, seed=seed), epochs=epochs)
                committees[tid] = surrogate.train_committee(data, config)
    return committees


class Study2Sur:
    name = "study2-sur"
    why = "the same GA on learned committees: per-query surrogate features and nn forward passes"
    item = (optimize, "evaluate_design")
    rtol = RTOL_TRAINED

    def __init__(self, small=False):
        self.small = small
        self.population = 4 if small else 40
        self.generations = 1 if small else 2

    def setup(self, seed):
        site = build_site()
        grid, env = hydro.FrequencyGrid.default(), hydro.Environment()
        committees = train_brief_committees(seed, grid, env, self.small)
        optimize.evaluate_design(probe_design(), grid, env,
                                 surrogate.SurrogateProvider(committees), site)
        return {"site": site, "grid": grid, "env": env, "committees": committees}

    def _provider(self, ctx):
        return surrogate.SurrogateProvider(ctx["committees"])

    def unit(self, ctx, seed):
        spec = optimize.StudySpec(
            study="II",
            site=ctx["site"],
            n_devices=5,
            ga=optimize.GaConfig(population=self.population, generations=self.generations,
                                 seed=seed),
            provider_mode="surrogate",
        )
        result = optimize.run_ga(spec, ctx["grid"], ctx["env"], self._provider(ctx))
        ev = result.best_result
        return _ga_outputs(ev.p_v, ev.p_a, result.best_fitness, result.evaluations,
                           optimize.design_to_dict(result.best_design), result.history)

    def check(self, ctx, out):
        grid, env, site = ctx["grid"], ctx["env"], ctx["site"]
        errors = _ga_checks(out, self.population, self.generations, self._provider(ctx),
                            site, grid, env)
        reference = optimize.evaluate_design(
            optimize.design_from_dict(out["design"]), grid, env, hydro.ReferenceProvider(),
            site, with_q=False,
        ).p_v
        if not (np.isfinite(reference) and reference > 0.0):
            errors.append(f"reference p_v of the best design is {reference!r}")
            return errors, {"best_pv": out["best_pv"]}
        rel_err = abs(out["best_pv"] - reference) / reference
        return errors, {"best_pv": out["best_pv"], "best_pv_rel_err": rel_err}


def scan_design(seed, n_devices, resolution):
    """A design whose other devices sit at cell centres of the scan grid.

    Cell centres are at least 24.8 m from every grid node at N=10 and
    resolution 10, more than the 15 m passage floor of a radius below
    2.5 m, so every point of the map is feasible and every unit does the
    same work.
    """
    rng = np.random.default_rng(seed)
    half = optimize.farm_half_width(n_devices)
    xs = np.linspace(0.0, half, resolution)
    ys = np.linspace(-half, half, resolution)
    centres = np.array([((xs[i] + xs[i + 1]) / 2, (ys[j] + ys[j + 1]) / 2)
                        for i in range(resolution - 1) for j in range(resolution - 1)])
    picked = centres[rng.choice(len(centres), size=n_devices - 1, replace=False)]
    radius = rng.uniform(1.0, 2.5)
    lo, hi = surrogate.slenderness_interval(radius)
    design = optimize.DesignPoint(
        WecGeometry(radius, rng.uniform(lo, hi)),
        PtoSettings(np.array([rng.uniform(*PTO_STIFFNESS_BOUNDS)]),
                    np.array([rng.uniform(1e4, 5e5)])),
        mbe.Layout(np.vstack([[0.0, 0.0], picked])),
        site_id="alpha",
    )
    return design, int(rng.integers(1, n_devices))


def _nan_to_none(values):
    return [[None if not np.isfinite(v) else float(v) for v in row] for row in values]


class LayoutScan:
    name = "layout-scan"
    why = "sensitivity map at N=10: shared plant and control, 36 of 45 pairs repeat per step"
    item = (optimize, "evaluate_design")
    rtol = RTOL

    def __init__(self, small=False):
        self.n_devices = 3 if small else 10
        self.resolution = 10

    def setup(self, seed):
        site = build_site()
        grid, env = hydro.FrequencyGrid.default(), hydro.Environment()
        optimize.evaluate_design(probe_design(), grid, env, hydro.ReferenceProvider(), site)
        return {"site": site, "grid": grid, "env": env}

    def unit(self, ctx, seed):
        design, wec = scan_design(seed, self.n_devices, self.resolution)
        sm = optimize.sensitivity_map(design, wec, self.resolution, hydro.ReferenceProvider(),
                                      ctx["grid"], ctx["env"], ctx["site"])
        return {
            "design": optimize.design_to_dict(design),
            "wec_index": wec,
            "values": _nan_to_none(sm.values),
            "argmax_position": sm.argmax_position.tolist(),
            "argmax_pv": sm.argmax_pv,
            "design_pv": sm.design_pv,
        }

    def check(self, ctx, out):
        errors = []
        design = optimize.design_from_dict(out["design"])
        wec = out["wec_index"]
        half = optimize.farm_half_width(design.n_devices)
        xs = np.linspace(0.0, half, self.resolution)
        ys = np.linspace(-half, half, self.resolution)
        others = np.delete(design.layout.positions, wec, axis=0)
        floor = 2.0 * design.geometry.radius + optimize.SAFE_PASSAGE
        values = np.array([[np.nan if v is None else v for v in row] for row in out["values"]])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                blocked = np.any(np.hypot(others[:, 0] - x, others[:, 1] - y) < floor)
                if blocked != np.isnan(values[i, j]):
                    errors.append(f"feasibility of map point ({i}, {j}) is wrong")
        flat = int(np.nanargmax(values))
        i, j = flat // self.resolution, flat % self.resolution
        errors += mismatches(out["argmax_position"], [float(xs[i]), float(ys[j])], RTOL,
                             "argmax_position")
        errors += mismatches(out["argmax_pv"], float(values[i, j]), RTOL, "argmax_pv")

        def redo(position):
            pos = design.layout.positions.copy()
            pos[wec] = position
            trial = optimize.DesignPoint(design.geometry, design.pto, mbe.Layout(pos),
                                         design.site_id)
            return optimize.evaluate_design(trial, ctx["grid"], ctx["env"],
                                            hydro.ReferenceProvider(), ctx["site"],
                                            with_q=False).p_v

        errors += mismatches(redo([xs[i], ys[j]]), out["argmax_pv"], RTOL, "re-evaluated argmax")
        errors += mismatches(redo(design.layout.positions[wec]), out["design_pv"], RTOL,
                             "re-evaluated design_pv")
        return errors, {"best_pv": out["argmax_pv"]}


# independent extraction of each pair map from the closed-form coefficients
_PAIR_MAPS = {
    "pair_added_mass_diag": lambda c: c.added_mass[:, 0, 0],
    "pair_damping_diag": lambda c: c.damping[:, 0, 0],
    "pair_added_mass_cross": lambda c: c.added_mass[:, 0, 1],
    "pair_damping_cross": lambda c: c.damping[:, 0, 1],
    "pair_excitation_re": lambda c: c.excitation[:, 0].real,
    "pair_excitation_im": lambda c: c.excitation[:, 0].imag,
}


class SurrogateTrain:
    name = "surrogate-train"
    why = "committee write side: oracle labelling, fit, one QBC round, 1800-point validation"
    item = (hydro.ReferenceProvider, "pair")
    rtol = RTOL_TRAINED

    def __init__(self, small=False):
        self.n_initial = 50 if small else 200
        self.epochs = 2 if small else 30
        self.round_epochs = 2 if small else 15
        self.pool = 60 if small else 300
        self.batch_points = 5 if small else 50
        self.counts = (2, 2, 3, 2) if small else None  # None: the stock 6x6x10x5 grid

    def setup(self, seed):
        grid, env = hydro.FrequencyGrid.default(), hydro.Environment()
        oracle = hydro.ReferenceProvider()
        warm_up = surrogate.sample_inputs("pair", 10, np.random.default_rng([seed, 11]))
        surrogate.label_inputs("pair_damping_cross", warm_up, grid, env, oracle)
        return {"grid": grid, "env": env, "oracle": oracle}

    def unit(self, ctx, seed):
        grid, env, oracle = ctx["grid"], ctx["env"], ctx["oracle"]
        tid = surrogate.PAIR_TARGET_IDS[seed % len(surrogate.PAIR_TARGET_IDS)]
        datasets = surrogate.build_datasets("pair", self.n_initial, seed, grid, env, oracle,
                                            edge_fraction=surrogate.EDGE_FRACTION)
        config = replace(surrogate.default_config(tid, seed=seed), epochs=self.epochs,
                         round_epochs=self.round_epochs)
        committee = surrogate.train_committee(datasets[tid], config)
        pool = surrogate.sample_inputs("pair", self.pool, np.random.default_rng([seed, 7]),
                                       edge_fraction=surrogate.EDGE_FRACTION)
        dataset, committee = surrogate.qbc_round(committee, pool, self.batch_points, oracle)
        vm = surrogate.validate_on_grid(committee, oracle, counts=self.counts)
        return {
            "target_id": tid,
            "samples": dataset.n_samples,
            "inputs": dataset.inputs.tolist(),
            "label_sum": float(dataset.outputs.sum()),
            "labels_checked": dataset.outputs[:: max(1, dataset.n_samples // 4)].tolist(),
            "member_mse": [float(m) for m in committee.member_mse],
            "val_points": vm.points.shape[0],
            "val_mse": vm.mean,
            "val_mse_max": vm.max,
        }

    def check(self, ctx, out):
        errors = []
        if out["samples"] != self.n_initial + self.batch_points:
            errors.append(f"dataset has {out['samples']} samples")
        inputs = np.array(out["inputs"])
        if len({row.tobytes() for row in inputs}) != inputs.shape[0]:
            errors.append("a labelled point entered the dataset twice")
        extract = _PAIR_MAPS[out["target_id"]]
        stride = max(1, out["samples"] // 4)
        for row, labels in zip(inputs[::stride], out["labels_checked"]):
            truth = extract(hydro.pair_coefficients(
                WecGeometry(row[0], row[1]), row[2], row[3], ctx["grid"], ctx["env"]))
            errors += mismatches(labels, truth.tolist(), RTOL, f"label at {row.tolist()}")
        if not (np.isfinite(out["val_mse"]) and out["val_mse"] > 0.0):
            errors.append(f"validation MSE is {out['val_mse']!r}")
        return errors, {"val_mse": out["val_mse"]}


WORKLOADS = {w.name: w for w in (Study2Ref, Study2Sur, LayoutScan, SurrogateTrain)}
