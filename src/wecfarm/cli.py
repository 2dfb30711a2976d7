"""Command line front end.

Every command reads structured JSON configuration, writes its numeric
outputs deterministically (same config and seed give byte-identical
files) and drops exactly one manifest.json in the run directory with
input digests and timestamps. Exit codes: 0 success, 1 configuration or
validation problem, 2 runtime or numerical failure.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, climate, hydro, optimize, surrogate, svg

ARTIFACT_VERSION = __version__
OUT_ROOT_ENV = "WECFARM_OUT"
MSE_GATE = 1e-2


class ConfigError(ValueError):
    """Anything wrong with user-supplied configuration or inputs."""


# --- plumbing -------------------------------------------------------------


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _now():
    return datetime.now(timezone.utc).isoformat()


def _load_json(path, what="config"):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")


def _out_dir(args, default_leaf):
    root = args.out_dir or os.path.join(os.environ.get(OUT_ROOT_ENV, "runs"), default_leaf)
    os.makedirs(root, exist_ok=True)
    return root


def _strict(doc):
    """Copy of `doc` with non-finite floats as None, so it dumps as strict JSON."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {k: _strict(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_strict(v) for v in doc]
    return doc


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(_strict(doc), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


class Manifest:
    """Collects inputs/outputs during a command and writes manifest.json."""

    def __init__(self, command, seed, config_doc):
        self.command = command
        self.seed = seed
        self.started = _now()
        self.config_hash = hashlib.sha256(
            json.dumps(config_doc, sort_keys=True).encode()
        ).hexdigest()[:16]
        self.inputs = {}
        self.outputs = []

    def read(self, path):
        self.inputs[str(path)] = _sha256(path)
        return path

    def wrote(self, path):
        self.outputs.append(str(path))
        return path

    def write(self, out_dir):
        doc = {
            "artifact_version": ARTIFACT_VERSION,
            "command": self.command,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "started": self.started,
            "finished": _now(),
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
        }
        return _write_json(os.path.join(out_dir, "manifest.json"), doc)


def _frequency_grid(config):
    count = int(config.get("frequency_count", 200))
    if count < 10:
        raise ConfigError("frequency_count below 10 cannot resolve the band")
    return hydro.FrequencyGrid.default(count=count)


def _load_committees(models_dir, manifest):
    committees = {}
    for tid in surrogate.ALL_TARGET_IDS:
        path = os.path.join(models_dir, f"committee_{tid}.json")
        if not os.path.exists(path):
            raise ConfigError(f"missing model file {path}; run `wecfarm surrogate train` first")
        committees[tid] = surrogate.load_committee(manifest.read(path))
    return committees


def _provider(args, manifest, config=None):
    if args.provider == "reference":
        return hydro.ReferenceProvider()
    if not args.models:
        raise ConfigError("--models is required when --provider surrogate")
    committees = _load_committees(args.models, manifest)
    projection = bool(config.get("haskind_projection", False)) if config else False
    return surrogate.SurrogateProvider(committees, haskind_projection=projection)


def _load_site(path, manifest):
    try:
        return climate.load_site(manifest.read(path))
    except FileNotFoundError:
        raise ConfigError(f"site file not found: {path}")


def _load_design(path, manifest):
    doc = _load_json(manifest.read(path), what="design")
    try:
        return optimize.design_from_dict(doc)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: not a valid design file ({exc})")


# --- commands -------------------------------------------------------------


def cmd_sites_build(args):
    config = _load_json(args.config)
    manifest = Manifest("sites build", args.seed, config)
    out = _out_dir(args, "site")

    records = climate.read_records_csv(manifest.read(args.records))
    bounds = config.get("bounds")
    if bounds is None:
        raise ConfigError("site config needs 'bounds': [[hs_lo, hs_hi], [tp_lo, tp_hi]]")
    site = climate.build_site_climate(
        records,
        n_gq=int(config.get("n_gq", 20)),
        bounds=(tuple(bounds[0]), tuple(bounds[1])),
        years=int(config.get("years", 30)),
        site_id=config.get("site_id", "site"),
    )
    site_path = os.path.join(out, f"{site.site_id}.json")
    climate.save_site(site, site_path)
    manifest.wrote(site_path)
    manifest.wrote(
        svg.write_heatmap(
            os.path.join(out, f"{site.site_id}_probability.svg"),
            site.grid.hs_nodes,
            site.grid.tp_nodes,
            site.probability,
            title=f"sea-state probability: {site.site_id}",
            xlabel="Hs [m]",
            ylabel="Tp [s]",
        )
    )
    manifest.write(out)
    print(f"site {site.site_id}: {records.shape[0]} records -> {site_path}")
    return 0


def cmd_surrogate_train(args):
    config = _load_json(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    manifest = Manifest("surrogate train", seed, config)
    out = _out_dir(args, "models")

    grid = _frequency_grid(config)
    env = hydro.Environment()
    oracle = hydro.ReferenceProvider()
    kinds = tuple(config.get("kinds", ("single", "pair")))
    if any(k not in ("single", "pair") for k in kinds):
        raise ConfigError(f"kinds must be drawn from single/pair, got {kinds}")

    def progress(message):
        print(f"  {message}", flush=True)

    committees = surrogate.train_standard_committees(
        seed, grid, env, oracle, kinds=kinds, progress=progress
    )
    for tid, committee in committees.items():
        path = os.path.join(out, f"committee_{tid}.json")
        surrogate.save_committee(committee, path)
        manifest.wrote(path)
        data_path = os.path.join(out, f"dataset_{tid}.csv")
        surrogate.save_dataset(committee.dataset, data_path)
        manifest.wrote(data_path)
    manifest.write(out)
    print(f"trained {len(committees)} committees -> {out}")
    return 0


def cmd_surrogate_validate(args):
    config = _load_json(args.config) if args.config else {}
    manifest = Manifest("surrogate validate", args.seed, config)
    out = _out_dir(args, "validation")

    env = hydro.Environment()
    oracle = hydro.ReferenceProvider()
    rows = []
    failed = []
    if args.cheat:
        grid = _frequency_grid(config)
        sources = {
            tid: surrogate.CheatingCommittee(tid, grid, env, oracle)
            for tid in surrogate.ALL_TARGET_IDS
        }
    elif args.models:
        sources = _load_committees(args.models, manifest)
    else:
        raise ConfigError("surrogate validate needs --models or --cheat")

    for tid in surrogate.ALL_TARGET_IDS:
        committee = sources[tid]
        vm = surrogate.validate_on_grid(committee, oracle)
        rows.append({"target_id": tid, "mean_mse": vm.mean, "max_mse": vm.max})
        print(f"{tid}: mean={vm.mean:.3e} max={vm.max:.3e}", flush=True)
        if vm.mean > MSE_GATE:
            failed.append(tid)
        if surrogate.target_kind(tid) == "single":
            r_nodes = np.unique(vm.points[:, 0])
            matrix = vm.mse.reshape(r_nodes.size, -1)
            manifest.wrote(
                svg.write_heatmap(
                    os.path.join(out, f"mse_{tid}.svg"),
                    r_nodes,
                    np.linspace(0.0, 1.0, matrix.shape[1]),
                    matrix,
                    title=f"validation MSE: {tid}",
                    xlabel="radius [m]",
                    ylabel="slenderness (unit coordinate)",
                )
            )
        else:
            manifest.wrote(
                svg.write_histogram(
                    os.path.join(out, f"mse_{tid}.svg"),
                    np.log10(np.maximum(vm.mse, 1e-16)),
                    title=f"validation MSE: {tid}",
                    xlabel="log10 per-point MSE",
                )
            )
    summary = {
        "schema_version": 1,
        "gate": MSE_GATE,
        "maps": rows,
        "failed": failed,
    }
    manifest.wrote(_write_json(os.path.join(out, "validation.json"), summary))
    manifest.write(out)
    if failed:
        print(f"error: {len(failed)} map(s) above the {MSE_GATE:g} gate: {', '.join(failed)}",
              file=sys.stderr)
        return 2
    return 0


def _ga_config(doc, seed):
    kw = dict(doc)
    if seed is not None:
        kw["seed"] = seed
    try:
        return optimize.GaConfig(**kw)
    except TypeError as exc:
        raise ConfigError(f"ga config: {exc}")


def cmd_optimize(args):
    config = _load_json(args.config)
    seed = args.seed if args.seed is not None else config.get("ga", {}).get("seed", 0)
    manifest = Manifest("optimize", seed, config)
    out = _out_dir(args, "study")

    site = _load_site(args.site, manifest)
    provider = _provider(args, manifest, config)
    grid = _frequency_grid(config)
    env = hydro.Environment()

    study = config.get("study")
    if study not in optimize.STUDIES:
        raise ConfigError(f"study must be one of {optimize.STUDIES}, got {study!r}")
    inject = None
    if config.get("inject_design"):
        donor = _load_design(config["inject_design"], manifest)
        inject = optimize.encode(study, donor)
    spec = optimize.StudySpec(
        study=study,
        site=site,
        n_devices=int(config.get("n_devices", 5)),
        fixed_control=tuple(config["fixed_control"]) if config.get("fixed_control") else None,
        ga=_ga_config(config.get("ga", {}), seed),
        provider_mode=provider.name,
        inject_genes=inject,
    )

    def progress(row):
        if row["generation"] % 10 == 0:
            print(f"  gen {row['generation']:3d}: best {row['best_fitness']:.6g} "
                  f"feasible {row['feasible_fraction']:.0%}", flush=True)

    result = optimize.run_ga(spec, grid, env, provider, progress=progress)

    manifest.wrote(_write_json(os.path.join(out, "config_snapshot.json"), config))
    hist_path = os.path.join(out, "history.csv")
    with open(hist_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["generation", "best_fitness", "median_fitness",
                        "feasible_fraction", "best_pv"],
        )
        writer.writeheader()
        for row in result.history:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    manifest.wrote(hist_path)

    ev = result.best_result
    best_doc = {
        "schema_version": 1,
        "study": spec.study,
        "seed": spec.ga.seed,
        **optimize.design_to_dict(result.best_design),
        "evaluation": {
            "p_a": ev.p_a,
            "p_v": ev.p_v,
            "q_factor": ev.q_factor,
            "per_device_power": ev.per_device_power.tolist(),
            "feasible": ev.feasible,
            "max_violation": float(ev.violations.max()) if ev.violations.size else 0.0,
            "provenance": ev.provenance,
        },
        "best_fitness": result.best_fitness,
        "evaluations": result.evaluations,
    }
    manifest.wrote(_write_json(os.path.join(out, "best_design.json"), best_doc))
    manifest.wrote(
        svg.write_layout(
            os.path.join(out, "layout.svg"),
            result.best_design.layout.positions,
            result.best_design.geometry.radius,
            optimize.farm_half_width(spec.n_devices),
            title=f"study {spec.study} best layout (p_v {ev.p_v:.4g} W/m^3)",
        )
    )
    manifest.wrote(svg.write_convergence(os.path.join(out, "convergence.svg"), result.history))
    if spec.study == "III":
        pto_path = os.path.join(out, "pto_per_device.csv")
        with open(pto_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["device", "x", "y", "stiffness", "damping", "lifetime_power"])
            k_arr, b_arr = result.best_design.pto.arrays_for(spec.n_devices)
            for d in range(spec.n_devices):
                x, y = result.best_design.layout.positions[d]
                writer.writerow([d, repr(x), repr(y), repr(k_arr[d]), repr(b_arr[d]),
                                 repr(float(ev.per_device_power[d]))])
        manifest.wrote(pto_path)
    manifest.write(out)
    print(f"study {spec.study}: best p_v {ev.p_v:.6g} W/m^3, "
          f"feasible={ev.feasible}, q={ev.q_factor:.4f} -> {out}")
    return 0


def cmd_analyze_benchmark(args):
    config = _load_json(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    manifest = Manifest("analyze benchmark", seed, config)
    out = _out_dir(args, "benchmark")

    site = _load_site(args.site, manifest)
    grid = _frequency_grid(config)
    env = hydro.Environment()
    reference = hydro.ReferenceProvider()
    if args.cheat:
        # a second instance, so the comparison does not read the first
        # one's memo of the same query
        against, mode = hydro.ReferenceProvider(), "cheating-reference"
    else:
        against = _provider(args, manifest, config)
        if against.name != "surrogate":
            raise ConfigError("benchmark compares the surrogate against the reference; "
                              "pass --provider surrogate with --models, or --cheat")
        mode = against.name

    stats = optimize.power_error_benchmark(
        int(config.get("n", 1000)),
        grid,
        env,
        reference,
        against,
        site,
        n_devices=int(config.get("n_devices", 5)),
        seed=seed,
    )
    doc = {
        "schema_version": 1,
        "mode": mode,
        "n": int(config.get("n", 1000)),
        "seed": seed,
        "skipped": stats.skipped,
        "percentiles": {str(k): v for k, v in stats.percentiles.items()},
    }
    manifest.wrote(_write_json(os.path.join(out, "benchmark.json"), doc))
    err_path = os.path.join(out, "errors.csv")
    with open(err_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pv_reference", "pv_surrogate", "relative_error"])
        for (ref, sur), err in zip(stats.pv_pairs, stats.errors):
            writer.writerow([repr(ref), repr(sur), repr(err)])
    manifest.wrote(err_path)
    manifest.wrote(
        svg.write_histogram(
            os.path.join(out, "error_histogram.svg"),
            stats.errors,
            title=f"relative objective error ({mode})",
            xlabel="|pv_s - pv_r| / pv_r",
        )
    )
    manifest.wrote(
        svg.write_scatter(
            os.path.join(out, "scatter.svg"),
            stats.pv_pairs,
            title="surrogate vs reference objective",
            xlabel="reference p_v [W/m^3]",
            ylabel="surrogate p_v [W/m^3]",
        )
    )
    manifest.write(out)
    print(f"benchmark ({mode}): p50={stats.percentiles[50]:.3e} "
          f"p95={stats.percentiles[95]:.3e} p99={stats.percentiles[99]:.3e} "
          f"skipped={stats.skipped}")
    return 0


def cmd_analyze_random_layouts(args):
    config = {"n": args.n}
    seed = args.seed if args.seed is not None else 0
    manifest = Manifest("analyze random-layouts", seed, config)
    out = _out_dir(args, "random-layouts")

    site = _load_site(args.site, manifest)
    design = _load_design(args.design, manifest)
    provider = _provider(args, manifest)
    grid = _frequency_grid({})
    env = hydro.Environment()

    hist = optimize.random_layout_analysis(
        design, args.n, provider, grid, env, site, seed=seed
    )
    doc = {
        "schema_version": 1,
        "provider": provider.name,
        "n": args.n,
        "seed": seed,
        "design_pv": hist.design_pv,
        "percentile": hist.percentile,
        "random_pv_min": float(hist.values.min()),
        "random_pv_max": float(hist.values.max()),
    }
    manifest.wrote(_write_json(os.path.join(out, "random_layouts.json"), doc))
    manifest.wrote(
        svg.write_histogram(
            os.path.join(out, "random_layouts.svg"),
            hist.values,
            title=f"objective of {args.n} random feasible layouts",
            xlabel="p_v [W/m^3]",
            marker=hist.design_pv,
            marker_label=f"design ({hist.percentile:.1f} pct)",
        )
    )
    manifest.write(out)
    print(f"design p_v {hist.design_pv:.6g} ranks at the {hist.percentile:.1f}th percentile "
          f"of {args.n} random layouts")
    return 0


def cmd_analyze_sensitivity(args):
    config = {"wec_index": args.wec, "resolution": args.resolution}
    manifest = Manifest("analyze sensitivity", args.seed, config)
    out = _out_dir(args, "sensitivity")

    site = _load_site(args.site, manifest)
    design = _load_design(args.design, manifest)
    provider = _provider(args, manifest)
    grid = _frequency_grid({})
    env = hydro.Environment()

    sm = optimize.sensitivity_map(
        design, args.wec, args.resolution, provider, grid, env, site
    )
    doc = {
        "schema_version": 1,
        "provider": provider.name,
        "wec_index": args.wec,
        "resolution": args.resolution,
        "design_position": sm.design_position.tolist(),
        "argmax_position": sm.argmax_position.tolist(),
        "argmax_offset": sm.argmax_offset,
        "design_pv": sm.design_pv,
        "argmax_pv": sm.argmax_pv,
        "x_axis": sm.x_axis.tolist(),
        "y_axis": sm.y_axis.tolist(),
        "values": sm.values.tolist(),
    }
    manifest.wrote(_write_json(os.path.join(out, "sensitivity.json"), doc))
    manifest.wrote(
        svg.write_heatmap(
            os.path.join(out, "sensitivity.svg"),
            sm.x_axis,
            sm.y_axis,
            sm.values,
            title=f"objective vs device {args.wec} position",
            xlabel="x [m]",
            ylabel="y [m]",
        )
    )
    manifest.write(out)
    print(f"argmax offset {sm.argmax_offset:.2f} m from the design position "
          f"(p_v {sm.design_pv:.6g} vs {sm.argmax_pv:.6g} at grid argmax)")
    return 0


def cmd_eval(args):
    manifest = Manifest("eval", args.seed, {})
    out = _out_dir(args, "eval")

    site = _load_site(args.site, manifest)
    design = _load_design(args.design, manifest)
    provider = _provider(args, manifest)
    grid = _frequency_grid({})
    env = hydro.Environment()

    result = optimize.evaluate_design(design, grid, env, provider, site, seed=args.seed)
    doc = {
        "schema_version": 1,
        "provider": provider.name,
        "p_a": result.p_a,
        "p_v": result.p_v,
        "q_factor": result.q_factor,
        "per_device_power": result.per_device_power.tolist(),
        "feasible": result.feasible,
        "violations": result.violations.tolist(),
        "provenance": result.provenance,
    }
    manifest.wrote(_write_json(os.path.join(out, "evaluation.json"), doc))
    manifest.write(out)
    print(json.dumps(_strict(doc), sort_keys=True, allow_nan=False))
    return 0


# --- argument parsing -----------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wecfarm",
        description="Wave farm design toolkit: sites, surrogates, optimization, analysis.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out-dir", default=None,
                        help=f"run directory (default: ${OUT_ROOT_ENV}/<command>)")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # child parser from clobbering a value given up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out-dir", dest="out_dir", default=argparse.SUPPRESS)
    # the coefficient provider of every command that evaluates designs
    provider = argparse.ArgumentParser(add_help=False)
    provider.add_argument("--provider", choices=("reference", "surrogate"), default="reference")
    provider.add_argument("--models", default=None,
                          help="committee directory for --provider surrogate")
    sub = parser.add_subparsers(dest="command", required=True)

    sites = sub.add_parser("sites", help="site climate tools").add_subparsers(
        dest="subcommand", required=True
    )
    build = sites.add_parser("build", parents=[common],
                             help="KDE site climate from (Hs, Tp) records")
    build.add_argument("--records", required=True, help="CSV with header hs_m,tp_s")
    build.add_argument("--config", required=True, help="JSON with bounds/n_gq/years/site_id")
    build.set_defaults(func=cmd_sites_build)

    sur = sub.add_parser("surrogate", help="committee training and validation").add_subparsers(
        dest="subcommand", required=True
    )
    train = sur.add_parser("train", parents=[common], help="train the ten coefficient committees")
    train.add_argument("--config", default=None, help="JSON training overrides")
    train.set_defaults(func=cmd_surrogate_train)
    val = sur.add_parser("validate", parents=[common], help="grid MSE of stored committees vs the reference")
    val.add_argument("--models", default=None, help="directory with committee_*.json")
    val.add_argument("--config", default=None)
    val.add_argument("--cheat", action="store_true",
                     help="validate the oracle against itself (must be exactly zero)")
    val.set_defaults(func=cmd_surrogate_validate)

    opt = sub.add_parser("optimize", parents=[common, provider], help="run one GA study")
    opt.add_argument("--config", required=True, help="study JSON")
    opt.add_argument("--site", required=True, help="site climate JSON")
    opt.set_defaults(func=cmd_optimize)

    ana = sub.add_parser("analyze", help="benchmark and appendix analyses").add_subparsers(
        dest="subcommand", required=True
    )
    bench = ana.add_parser("benchmark", parents=[common, provider],
                           help="surrogate-vs-reference objective error")
    bench.add_argument("--config", default=None)
    bench.add_argument("--site", required=True)
    bench.add_argument("--cheat", action="store_true",
                       help="benchmark the reference against itself (errors exactly zero)")
    bench.set_defaults(func=cmd_analyze_benchmark)
    rnd = ana.add_parser("random-layouts", parents=[common, provider],
                         help="objective histogram over random layouts")
    rnd.add_argument("--design", required=True)
    rnd.add_argument("--site", required=True)
    rnd.add_argument("--n", type=int, default=250)
    rnd.set_defaults(func=cmd_analyze_random_layouts)
    sens = ana.add_parser("sensitivity", parents=[common, provider],
                          help="objective map around one device")
    sens.add_argument("--design", required=True)
    sens.add_argument("--site", required=True)
    sens.add_argument("--wec", type=int, required=True)
    sens.add_argument("--resolution", type=int, default=15)
    sens.set_defaults(func=cmd_analyze_sensitivity)

    ev = sub.add_parser("eval", parents=[common, provider], help="evaluate one stored design")
    ev.add_argument("--design", required=True)
    ev.add_argument("--site", required=True)
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are validation errors here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime/numerical failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
