"""Command line front end.

Every command reads structured JSON configuration, writes its numeric
outputs deterministically (same config and seed give byte-identical
files) and drops exactly one manifest.json in the run directory with
input digests and timestamps. `--models DIR` selects the surrogate and
its committees' grid, else the reference runs on the config's grid; a
seed is a config key, but `analyze random-layouts` reads `--seed`. Exit
codes: 0 success, 1 configuration or validation problem, 2 runtime or
numerical failure.
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

# the top-level keys each command's --config may hold, all of which it
# reads; any other key is a ConfigError. Stored committees bring their
# own grid, so with --models `frequency_count` is not a key.
CONFIG_KEYS = {
    "sites build": ("bounds", "n_gq", "years", "site_id"),
    "surrogate train": ("frequency_count", "seed"),
    "surrogate validate": ("frequency_count",),
    "optimize": ("study", "n_devices", "fixed_control", "ga", "inject_design", "frequency_count"),
    "analyze benchmark": ("n", "n_devices", "seed", "frequency_count"),
}


class ConfigError(ValueError):
    """Anything wrong with user-supplied configuration or inputs."""


# --- plumbing -------------------------------------------------------------


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


def _load_config(args, command):
    """The --config document, {} without one: only CONFIG_KEYS[command], less frequency_count
    with --models."""
    config = _load_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object")
    models = getattr(args, "models", None)
    keys = [key for key in CONFIG_KEYS[command] if not (models and key == "frequency_count")]
    unknown = ", ".join(map(repr, sorted(set(config) - set(keys))))
    if unknown:
        raise ConfigError(f"{args.config}: unknown config key {unknown}; {command}"
                          f"{' with --models' if models else ''} reads "
                          f"{', '.join(keys) or 'no key'}")
    return config


def _config_int(config, key, default, name=None):
    """config[key] as an int: an integral number such as 5 or 5.0, not 2.7 or "5".

    An error names the key as `name`, by default `key` itself.
    """
    value = config.get(key, default)
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"config key {name or key!r} must be an integer, got {value!r}")
    return int(value)


def _config_value(config, key, default, check, what):
    """config[key], else `default`; a value failing `check` names the key and `what` it must be."""
    value = config.get(key, default)
    if not check(value):
        raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    return value


def _is_pair(value):
    """A JSON list of two numbers."""
    return isinstance(value, list) and len(value) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    )


def _strict(doc):
    """Copy of `doc` with non-finite floats as None, so it dumps as strict JSON."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {k: _strict(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_strict(v) for v in doc]
    return doc


class Run:
    """One command's run directory and the manifest.json that records it.

    The directory is `--out-dir`, else `leaf` under $WECFARM_OUT (or
    under `runs`); it is made when the first artifact is named. Every
    input is digested through `read` and every artifact is named
    through `path`, `json` or `csv`, so `finish` lists exactly what the
    command read and wrote. The `--config` file, when the command took
    one, is the first input.
    """

    def __init__(self, args, command, leaf, config, seed=None):
        self.dir = args.out_dir or os.path.join(os.environ.get(OUT_ROOT_ENV, "runs"), leaf)
        self.command = command
        self.seed = seed
        self.started = _now()
        self.config_hash = hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest()[:16]
        self.inputs = {}
        self.outputs = []
        if getattr(args, "config", None):
            self.read(args.config)

    def read(self, path):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
        self.inputs[str(path)] = h.hexdigest()
        return path

    def path(self, name):
        # made with the first output, so a command that fails on its
        # inputs leaves no empty run directory behind
        os.makedirs(self.dir, exist_ok=True)
        path = os.path.join(self.dir, name)
        self.outputs.append(path)
        return path

    def json(self, name, doc):
        with open(self.path(name), "w") as fh:
            json.dump(_strict(doc), fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")

    def csv(self, name, header, rows):
        """Floats, numpy's included, as `repr(float(v))`; anything else as is."""
        with open(self.path(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
                )

    def finish(self):
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
        # the list is taken before the manifest names itself
        self.json("manifest.json", doc)


def _frequency_grid(config):
    count = _config_int(config, "frequency_count", 200)
    if count < 10:
        raise ConfigError("frequency_count below 10 cannot resolve the band")
    return hydro.FrequencyGrid.default(count=count)


# what a JSON document of the wrong shape raises when a loader indexes it
SHAPE_ERRORS = (KeyError, TypeError, AttributeError)


def _load_committees(models_dir, run):
    committees = {}
    for tid in surrogate.ALL_TARGET_IDS:
        path = os.path.join(models_dir, f"committee_{tid}.json")
        if not os.path.exists(path):
            raise ConfigError(f"missing model file {path}; run `wecfarm surrogate train` first")
        try:
            committees[tid] = surrogate.load_committee(run.read(path))
        except SHAPE_ERRORS as exc:
            raise ConfigError(f"{path}: not a valid committee file ({exc!r})")
    return committees


def _provider(args, run, config):
    """The run's provider and frequency grid: the --models committees and the grid they
    were trained on, else the reference and the config's grid."""
    if args.models:
        provider = surrogate.SurrogateProvider(_load_committees(args.models, run))
        return provider, provider.grid
    return hydro.ReferenceProvider(), _frequency_grid(config)


def _load_site(path, run):
    try:
        return climate.load_site(run.read(path))
    except FileNotFoundError:
        raise ConfigError(f"site file not found: {path}")
    except SHAPE_ERRORS as exc:
        raise ConfigError(f"{path}: not a valid site file ({exc!r})")


def _load_design(path, run):
    doc = _load_json(run.read(path), what="design")
    try:
        return optimize.design_from_dict(doc)
    except (ValueError, *SHAPE_ERRORS) as exc:
        raise ConfigError(f"{path}: not a valid design file ({exc})")


def _provenance(provider, seed, design):
    """Where a written result came from: its provider, seed and design hash."""
    return {"provider": provider.name, "seed": seed, "config_hash": optimize.design_hash(design)}


def _design_run(args, command, leaf, config, seed=None):
    """Run, site, design, provider and frequency grid of a command on one stored design."""
    run = Run(args, command, leaf, config, seed)
    site, design = _load_site(args.site, run), _load_design(args.design, run)
    return (run, site, design, *_provider(args, run, {}))


# --- commands -------------------------------------------------------------


def cmd_sites_build(args):
    config = _load_config(args, "sites build")
    run = Run(args, "sites build", "site", config)

    records = climate.read_records_csv(run.read(args.records))
    bounds = _config_value(
        config, "bounds", None, lambda b: isinstance(b, list) and len(b) == 2
        and all(map(_is_pair, b)), "[[hs_lo, hs_hi], [tp_lo, tp_hi]]",
    )
    site = climate.build_site_climate(
        records,
        n_gq=_config_int(config, "n_gq", 20),
        bounds=(tuple(bounds[0]), tuple(bounds[1])),
        years=_config_int(config, "years", 30),
        site_id=_config_value(config, "site_id", "site", lambda v: isinstance(v, str), "a string"),
    )
    site_path = run.path(f"{site.site_id}.json")
    climate.save_site(site, site_path)
    svg.write_heatmap(
        run.path(f"{site.site_id}_probability.svg"),
        site.grid.hs_nodes,
        site.grid.tp_nodes,
        site.probability,
        title=f"sea-state probability: {site.site_id}",
        xlabel="Hs [m]",
        ylabel="Tp [s]",
    )
    run.finish()
    print(f"site {site.site_id}: {records.shape[0]} records -> {site_path}")
    return 0


def cmd_surrogate_train(args):
    config = _load_config(args, "surrogate train")
    seed = _config_int(config, "seed", 0)
    run = Run(args, "surrogate train", "models", config, seed)

    grid = _frequency_grid(config)
    env = hydro.Environment()
    oracle = hydro.ReferenceProvider()

    def progress(message):
        print(f"  {message}", flush=True)

    committees = surrogate.train_standard_committees(seed, grid, env, oracle, progress=progress)
    for tid, committee in committees.items():
        surrogate.save_committee(committee, run.path(f"committee_{tid}.json"))
        surrogate.save_dataset(committee.dataset, run.path(f"dataset_{tid}.csv"))
    run.finish()
    print(f"trained {len(committees)} committees -> {run.dir}")
    return 0


def cmd_surrogate_validate(args):
    config = _load_config(args, "surrogate validate")
    run = Run(args, "surrogate validate", "validation", config)

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
    else:
        sources = _load_committees(args.models, run)

    for tid in surrogate.ALL_TARGET_IDS:
        vm = surrogate.validate_on_grid(sources[tid], oracle)
        rows.append({"target_id": tid, "mean_mse": vm.mean, "max_mse": vm.max})
        print(f"{tid}: mean={vm.mean:.3e} max={vm.max:.3e}", flush=True)
        if vm.mean > MSE_GATE:
            failed.append(tid)
        if surrogate.target_kind(tid) == "single":
            r_nodes = np.unique(vm.points[:, 0])
            matrix = vm.mse.reshape(r_nodes.size, -1)
            svg.write_heatmap(
                run.path(f"mse_{tid}.svg"),
                r_nodes,
                np.linspace(0.0, 1.0, matrix.shape[1]),
                matrix,
                title=f"validation MSE: {tid}",
                xlabel="radius [m]",
                ylabel="slenderness (unit coordinate)",
            )
        else:
            svg.write_histogram(
                run.path(f"mse_{tid}.svg"),
                np.log10(np.maximum(vm.mse, 1e-16)),
                title=f"validation MSE: {tid}",
                xlabel="log10 per-point MSE",
            )
    run.json("validation.json", {
        "schema_version": 1,
        "gate": MSE_GATE,
        "maps": rows,
        "failed": failed,
    })
    run.finish()
    if failed:
        print(f"error: {len(failed)} map(s) above the {MSE_GATE:g} gate: {', '.join(failed)}",
              file=sys.stderr)
        return 2
    return 0


GA_INT_FIELDS = ("population", "generations", "seed")


def _ga_config(doc):
    """optimize.GaConfig from the config's `ga` object."""
    unknown = ", ".join(f"'ga.{key}'" for key in sorted(set(doc) - set(GA_INT_FIELDS)))
    if unknown:
        raise ConfigError(f"unknown config key {unknown}; ga reads {', '.join(GA_INT_FIELDS)}")
    return optimize.GaConfig(**{key: _config_int(doc, key, None, f"ga.{key}") for key in doc})


def cmd_optimize(args):
    config = _load_config(args, "optimize")
    ga = _ga_config(_config_value(config, "ga", {}, lambda v: isinstance(v, dict), "an object"))
    run = Run(args, "optimize", "study", config, ga.seed)

    site = _load_site(args.site, run)
    provider, grid = _provider(args, run, config)
    env = hydro.Environment()

    study = config.get("study")
    fixed = _config_value(
        config, "fixed_control", None, lambda v: v is None or _is_pair(v), "[stiffness, damping]"
    )
    inject = None
    inject_path = _config_value(
        config, "inject_design", None, lambda v: v is None or isinstance(v, str), "a file path"
    )
    if inject_path:
        donor = _load_design(inject_path, run)
        inject = optimize.encode(study, donor)
    spec = optimize.StudySpec(
        study=study,
        site=site,
        n_devices=_config_int(config, "n_devices", 5),
        fixed_control=tuple(fixed) if fixed else None,
        ga=ga,
        provider_mode=provider.name,
        inject_genes=inject,
    )

    def progress(row):
        if row["generation"] % 10 == 0:
            print(f"  gen {row['generation']:3d}: best {row['best_fitness']:.6g} "
                  f"feasible {row['feasible_fraction']:.0%}", flush=True)

    result = optimize.run_ga(spec, grid, env, provider, progress=progress)

    run.json("config_snapshot.json", config)
    columns = ["generation", "best_fitness", "median_fitness", "feasible_fraction", "best_pv"]
    run.csv("history.csv", columns, ([row[k] for k in columns] for row in result.history))

    best, ev = result.best_design, result.best_result
    run.json("best_design.json", {
        "schema_version": 1,
        "study": spec.study,
        "seed": spec.ga.seed,
        **optimize.design_to_dict(best),
        "evaluation": {
            "p_a": ev.p_a,
            "p_v": ev.p_v,
            "q_factor": ev.q_factor,
            "per_device_power": ev.per_device_power.tolist(),
            "feasible": ev.feasible,
            "max_violation": float(ev.violations.max()) if ev.violations.size else 0.0,
            "provenance": _provenance(provider, spec.ga.seed, best),
        },
        "best_fitness": result.best_fitness,
        "evaluations": result.evaluations,
    })
    svg.write_layout(
        run.path("layout.svg"),
        best.layout.positions,
        best.geometry.radius,
        optimize.farm_half_width(spec.n_devices),
        title=f"study {spec.study} best layout (p_v {ev.p_v:.4g} W/m^3)",
    )
    svg.write_convergence(run.path("convergence.svg"), result.history)
    if spec.study == "III":
        k_arr, b_arr = best.pto.arrays_for(spec.n_devices)
        run.csv(
            "pto_per_device.csv",
            ["device", "x", "y", "stiffness", "damping", "lifetime_power"],
            ([d, x, y, k, b, p] for d, ((x, y), k, b, p) in
             enumerate(zip(best.layout.positions, k_arr, b_arr, ev.per_device_power))),
        )
    run.finish()
    print(f"study {spec.study}: best p_v {ev.p_v:.6g} W/m^3, "
          f"feasible={ev.feasible}, q={ev.q_factor:.4f} -> {run.dir}")
    return 0


def cmd_analyze_benchmark(args):
    config = _load_config(args, "analyze benchmark")
    seed = _config_int(config, "seed", 0)
    run = Run(args, "analyze benchmark", "benchmark", config, seed)

    site = _load_site(args.site, run)
    # with --cheat, a second reference instance, so the comparison does
    # not read the first one's memo of the same query
    against, grid = _provider(args, run, config)
    mode = "cheating-reference" if args.cheat else against.name

    n = _config_int(config, "n", 1000)
    stats = optimize.power_error_benchmark(
        n, grid, hydro.Environment(), hydro.ReferenceProvider(), against, site,
        n_devices=_config_int(config, "n_devices", 5), seed=seed,
    )
    run.json("benchmark.json", {
        "schema_version": 1,
        "mode": mode,
        "n": n,
        "seed": seed,
        "skipped": stats.skipped,
        "percentiles": {str(k): v for k, v in stats.percentiles.items()},
    })
    run.csv(
        "errors.csv",
        ["pv_reference", "pv_surrogate", "relative_error"],
        ([ref, sur, err] for (ref, sur), err in zip(stats.pv_pairs, stats.errors)),
    )
    svg.write_histogram(
        run.path("error_histogram.svg"),
        stats.errors,
        title=f"relative objective error ({mode})",
        xlabel="|pv_s - pv_r| / pv_r",
    )
    svg.write_scatter(
        run.path("scatter.svg"),
        stats.pv_pairs,
        title="surrogate vs reference objective",
        xlabel="reference p_v [W/m^3]",
        ylabel="surrogate p_v [W/m^3]",
    )
    run.finish()
    print(f"benchmark ({mode}): p50={stats.percentiles[50]:.3e} "
          f"p95={stats.percentiles[95]:.3e} p99={stats.percentiles[99]:.3e} "
          f"skipped={stats.skipped}")
    return 0


def cmd_analyze_random_layouts(args):
    run, site, design, provider, grid = _design_run(
        args, "analyze random-layouts", "random-layouts", {"n": args.n}, args.seed
    )
    hist = optimize.random_layout_analysis(
        design, args.n, provider, grid, hydro.Environment(), site, seed=args.seed
    )
    run.json("random_layouts.json", {
        "schema_version": 1,
        "provider": provider.name,
        "n": args.n,
        "seed": args.seed,
        "design_pv": hist.design_pv,
        "percentile": hist.percentile,
        "random_pv_min": float(hist.values.min()),
        "random_pv_max": float(hist.values.max()),
    })
    svg.write_histogram(
        run.path("random_layouts.svg"),
        hist.values,
        title=f"objective of {args.n} random feasible layouts",
        xlabel="p_v [W/m^3]",
        marker=hist.design_pv,
        marker_label=f"design ({hist.percentile:.1f} pct)",
    )
    run.finish()
    print(f"design p_v {hist.design_pv:.6g} ranks at the {hist.percentile:.1f}th percentile "
          f"of {args.n} random layouts")
    return 0


def cmd_analyze_sensitivity(args):
    run, site, design, provider, grid = _design_run(
        args, "analyze sensitivity", "sensitivity",
        {"wec_index": args.wec, "resolution": args.resolution},
    )
    sm = optimize.sensitivity_map(
        design, args.wec, args.resolution, provider, grid, hydro.Environment(), site
    )
    run.json("sensitivity.json", {
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
    })
    svg.write_heatmap(
        run.path("sensitivity.svg"),
        sm.x_axis,
        sm.y_axis,
        sm.values,
        title=f"objective vs device {args.wec} position",
        xlabel="x [m]",
        ylabel="y [m]",
    )
    run.finish()
    print(f"argmax offset {sm.argmax_offset:.2f} m from the design position "
          f"(p_v {sm.design_pv:.6g} vs {sm.argmax_pv:.6g} at grid argmax)")
    return 0


def cmd_eval(args):
    run, site, design, provider, grid = _design_run(args, "eval", "eval", {})
    result = optimize.evaluate_design(design, grid, hydro.Environment(), provider, site)
    doc = {
        "schema_version": 1,
        "provider": provider.name,
        "p_a": result.p_a,
        "p_v": result.p_v,
        "q_factor": result.q_factor,
        "per_device_power": result.per_device_power.tolist(),
        "feasible": result.feasible,
        "violations": result.violations.tolist(),
        "provenance": _provenance(provider, None, design),
    }
    run.json("evaluation.json", doc)
    run.finish()
    print(json.dumps(_strict(doc), sort_keys=True, allow_nan=False))
    return 0


# --- argument parsing -----------------------------------------------------


MODELS_HELP = "committee directory (committee_*.json): selects the surrogate and its grid"


def _models_or_cheat(parser, cheat_help):
    """Exactly one of --models and --cheat, for the commands that check a surrogate."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--models", default=None, help=MODELS_HELP)
    group.add_argument("--cheat", action="store_true", help=cheat_help)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wecfarm",
        description="Wave farm design toolkit: sites, surrogates, optimization, analysis.",
    )
    # the flag every subcommand takes after its name
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=None,
                        help=f"run directory (default: the command's folder under ${OUT_ROOT_ENV}, or "
                             "under runs when it is unset: site, models, validation, study, "
                             "benchmark, random-layouts, sensitivity or eval)")
    # the coefficient provider of every command that evaluates designs
    provider = argparse.ArgumentParser(add_help=False, parents=[common])
    provider.add_argument("--models", default=None, help=MODELS_HELP)
    # the inputs of every command that works on one stored design
    stored = argparse.ArgumentParser(add_help=False, parents=[provider])
    stored.add_argument("--design", required=True)
    stored.add_argument("--site", required=True)
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
    train = sur.add_parser("train", parents=[common], help="train the nine coefficient committees")
    train.add_argument("--config", default=None, help="JSON training overrides")
    train.set_defaults(func=cmd_surrogate_train)
    val = sur.add_parser("validate", parents=[common], help="grid MSE of stored committees vs the reference")
    _models_or_cheat(val, "validate the oracle against itself (must be exactly zero)")
    val.add_argument("--config", default=None)
    val.set_defaults(func=cmd_surrogate_validate)

    opt = sub.add_parser("optimize", parents=[provider], help="run one GA study")
    opt.add_argument("--config", required=True, help="study JSON")
    opt.add_argument("--site", required=True, help="site climate JSON")
    opt.set_defaults(func=cmd_optimize)

    ana = sub.add_parser("analyze", help="benchmark and appendix analyses").add_subparsers(
        dest="subcommand", required=True
    )
    bench = ana.add_parser("benchmark", parents=[common],
                           help="surrogate-vs-reference objective error")
    _models_or_cheat(bench, "benchmark the reference against itself (errors exactly zero)")
    bench.add_argument("--config", default=None)
    bench.add_argument("--site", required=True)
    bench.set_defaults(func=cmd_analyze_benchmark)
    rnd = ana.add_parser("random-layouts", parents=[stored],
                         help="objective histogram over random layouts")
    rnd.add_argument("--n", type=int, default=250)
    rnd.add_argument("--seed", type=int, default=0, help="seed of the random layouts")
    rnd.set_defaults(func=cmd_analyze_random_layouts)
    sens = ana.add_parser("sensitivity", parents=[stored],
                          help="objective map around one device")
    sens.add_argument("--wec", type=int, required=True)
    sens.add_argument("--resolution", type=int, default=15)
    sens.set_defaults(func=cmd_analyze_sensitivity)

    ev = sub.add_parser("eval", parents=[stored], help="evaluate one stored design")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            parser.error(f"{argv[0]}: flags follow the subcommand, "
                         f"as in `wecfarm <command> {argv[0]} ...`")
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
