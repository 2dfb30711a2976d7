"""Constrained farm design problem and the genetic algorithm driver.

One design bundles plant (radius, slenderness), control (PTO spring and
damper, farm-uniform or per-device) and layout (device centres, first
device pinned at the origin). The objective is lifetime absorbed power
per unit submerged volume; the pairwise passage constraint is handled by
a quadratic exterior penalty so infeasible intermediate designs stay
comparable.

Three nested study spaces share the decoder:

    I    plant + layout, control frozen
    II   plant + farm-uniform control + layout
    III  plant + per-device control + layout
"""

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import climate as climate_mod
from . import mbe
from .climate import EfficiencyChain, SiteClimate, objective_pv
from .dynamics import (
    PTO_DAMPING_BOUNDS,
    PTO_STIFFNESS_BOUNDS,
    PtoSettings,
    regular_wave_power,
    solve_motion,
)
from .hydro import RADIUS_BOUNDS, SLENDERNESS_BOUNDS, WecGeometry, slenderness_interval

SAFE_PASSAGE = 10.0  # added to the diameter for the centre-to-centre minimum
FARM_AREA_PER_DEVICE = 20000.0  # m^2, sets the square search box


def farm_half_width(n_devices):
    """Half-width of the position box, 0.5 sqrt(area per device x N)."""
    return 0.5 * np.sqrt(FARM_AREA_PER_DEVICE * n_devices)


# --- design point ---------------------------------------------------------


@dataclass
class DesignPoint:
    """One complete candidate: plant, control, layout and its site label."""

    geometry: WecGeometry
    pto: PtoSettings
    layout: mbe.Layout
    site_id: str = "site"

    def __post_init__(self):
        n = self.layout.n
        rows = self.layout.positions.tolist()
        # list equality compares floats as numpy does: -0.0 equals 0.0, NaN
        # equals nothing
        if rows[0] != [0.0, 0.0]:
            raise ValueError("first device must sit at the origin")
        half = float(farm_half_width(n))
        # written so that NaN fails the checks, as it fails every comparison
        if not all(0.0 <= x <= half for x, _ in rows):
            raise ValueError(f"x positions must lie in [0, {half:.3f}]")
        if not all(abs(y) <= half for _, y in rows):
            raise ValueError(f"y positions must lie in [-{half:.3f}, {half:.3f}]")
        self.pto.check_device_count(n)

    @property
    def n_devices(self):
        return self.layout.n


def design_to_dict(design):
    return {
        "radius": design.geometry.radius,
        "slenderness": design.geometry.slenderness,
        "pto_stiffness": design.pto.stiffness.tolist(),
        "pto_damping": design.pto.damping.tolist(),
        "pto_mode": design.pto.mode,
        "positions": design.layout.positions.tolist(),
        "site_id": design.site_id,
    }


def design_from_dict(doc):
    return DesignPoint(
        geometry=WecGeometry(doc["radius"], doc["slenderness"]),
        pto=PtoSettings(
            np.array(doc["pto_stiffness"]),
            np.array(doc["pto_damping"]),
            mode=doc["pto_mode"],
        ),
        layout=mbe.Layout(np.array(doc["positions"])),
        site_id=doc["site_id"],
    )


def design_hash(design):
    doc = json.dumps(design_to_dict(design), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


# --- constraints and evaluation -------------------------------------------


def min_distance_violations(layout, geom):
    """Per-pair shortfall of the passage constraint, max(0, 2R + s - l)."""
    return np.maximum(0.0, 2.0 * geom.radius + SAFE_PASSAGE - layout.pairs[2])


@dataclass
class EvaluationResult:
    p_a: float
    p_v: float
    per_device_power: np.ndarray
    q_factor: float
    violations: np.ndarray
    # (provider name, seed, design) that `provenance` names; the design is
    # hashed when provenance is first read, so a result nobody writes out
    # is never hashed
    source: tuple = field(default=None, repr=False, compare=False)

    @property
    def feasible(self):
        return bool(np.all(self.violations == 0.0))

    @cached_property
    def provenance(self):
        if self.source is None:
            return {}
        provider, seed, design = self.source
        return {"provider": provider, "seed": seed, "config_hash": design_hash(design)}


def _isolated_power_curves(design, grid, env, provider):
    """Regular-wave power of each device alone, (n_omega, N).

    Alone is a one-device farm at the origin, solved once per distinct
    (k, b) of the design's control.
    """
    coeffs = mbe.compose_farm(provider, design.geometry, mbe.Layout(np.zeros((1, 2))), grid, env)
    controls = list(zip(*design.pto.arrays_for(design.n_devices)))
    curves = {}
    for k, b in controls:
        if (k, b) not in curves:
            solo = PtoSettings(np.array([k]), np.array([b]))
            motion = solve_motion(coeffs, design.geometry, solo, env)
            curves[k, b] = regular_wave_power(grid, motion, solo)[1]
    return np.column_stack([curves[key] for key in controls])


def evaluate_design(
    design,
    grid,
    env,
    provider,
    site,
    eff=None,
    with_q=True,
    seed=None,
):
    """Full power pipeline for one design; pure and deterministic.

    Overlapping devices (separation at or below the diameter) have no
    valid hydrodynamics; such designs report zero power and rank purely
    by their constraint penalty.
    """
    eff = eff or EfficiencyChain()
    violations = min_distance_violations(design.layout, design.geometry)
    source = (getattr(provider, "name", type(provider).__name__), seed, design)

    if np.any(design.layout.pairs[2] <= 2.0 * design.geometry.radius):
        zeros = np.zeros(design.n_devices)
        return EvaluationResult(0.0, 0.0, zeros, float("nan"), violations, source)

    coeffs = mbe.compose_farm(provider, design.geometry, design.layout, grid, env)
    motion = solve_motion(coeffs, design.geometry, design.pto, env)
    per_device, farm_total = regular_wave_power(grid, motion, design.pto)
    w = site.climate_weights(grid)
    scale = eff.total * site.years
    p_a = scale * float(farm_total @ w)
    per_device_pa = scale * (w @ per_device)

    q = float("nan")
    if with_q:
        isolated = scale * (w @ _isolated_power_curves(design, grid, env, provider))
        if isolated.sum() > 0.0:
            q = climate_mod.q_factor(p_a, isolated)
    p_v = objective_pv(p_a, design.geometry, design.n_devices)
    return EvaluationResult(p_a, p_v, per_device_pa, q, violations, source)


def penalized_fitness(result, penalty_coeff):
    """Scalar to minimize: -p_v plus the quadratic exterior penalty."""
    return -result.p_v + penalty_coeff * float(np.sum(result.violations**2))


# --- study encoding -------------------------------------------------------

STUDIES = ("I", "II", "III")

# GaConfig's real-valued fields and the closed interval each must lie in
GA_REAL_BOUNDS = {
    "crossover_probability": (0.0, 1.0),
    "crossover_index": (0.0, math.inf),
    "mutation_probability": (0.0, 1.0),
    "mutation_index": (0.0, math.inf),
    "penalty_coeff": (0.0, math.inf),
}


def ga_number_ok(name, value):
    """Whether `value` is a finite real number, not a bool or a string, in
    GA_REAL_BOUNDS[name]; a None mutation probability means 1/dim."""
    if value is None:
        return name == "mutation_probability"
    lo, hi = GA_REAL_BOUNDS[name]
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and math.isfinite(value) and lo <= value <= hi


@dataclass
class GaConfig:
    population: int = 40
    generations: int = 60
    crossover_probability: float = 0.9
    crossover_index: float = 15.0
    mutation_probability: float = None  # None -> 1/dim at decode time
    mutation_index: float = 20.0
    tournament: int = 2
    penalty_coeff: float = 1e6
    seed: int = 0

    def __post_init__(self):
        for name in ("population", "generations", "tournament", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.population < 4 or self.population % 2:
            raise ValueError("population must be even and at least 4")
        if self.generations < 1:
            raise ValueError("need at least one generation")
        for name, (lo, hi) in GA_REAL_BOUNDS.items():
            value = getattr(self, name)
            if not ga_number_ok(name, value):
                raise ValueError(
                    f"{name.replace('_', ' ')} must be a finite number in [{lo:g}, {hi:g}], "
                    f"got {value!r}"
                )
        if self.tournament < 2:
            raise ValueError("tournament size must be at least 2")


@dataclass
class StudySpec:
    study: str
    site: SiteClimate
    n_devices: int = 5
    fixed_control: tuple = None
    ga: GaConfig = field(default_factory=GaConfig)
    provider_mode: str = "reference"
    inject_genes: np.ndarray = None

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ValueError(f"study must be one of {STUDIES}, got {self.study!r}")
        if self.n_devices < 2:
            raise ValueError("farm studies need at least two devices")
        if self.study == "I" and self.fixed_control is None:
            raise ValueError("study I freezes the control; fixed_control is required")
        if self.study != "I" and self.fixed_control is not None:
            raise ValueError(f"study {self.study} optimizes its control; drop fixed_control")
        if self.provider_mode not in ("reference", "surrogate"):
            raise ValueError(f"unknown provider mode {self.provider_mode!r}")
        if self.inject_genes is not None:
            genes = np.asarray(self.inject_genes, dtype=np.float64)
            if genes.shape != (gene_count(self.study, self.n_devices),):
                raise ValueError(
                    f"injected genes have dimension {genes.shape}, study {self.study} "
                    f"at N={self.n_devices} needs {gene_count(self.study, self.n_devices)}"
                )
            self.inject_genes = genes


def _control_pairs(study, n_devices):
    """(stiffness, damping) gene pairs in a study's control block."""
    if study not in STUDIES:
        raise ValueError(f"study must be one of {STUDIES}, got {study!r}")
    return {"I": 0, "II": 1, "III": n_devices}[study]


def gene_count(study, n_devices):
    return 2 + 2 * _control_pairs(study, n_devices) + 2 * (n_devices - 1)


def gene_bounds(study, n_devices):
    """Per-gene (lo, hi) rows: plant, control block, free positions."""
    half = farm_half_width(n_devices)
    rows = [RADIUS_BOUNDS, SLENDERNESS_BOUNDS]
    rows += [PTO_STIFFNESS_BOUNDS, PTO_DAMPING_BOUNDS] * _control_pairs(study, n_devices)
    rows += [(0.0, half), (-half, half)] * (n_devices - 1)
    return np.array(rows)


def decode(study, genes, n_devices, fixed_control=None, site_id="site"):
    """Genes to DesignPoint with slenderness repaired into its coupled range."""
    genes = np.asarray(genes, dtype=np.float64)
    if genes.shape != (gene_count(study, n_devices),):
        raise ValueError(f"study {study} at N={n_devices} needs {gene_count(study, n_devices)} genes")
    radius = float(genes[0])
    lo, hi = slenderness_interval(radius)
    # np.clip of one float: NaN stays NaN, as max and min keep their first
    # argument when a comparison with it fails
    geom = WecGeometry(radius, float(min(max(float(genes[1]), lo), hi)))

    n_ctrl = _control_pairs(study, n_devices)
    if n_ctrl:
        block = genes[2 : 2 + 2 * n_ctrl].reshape(n_ctrl, 2)
    else:  # study I has no control genes and reads its frozen (k, b)
        block = np.reshape(fixed_control, (1, 2))
    mode = "per-device" if study == "III" else "farm-uniform"
    pto = PtoSettings(block[:, 0].copy(), block[:, 1].copy(), mode=mode)

    pos = np.zeros((n_devices, 2))
    pos[1:] = genes[2 + 2 * n_ctrl :].reshape(n_devices - 1, 2)
    # bound clipping can park two devices on the same corner; nudge the
    # later one so the layout stays representable (it is then maximally
    # penalized and dies out on its own). Try j moves x to |x - j 1e-6 d|;
    # each earlier device blocks at most two tries, so one of the first
    # 2d + 1 is free. The set compares rows as the loop does, so a layout
    # with no repeated row skips the loop
    if len(set(map(tuple, pos.tolist()))) < n_devices:
        for d in range(1, n_devices):
            x = pos[d, 0]
            tries = 0
            while tries <= 2 * d and np.any(np.all(pos[:d] == pos[d], axis=1)):
                tries += 1
                pos[d, 0] = abs(x - tries * (1e-6 * d))
    return DesignPoint(geom, pto, mbe.Layout(pos), site_id=site_id)


def encode(study, design):
    """Inverse of decode, used to inject an earlier optimum into a later study."""
    n = design.n_devices
    k, b = design.pto.arrays_for(n)
    genes = [design.geometry.radius, design.geometry.slenderness]
    genes += np.column_stack([k, b])[: _control_pairs(study, n)].ravel().tolist()
    genes += design.layout.positions[1:].ravel().tolist()
    return np.array(genes)


# --- genetic algorithm ----------------------------------------------------


@dataclass
class GaResult:
    best_design: DesignPoint
    best_result: EvaluationResult
    best_fitness: float
    history: list
    evaluations: int


def _sbx_pair(a, b, bounds, eta, rng):
    """Simulated binary crossover, one child pair, clipped to bounds."""
    child1, child2 = a.copy(), b.copy()
    for i in range(a.size):
        if rng.uniform() > 0.5:
            continue
        u = rng.uniform()
        beta = (2.0 * u) ** (1.0 / (eta + 1.0)) if u <= 0.5 else (
            1.0 / (2.0 * (1.0 - u))
        ) ** (1.0 / (eta + 1.0))
        child1[i] = 0.5 * ((1.0 + beta) * a[i] + (1.0 - beta) * b[i])
        child2[i] = 0.5 * ((1.0 - beta) * a[i] + (1.0 + beta) * b[i])
    np.clip(child1, bounds[:, 0], bounds[:, 1], out=child1)
    np.clip(child2, bounds[:, 0], bounds[:, 1], out=child2)
    return child1, child2


def _polynomial_mutation(genes, bounds, p_gene, eta, rng):
    out = genes.copy()
    for i in range(genes.size):
        if rng.uniform() >= p_gene:
            continue
        u = rng.uniform()
        if u < 0.5:
            delta = (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0
        else:
            delta = 1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0))
        out[i] += delta * (bounds[i, 1] - bounds[i, 0])
    np.clip(out, bounds[:, 0], bounds[:, 1], out=out)
    return out


def run_ga(spec, grid, env, provider, eff=None, progress=None):
    """Elitist real-coded GA over the chosen study space.

    Deterministic for a given spec; history rows carry per-generation
    best/median fitness and the feasible fraction. Any evaluation
    failure aborts the run with the offending genome attached.
    """
    ga = spec.ga
    bounds = gene_bounds(spec.study, spec.n_devices)
    dim = bounds.shape[0]
    p_gene = ga.mutation_probability if ga.mutation_probability is not None else 1.0 / dim
    rng = np.random.default_rng(ga.seed)

    def evaluate(genes):
        try:
            design = decode(
                spec.study, genes, spec.n_devices, spec.fixed_control, spec.site.site_id
            )
            result = evaluate_design(
                design, grid, env, provider, spec.site, eff=eff, with_q=False, seed=ga.seed
            )
        except Exception as exc:
            raise RuntimeError(
                f"evaluation failed for genome {genes.tolist()}: {exc}"
            ) from exc
        return design, result, penalized_fitness(result, ga.penalty_coeff)

    pop = bounds[:, 0] + rng.uniform(size=(ga.population, dim)) * (bounds[:, 1] - bounds[:, 0])
    if spec.inject_genes is not None:
        pop[0] = np.clip(spec.inject_genes, bounds[:, 0], bounds[:, 1])
    evaluated = [evaluate(genes) for genes in pop]
    n_evals = ga.population
    # the penalized fitness of each member of `pop`, read by selection, the
    # generation's best and its median
    fitness = np.array([e[2] for e in evaluated])

    def pick():
        idx = rng.integers(0, ga.population, size=ga.tournament)
        return pop[idx[np.argmin(fitness[idx])]]

    history = []
    best_idx = int(np.argmin(fitness))
    best = (pop[best_idx].copy(), *evaluated[best_idx])

    for gen in range(ga.generations):
        children = []
        while len(children) < ga.population - 1:
            pa, pb = pick(), pick()
            if rng.uniform() < ga.crossover_probability:
                ca, cb = _sbx_pair(pa, pb, bounds, ga.crossover_index, rng)
            else:
                ca, cb = pa.copy(), pb.copy()
            children.append(_polynomial_mutation(ca, bounds, p_gene, ga.mutation_index, rng))
            if len(children) < ga.population - 1:
                children.append(_polynomial_mutation(cb, bounds, p_gene, ga.mutation_index, rng))

        child_eval = [evaluate(genes) for genes in children]
        n_evals += len(children)
        # elitism: the incumbent best survives unchanged
        pop = np.vstack([best[0][None, :], np.array(children)])
        evaluated = [(best[1], best[2], best[3])] + child_eval
        fitness = np.array([e[2] for e in evaluated])

        gen_best = int(np.argmin(fitness))
        if fitness[gen_best] < best[3]:
            best = (pop[gen_best].copy(), *evaluated[gen_best])
        history.append(
            {
                "generation": gen,
                "best_fitness": float(best[3]),
                "median_fitness": float(np.median(fitness)),
                "feasible_fraction": float(np.mean([e[1].feasible for e in evaluated])),
                "best_pv": float(best[2].p_v),
            }
        )
        if progress:
            progress(history[-1])

    best_design, best_result = best[1], best[2]
    final = evaluate_design(
        best_design, grid, env, provider, spec.site, eff=eff, with_q=True, seed=ga.seed
    )
    return GaResult(best_design, final, float(best[3]), history, n_evals)


# --- analyses -------------------------------------------------------------


PLACEMENT_TRIES = 20000  # rejection draws per device before the box counts as too tight


def _sample_feasible_layout(n_devices, radius, rng):
    """First device at the origin, rest rejection-sampled to clearance."""
    half = farm_half_width(n_devices)
    floor = 2.0 * radius + SAFE_PASSAGE
    pos = np.zeros((n_devices, 2))
    for d in range(1, n_devices):
        for attempt in range(PLACEMENT_TRIES):
            cand = np.array([rng.uniform(0.0, half), rng.uniform(-half, half)])
            if np.all(np.hypot(*(pos[:d] - cand).T) >= floor):
                pos[d] = cand
                break
        else:
            raise ValueError(
                f"could not place device {d} after {PLACEMENT_TRIES} tries; box too tight"
            )
    return mbe.Layout(pos)


def sample_design(n_devices, rng, site_id="site"):
    """Uniform random feasible design over the full study-III space."""
    radius = rng.uniform(*RADIUS_BOUNDS)
    lo, hi = slenderness_interval(radius)
    geom = WecGeometry(radius, rng.uniform(lo, hi))
    pto = PtoSettings(
        rng.uniform(*PTO_STIFFNESS_BOUNDS, size=n_devices),
        rng.uniform(*PTO_DAMPING_BOUNDS, size=n_devices),
        mode="per-device",
    )
    layout = _sample_feasible_layout(n_devices, radius, rng)
    return DesignPoint(geom, pto, layout, site_id=site_id)


@dataclass
class BenchmarkStats:
    errors: np.ndarray
    pv_pairs: np.ndarray
    percentiles: dict
    skipped: int


def power_error_benchmark(n, grid, env, reference, surrogate, site, n_devices=5, seed=0):
    """Relative objective error of the surrogate pipeline on random designs.

    Both pipelines share the identical composition and dynamics path, so
    the statistics isolate the coefficient models. Samples whose
    reference objective is nonpositive (all-zero PTO damping draws) are
    skipped and counted.
    """
    if n < 100:
        raise ValueError("benchmark needs at least 100 samples")
    rng = np.random.default_rng(seed)
    errors, pairs, skipped = [], [], 0
    for _ in range(n):
        design = sample_design(n_devices, rng, site_id=site.site_id)
        ref = evaluate_design(design, grid, env, reference, site, with_q=False)
        if ref.p_v <= 0.0:
            skipped += 1
            continue
        sur = evaluate_design(design, grid, env, surrogate, site, with_q=False)
        errors.append(abs(sur.p_v - ref.p_v) / ref.p_v)
        pairs.append((ref.p_v, sur.p_v))
    errors = np.array(errors)
    pcts = {p: float(np.percentile(errors, p)) for p in (50, 95, 99)}
    return BenchmarkStats(errors, np.array(pairs), pcts, skipped)


@dataclass
class LayoutHistogram:
    values: np.ndarray
    design_pv: float
    percentile: float


def random_layout_analysis(design, n, provider, grid, env, site, seed=0):
    """Objective of n random feasible layouts sharing the design's plant
    and control, plus the design's own percentile rank among them."""
    if n < 100:
        raise ValueError("layout analysis needs at least 100 samples")
    rng = np.random.default_rng(seed)
    own = evaluate_design(design, grid, env, provider, site, with_q=False)
    values = np.empty(n)
    for i in range(n):
        layout = _sample_feasible_layout(design.n_devices, design.geometry.radius, rng)
        trial = DesignPoint(design.geometry, design.pto, layout, design.site_id)
        values[i] = evaluate_design(trial, grid, env, provider, site, with_q=False).p_v
    percentile = 100.0 * float(np.mean(values < own.p_v))
    return LayoutHistogram(values, own.p_v, percentile)


@dataclass
class SensitivityMap:
    x_axis: np.ndarray
    y_axis: np.ndarray
    values: np.ndarray  # NaN where infeasible
    design_position: np.ndarray
    argmax_position: np.ndarray
    argmax_offset: float
    design_pv: float

    @property
    def argmax_pv(self):
        return float(np.nanmax(self.values))


def sensitivity_map(design, wec_index, resolution, provider, grid, env, site):
    """Objective over perturbed positions of one device, others fixed."""
    if wec_index == 0:
        raise ValueError("first device is pinned at the origin and cannot move")
    if not 0 < wec_index < design.n_devices:
        raise ValueError(f"wec_index must lie in [1, {design.n_devices - 1}]")
    if resolution < 10:
        raise ValueError("resolution below 10x10 undersamples the map")

    half = farm_half_width(design.n_devices)
    floor = 2.0 * design.geometry.radius + SAFE_PASSAGE
    others = np.delete(design.layout.positions, wec_index, axis=0)
    x_axis = np.linspace(0.0, half, resolution)
    y_axis = np.linspace(-half, half, resolution)
    values = np.full((resolution, resolution), np.nan)
    for i, x in enumerate(x_axis):
        for j, y in enumerate(y_axis):
            cand = np.array([x, y])
            if np.any(np.hypot(*(others - cand).T) < floor):
                continue
            pos = design.layout.positions.copy()
            pos[wec_index] = cand
            trial = DesignPoint(design.geometry, design.pto, mbe.Layout(pos), design.site_id)
            values[i, j] = evaluate_design(trial, grid, env, provider, site, with_q=False).p_v

    own = evaluate_design(design, grid, env, provider, site, with_q=False)
    flat = np.nanargmax(values)
    arg = np.array([x_axis[flat // resolution], y_axis[flat % resolution]])
    offset = float(np.hypot(*(arg - design.layout.positions[wec_index])))
    return SensitivityMap(
        x_axis,
        y_axis,
        values,
        design.layout.positions[wec_index].copy(),
        arg,
        offset,
        own.p_v,
    )
