"""Learned coefficient maps with committee disagreement sampling.

Ten committees stand in for the reference provider: four single-body
maps over (R, slenderness) and six pair maps over (R, slenderness,
separation, heading). Single maps are learned against pure geometry
scales (displaced mass, the radiation scale k F0^2 / (4 rho g v_g),
the hydrostatic force F0). Pair maps are learned as interaction
factors relative to the isolated-body curves; dividing out the
isolated response leaves targets that depend only on radius,
separation and wavenumber, which is what makes them learnable by
small networks. Pair inputs additionally carry range-damped J0/Y0
features of the separation at reference wavenumbers, the natural
radial basis for cylindrically spreading waves. The provider
reconstructs physical pair coefficients from the predicted factors
and its own predicted singles, so prediction never touches the
reference model. Active learning labels the pool points where the
committee members disagree most.
"""

import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels, nn
from .hydro import (
    INTERACTION_RANGE_RADII,
    Environment,
    FrequencyGrid,
    SingleBodyCoefficients,
    WecGeometry,
    group_velocity,
    pair_inputs,
    pair_result,
    single_coefficients,
    solve_dispersion,
)

RADIUS_BOUNDS = (0.5, 10.0)
SLENDERNESS_BOUNDS = (0.2, 10.0)
DRAFT_BOUNDS = (0.5, 20.0)
SEPARATION_MAX = 360.0
HEADING_BOUNDS = (-np.pi, np.pi)

# every 3rd grid wavenumber; fixed per committee at training time
PHASE_FEATURE_STRIDE = 3

SCHEMA_VERSION = 1

SINGLE_TARGET_IDS = (
    "single_added_mass",
    "single_damping",
    "single_excitation_re",
    "single_excitation_im",
)
PAIR_TARGET_IDS = (
    "pair_added_mass_diag",
    "pair_damping_diag",
    "pair_added_mass_cross",
    "pair_damping_cross",
    "pair_excitation_re",
    "pair_excitation_im",
)
ALL_TARGET_IDS = SINGLE_TARGET_IDS + PAIR_TARGET_IDS

_EXTRACTORS = {
    "single_added_mass": lambda c: c.added_mass,
    "single_damping": lambda c: c.damping,
    "single_excitation_re": lambda c: np.real(c.excitation),
    "single_excitation_im": lambda c: np.imag(c.excitation),
    "pair_added_mass_diag": lambda c: c.added_mass[..., 0, 0],
    "pair_damping_diag": lambda c: c.damping[..., 0, 0],
    "pair_added_mass_cross": lambda c: c.added_mass[..., 0, 1],
    "pair_damping_cross": lambda c: c.damping[..., 0, 1],
    "pair_excitation_re": lambda c: np.real(c.excitation[..., 0]),
    "pair_excitation_im": lambda c: np.imag(c.excitation[..., 0]),
}

_SCALE_KEYS = {
    "single_added_mass": "mass",
    "single_damping": "damping",
    "single_excitation_re": "force",
    "single_excitation_im": "force",
}


def target_kind(target_id):
    if target_id in SINGLE_TARGET_IDS:
        return "single"
    if target_id in PAIR_TARGET_IDS:
        return "pair"
    raise KeyError(f"unknown target {target_id!r}")


def input_dimension(kind):
    return 2 if kind == "single" else 4


_wave_cache = {}


def _wave_numbers(grid, env):
    key = (grid.values.tobytes(), env.water_depth, env.gravity, env.water_density)
    cached = _wave_cache.get(key)
    if cached is None:
        k = solve_dispersion(grid.values, env)
        cached = (k, group_velocity(grid.values, env, k=k))
        _wave_cache[key] = cached
    return cached


def scale_vectors(target_id, inputs, grid, env):
    """Geometry-only normalization of the single maps, shape (n, n_w).

    These scales are closed-form in the inputs, so the provider may use
    them at prediction time without touching the reference model.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    k, vg = _wave_numbers(grid, env)
    radius = inputs[:, 0]
    draft = inputs[:, 0] / inputs[:, 1]
    f0 = env.water_density * env.gravity * np.pi * radius**2
    key = _SCALE_KEYS[target_id]
    if key == "mass":
        return np.broadcast_to(
            (env.water_density * np.pi * radius**2 * draft)[:, None], (inputs.shape[0], grid.n)
        ).copy()
    if key == "force":
        return np.broadcast_to(f0[:, None], (inputs.shape[0], grid.n)).copy()
    return k[None, :] * f0[:, None] ** 2 / (4.0 * env.water_density * env.gravity * vg[None, :])


_single_curve_cache = {}


def _isolated_curves(inputs, grid, env):
    """True isolated-body curves per row, cached by geometry."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    n = inputs.shape[0]
    a_s = np.empty((n, grid.n))
    b_s = np.empty((n, grid.n))
    f_s = np.empty((n, grid.n))
    grid_key = grid.values.tobytes()
    for i, row in enumerate(inputs):
        key = (row[0], row[1], grid_key, env.water_depth)
        hit = _single_curve_cache.get(key)
        if hit is None:
            if len(_single_curve_cache) > 4096:
                _single_curve_cache.clear()
            c = single_coefficients(WecGeometry(row[0], row[1]), grid, env)
            hit = (c.added_mass, c.damping, np.ascontiguousarray(np.real(c.excitation)))
            _single_curve_cache[key] = hit
        a_s[i], b_s[i], f_s[i] = hit
    return a_s, b_s, f_s


def affine_vectors(target_id, inputs, grid, env):
    """Per-sample (base, scale) pair defining the learned map t = (raw - base) / scale.

    Single maps use the geometry scales with a zero base. Pair maps are
    normalized by the true isolated curves of the same body, so their
    targets collapse to pure interaction factors; this side is only
    evaluated while labelling and validating, never at prediction time.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if target_id in SINGLE_TARGET_IDS:
        scale = scale_vectors(target_id, inputs, grid, env)
        return np.zeros_like(scale), scale
    a_s, b_s, f_s = _isolated_curves(inputs, grid, env)
    om = grid.values[None, :]
    if target_id == "pair_added_mass_diag":
        return a_s, b_s / om
    if target_id == "pair_damping_diag":
        return b_s, b_s
    if target_id == "pair_added_mass_cross":
        return np.zeros_like(b_s), b_s / om
    if target_id == "pair_damping_cross":
        return np.zeros_like(b_s), b_s
    if target_id == "pair_excitation_re":
        return f_s, f_s
    return np.zeros_like(f_s), f_s


# --- input box and sampling ----------------------------------------------


def slenderness_interval(radius):
    # the draft bound [0.5, 20] couples slenderness to radius
    return (
        np.maximum(SLENDERNESS_BOUNDS[0], radius / DRAFT_BOUNDS[1]),
        np.minimum(SLENDERNESS_BOUNDS[1], radius / DRAFT_BOUNDS[0]),
    )


def separation_interval(radius):
    return (2.0 * radius + 1.0, SEPARATION_MAX)


def input_box(kind):
    """Bounding rectangle of the training inputs (extrapolation flag only)."""
    rows = [RADIUS_BOUNDS, SLENDERNESS_BOUNDS]
    if kind == "pair":
        rows += [(2.0 * RADIUS_BOUNDS[0] + 1.0, SEPARATION_MAX), HEADING_BOUNDS]
    return np.array(rows)


def _from_unit(kind, u):
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    radius = RADIUS_BOUNDS[0] + (RADIUS_BOUNDS[1] - RADIUS_BOUNDS[0]) * u[:, 0]
    ar_lo, ar_hi = slenderness_interval(radius)
    cols = [radius, ar_lo + (ar_hi - ar_lo) * u[:, 1]]
    if kind == "pair":
        # log-uniform in separation: the cross terms change fastest near
        # the clearance bound, so close range gets the sample density
        sep_lo, sep_hi = separation_interval(radius)
        cols.append(sep_lo * (sep_hi / sep_lo) ** u[:, 2])
        cols.append(HEADING_BOUNDS[0] + (HEADING_BOUNDS[1] - HEADING_BOUNDS[0]) * u[:, 3])
    return np.stack(cols, axis=1)


def latin_hypercube(n, dim, rng):
    strata = np.stack([rng.permutation(n) for _ in range(dim)], axis=1)
    return (strata + rng.uniform(0.0, 1.0, (n, dim))) / n


def sample_inputs(kind, n, rng, edge_fraction=0.0):
    """Stratified random inputs honouring the coupled draft/clearance bounds.

    A fraction of the samples is snapped onto a random face of the unit
    box so the committees see the boundary, where extrapolation error
    would otherwise concentrate.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    dim = input_dimension(kind)
    u = latin_hypercube(n, dim, rng)
    m = int(round(edge_fraction * n))
    if m:
        # snap one face coordinate, or two for a box edge, so corners
        # of the design space appear in every batch
        for i in range(m):
            count = 1 if rng.uniform() < 0.6 else min(2, dim)
            for d in rng.choice(dim, size=count, replace=False):
                u[i, d] = float(rng.integers(0, 2))
    return _from_unit(kind, u)


def tensor_grid(kind, counts):
    """Full tensor sweep of the box, boundaries included.

    Counts are per input dimension; the coupled separation and
    slenderness ranges are swept in their unit parameterization so every
    radius sees its own admissible interval end to end.
    """
    if len(counts) != input_dimension(kind):
        raise ValueError("one count per input dimension required")
    axes = [np.linspace(0.0, 1.0, c) for c in counts]
    mesh = np.meshgrid(*axes, indexing="ij")
    u = np.stack([m.ravel() for m in mesh], axis=1)
    return _from_unit(kind, u)


# --- datasets -------------------------------------------------------------


@dataclass
class Dataset:
    """Labelled samples of one target map."""

    target_id: str
    inputs: np.ndarray
    outputs: np.ndarray
    grid: FrequencyGrid
    env: Environment

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        self.outputs = np.atleast_2d(np.asarray(self.outputs, dtype=np.float64))
        kind = target_kind(self.target_id)
        if self.inputs.shape[1] != input_dimension(kind):
            raise ValueError(
                f"{self.target_id} inputs need {input_dimension(kind)} columns, "
                f"got {self.inputs.shape[1]}"
            )
        if self.outputs.shape != (self.inputs.shape[0], self.grid.n):
            raise ValueError("outputs must be one frequency-vector per input row")
        if not np.all(np.isfinite(self.inputs)) or not np.all(np.isfinite(self.outputs)):
            raise ValueError("dataset contains non-finite entries")

    @property
    def n_samples(self):
        return self.inputs.shape[0]


def label_inputs(target_id, inputs, grid, env, oracle):
    """Query the oracle provider and extract one target map."""
    extract = _EXTRACTORS[target_id]
    kind = target_kind(target_id)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    out = np.empty((inputs.shape[0], grid.n))
    for i, row in enumerate(inputs):
        geom = WecGeometry(row[0], row[1])
        if kind == "single":
            out[i] = extract(oracle.single(geom, grid, env))
        else:
            out[i] = extract(oracle.pair(geom, row[2], row[3], grid, env))
    return out


def build_datasets(kind, n, seed, grid, env, oracle, edge_fraction=0.0):
    """One oracle sweep labelling every map of the given kind."""
    rng = np.random.default_rng(seed)
    inputs = sample_inputs(kind, n, rng, edge_fraction=edge_fraction)
    ids = SINGLE_TARGET_IDS if kind == "single" else PAIR_TARGET_IDS
    outs = {tid: np.empty((n, grid.n)) for tid in ids}
    for i, row in enumerate(inputs):
        geom = WecGeometry(row[0], row[1])
        coeffs = (
            oracle.single(geom, grid, env)
            if kind == "single"
            else oracle.pair(geom, row[2], row[3], grid, env)
        )
        for tid in ids:
            outs[tid][i] = _EXTRACTORS[tid](coeffs)
    return {tid: Dataset(tid, inputs, outs[tid], grid, env) for tid in ids}


# --- committees -----------------------------------------------------------


@dataclass
class CommitteeConfig:
    hidden: tuple = (32, 32)
    epochs: int = 300
    round_epochs: int = 120
    learning_rate: float = 2e-3
    members: int = 5
    bootstrap: float = 0.8
    batch: int = 64
    seed: int = 0
    min_samples: int = 50
    use_adam: bool = True

    def __post_init__(self):
        if self.members < 3:
            raise ValueError("committee needs at least 3 members")
        if not 0.0 < self.bootstrap <= 1.0:
            raise ValueError("bootstrap fraction must lie in (0, 1]")


def default_config(target_id, seed=0):
    # pair maps chase oscillatory targets and get the larger budget
    if target_kind(target_id) == "pair":
        return CommitteeConfig(hidden=(96, 96), epochs=300, round_epochs=120, seed=seed)
    return CommitteeConfig(hidden=(32, 32), epochs=300, round_epochs=150, seed=seed)


def training_plan(kind):
    """Sample budget of the stock pipeline; total stays within 2000 per map."""
    if kind == "pair":
        return {"n_initial": 1600, "rounds": 2, "batch_points": 200, "pool": 1000}
    return {"n_initial": 500, "rounds": 2, "batch_points": 100, "pool": 1000}


EDGE_FRACTION = 0.2


def train_standard_committees(seed, grid, env, oracle, kinds=("single", "pair"), progress=None):
    """Label, train and run the active-learning rounds for every map."""
    committees = {}
    for kind in kinds:
        plan = training_plan(kind)
        datasets = build_datasets(
            kind,
            plan["n_initial"],
            seed=seed * 7919 + (0 if kind == "single" else 1),
            grid=grid,
            env=env,
            oracle=oracle,
            edge_fraction=EDGE_FRACTION,
        )
        ids = SINGLE_TARGET_IDS if kind == "single" else PAIR_TARGET_IDS
        for tid in ids:
            idx = ALL_TARGET_IDS.index(tid)
            committee = train_committee(datasets[tid], default_config(tid, seed=seed * 1000 + idx))
            for rnd in range(plan["rounds"]):
                pool = sample_inputs(
                    kind,
                    plan["pool"],
                    np.random.default_rng([seed, idx, rnd, 7]),
                    edge_fraction=EDGE_FRACTION,
                )
                _, committee = qbc_round(committee, pool, plan["batch_points"], oracle)
            committees[tid] = committee
            if progress is not None:
                progress(
                    f"{tid}: {committee.dataset.n_samples} samples, "
                    f"{committee.rounds} rounds"
                )
    return committees


@dataclass
class MseMap:
    points: np.ndarray
    mse: np.ndarray

    @property
    def mean(self):
        return float(self.mse.mean())

    @property
    def max(self):
        return float(self.mse.max())


class Committee:
    """Bootstrap ensemble over one coefficient map.

    Raw targets pass through the affine physics normalization of their
    map, then are z-scored per frequency for training; predictions stay
    in the normalized space and the provider owns the reconstruction.
    Disagreement and validation error are measured against the pooled
    (frequency-averaged) standard deviation, which stays meaningful for
    outputs whose per-frequency variance collapses.
    """

    def __init__(
        self,
        target_id,
        config,
        grid,
        env,
        kref,
        input_scaler,
        output_scaler,
        pooled_scale,
        members,
        member_mse,
        zero_variance=False,
        rounds=0,
        disagreement_history=None,
        dataset=None,
    ):
        self.target_id = target_id
        self.config = config
        self.grid = grid
        self.env = env
        self.kref = kref
        self.input_scaler = input_scaler
        self.output_scaler = output_scaler
        self.pooled_scale = pooled_scale
        self.members = members
        self.member_mse = member_mse
        self.zero_variance = zero_variance
        self.rounds = rounds
        self.disagreement_history = list(disagreement_history or [])
        self.dataset = dataset

    @property
    def kind(self):
        return target_kind(self.target_id)

    @property
    def box(self):
        return input_box(self.kind)

    @property
    def phase_multiplier(self):
        # diagonal corrections oscillate at twice the separation phase
        return 2.0 if self.target_id.endswith("_diag") else 1.0

    @property
    def feature_key(self):
        """Committees with equal keys compute equal features."""
        return self.phase_multiplier, self.kref.tobytes()

    def features(self, inputs):
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if self.kref.size == 0:
            return inputs
        phase = inputs[:, 2:3] * (self.phase_multiplier * self.kref[None, :])
        envelope = np.exp(-inputs[:, 2:3] / (INTERACTION_RANGE_RADII * inputs[:, 0:1]))
        return np.concatenate(
            [inputs, envelope * kernels.j0(phase), envelope * kernels.y0(phase)], axis=1
        )

    def member_curves(self, inputs, features=None):
        """Nondimensional per-member predictions, shape (M, n, n_w)."""
        if features is None:
            features = self.features(inputs)
        z_in = self.input_scaler.transform(features)
        return np.stack([self.output_scaler.inverse(m.predict(z_in)) for m in self.members])

    def apply(self, inputs, features=None):
        """Batched mean prediction of the normalized map plus diagnostics.

        ``features`` is ``self.features(inputs)`` computed by the caller,
        who may share one block among committees of equal ``feature_key``.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        curves = self.member_curves(inputs, features)
        disagreement = np.mean(np.var(curves, axis=0), axis=1) / self.pooled_scale**2
        box = self.box
        outside = np.any((inputs < box[None, :, 0]) | (inputs > box[None, :, 1]), axis=1)
        return curves.mean(axis=0), disagreement, outside


def _phase_reference(grid, env):
    k, _ = _wave_numbers(grid, env)
    return np.ascontiguousarray(k[::PHASE_FEATURE_STRIDE])


def _nondimensional_targets(dataset):
    base, scale = affine_vectors(dataset.target_id, dataset.inputs, dataset.grid, dataset.env)
    return (dataset.outputs - base) / scale


def _fit_members(committee, dataset, epochs, round_index):
    """Train every member on its own bootstrap resample (in place).

    The learning rate steps down twice within each fit; the refit after
    an active-learning round starts already annealed so the established
    weights are polished rather than kicked.

    Each member takes ``epochs * (n_boot // min(batch, n_boot))`` Adam
    steps in total, where ``n_boot = round(bootstrap * n_samples)``: the
    ragged tail of every epoch is dropped (see ``nn.epoch_schedule``).
    """
    feats = committee.features(dataset.inputs)
    targets = _nondimensional_targets(dataset)
    z_in_all = committee.input_scaler.transform(feats)
    z_out_all = committee.output_scaler.transform(targets)
    n = dataset.n_samples
    n_boot = max(1, int(round(committee.config.bootstrap * n)))
    lr = committee.config.learning_rate
    if round_index == 0:
        segments = [(0.5, lr), (0.3, lr / 4.0), (0.2, lr / 16.0)]
    else:
        segments = [(0.6, lr / 4.0), (0.4, lr / 16.0)]
    mses = []
    for m, member in enumerate(committee.members):
        rng = np.random.default_rng([committee.config.seed, m, round_index])
        sel = rng.integers(0, n, n_boot)
        schedule = nn.epoch_schedule(n_boot, committee.config.batch, epochs, rng)
        steps = schedule.shape[0]
        pos = 0
        last = 0.0
        for seg, (fraction, seg_lr) in enumerate(segments):
            end = steps if seg == len(segments) - 1 else pos + int(round(fraction * steps))
            if end > pos:
                last = member.train(
                    z_in_all[sel],
                    z_out_all[sel],
                    schedule[pos:end],
                    seg_lr,
                    use_adam=committee.config.use_adam,
                )
            pos = end
        mses.append(last)
    committee.member_mse = mses


def train_committee(dataset, config):
    """Fresh committee on a labelled dataset, deterministic per seed."""
    if dataset.n_samples < config.min_samples:
        raise ValueError(
            f"dataset has {dataset.n_samples} samples, need at least {config.min_samples}"
        )
    kind = target_kind(dataset.target_id)
    kref = (
        _phase_reference(dataset.grid, dataset.env) if kind == "pair" else np.empty(0)
    )
    targets = _nondimensional_targets(dataset)
    output_scaler = nn.AffineScaler.fit(targets)
    pooled = float(np.sqrt(max(np.mean(targets.var(axis=0)), nn.SCALE_FLOOR**2)))
    zero_variance = bool(np.all(targets.std(axis=0) <= nn.SCALE_FLOOR))
    if zero_variance:
        warnings.warn(
            f"{dataset.target_id}: constant outputs, committee learns a zero map",
            stacklevel=2,
        )
    committee = Committee(
        target_id=dataset.target_id,
        config=config,
        grid=dataset.grid,
        env=dataset.env,
        kref=kref,
        input_scaler=None,
        output_scaler=output_scaler,
        pooled_scale=pooled,
        members=[],
        member_mse=[],
        zero_variance=zero_variance,
        dataset=dataset,
    )
    feats = committee.features(dataset.inputs)
    committee.input_scaler = nn.AffineScaler.fit(feats)
    h1, h2 = config.hidden
    for m in range(config.members):
        rng = np.random.default_rng([config.seed, m, 0])
        committee.members.append(
            nn.Regressor.initialized(feats.shape[1], (h1, h2), dataset.grid.n, rng)
        )
    _fit_members(committee, dataset, config.epochs, round_index=0)
    return committee


def qbc_round(committee, pool, k, oracle):
    """Label the k most contested pool points and continue training.

    Ties in disagreement break toward the lexicographically smaller
    input. Points already in the dataset never re-enter it. Scalers stay
    frozen so the existing member weights remain valid; members continue
    training on the augmented data.
    """
    pool = np.atleast_2d(np.asarray(pool, dtype=np.float64))
    if pool.shape[0] == 0:
        raise ValueError("empty candidate pool")
    if k > pool.shape[0]:
        raise ValueError(f"cannot select {k} points from a pool of {pool.shape[0]}")
    dataset = committee.dataset
    if dataset is None:
        raise ValueError("committee carries no dataset; reload it with its training data")

    seen = {row.tobytes() for row in dataset.inputs}
    fresh = np.array([row.tobytes() not in seen for row in pool])
    candidates = pool[fresh]
    if candidates.shape[0] < k:
        raise ValueError("pool has fewer unseen points than the batch size")
    _, disagreement, _ = committee.apply(candidates)
    order = np.lexsort(tuple(candidates[:, d] for d in range(candidates.shape[1] - 1, -1, -1)) + (-disagreement,))
    chosen = candidates[order[:k]]

    labels = label_inputs(committee.target_id, chosen, committee.grid, committee.env, oracle)
    augmented = Dataset(
        dataset.target_id,
        np.vstack([dataset.inputs, chosen]),
        np.vstack([dataset.outputs, labels]),
        dataset.grid,
        dataset.env,
    )
    committee.dataset = augmented
    committee.rounds += 1
    committee.disagreement_history.append(float(disagreement[order[0]]))
    _fit_members(committee, augmented, committee.config.round_epochs, committee.rounds)
    return augmented, committee


VALIDATE_BLOCK = 256


def validate_on_grid(committee, oracle, points=None, counts=None):
    """Normalized MSE against the oracle on a tensor sweep of the box.

    Points are labelled and predicted VALIDATE_BLOCK at a time, which
    bounds the member-curve stack at members x VALIDATE_BLOCK x n_w; the
    per-point errors do not depend on the blocking.
    """
    if points is None:
        if counts is None:
            counts = (21, 21) if committee.kind == "single" else (6, 6, 10, 5)
        points = tensor_grid(committee.kind, counts)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    mse = []
    for start in range(0, points.shape[0], VALIDATE_BLOCK):
        rows = points[start : start + VALIDATE_BLOCK]
        truth = label_inputs(committee.target_id, rows, committee.grid, committee.env, oracle)
        base, scale = affine_vectors(committee.target_id, rows, committee.grid, committee.env)
        mean_t, _, _ = committee.apply(rows)
        diff = (mean_t - (truth - base) / scale) / committee.pooled_scale
        mse.append(np.mean(diff * diff, axis=1))
    return MseMap(points=points, mse=np.concatenate(mse))


class CheatingCommittee:
    """Oracle in committee clothing; every member answers identically.

    Normalized answers go through the same affine transform as real
    committees, so the validation error is zero bit for bit; the raw
    path lets the provider skip the reconstruction round trip entirely.
    """

    exact = True

    def __init__(self, target_id, grid, env, oracle):
        self.target_id = target_id
        self.grid = grid
        self.env = env
        self.oracle = oracle
        self.pooled_scale = 1.0
        self.zero_variance = False

    @property
    def kind(self):
        return target_kind(self.target_id)

    @property
    def box(self):
        return input_box(self.kind)

    def _outside(self, inputs):
        box = self.box
        return np.any((inputs < box[None, :, 0]) | (inputs > box[None, :, 1]), axis=1)

    def raw_curves(self, inputs):
        """Oracle answers per row; pair rows go as one batch per geometry."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if self.kind == "single":
            return label_inputs(self.target_id, inputs, self.grid, self.env, self.oracle)
        groups = {}
        for i, (radius, slenderness) in enumerate(inputs[:, :2]):
            groups.setdefault((radius, slenderness), []).append(i)
        out = np.empty((inputs.shape[0], self.grid.n))
        for (radius, slenderness), rows in groups.items():
            coeffs = self.oracle.pair(
                WecGeometry(radius, slenderness),
                inputs[rows, 2],
                inputs[rows, 3],
                self.grid,
                self.env,
            )
            out[rows] = _EXTRACTORS[self.target_id](coeffs)
        return out

    def apply(self, inputs):
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        raw = self.raw_curves(inputs)
        base, scale = affine_vectors(self.target_id, inputs, self.grid, self.env)
        return (raw - base) / scale, np.zeros(inputs.shape[0]), self._outside(inputs)


# --- provider -------------------------------------------------------------


class SurrogateProvider:
    """Drop-in coefficient provider backed by the ten committees.

    Pair coefficients are rebuilt from the predicted interaction factors
    and the provider's own predicted singles, so prediction never calls
    the reference model. Damping predictions are clipped to keep the 2x2
    radiation matrix positive semidefinite; the optional projection
    rebuilds the single-body damping from the predicted excitation
    instead of the damping map. A provider made entirely of cheating
    committees short-circuits to their raw answers and stays bit-exact.

    Committees of one query that share a phase multiplier and reference
    wavenumbers (their ``feature_key``) share one feature block, so a
    pair query makes two J0/Y0 feature passes instead of six; the
    outputs are the same bit for bit.
    """

    name = "surrogate"

    def __init__(self, committees, haskind_projection=False):
        missing = [tid for tid in ALL_TARGET_IDS if tid not in committees]
        if missing:
            raise ValueError(f"missing committees: {', '.join(missing)}")
        self.committees = dict(committees)
        self.haskind_projection = haskind_projection
        self.exact = all(getattr(c, "exact", False) for c in self.committees.values())
        self._singles = {}
        ref = self.committees[ALL_TARGET_IDS[0]]
        for tid in ALL_TARGET_IDS[1:]:
            if not self.committees[tid].grid.matches(ref.grid):
                raise ValueError(f"committee {tid} trained on a different frequency grid")
        self.grid = ref.grid
        self.env = ref.env

    def _check(self, grid, env):
        if not grid.matches(self.grid):
            raise ValueError("query grid differs from the committees' training grid")
        if (env.water_depth, env.gravity, env.water_density) != (
            self.env.water_depth,
            self.env.gravity,
            self.env.water_density,
        ):
            raise ValueError("query environment differs from the training environment")

    def _maps(self, target_ids, u):
        """Each named committee over the (rows, dim) inputs u, each (rows, n_w).

        Committees of equal ``feature_key`` share one feature block.
        """
        if self.exact:
            return {tid: self.committees[tid].raw_curves(u) for tid in target_ids}
        blocks = {}
        curves = {}
        for tid in target_ids:
            committee = self.committees[tid]
            key = getattr(committee, "feature_key", None)
            if key is None:  # a cheating committee among learned ones
                curves[tid] = committee.apply(u)[0]
                continue
            if key not in blocks:
                blocks[key] = committee.features(u)
            curves[tid] = committee.apply(u, features=blocks[key])[0]
        return curves

    def single(self, geom, grid, env):
        self._check(grid, env)
        key = (geom.radius, geom.slenderness)
        hit = self._singles.get(key)
        if hit is not None:
            return hit
        u = np.array([[geom.radius, geom.slenderness]])
        maps = self._maps(SINGLE_TARGET_IDS, u)

        def curve(target_id):
            return maps[target_id][0]

        if self.exact:
            added = curve("single_added_mass")
            f_hat = curve("single_excitation_re") + 1j * curve("single_excitation_im")
            damping = np.maximum(curve("single_damping"), 0.0)
        else:
            added = curve("single_added_mass") * scale_vectors(
                "single_added_mass", u, grid, env
            )[0]
            f_hat = (
                curve("single_excitation_re") + 1j * curve("single_excitation_im")
            ) * scale_vectors("single_excitation_re", u, grid, env)[0]
            damping = np.maximum(
                curve("single_damping") * scale_vectors("single_damping", u, grid, env)[0],
                0.0,
            )
        if self.haskind_projection:
            k, vg = _wave_numbers(grid, env)
            damping = k * np.abs(f_hat) ** 2 / (4.0 * env.water_density * env.gravity * vg)
        result = SingleBodyCoefficients(
            grid=grid, added_mass=added, damping=damping, excitation=f_hat
        )
        if len(self._singles) > 128:
            self._singles.clear()
        self._singles[key] = result
        return result

    def pair(self, geom, separation, heading_angle, grid, env):
        """Pair coefficients for scalar or (P,) separations and headings.

        A batch applies each of the six pair committees once, to all P
        rows. The J0/Y0 separation features are computed once per phase
        multiplier: one block for the four cross and excitation maps, one
        for the two diagonal maps.
        """
        self._check(grid, env)
        l, theta, batched = pair_inputs(geom, separation, heading_angle)
        u = np.column_stack(
            [np.full_like(l, geom.radius), np.full_like(l, geom.slenderness), l, theta]
        )
        maps = self._maps(PAIR_TARGET_IDS, u)
        if self.exact:
            a11 = maps["pair_added_mass_diag"]
            b11 = np.maximum(maps["pair_damping_diag"], 0.0)
            a12 = maps["pair_added_mass_cross"]
            b12 = np.clip(maps["pair_damping_cross"], -b11, b11)
            f1 = maps["pair_excitation_re"] + 1j * maps["pair_excitation_im"]
        else:
            single = self.single(geom, grid, env)
            b_over_om = single.damping / grid.values
            a11 = single.added_mass + b_over_om * maps["pair_added_mass_diag"]
            b11 = np.maximum(single.damping * (1.0 + maps["pair_damping_diag"]), 0.0)
            a12 = b_over_om * maps["pair_added_mass_cross"]
            b12 = np.clip(single.damping * maps["pair_damping_cross"], -b11, b11)
            factor = 1.0 + maps["pair_excitation_re"] + 1j * maps["pair_excitation_im"]
            f1 = single.excitation * factor

        k, _ = _wave_numbers(grid, env)
        excitation = np.empty(l.shape + (grid.n, 2), dtype=np.complex128)
        excitation[..., 0] = f1
        excitation[..., 1] = f1 * np.exp(-1j * k * l[:, None] * np.cos(theta)[:, None])
        return pair_result(
            grid, l, theta, batched, diagonal=(a11, b11), cross=(a12, b12), excitation=excitation
        )


# --- persistence ----------------------------------------------------------


def save_committee(committee, path):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "target_id": committee.target_id,
        "grid": committee.grid.values.tolist(),
        "environment": {
            "water_depth": committee.env.water_depth,
            "gravity": committee.env.gravity,
            "water_density": committee.env.water_density,
        },
        "kref": committee.kref.tolist(),
        "topology": committee.members[0].sizes,
        "input_scaler": committee.input_scaler.to_dict(),
        "output_scaler": committee.output_scaler.to_dict(),
        "pooled_scale": committee.pooled_scale,
        "members": [m.to_dict() for m in committee.members],
        "member_mse": committee.member_mse,
        "zero_variance": committee.zero_variance,
        "rounds": committee.rounds,
        "disagreement_history": committee.disagreement_history,
        "config": {
            "hidden": list(committee.config.hidden),
            "epochs": committee.config.epochs,
            "round_epochs": committee.config.round_epochs,
            "learning_rate": committee.config.learning_rate,
            "members": committee.config.members,
            "bootstrap": committee.config.bootstrap,
            "batch": committee.config.batch,
            "seed": committee.config.seed,
            "min_samples": committee.config.min_samples,
            "use_adam": committee.config.use_adam,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_committee(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported committee schema {doc.get('schema_version')!r}")
    cfg = doc["config"]
    config = CommitteeConfig(
        hidden=tuple(cfg["hidden"]),
        epochs=cfg["epochs"],
        round_epochs=cfg["round_epochs"],
        learning_rate=cfg["learning_rate"],
        members=cfg["members"],
        bootstrap=cfg["bootstrap"],
        batch=cfg["batch"],
        seed=cfg["seed"],
        min_samples=cfg["min_samples"],
        use_adam=cfg["use_adam"],
    )
    sizes = doc["topology"]
    return Committee(
        target_id=doc["target_id"],
        config=config,
        grid=FrequencyGrid(np.array(doc["grid"])),
        env=Environment(**doc["environment"]),
        kref=np.array(doc["kref"], dtype=np.float64),
        input_scaler=nn.AffineScaler.from_dict(doc["input_scaler"]),
        output_scaler=nn.AffineScaler.from_dict(doc["output_scaler"]),
        pooled_scale=doc["pooled_scale"],
        members=[nn.Regressor.from_dict(m, sizes) for m in doc["members"]],
        member_mse=list(doc["member_mse"]),
        zero_variance=doc["zero_variance"],
        rounds=doc["rounds"],
        disagreement_history=doc["disagreement_history"],
    )


def save_dataset(dataset, path):
    kind = target_kind(dataset.target_id)
    names = ["radius", "slenderness"] + (["separation", "heading"] if kind == "pair" else [])
    with open(path, "w") as fh:
        fh.write(f"# wecfarm-dataset v{SCHEMA_VERSION} target={dataset.target_id}\n")
        fh.write(",".join(names + [f"out_{i:03d}" for i in range(dataset.grid.n)]) + "\n")
        for row_in, row_out in zip(dataset.inputs, dataset.outputs):
            fh.write(",".join(repr(float(v)) for v in row_in) + ",")
            fh.write(",".join(repr(float(v)) for v in row_out) + "\n")


def load_dataset(path, grid, env):
    with open(path) as fh:
        tag = fh.readline().strip()
        if not tag.startswith(f"# wecfarm-dataset v{SCHEMA_VERSION} target="):
            raise ValueError(f"{path}: not a wecfarm dataset file")
        target_id = tag.split("target=", 1)[1]
        fh.readline()  # column header
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    d = input_dimension(target_kind(target_id))
    return Dataset(target_id, data[:, :d], data[:, d:], grid, env)
