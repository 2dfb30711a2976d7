"""Learned coefficient maps with committee disagreement sampling.

Nine committees stand in for the reference provider: three single-body
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
import math
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import kernels, nn
from .hydro import (
    INTERACTION_RANGE_RADII,
    PAIR_CURVES,
    RADIUS_BOUNDS,
    SLENDERNESS_BOUNDS,
    Environment,
    FrequencyGrid,
    SingleBodyCoefficients,
    WecGeometry,
    curve_set,
    group_velocity,
    pair_inputs,
    pair_result,
    phasor,
    single_coefficients,
    slenderness_interval,
    solve_dispersion,
)

SEPARATION_MAX = 360.0
HEADING_BOUNDS = (-np.pi, np.pi)

# every 3rd grid wavenumber; fixed per committee at training time
PHASE_FEATURE_STRIDE = 3

SCHEMA_VERSION = 1

# The nine maps, each defined once: its kind, the named curve that it
# reads from a pair answer (a single answer holds all of its curves), how
# it reads its curve from an oracle answer of that kind, and its
# normalization (base, scale), so the map learns t = (raw - base) / scale.
# Base and scale name curves of the same kind (_norm_curves), a None base
# being zero: a single map's are geometry scales, a pair map's the
# isolated curves of the same body.
_Map = namedtuple("_Map", "kind reads curve norm")
_MAPS = {
    "single_added_mass": _Map("single", None, lambda c: c.added_mass, (None, "mass")),
    "single_damping": _Map("single", None, lambda c: c.damping, (None, "damping")),
    "single_excitation_re": _Map("single", None, lambda c: np.real(c.excitation), (None, "force")),
    "pair_added_mass_diag": _Map(
        "pair", "added_mass_diag", lambda c: c.added_mass_diag, ("a", "b/w")
    ),
    "pair_damping_diag": _Map("pair", "damping_diag", lambda c: c.damping_diag, ("b", "b")),
    "pair_added_mass_cross": _Map(
        "pair", "added_mass_cross", lambda c: c.added_mass_cross, (None, "b/w")
    ),
    "pair_damping_cross": _Map("pair", "damping_cross", lambda c: c.damping_cross, (None, "b")),
    # body 1's force; body 2's differs only by its travelling-wave phase
    "pair_excitation_re": _Map("pair", "forces", lambda c: np.real(c.forces[0]), ("f", "f")),
    "pair_excitation_im": _Map("pair", "forces", lambda c: np.imag(c.forces[0]), (None, "f")),
}
SINGLE_TARGET_IDS = tuple(tid for tid, m in _MAPS.items() if m.kind == "single")
PAIR_TARGET_IDS = tuple(tid for tid, m in _MAPS.items() if m.kind == "pair")
ALL_TARGET_IDS = tuple(_MAPS)
_TARGET_IDS = {"single": SINGLE_TARGET_IDS, "pair": PAIR_TARGET_IDS}


def target_kind(target_id):
    if target_id not in _MAPS:
        raise KeyError(f"unknown target {target_id!r}")
    return _MAPS[target_id].kind


def input_dimension(kind):
    return 2 if kind == "single" else 4


def _norm_curves(kind, keys, inputs, grid, env):
    """Each named normalization curve of a kind over the input rows, (n, n_w); no other is built.

    Single maps name geometry scales, closed-form in the inputs, which the
    provider reads at prediction time; pair maps name the isolated curves
    of the same body, from one pass over the distinct plants.
    """
    if kind == "single":
        radius = inputs[:, 0:1]
        draft = radius / inputs[:, 1:2]
        f0 = env.water_density * env.gravity * np.pi * radius**2

        def radiation():
            k = solve_dispersion(grid.values, env)
            vg = group_velocity(grid.values, env, k)
            return k * f0**2 / (4.0 * env.water_density * env.gravity * vg)

        makers = {
            "mass": lambda: np.repeat(env.water_density * np.pi * radius**2 * draft, grid.n, 1),
            "damping": radiation,
            "force": lambda: np.repeat(f0, grid.n, 1),
        }
    else:
        plants, rows = np.unique(inputs[:, :2], axis=0, return_inverse=True)
        c = single_coefficients(WecGeometry(plants[:, 0], plants[:, 1]), grid, env)
        makers = {
            "a": lambda: c.added_mass[rows],
            "b": lambda: c.damping[rows],
            "b/w": lambda: c.damping[rows] / grid.values,
            "f": lambda: np.real(c.excitation)[rows],
        }
    return {key: makers[key]() for key in dict.fromkeys(keys) if key is not None}


def affine_vectors(target_id, inputs, grid, env):
    """Per-sample (base, scale) pair defining the learned map t = (raw - base) / scale."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    entry = _MAPS[target_id]
    base_key, scale_key = entry.norm
    curves = _norm_curves(entry.kind, entry.norm, inputs, grid, env)
    scale = curves[scale_key]
    base = np.zeros_like(scale) if base_key is None else curves[base_key]
    return base, scale


# --- input box and sampling ----------------------------------------------


def separation_interval(radius):
    return (2.0 * radius + 1.0, SEPARATION_MAX)


def input_box(kind):
    """Bounding rectangle of the training inputs (extrapolation flag only)."""
    rows = [RADIUS_BOUNDS, SLENDERNESS_BOUNDS]
    if kind == "pair":
        rows += [(2.0 * RADIUS_BOUNDS[0] + 1.0, SEPARATION_MAX), HEADING_BOUNDS]
    return np.array(rows)


_INPUT_BOXES = {kind: input_box(kind) for kind in ("single", "pair")}


def outside_box(kind, inputs):
    """Per-row flag: does the input leave the training rectangle?

    Committees do not ask it, and no query checks its inputs yet: nothing
    in the package calls it.
    """
    box = _INPUT_BOXES[kind]
    return np.any((inputs < box[None, :, 0]) | (inputs > box[None, :, 1]), axis=1)


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
    # a Generator passes through unchanged; a seed makes a fresh one
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


def _label_rows(kind, inputs, groups, grid, env, oracle, target_ids):
    """The named maps' oracle curves over the input rows, each (n, n_w).

    Each of ``groups`` (slices or index lists of rows sharing R and
    slenderness) is one oracle query: one ``single`` call, or one ``pair``
    call with the group's (P,) separations and headings that asks for
    the curves of ``target_ids`` and no other. Consecutive groups of one
    plant share its WecGeometry.
    """
    out = {tid: np.empty((inputs.shape[0], grid.n)) for tid in target_ids}
    curves = {_MAPS[tid].reads for tid in target_ids}
    geom = None
    for rows in groups:
        block = inputs[rows]
        if geom is None or (geom.radius, geom.slenderness) != (block[0, 0], block[0, 1]):
            geom = WecGeometry(block[0, 0], block[0, 1])
        if kind == "single":
            coeffs = oracle.single(geom, grid, env)
        else:
            coeffs = oracle.pair(geom, block[:, 2], block[:, 3], grid, env, curves=curves)
        for tid in target_ids:
            out[tid][rows] = _MAPS[tid].curve(coeffs)
    return out


def label_inputs(target_id, inputs, grid, env, oracle):
    """Query the oracle provider, once per row, and extract one target map."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    kind = target_kind(target_id)
    rows = (slice(i, i + 1) for i in range(inputs.shape[0]))
    return _label_rows(kind, inputs, rows, grid, env, oracle, (target_id,))[target_id]


def build_datasets(kind, n, seed, grid, env, oracle, edge_fraction=0.0):
    """One oracle sweep, one query per row, labelling every map of the given kind."""
    rng = np.random.default_rng(seed)
    inputs = sample_inputs(kind, n, rng, edge_fraction=edge_fraction)
    rows = (slice(i, i + 1) for i in range(n))
    outs = _label_rows(kind, inputs, rows, grid, env, oracle, _TARGET_IDS[kind])
    return {tid: Dataset(tid, inputs, out, grid, env) for tid, out in outs.items()}


# --- committees -----------------------------------------------------------


@dataclass
class CommitteeConfig:
    hidden: tuple = (32, 32)
    epochs: int = 300
    round_epochs: int = 120
    seed: int = 0

    def __post_init__(self):
        self.hidden = tuple(self.hidden)


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
# every committee's recipe: Adam's base step, members, each member's
# bootstrap fraction, minibatch rows, and the fewest rows a fit takes
LEARNING_RATE = 2e-3
MEMBERS = 5
BOOTSTRAP = 0.8
BATCH = 64
MIN_SAMPLES = 50


def train_standard_committees(seed, grid, env, oracle, progress=None):
    """Label, train and run the active-learning rounds for every map."""
    committees = {}
    for kind in ("single", "pair"):
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
        for tid in _TARGET_IDS[kind]:
            # index 3 was the retired imaginary single excitation map; pair maps keep their seeds
            idx = ALL_TARGET_IDS.index(tid) + (kind == "pair")
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


@dataclass(eq=False)
class Committee:
    """Bootstrap ensemble over one coefficient map.

    Raw targets pass through the affine physics normalization of their
    map, then are z-scored per frequency for training; predictions stay
    in the normalized space and the provider owns the reconstruction.
    Disagreement and validation error are measured against the pooled
    (frequency-averaged) standard deviation, which stays meaningful for
    outputs whose per-frequency variance collapses.
    """

    target_id: str
    config: CommitteeConfig
    grid: FrequencyGrid
    env: Environment
    kref: np.ndarray
    input_scaler: nn.AffineScaler
    output_scaler: nn.AffineScaler
    pooled_scale: float
    network: nn.Regressor
    member_mse: list
    zero_variance: bool = False
    rounds: int = 0
    disagreement_history: list = field(default_factory=list)
    dataset: Dataset = None

    @property
    def kind(self):
        return target_kind(self.target_id)

    @property
    def phase_multiplier(self):
        # diagonal corrections oscillate at twice the separation phase
        return 2.0 if self.target_id.endswith("_diag") else 1.0

    @property
    def feature_key(self):
        """Committees with equal keys compute equal features."""
        return self.kref.tobytes()

    def features(self, inputs, multipliers=(1.0, 2.0)):
        """Network inputs for each phase multiplier, keyed by multiplier.

        A pair block is the inputs followed by the range-damped J0 and Y0
        of the separation phase l * (multiplier * kref). All blocks come
        from one J0 and one Y0 call on the stacked phases: by default
        [phi, 2 phi], which committees of one ``feature_key`` share, and
        only the committee's own multiplier where nothing else reads the
        blocks. Doubling is exact, so each block equals its own
        per-multiplier computation bit for bit. Single maps take the
        inputs as they are.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if self.kref.size == 0:
            return dict.fromkeys(multipliers, inputs)
        phase = inputs[:, 2:3] * self.kref[None, :]
        phases = np.stack([m * phase for m in multipliers])
        envelope = np.exp(-inputs[:, 2:3] / (INTERACTION_RANGE_RADII * inputs[:, 0:1]))
        j0, y0 = kernels.j0(phases), kernels.y0(phases)
        return {
            m: np.concatenate([inputs, envelope * j0[i], envelope * y0[i]], axis=1)
            for i, m in enumerate(multipliers)
        }

    def apply(self, inputs, features=None):
        """Batched mean prediction of the normalized map, (n, n_w), and the
        members' disagreement, (n,).

        ``features`` is ``self.features(inputs)`` computed by the caller,
        who may share it among committees of equal ``feature_key``; each
        committee reads the block of its own phase multiplier. Without
        it, only that block is computed.
        """
        if features is None:
            features = self.features(inputs, (self.phase_multiplier,))
        z_in = self.input_scaler.transform(features[self.phase_multiplier])
        # nondimensional per-member predictions, shape (M, n, n_w); the
        # float32 forward meets the float64 scale, so the product is float64
        curves = self.network.predict(z_in) * self.output_scaler.scale
        curves += self.output_scaler.mean
        # means and the variance from the mean, as np.mean and np.var
        # compute them: a sum, then an in-place division by the count
        n_members, _, n_w = curves.shape
        mean = np.add.reduce(curves, axis=0)
        mean /= n_members
        curves -= mean
        curves *= curves
        variance = np.add.reduce(curves, axis=0)
        variance /= n_members
        disagreement = np.add.reduce(variance, axis=1)
        disagreement /= n_w
        disagreement /= self.pooled_scale**2
        return mean, disagreement


def _phase_reference(grid, env):
    return np.ascontiguousarray(solve_dispersion(grid.values, env)[::PHASE_FEATURE_STRIDE])


def _nondimensional_targets(dataset):
    base, scale = affine_vectors(dataset.target_id, dataset.inputs, dataset.grid, dataset.env)
    return (dataset.outputs - base) / scale


def _fit_members(committee, feats, targets, epochs, round_index):
    """Train every member on its own bootstrap resample (in place).

    ``feats`` and ``targets`` are the network inputs of the committee's
    phase multiplier and the nondimensional targets of its dataset.

    The learning rate steps down twice within each fit; the refit after
    an active-learning round starts already annealed so the established
    weights are polished rather than kicked.

    Each member takes ``epochs * (n_boot // min(BATCH, n_boot))`` Adam
    steps in total, where ``n_boot = round(BOOTSTRAP * n_samples)``: the
    ragged tail of every epoch is dropped (see ``nn.epoch_schedule``).
    ``member_mse`` is each member's final MSE over its own bootstrap
    rows, in scaled units.
    """
    z_in_all = committee.input_scaler.transform(feats)
    z_out_all = committee.output_scaler.transform(targets)
    n = feats.shape[0]
    n_boot = max(1, int(round(BOOTSTRAP * n)))
    lr = LEARNING_RATE
    if round_index == 0:
        segments = [(0.5, lr), (0.3, lr / 4.0), (0.2, lr / 16.0)]
    else:
        segments = [(0.6, lr / 4.0), (0.4, lr / 16.0)]
    mses = []
    network = committee.network
    for m in range(network.n_members):
        rng = np.random.default_rng([committee.config.seed, m, round_index])
        sel = rng.integers(0, n, n_boot)
        schedule = nn.epoch_schedule(n_boot, BATCH, epochs, rng)
        x, y = z_in_all[sel], z_out_all[sel]
        steps = schedule.shape[0]
        pos = 0
        for seg, (fraction, seg_lr) in enumerate(segments):
            end = steps if seg == len(segments) - 1 else pos + int(round(fraction * steps))
            if end > pos:
                network.train(m, x, y, schedule[pos:end], seg_lr)
            pos = end
        diff = kernels.mlp_forward(x, network.member(m)) - y
        mses.append(float(np.sum(diff * diff) / (y.shape[0] * y.shape[1])))
    committee.member_mse = mses


def train_committee(dataset, config):
    """Fresh committee on a labelled dataset, deterministic per seed."""
    if dataset.n_samples < MIN_SAMPLES:
        raise ValueError(f"dataset has {dataset.n_samples} samples, need at least {MIN_SAMPLES}")
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
    # a pair feature row is the inputs and J0 and Y0 at each kref
    n_in = input_dimension(kind) + 2 * kref.size
    network = nn.Regressor.initialized(
        n_in, config.hidden, dataset.grid.n,
        [np.random.default_rng([config.seed, m, 0]) for m in range(MEMBERS)],
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
        network=network,
        member_mse=[],
        zero_variance=zero_variance,
        dataset=dataset,
    )
    multiplier = committee.phase_multiplier
    feats = committee.features(dataset.inputs, (multiplier,))[multiplier]
    committee.input_scaler = nn.AffineScaler.fit(feats)
    _fit_members(committee, feats, targets, config.epochs, round_index=0)
    return committee


def qbc_round(committee, pool, k, oracle):
    """Label the k most contested pool points and continue training.

    Ties in disagreement break toward the lexicographically smaller
    input. Points already in the dataset never re-enter it, and a point
    the pool holds twice is a candidate once. Scalers stay frozen so the
    existing member weights remain valid; members continue training on
    the augmented data.
    """
    pool = np.atleast_2d(np.asarray(pool, dtype=np.float64))
    if pool.shape[0] == 0:
        raise ValueError("empty candidate pool")
    if k > pool.shape[0]:
        raise ValueError(f"cannot select {k} points from a pool of {pool.shape[0]}")
    dataset = committee.dataset
    if dataset is None:
        raise ValueError("a loaded committee carries no dataset, so it cannot take a QBC round;"
                         " train a fresh one with `wecfarm surrogate train`")

    # a pool row is a candidate when neither the dataset nor an earlier
    # pool row holds it, so the pool's order and the tie-break are kept
    seen = {row.tobytes() for row in dataset.inputs}
    fresh = np.zeros(pool.shape[0], dtype=bool)
    for i, row in enumerate(pool):
        key = row.tobytes()
        fresh[i] = key not in seen
        seen.add(key)
    candidates = pool[fresh]
    if candidates.shape[0] < k:
        raise ValueError("pool has fewer unseen points than the batch size")
    _, disagreement = committee.apply(candidates)
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
    multiplier = committee.phase_multiplier
    feats = committee.features(augmented.inputs, (multiplier,))[multiplier]
    targets = _nondimensional_targets(augmented)
    _fit_members(committee, feats, targets, committee.config.round_epochs, committee.rounds)
    return augmented, committee


VALIDATE_BLOCK = 256


def validate_on_grid(committee, oracle, counts=None):
    """Normalized MSE against the oracle on a tensor sweep of the box.

    ``counts`` are the sweep's points per input dimension, by default
    21 x 21 for a single map and 6 x 6 x 10 x 5 for a pair map.
    Points are labelled and predicted VALIDATE_BLOCK at a time, which
    bounds the member-curve stack at members x VALIDATE_BLOCK x n_w; the
    per-point errors do not depend on the blocking.
    """
    if counts is None:
        counts = (21, 21) if committee.kind == "single" else (6, 6, 10, 5)
    points = tensor_grid(committee.kind, counts)
    mse = []
    for start in range(0, points.shape[0], VALIDATE_BLOCK):
        rows = points[start : start + VALIDATE_BLOCK]
        truth = label_inputs(committee.target_id, rows, committee.grid, committee.env, oracle)
        base, scale = affine_vectors(committee.target_id, rows, committee.grid, committee.env)
        mean_t, _ = committee.apply(rows)
        diff = (mean_t - (truth - base) / scale) / committee.pooled_scale
        mse.append(np.mean(diff * diff, axis=1))
    return MseMap(points=points, mse=np.concatenate(mse))


class CheatingCommittee:
    """Oracle in committee clothing; every member answers identically.

    Its features are the oracle's raw curves of every map of its kind,
    labelled by ``_label_rows`` with one row group, so one oracle call,
    per distinct (R, slenderness). Committees over the same oracle and
    kind share that block, so a provider made of them sends one single
    and one pair query per layout. ``apply`` puts the raw curves through
    the same affine transform as real committees, so the validation
    error is zero bit for bit, and the provider rebuilds coefficients
    from them as it does from learned predictions.
    """

    def __init__(self, target_id, grid, env, oracle):
        self.target_id = target_id
        self.grid = grid
        self.env = env
        self.oracle = oracle
        self.pooled_scale = 1.0

    @property
    def kind(self):
        return target_kind(self.target_id)

    @property
    def feature_key(self):
        return self.oracle, self.kind

    def features(self, inputs):
        """Oracle curves of every map of this kind, keyed by target id."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        groups = {}
        for i, (radius, slenderness) in enumerate(inputs[:, :2]):
            groups.setdefault((radius, slenderness), []).append(i)
        return _label_rows(
            self.kind, inputs, groups.values(), self.grid, self.env, self.oracle,
            _TARGET_IDS[self.kind],
        )

    def apply(self, inputs, features=None):
        if features is None:
            features = self.features(inputs)
        base, scale = affine_vectors(self.target_id, inputs, self.grid, self.env)
        raw = features[self.target_id]
        return (raw - base) / scale, np.zeros(raw.shape[0])


# --- provider -------------------------------------------------------------


class SurrogateProvider:
    """Drop-in coefficient provider backed by the nine committees.

    Pair coefficients are rebuilt from the predicted interaction factors
    and the provider's own predicted single, which the answer carries as
    `isolated`, so prediction never calls the reference model. Damping
    predictions are clipped to keep the 2x2 radiation matrix positive
    semidefinite. Cheating committees take the same reconstruction path,
    so a provider made of them matches the oracle to rounding (about
    1e-14 relative), not bit for bit.

    Committees of one query that share reference wavenumbers (their
    ``feature_key``) share one feature pass, which holds the blocks of
    both phase multipliers, so a pair query makes one J0/Y0 feature pass
    instead of six; the outputs are the same bit for bit.

    Its committees must share one frequency grid and one environment.
    It solves the wavenumbers of that grid once, when built, and keeps
    no answers: every query predicts afresh.
    """

    name = "surrogate"

    def __init__(self, committees):
        missing = [tid for tid in ALL_TARGET_IDS if tid not in committees]
        if missing:
            raise ValueError(f"missing committees: {', '.join(missing)}")
        self.committees = dict(committees)
        ref = self.committees[ALL_TARGET_IDS[0]]
        for tid in ALL_TARGET_IDS[1:]:
            if not self.committees[tid].grid.matches(ref.grid):
                raise ValueError(f"committee {tid} trained on a different frequency grid")
            if self.committees[tid].env != ref.env:
                raise ValueError(f"committee {tid} trained in a different environment")
        self.grid = ref.grid
        self.env = ref.env
        self._k = solve_dispersion(self.grid.values, self.env)

    def _check(self, grid, env):
        if not grid.matches(self.grid):
            raise ValueError("query grid differs from the committees' training grid")
        if env != self.env:
            raise ValueError("query environment differs from the training environment")

    def _maps(self, target_ids, u):
        """Each named committee over the (rows, dim) inputs u, each (rows, n_w).

        Committees of equal ``feature_key`` share one feature block.
        """
        blocks = {}
        curves = {}
        for tid in target_ids:
            committee = self.committees[tid]
            key = committee.feature_key
            if key not in blocks:
                blocks[key] = committee.features(u)
            curves[tid] = committee.apply(u, features=blocks[key])[0]
        return curves

    def single(self, geom, grid, env):
        self._check(grid, env)
        u = np.array([[geom.radius, geom.slenderness]])
        maps = self._maps(SINGLE_TARGET_IDS, u)
        # the single maps' bases are zero: raw = scale t
        scales = _norm_curves("single", [_MAPS[t].norm[1] for t in maps], u, grid, env)

        def scaled(target_id):
            return maps[target_id][0] * scales[_MAPS[target_id].norm[1]][0]

        return SingleBodyCoefficients(
            added_mass=scaled("single_added_mass"),
            damping=np.maximum(scaled("single_damping"), 0.0),
            # the isolated excitation is real: phase 0 at the body centre
            excitation=scaled("single_excitation_re") + 0j,
        )

    def pair(self, geom, separation, heading_angle, grid, env, curves=PAIR_CURVES):
        """Pair coefficients for scalar or (P,) separations and headings.

        A batch applies each of the six pair committees once, to all P
        rows. The J0/Y0 separation features are computed in one pass for
        both phase multipliers: one block for the four cross and
        excitation maps, one for the two diagonal maps. The single is
        predicted once and returned as `isolated`. The answer holds all
        five curves whatever `curves` names, because the cross damping
        is clipped by the diagonal one.
        """
        curve_set(curves)
        self._check(grid, env)
        l, theta, batched = pair_inputs(geom, separation, heading_angle)
        u = np.column_stack(
            [np.full_like(l, geom.radius), np.full_like(l, geom.slenderness), l, theta]
        )
        maps = self._maps(PAIR_TARGET_IDS, u)
        single = self.single(geom, grid, env)
        # the inverse of the pair normalizations in _MAPS, written out by
        # hand: b (1 + t) and the complex excitation factor are not
        # base + scale t bit for bit, and damping is clipped
        b_over_om = single.damping / grid.values
        b11 = np.maximum(single.damping * (1.0 + maps["pair_damping_diag"]), 0.0)
        factor = 1.0 + maps["pair_excitation_re"] + 1j * maps["pair_excitation_im"]
        forces = np.empty((2,) + b11.shape, dtype=np.complex128)
        forces[0] = single.excitation * factor
        # np.multiply, not `*`: see hydro.pair_coefficients
        phase = phasor(self._k * l[:, None] * np.cos(theta)[:, None], -1.0)
        np.multiply(forces[0], phase, out=forces[1])
        return pair_result(batched, single, {
            "added_mass_diag": single.added_mass + b_over_om * maps["pair_added_mass_diag"],
            "damping_diag": b11,
            "added_mass_cross": b_over_om * maps["pair_added_mass_cross"],
            "damping_cross": np.clip(single.damping * maps["pair_damping_cross"], -b11, b11),
            "forces": forces,
        })


# --- persistence ----------------------------------------------------------


def save_committee(committee, path):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "target_id": committee.target_id,
        "grid": committee.grid.values.tolist(),
        "environment": asdict(committee.env),
        "kref": committee.kref.tolist(),
        "topology": committee.network.sizes,
        "input_scaler": committee.input_scaler.to_dict(),
        "output_scaler": committee.output_scaler.to_dict(),
        "pooled_scale": committee.pooled_scale,
        "members": committee.network.to_dict(),
        "member_mse": committee.member_mse,
        "zero_variance": committee.zero_variance,
        "rounds": committee.rounds,
        "disagreement_history": committee.disagreement_history,
        "config": asdict(committee.config),
    }
    # strict JSON: a non-finite value raises before the file is opened
    text = json.dumps(doc, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_committee(path):
    def finite(token):
        # plain json.load reads NaN, Infinity and 1e999 as floats, and a
        # committee holding one predicts NaN without an error
        value = float(token)
        if not math.isfinite(value):
            raise ValueError(f"{path}: non-finite number {token} in a committee file")
        return value

    with open(path) as fh:
        doc = json.load(fh, parse_float=finite, parse_constant=finite)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported committee schema {doc.get('schema_version')!r}")
    # keys of retired options, such as "use_adam", are ignored
    config = CommitteeConfig(**{f.name: doc["config"][f.name] for f in fields(CommitteeConfig)})
    return Committee(
        target_id=doc["target_id"],
        config=config,
        grid=FrequencyGrid(np.array(doc["grid"])),
        env=Environment(**doc["environment"]),
        kref=np.array(doc["kref"], dtype=np.float64),
        input_scaler=nn.AffineScaler.from_dict(doc["input_scaler"]),
        output_scaler=nn.AffineScaler.from_dict(doc["output_scaler"]),
        pooled_scale=doc["pooled_scale"],
        network=nn.Regressor.from_dict(doc["members"], doc["topology"]),
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
