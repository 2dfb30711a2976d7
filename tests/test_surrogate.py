"""Committee learning, active sampling and the learned provider.

Full-budget training belongs to a planned acceptance suite (ROADMAP
item 4). Here the committees are small and the checks target contracts:
determinism, tie-breaking, scaling round-trips, provider structure. The
one tight fit check is test_committee_fits_linear_map.
"""

import copy
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wecfarm import hydro, kernels, mbe, nn, surrogate

ENV = hydro.Environment()
GRID = hydro.FrequencyGrid.default(count=50)
ORACLE = hydro.ReferenceProvider()
DATA = Path(__file__).parent / "data"


# --- scalers and schedules ------------------------------------------------


def test_affine_scaler_round_trip():
    rng = np.random.default_rng(0)
    data = rng.normal(3.0, 2.5, size=(40, 6))
    scaler = nn.AffineScaler.fit(data)
    back = scaler.transform(data) * scaler.scale + scaler.mean
    assert np.allclose(back, data, rtol=0, atol=1e-12)
    z = scaler.transform(data)
    assert abs(z.mean()) < 1e-12
    back = nn.AffineScaler.from_dict(scaler.to_dict())
    assert np.array_equal(back.mean, scaler.mean)


def test_affine_scaler_floors_constant_columns():
    data = np.ones((30, 3))
    scaler = nn.AffineScaler.fit(data)
    assert np.all(scaler.scale == nn.SCALE_FLOOR)
    assert np.allclose(scaler.transform(data) * scaler.scale + scaler.mean, data)


def test_epoch_schedule_covers_and_repeats():
    sched = nn.epoch_schedule(100, 32, 4, np.random.default_rng(1))
    assert sched.shape == (12, 32)  # 3 full batches per epoch
    again = nn.epoch_schedule(100, 32, 4, np.random.default_rng(1))
    assert np.array_equal(sched, again)
    small = nn.epoch_schedule(10, 32, 3, np.random.default_rng(2))
    assert small.shape == (3, 10)
    for row in small:
        assert sorted(row) == list(range(10))


# --- input space ----------------------------------------------------------


def test_sample_inputs_respect_coupled_bounds():
    x = surrogate.sample_inputs("pair", 400, 5, edge_fraction=0.25)
    radius, slender, sep, heading = x.T
    assert radius.min() >= 0.5 and radius.max() <= 10.0
    draft = radius / slender
    assert draft.min() >= 0.5 - 1e-12 and draft.max() <= 20.0 + 1e-12
    assert np.all(sep >= 2.0 * radius + 1.0 - 1e-9)
    assert sep.max() <= surrogate.SEPARATION_MAX + 1e-9
    assert heading.min() >= -np.pi and heading.max() <= np.pi
    # every row must build a valid geometry and pair query
    for row in x[:20]:
        hydro.WecGeometry(row[0], row[1])


def test_sample_inputs_deterministic_and_stratified():
    a = surrogate.sample_inputs("single", 64, 9)
    b = surrogate.sample_inputs("single", 64, 9)
    assert np.array_equal(a, b)
    # a seed and a Generator made from it draw the same samples
    c = surrogate.sample_inputs("single", 64, np.random.default_rng(9))
    assert a.tobytes() == c.tobytes()
    # latin strata: radius column hits each of the 64 bins once
    u = (a[:, 0] - 0.5) / 9.5
    assert sorted(np.floor(u * 64).astype(int)) == list(range(64))


def test_tensor_grid_includes_boundaries():
    g = surrogate.tensor_grid("pair", (3, 3, 4, 3))
    assert g.shape == (108, 4)
    assert g[:, 0].min() == 0.5 and g[:, 0].max() == 10.0
    # separation lower face sits exactly at the clearance bound
    at_face = g[np.isclose(g[:, 2], 2.0 * g[:, 0] + 1.0)]
    assert at_face.shape[0] > 0
    assert np.isclose(g[:, 3].min(), -np.pi) and np.isclose(g[:, 3].max(), np.pi)
    with pytest.raises(ValueError):
        surrogate.tensor_grid("single", (3, 3, 3))


def test_input_box_and_kinds():
    assert surrogate.input_box("single").shape == (2, 2)
    assert surrogate.input_box("pair").shape == (4, 2)
    assert surrogate.target_kind("single_damping") == "single"
    assert surrogate.target_kind("pair_excitation_im") == "pair"
    with pytest.raises(KeyError):
        surrogate.target_kind("nope")
    assert len(surrogate.ALL_TARGET_IDS) == 9


def test_training_plan_stays_inside_sample_cap():
    for kind in ("single", "pair"):
        plan = surrogate.training_plan(kind)
        total = plan["n_initial"] + plan["rounds"] * plan["batch_points"]
        assert total <= 2000


# --- datasets -------------------------------------------------------------


def test_build_datasets_shapes_and_shared_inputs():
    data = surrogate.build_datasets("single", 40, 3, GRID, ENV, ORACLE)
    assert sorted(data) == sorted(surrogate.SINGLE_TARGET_IDS)
    first = data["single_added_mass"]
    assert first.inputs.shape == (40, 2)
    assert first.outputs.shape == (40, GRID.n)
    assert np.array_equal(first.inputs, data["single_damping"].inputs)


def test_dataset_validation():
    x = surrogate.sample_inputs("single", 40, 0)
    y = np.zeros((40, GRID.n))
    with pytest.raises(ValueError, match="columns"):
        surrogate.Dataset("pair_damping_cross", x, y, GRID, ENV)
    with pytest.raises(ValueError, match="frequency-vector"):
        surrogate.Dataset("single_damping", x, y[:, :10], GRID, ENV)
    bad = y.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        surrogate.Dataset("single_damping", x, bad, GRID, ENV)


def test_damping_scale_matches_reference_haskind():
    # the reference single-body damping nondimensionalizes to the squared
    # normalized excitation, so the two labelled maps must agree
    x = surrogate.sample_inputs("single", 10, 4)
    b = surrogate.label_inputs("single_damping", x, GRID, ENV, ORACLE)
    f = surrogate.label_inputs("single_excitation_re", x, GRID, ENV, ORACLE)
    s_b = surrogate.affine_vectors("single_damping", x, GRID, ENV)[1]
    s_f = surrogate.affine_vectors("single_excitation_re", x, GRID, ENV)[1]
    np.testing.assert_allclose(b / s_b, (f / s_f) ** 2, rtol=1e-10)


# --- training -------------------------------------------------------------


def _linear_dataset(n, seed):
    # raw outputs are the physics scale times a linear function of the
    # inputs, so the learned nondimensional map is exactly linear
    x = surrogate.sample_inputs("single", n, seed)
    s = surrogate.affine_vectors("single_damping", x, GRID, ENV)[1]
    t = 0.3 * x[:, 0:1] - 0.2 * x[:, 1:2] + 0.05
    return surrogate.Dataset("single_damping", x, s * t, GRID, ENV)


def test_committee_fits_linear_map():
    # 200 rows bootstrap to 160; at batch 64 that is 2 steps per epoch,
    # so 2000 epochs give each member 4000 Adam steps
    cfg = surrogate.CommitteeConfig(hidden=(16, 16), epochs=2000, seed=2)
    com = surrogate.train_committee(_linear_dataset(200, 0), cfg)
    assert len(com.member_mse) == 5
    fresh = _linear_dataset(100, 1)
    mean_t, _ = com.apply(fresh.inputs)
    scales = surrogate.affine_vectors("single_damping", fresh.inputs, GRID, ENV)[1]
    diff = (mean_t - fresh.outputs / scales) / com.pooled_scale
    assert np.mean(diff * diff) < 1e-4


def test_committee_deterministic():
    cfg = surrogate.CommitteeConfig(hidden=(8, 8), epochs=30, seed=11)
    a = surrogate.train_committee(_linear_dataset(80, 5), cfg)
    b = surrogate.train_committee(_linear_dataset(80, 5), cfg)
    for wa, wb in zip(a.network.weights, b.network.weights, strict=True):
        assert np.array_equal(wa, wb)
    assert a.member_mse == b.member_mse


def test_committee_minimum_samples():
    with pytest.raises(ValueError, match="at least 50"):
        surrogate.train_committee(_linear_dataset(40, 0), surrogate.CommitteeConfig())


def test_zero_variance_dataset_warns_and_trains():
    x = surrogate.sample_inputs("single", 60, 2)
    data = surrogate.Dataset("single_added_mass", x, np.zeros((60, GRID.n)), GRID, ENV)
    cfg = surrogate.CommitteeConfig(hidden=(8, 8), epochs=20, seed=0)
    with pytest.warns(UserWarning, match="constant outputs"):
        com = surrogate.train_committee(data, cfg)
    assert com.zero_variance
    mean, _ = com.apply(x[:1])
    assert np.all(np.abs(mean) < 1e-5)


# --- prediction and active learning ---------------------------------------


@pytest.fixture(scope="module")
def damping_committee():
    data = surrogate.build_datasets(
        "single", 150, 21, GRID, ENV, ORACLE, edge_fraction=0.2
    )["single_damping"]
    cfg = surrogate.CommitteeConfig(hidden=(32, 32), epochs=150, round_epochs=60, seed=4)
    return surrogate.train_committee(data, cfg)


def test_predict_shapes_and_extrapolation_flag(damping_committee):
    inputs = np.array([[3.0, 6.0], [12.0, 6.0]])
    mean, disagreement = damping_committee.apply(inputs)
    assert mean.shape == (2, GRID.n)
    assert disagreement.shape == (2,) and np.all(disagreement >= 0.0)
    assert surrogate.outside_box("single", inputs).tolist() == [False, True]


def test_disagreement_ranks_dense_against_corner(damping_committee):
    pool = surrogate.sample_inputs("single", 300, 123)
    _, dis = damping_committee.apply(pool)
    median = np.median(dis)
    _, (dense, corner) = damping_committee.apply(np.array([[5.0, 5.0], [0.5, 0.2]]))
    assert dense < median
    assert corner > median


def test_qbc_round_budget_and_improvement(damping_committee):
    com = damping_committee
    n0 = com.dataset.n_samples
    before = surrogate.validate_on_grid(com, ORACLE, counts=(9, 9)).mean
    for rnd in range(5):
        pool = surrogate.sample_inputs("single", 400, 500 + rnd, edge_fraction=0.2)
        data, com = surrogate.qbc_round(com, pool, 50, ORACLE)
        assert data.n_samples == n0 + 50 * (rnd + 1)
    after = surrogate.validate_on_grid(com, ORACLE, counts=(9, 9)).mean
    assert after < before
    assert com.rounds == 5
    assert len(com.disagreement_history) == 5


def test_qbc_tie_break_is_lexicographic():
    # identical members disagree nowhere, so selection degenerates to
    # input lexicographic order
    x = surrogate.sample_inputs("single", 60, 3)
    flat = surrogate.affine_vectors("single_damping", x, GRID, ENV)[1]
    data = surrogate.Dataset("single_damping", x, flat, GRID, ENV)
    cfg = surrogate.CommitteeConfig(hidden=(8, 8), epochs=10, seed=1)
    with pytest.warns(UserWarning):
        com = surrogate.train_committee(data, cfg)
    # the targets are constant; with a zero head, member 0 predicts them
    # exactly, so the five-term mean has no rounding and five copies of
    # member 0 in the committee's network disagree exactly nowhere
    for w in com.network.weights[4:]:
        w[0] = 0.0
    for w in com.network.weights:
        w[1:] = w[0]
    pool = np.array([[4.0, 5.0], [2.0, 4.0], [2.0, 3.0], [7.0, 1.0]])
    _, disagreement = com.apply(pool)
    assert np.all(disagreement == 0.0)
    aug, com = surrogate.qbc_round(com, pool, 2, ORACLE)
    assert np.array_equal(aug.inputs[-2:], [[2.0, 3.0], [2.0, 4.0]])


def test_qbc_round_takes_whole_pool():
    data = surrogate.build_datasets("single", 60, 8, GRID, ENV, ORACLE)["single_damping"]
    cfg = surrogate.CommitteeConfig(hidden=(8, 8), epochs=20, round_epochs=10, seed=0)
    com = surrogate.train_committee(data, cfg)
    pool = surrogate.sample_inputs("single", 25, 77)
    aug, _ = surrogate.qbc_round(com, pool, 25, ORACLE)
    assert aug.n_samples == 85


def test_qbc_round_never_duplicates_inputs():
    data = surrogate.build_datasets("single", 60, 8, GRID, ENV, ORACLE)["single_damping"]
    cfg = surrogate.CommitteeConfig(hidden=(8, 8), epochs=20, round_epochs=10, seed=0)
    com = surrogate.train_committee(data, cfg)
    pool = np.vstack([data.inputs[:30], surrogate.sample_inputs("single", 10, 50)])
    aug, _ = surrogate.qbc_round(com, pool, 10, ORACLE)
    assert aug.n_samples == 70
    rows = {row.tobytes() for row in aug.inputs}
    assert len(rows) == 70
    with pytest.raises(ValueError, match="fewer unseen"):
        surrogate.qbc_round(com, aug.inputs[:15], 10, ORACLE)
    # a point the pool holds twice is labelled once, and counts once as unseen
    com = surrogate.train_committee(data, cfg)
    twice = np.vstack([surrogate.sample_inputs("single", 5, 51)] * 2)
    with pytest.raises(ValueError, match="fewer unseen"):
        surrogate.qbc_round(com, twice, 6, ORACLE)
    oracle = CountingOracle()
    aug, _ = surrogate.qbc_round(com, twice, 4, oracle)
    assert aug.n_samples == 64
    assert len({row.tobytes() for row in aug.inputs}) == 64
    assert oracle.single_calls == 4


def test_qbc_round_pool_validation(damping_committee):
    with pytest.raises(ValueError, match="empty"):
        surrogate.qbc_round(damping_committee, np.empty((0, 2)), 1, ORACLE)
    with pytest.raises(ValueError, match="cannot select"):
        surrogate.qbc_round(damping_committee, np.array([[3.0, 3.0]]), 5, ORACLE)


# --- validation -----------------------------------------------------------


def test_cheating_committee_validates_to_exact_zero():
    # the oracle validated against itself, for every map on a small grid
    for target_id in surrogate.ALL_TARGET_IDS:
        cheat = surrogate.CheatingCommittee(target_id, GRID, ENV, ORACLE)
        counts = (3, 3) if surrogate.target_kind(target_id) == "single" else (3, 3, 4, 3)
        vm = surrogate.validate_on_grid(cheat, hydro.ReferenceProvider(), counts=counts)
        assert (vm.max, vm.mean) == (0.0, 0.0), target_id
        assert vm.mse.shape == (int(np.prod(counts)),), target_id


def test_validate_on_grid_blocking_keeps_bits(damping_committee, monkeypatch):
    points = surrogate.tensor_grid("single", (23, 23))  # 529 rows: two full blocks and a tail
    assert surrogate.VALIDATE_BLOCK < points.shape[0]
    blocked = surrogate.validate_on_grid(damping_committee, ORACLE, counts=(23, 23))
    monkeypatch.setattr(surrogate, "VALIDATE_BLOCK", points.shape[0])
    whole = surrogate.validate_on_grid(damping_committee, ORACLE, counts=(23, 23))
    assert blocked.mse.tobytes() == whole.mse.tobytes()
    assert np.array_equal(blocked.points, points)


class CountingOracle(hydro.ReferenceProvider):
    """Records the rows and the asked curves of each pair query."""

    def __init__(self):
        super().__init__()
        self.pair_rows = []
        self.pair_curves = []
        self.single_calls = 0

    def single(self, geom, grid, env):
        self.single_calls += 1
        return super().single(geom, grid, env)

    def pair(self, geom, separation, heading_angle, grid, env, curves=hydro.PAIR_CURVES):
        self.pair_rows.append(np.size(separation))
        self.pair_curves.append(set(curves))
        return super().pair(geom, separation, heading_angle, grid, env, curves)


ALL_CURVES = set(hydro.PAIR_CURVES)


def test_cheating_committee_batches_oracle_per_geometry():
    inputs = np.array(
        [[3.0, 6.0, 25.0, 0.7], [2.0, 4.0, 9.0, -1.0], [3.0, 6.0, 90.0, 3.0], [3.0, 6.0, 7.5, 0.0]]
    )
    oracle = CountingOracle()
    cheat = surrogate.CheatingCommittee("pair_excitation_im", GRID, ENV, oracle)
    raw = cheat.features(inputs)["pair_excitation_im"]
    assert oracle.pair_rows == [3, 1]  # one query per distinct (R, slenderness)
    # it labels every pair map, so it asks for every curve
    assert oracle.pair_curves == [ALL_CURVES] * 2
    expected = surrogate.label_inputs("pair_excitation_im", inputs, GRID, ENV, ORACLE)
    assert raw.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["single", "pair"])
def test_labelling_sends_one_oracle_query_per_row(kind):
    # surrogate-train's timed item is one oracle pair query per labelled
    # row; rows that share a geometry are still queried one by one
    inputs = surrogate.sample_inputs(kind, 6, 8)
    inputs = np.vstack([inputs, inputs[:2]])
    if kind == "pair":
        inputs[-2:, 2] += 1.0
    n = inputs.shape[0]
    expected = ([] if kind == "single" else [1] * n), (n if kind == "single" else 0)
    oracle = CountingOracle()
    surrogate.label_inputs(surrogate._TARGET_IDS[kind][-1], inputs, GRID, ENV, oracle)
    assert (oracle.pair_rows, oracle.single_calls) == expected
    # a one-map label asks for its own curve: the last pair map's is the forces
    assert oracle.pair_curves == ([] if kind == "single" else [{"forces"}] * n)
    oracle = CountingOracle()
    surrogate.build_datasets(kind, n, 8, GRID, ENV, oracle)
    assert (oracle.pair_rows, oracle.single_calls) == expected
    assert oracle.pair_curves == ([] if kind == "single" else [ALL_CURVES] * n)


# the Bessel work each pair map's curve needs: (function, multiple of kl)
BESSEL_OF_MAP = {
    "pair_added_mass_diag": [("y0", 2.0)],
    "pair_damping_diag": [("j0", 2.0)],
    "pair_added_mass_cross": [("y0", 1.0)],
    "pair_damping_cross": [("j0", 1.0)],
    "pair_excitation_re": [],
    "pair_excitation_im": [],
}


@pytest.mark.parametrize("target_id", surrogate.PAIR_TARGET_IDS)
def test_one_map_label_sends_only_the_bessel_work_of_its_curve(target_id, monkeypatch):
    grid = hydro.FrequencyGrid.default()
    row = np.array([[3.0, 6.0, 25.0, 0.7]])
    oracle = hydro.ReferenceProvider()
    sent = []
    for name in ("j0", "y0"):
        def recording(x, name=name, original=getattr(kernels, name)):
            sent.append((name, np.array(x)))
            return original(x)

        monkeypatch.setattr(kernels, name, recording)
    labels = surrogate.label_inputs(target_id, row, grid, ENV, oracle)
    monkeypatch.undo()
    kl = row[:, 2:3] * hydro.solve_dispersion(grid.values, ENV)
    assert [(name, x.size) for name, x in sent] == [
        (name, grid.n) for name, _ in BESSEL_OF_MAP[target_id]
    ]
    for (_, x), (_, multiple) in zip(sent, BESSEL_OF_MAP[target_id]):
        assert x.ravel().tobytes() == (multiple * kl).ravel().tobytes()
    want = surrogate.label_inputs(target_id, row, grid, ENV, hydro.ReferenceProvider())
    assert labels.tobytes() == want.tobytes()


def test_one_row_pair_labels_derive_each_plant_once(monkeypatch):
    # tensor_grid orders its rows by plant, 12 rows per plant here, and
    # labelling queries them one at a time: the oracle derives a plant's
    # isolated body from its first pair query and holds it for the rest.
    # Heading is the innermost axis, and only the forces read it: a
    # radiation map computes each separation once and takes its other
    # headings from the memo, while an excitation map computes every row
    inputs = surrogate.tensor_grid("pair", (2, 2, 3, 4))
    assert inputs.shape[0] == 48
    assert len({tuple(row) for row in inputs[:, :2]}) == 4
    calls, computed = [], []
    counted, original = hydro.single_coefficients, hydro.pair_coefficients

    def counting(*args, **kwargs):
        calls.append(args[0])
        return counted(*args, **kwargs)

    def computing(geom, separation, heading_angle, grid, env, isolated=None,
                  curves=hydro.PAIR_CURVES):
        computed.append(np.size(separation))
        return original(geom, separation, heading_angle, grid, env, isolated, curves)

    for tid in surrogate._TARGET_IDS["pair"]:
        monkeypatch.setattr(hydro, "single_coefficients", counting)
        monkeypatch.setattr(hydro, "pair_coefficients", computing)
        calls.clear()
        computed.clear()
        labels = surrogate.label_inputs(tid, inputs, GRID, ENV, hydro.ReferenceProvider())
        assert len(calls) == 4, tid
        reads_heading = surrogate._MAPS[tid].reads == "forces"
        assert computed == [1] * (48 if reads_heading else 12), tid
        monkeypatch.undo()
        for i in range(inputs.shape[0]):
            fresh = surrogate.label_inputs(
                tid, inputs[i : i + 1], GRID, ENV, hydro.ReferenceProvider()
            )
            assert labels[i].tobytes() == fresh[0].tobytes(), (tid, i)


@pytest.mark.parametrize("target_id", ["pair_damping_cross", "pair_excitation_re"])
def test_validation_sends_one_oracle_query_per_grid_row(target_id):
    # surrogate-train's timed item is one oracle pair query, and its
    # validation sweep sends one per grid row: the memo spares a repeated
    # separation its computation, not its query
    oracle = CountingOracle()
    cheat = surrogate.CheatingCommittee(target_id, GRID, ENV, ORACLE)
    vm = surrogate.validate_on_grid(cheat, oracle, counts=(2, 2, 3, 4))
    assert vm.mse.shape == (48,)
    assert oracle.pair_rows == [1] * 48
    assert oracle.pair_curves == [{surrogate._MAPS[target_id].reads}] * 48


# The nine maps as they were defined before the map table, frozen: every
# entry of surrogate._MAPS must give the same curve and (base, scale)
# bit for bit.
FROZEN_CURVES = {
    "single_added_mass": lambda c: c.added_mass,
    "single_damping": lambda c: c.damping,
    "single_excitation_re": lambda c: np.real(c.excitation),
    "pair_added_mass_diag": lambda c: c.added_mass[..., 0, 0],
    "pair_damping_diag": lambda c: c.damping[..., 0, 0],
    "pair_added_mass_cross": lambda c: c.added_mass[..., 0, 1],
    "pair_damping_cross": lambda c: c.damping[..., 0, 1],
    "pair_excitation_re": lambda c: np.real(c.excitation[..., 0]),
    "pair_excitation_im": lambda c: np.imag(c.excitation[..., 0]),
}
FROZEN_SCALE_KEYS = {
    "single_added_mass": "mass",
    "single_damping": "damping",
    "single_excitation_re": "force",
}


def frozen_affine_vectors(target_id, inputs, grid, env):
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if target_id in FROZEN_SCALE_KEYS:
        radius = inputs[:, 0]
        draft = inputs[:, 0] / inputs[:, 1]
        f0 = env.water_density * env.gravity * np.pi * radius**2
        key = FROZEN_SCALE_KEYS[target_id]
        if key == "mass":
            scale = np.broadcast_to(
                (env.water_density * np.pi * radius**2 * draft)[:, None], (inputs.shape[0], grid.n)
            ).copy()
        elif key == "force":
            scale = np.broadcast_to(f0[:, None], (inputs.shape[0], grid.n)).copy()
        else:
            k = hydro.solve_dispersion(grid.values, env)
            vg = hydro.group_velocity(grid.values, env, k=k)
            denominator = 4.0 * env.water_density * env.gravity * vg[None, :]
            scale = k[None, :] * f0[:, None] ** 2 / denominator
        return np.zeros_like(scale), scale
    a_s, b_s, f_s = frozen_isolated_curves(inputs, grid, env)
    om = grid.values[None, :]
    return {
        "pair_added_mass_diag": lambda: (a_s, b_s / om),
        "pair_damping_diag": lambda: (b_s, b_s),
        "pair_added_mass_cross": lambda: (np.zeros_like(b_s), b_s / om),
        "pair_damping_cross": lambda: (np.zeros_like(b_s), b_s),
        "pair_excitation_re": lambda: (f_s, f_s),
        "pair_excitation_im": lambda: (np.zeros_like(f_s), f_s),
    }[target_id]()


def map_table_mismatches():
    """Target ids whose table entry differs from its frozen definition."""
    bad = set()
    answers = {}
    for kind in ("single", "pair"):
        inputs = surrogate.sample_inputs(kind, 5, 21, edge_fraction=0.4)
        if kind == "single":
            answers[kind] = [ORACLE.single(hydro.WecGeometry(*row), GRID, ENV) for row in inputs]
        else:
            # scalar and (P,) queries: the curves take either shape
            answers[kind] = [
                ORACLE.pair(hydro.WecGeometry(r, s), l, theta, GRID, ENV)
                for r, s, l, theta in inputs
            ]
            geom = hydro.WecGeometry(*inputs[0, :2])
            answers[kind].append(ORACLE.pair(geom, inputs[:, 2] + 30.0, inputs[:, 3], GRID, ENV))
        for tid in surrogate._TARGET_IDS[kind]:
            entry = surrogate._MAPS[tid]
            got = [entry.curve(c) for c in answers[kind]]
            want = [FROZEN_CURVES[tid](c) for c in answers[kind]]
            got += surrogate.affine_vectors(tid, inputs, GRID, ENV)
            want += frozen_affine_vectors(tid, inputs, GRID, ENV)
            if entry.kind != kind or any(
                g.shape != w.shape or g.tobytes() != w.tobytes() for g, w in zip(got, want)
            ):
                bad.add(tid)
    return bad


def test_map_table_reproduces_the_frozen_definitions():
    assert surrogate.ALL_TARGET_IDS == tuple(FROZEN_CURVES)
    assert surrogate.SINGLE_TARGET_IDS == tuple(FROZEN_SCALE_KEYS)
    assert map_table_mismatches() == set()


def test_map_table_check_flags_a_mutated_entry(monkeypatch):
    maps = surrogate._MAPS
    monkeypatch.setitem(
        maps, "single_damping", maps["single_damping"]._replace(norm=(None, "mass"))
    )
    monkeypatch.setitem(
        maps, "pair_added_mass_cross", maps["pair_added_mass_cross"]._replace(norm=("a", "b/w"))
    )
    cross_curve = FROZEN_CURVES["pair_damping_cross"]
    monkeypatch.setitem(
        maps, "pair_damping_diag", maps["pair_damping_diag"]._replace(curve=cross_curve)
    )
    assert map_table_mismatches() == {
        "single_damping", "pair_added_mass_cross", "pair_damping_diag"
    }


def frozen_isolated_curves(inputs, grid, env):
    # Frozen copy of the per-row loop that first computed the curves: one
    # scalar single_coefficients query per row.
    n = inputs.shape[0]
    a_s, b_s, f_s = np.empty((n, grid.n)), np.empty((n, grid.n)), np.empty((n, grid.n))
    for i, row in enumerate(inputs):
        c = hydro.single_coefficients(hydro.WecGeometry(row[0], row[1]), grid, env)
        a_s[i], b_s[i], f_s[i] = c.added_mass, c.damping, np.real(c.excitation)
    return a_s, b_s, f_s


@pytest.mark.parametrize("kind, counts", [("pair", (3, 3, 4, 2))])
def test_isolated_curves_equal_the_per_row_loop(kind, counts):
    # a tensor grid repeats each plant once per (separation, heading)
    inputs = surrogate.tensor_grid(kind, counts)[::-1]
    got = surrogate._norm_curves(kind, ("a", "b", "b/w", "f"), inputs, GRID, ENV)
    a_s, b_s, f_s = frozen_isolated_curves(inputs, GRID, ENV)
    want = {"a": a_s, "b": b_s, "b/w": b_s / GRID.values[None, :], "f": f_s}
    assert got.keys() == want.keys()
    for key, w in want.items():
        assert got[key].shape == w.shape and got[key].tobytes() == w.tobytes(), key


def test_isolated_curves_cache_keys_the_whole_environment():
    inputs = np.array([[3.0, 6.0, 25.0, 0.7]])
    surrogate.affine_vectors("pair_damping_diag", inputs, GRID, ENV)
    other = hydro.Environment(water_density=1000.0, gravity=9.80665)
    _, scale = surrogate.affine_vectors("pair_damping_diag", inputs, GRID, other)
    fresh = hydro.single_coefficients(hydro.WecGeometry(3.0, 6.0), GRID, other)
    assert scale[0].tobytes() == fresh.damping.tobytes()


def test_degenerate_committee_disagreement_zero():
    cheat = surrogate.CheatingCommittee("single_damping", GRID, ENV, ORACLE)
    _, dis = cheat.apply(np.array([[3.0, 6.0]]))
    assert dis[0] == 0.0


# --- persistence ----------------------------------------------------------


def test_committee_json_round_trip(tmp_path, damping_committee):
    path = tmp_path / "committee.json"
    surrogate.save_committee(damping_committee, path)
    back = surrogate.load_committee(path)
    x = np.array([[4.2, 3.3]])
    mean_a, dis_a = damping_committee.apply(x)
    mean_b, dis_b = back.apply(x)
    assert np.array_equal(mean_a, mean_b)
    assert dis_a[0] == dis_b[0]
    assert back.config == damping_committee.config
    assert back.target_id == "single_damping"


def test_committee_json_resave_is_byte_identical(tmp_path, damping_committee):
    # a pair committee after one QBC round carries kref, rounds and history
    data = surrogate.build_datasets("pair", 60, 13, GRID, ENV, ORACLE)["pair_damping_cross"]
    cfg = replace(surrogate.default_config("pair_damping_cross", seed=2), epochs=3, round_epochs=2)
    pair = surrogate.train_committee(data, cfg)
    pool = surrogate.sample_inputs("pair", 20, np.random.default_rng(5))
    _, pair = surrogate.qbc_round(pair, pool, 5, ORACLE)
    for committee in (damping_committee, pair):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        surrogate.save_committee(committee, first)
        surrogate.save_committee(surrogate.load_committee(first), second)
        assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["rounds"] == 1 and len(doc["disagreement_history"]) == 1
    assert doc["config"] == {"hidden": [96, 96], "epochs": 3, "round_epochs": 2, "seed": 2}


def test_a_loaded_committee_refuses_a_qbc_round(tmp_path, damping_committee):
    # the file holds no training rows, so there is nothing to refit on
    path = tmp_path / "committee.json"
    surrogate.save_committee(damping_committee, path)
    back = surrogate.load_committee(path)
    pool = surrogate.sample_inputs("single", 20, np.random.default_rng(3))
    with pytest.raises(ValueError, match="carries no dataset.*`wecfarm surrogate train`"):
        surrogate.qbc_round(back, pool, 5, ORACLE)


def test_loaded_committee_resaves_and_applies_byte_identically(tmp_path, tiny_committees):
    # load_committee stacks the JSON's per-member weights into the
    # network that train_committee fitted
    rows = {"single": surrogate.sample_inputs("single", 7, 41),
            "pair": surrogate.sample_inputs("pair", 7, 41)}
    for tid in ("single_damping", "pair_damping_cross"):
        committee = tiny_committees[tid]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        surrogate.save_committee(committee, first)
        back = surrogate.load_committee(first)
        for w, b in zip(committee.network.weights, back.network.weights, strict=True):
            assert w.shape == b.shape and w.tobytes() == b.tobytes()
        surrogate.save_committee(back, second)
        assert first.read_bytes() == second.read_bytes()
        for a, b in zip(committee.apply(rows[committee.kind]), back.apply(rows[committee.kind])):
            assert a.tobytes() == b.tobytes()


def test_committee_json_loads_files_with_the_optimizer_flag(tmp_path, damping_committee):
    # files written while the optimizer was selectable carry "use_adam"
    path = tmp_path / "committee.json"
    surrogate.save_committee(damping_committee, path)
    doc = json.loads(path.read_text())
    assert "use_adam" not in doc["config"]
    doc["config"]["use_adam"] = True
    path.write_text(json.dumps(doc))
    back = surrogate.load_committee(path)
    x = surrogate.tensor_grid("single", (4, 4))
    for a, b in zip(damping_committee.apply(x), back.apply(x)):
        assert a.tobytes() == b.tobytes()


def test_committee_json_refuses_non_finite_values(tmp_path, damping_committee):
    diverged = copy.copy(damping_committee)
    diverged.member_mse = [float("nan")] + list(damping_committee.member_mse[1:])
    path = tmp_path / "committee.json"
    with pytest.raises(ValueError, match="JSON"):
        surrogate.save_committee(diverged, path)
    assert not path.exists()


def test_committee_schema_checked(tmp_path):
    path = tmp_path / "committee.json"
    path.write_text('{"schema_version": 99}')
    with pytest.raises(ValueError, match="schema"):
        surrogate.load_committee(path)


def test_dataset_csv_round_trip(tmp_path):
    data = surrogate.build_datasets("pair", 12, 31, GRID, ENV, ORACLE)["pair_excitation_im"]
    path = tmp_path / "dataset.csv"
    surrogate.save_dataset(data, path)
    tag, header = path.read_text().splitlines()[:2]
    assert tag == f"# wecfarm-dataset v{surrogate.SCHEMA_VERSION} target=pair_excitation_im"
    outs = [f"out_{i:03d}" for i in range(GRID.n)]
    assert header.split(",") == ["radius", "slenderness", "separation", "heading"] + outs
    table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    assert table[:, :4].tobytes() == data.inputs.tobytes()
    assert table[:, 4:].tobytes() == data.outputs.tobytes()


def test_a_committee_file_of_an_earlier_tree_resaves_byte_for_byte(tmp_path):
    # written before the network held the only copy of the weights, and
    # while the config block still carried the recipe: a single map,
    # hidden (8, 8), 3 members, 10 frequencies, one QBC round. Loading and
    # saving parse and print floats and run no BLAS, so the bytes hold on
    # any machine; the prediction's bytes are not compared
    pinned = DATA / "committee_single_damping.json"
    committee = surrogate.load_committee(pinned)
    assert committee.network.sizes == [2, 8, 8, 10]
    assert committee.network.n_members == 3 and committee.rounds == 1
    resaved = tmp_path / "committee.json"
    surrogate.save_committee(committee, resaved)
    # the re-save drops the retired recipe keys and keeps every other byte
    doc = json.loads(pinned.read_text())
    for key in ("learning_rate", "members", "bootstrap", "batch", "min_samples"):
        del doc["config"][key]
    assert resaved.read_bytes() == (json.dumps(doc) + "\n").encode()
    inputs = surrogate.sample_inputs("single", 4, 0)
    mean, disagreement = committee.apply(inputs)
    assert mean.shape == (4, 10) and np.all(np.isfinite(mean))
    assert np.all(disagreement >= 0.0) and not surrogate.outside_box("single", inputs).any()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_a_committee_file_with_a_non_finite_weight_is_refused(tmp_path, token):
    # json.load reads all four as floats; loaded, the committee would
    # predict NaN means and disagreement without an error
    pinned = DATA / "committee_single_damping.json"
    doc = json.loads(pinned.read_text())
    doc["members"][0]["weights"][0][0] = "WEIGHT"
    broken = tmp_path / "committee_single_damping.json"
    broken.write_text(json.dumps(doc).replace('"WEIGHT"', token))
    with pytest.raises(ValueError, match=f"{broken}: non-finite number {token}"):
        surrogate.load_committee(broken)


# --- provider -------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_provider():
    committees = {}
    for kind, n in (("single", 80), ("pair", 100)):
        data = surrogate.build_datasets(kind, n, 17, GRID, ENV, ORACLE, edge_fraction=0.2)
        for tid, ds in data.items():
            cfg = surrogate.CommitteeConfig(hidden=(16, 16), epochs=60, seed=13)
            committees[tid] = surrogate.train_committee(ds, cfg)
    return surrogate.SurrogateProvider(committees)


def test_provider_requires_all_committees(tiny_provider):
    partial = dict(tiny_provider.committees)
    del partial["pair_damping_cross"]
    with pytest.raises(ValueError, match="missing committees"):
        surrogate.SurrogateProvider(partial)


def test_provider_single_structure(tiny_provider):
    geom = hydro.WecGeometry(3.0, 6.0)
    sc = tiny_provider.single(geom, GRID, ENV)
    assert sc.added_mass.shape == (GRID.n,)
    assert np.all(sc.damping >= 0.0)
    assert sc.excitation.dtype == np.complex128
    # the isolated excitation is real by construction; no committee learns its zero
    assert np.all(np.imag(sc.excitation) == 0.0)


def test_provider_single_is_the_committee_means_times_the_frozen_scales(tiny_committees):
    # prediction reads the geometry scales through the rule that training
    # uses; pinned byte for byte against the frozen scales of each map
    provider = surrogate.SurrogateProvider(tiny_committees)
    grid, env = provider.grid, provider.env
    for row in surrogate.sample_inputs("single", 6, 8, edge_fraction=0.5):
        got = provider.single(hydro.WecGeometry(*row), grid, env)
        want = {
            tid: tiny_committees[tid].apply(row)[0][0]
            * frozen_affine_vectors(tid, row, grid, env)[1][0]
            for tid in FROZEN_SCALE_KEYS
        }
        assert got.added_mass.tobytes() == want["single_added_mass"].tobytes()
        assert got.damping.tobytes() == np.maximum(want["single_damping"], 0.0).tobytes()
        assert got.excitation.tobytes() == (want["single_excitation_re"] + 0j).tobytes()


def test_provider_pair_structure(tiny_provider):
    geom = hydro.WecGeometry(3.0, 6.0)
    pc = tiny_provider.pair(geom, 25.0, 0.7, GRID, ENV)
    assert np.array_equal(pc.added_mass[:, 0, 1], pc.added_mass[:, 1, 0])
    assert np.array_equal(pc.damping[:, 0, 0], pc.damping[:, 1, 1])
    assert np.all(pc.damping[:, 0, 0] >= 0.0)
    assert np.all(np.abs(pc.damping[:, 0, 1]) <= pc.damping[:, 0, 0] + 1e-15)
    k = hydro.solve_dispersion(GRID.values, ENV)
    expected = pc.excitation[:, 0] * np.exp(-1j * k * 25.0 * np.cos(0.7))
    np.testing.assert_allclose(pc.excitation[:, 1], expected, rtol=1e-12)
    with pytest.raises(hydro.GeometryError):
        tiny_provider.pair(geom, 5.0, 0.0, GRID, ENV)


PAIR_BATCH = (np.array([7.0, 25.0, 90.0, 360.0]), np.array([0.0, 0.7, -2.0, np.pi]))


def test_provider_pair_batch_matches_scalar_queries(tiny_provider):
    geom = hydro.WecGeometry(3.0, 6.0)
    sep, theta = PAIR_BATCH
    batch = tiny_provider.pair(geom, sep, theta, GRID, ENV)
    assert batch.added_mass.shape == (sep.size, GRID.n, 2, 2)
    assert batch.excitation.shape == (sep.size, GRID.n, 2)
    for i in range(sep.size):
        # a P-row matmul may be blocked differently from a one-row one
        one = tiny_provider.pair(geom, sep[i], theta[i], GRID, ENV)
        np.testing.assert_allclose(batch.added_mass[i], one.added_mass, rtol=1e-12)
        np.testing.assert_allclose(batch.damping[i], one.damping, rtol=1e-12)
        np.testing.assert_allclose(batch.excitation[i], one.excitation, rtol=1e-12)
    with pytest.raises(hydro.GeometryError):
        tiny_provider.pair(geom, np.array([25.0, 5.0]), np.zeros(2), GRID, ENV)


def cheating_provider(oracle=ORACLE, grid=GRID):
    return surrogate.SurrogateProvider(
        {tid: surrogate.CheatingCommittee(tid, grid, ENV, oracle) for tid in surrogate.ALL_TARGET_IDS}
    )


def test_cheating_provider_pair_batch_is_bitwise():
    geom = hydro.WecGeometry(3.0, 6.0)
    # 90 rows of 200 complex frequencies pass the 256 KiB from which numpy
    # reuses a temporary operand, and may then swap a product's operands
    rng = np.random.default_rng(15)
    large = (rng.uniform(7.0, 360.0, 90), rng.uniform(-np.pi, np.pi, 90))
    for grid, (sep, theta) in ((GRID, PAIR_BATCH), (hydro.FrequencyGrid.default(), large)):
        provider = cheating_provider(grid=grid)
        batch = provider.pair(geom, sep, theta, grid, ENV)
        for i in range(sep.size):
            one = provider.pair(geom, sep[i], theta[i], grid, ENV)
            assert np.array_equal(batch.added_mass[i], one.added_mass)
            assert np.array_equal(batch.damping[i], one.damping)
            assert np.array_equal(batch.excitation[i], one.excitation)


def test_mutating_a_surrogate_answer_leaves_the_next_unchanged():
    provider, fresh = cheating_provider(), cheating_provider()
    geom = hydro.WecGeometry(3.0, 6.0)
    sep, theta = PAIR_BATCH
    names = ("added_mass", "damping", "excitation")
    for _ in range(2):
        pair = provider.pair(geom, sep, theta, GRID, ENV)
        for got in (provider.single(geom, GRID, ENV), pair, pair.isolated):
            for name in names:
                getattr(got, name)[...] = 0.0
    pair, fresh_pair = (p.pair(geom, sep, theta, GRID, ENV) for p in (provider, fresh))
    for got, want in (
        (provider.single(geom, GRID, ENV), fresh.single(geom, GRID, ENV)),
        (pair, fresh_pair),
        (pair.isolated, fresh_pair.isolated),
    ):
        for name in names:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("make", ["tiny", "cheating"])
def test_provider_pair_carries_its_single_bitwise(make, tiny_provider):
    provider = tiny_provider if make == "tiny" else cheating_provider()
    geom = hydro.WecGeometry(3.0, 6.0)
    sep, theta = PAIR_BATCH
    want = provider.single(geom, GRID, ENV)
    for got in (provider.pair(geom, sep[1], theta[1], GRID, ENV).isolated,
                provider.pair(geom, sep, theta, GRID, ENV).isolated):
        for name in ("added_mass", "damping", "excitation"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def five_body_layout(radius):
    unit = np.array([[0.0, 0.0], [1.0, 0.3], [0.2, 1.1], [-0.9, 0.6], [0.5, -1.2]])
    return mbe.Layout(unit * (2.0 * radius + 12.0))


def test_cheating_provider_reconstructs_the_reference():
    # the learned reconstruction, fed oracle curves, gives the oracle back
    # to rounding; the worst case is excitation[..., 1] via k l cos(theta)
    provider = cheating_provider()
    reference = hydro.ReferenceProvider()
    for radius, slenderness in surrogate.tensor_grid("single", (4, 3)):
        geom = hydro.WecGeometry(radius, slenderness)
        got, want = provider.single(geom, GRID, ENV), reference.single(geom, GRID, ENV)
        for name in ("added_mass", "damping", "excitation"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12)
        lo, hi = surrogate.separation_interval(radius)
        sep, theta = np.geomspace(lo, hi, 20), np.linspace(-np.pi, np.pi, 20)
        got = provider.pair(geom, sep, theta, GRID, ENV)
        want = reference.pair(geom, sep, theta, GRID, ENV)
        for name in ("added_mass", "damping", "excitation"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12)
        layout = five_body_layout(radius)
        got = mbe.compose_farm(provider, geom, layout, GRID, ENV)
        want = mbe.compose_farm(reference, geom, layout, GRID, ENV)
        for name in ("added_mass", "damping", "excitation"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12)


def test_cheating_provider_queries_the_oracle_once_per_layout():
    oracle = CountingOracle()
    provider = cheating_provider(oracle)
    mbe.compose_farm(provider, hydro.WecGeometry(3.0, 6.0), five_body_layout(3.0), GRID, ENV)
    assert oracle.single_calls == 1
    assert oracle.pair_rows == [10]
    assert oracle.pair_curves == [ALL_CURVES]


class UnsharedFeatures:
    """A committee that ignores the feature block its caller hands it."""

    def __init__(self, committee):
        self.committee = committee

    def __getattr__(self, name):
        return getattr(self.committee, name)

    def apply(self, inputs, features=None):
        return self.committee.apply(inputs)


def test_provider_shared_features_keep_bits(tiny_provider):
    unshared = surrogate.SurrogateProvider(
        {tid: UnsharedFeatures(c) for tid, c in tiny_provider.committees.items()}
    )
    geom = hydro.WecGeometry(3.0, 6.0)
    sep, theta = PAIR_BATCH
    shared = tiny_provider.pair(geom, sep, theta, GRID, ENV)
    alone = unshared.pair(geom, sep, theta, GRID, ENV)
    assert shared.added_mass.tobytes() == alone.added_mass.tobytes()
    assert shared.damping.tobytes() == alone.damping.tobytes()
    assert shared.excitation.tobytes() == alone.excitation.tobytes()


def test_provider_queries_check_no_input_box_per_committee(tiny_provider, monkeypatch):
    # the box is the query's to check, once; no committee asks it
    calls = []
    outside_box = surrogate.outside_box

    def counting(kind, inputs):
        calls.append(kind)
        return outside_box(kind, inputs)

    monkeypatch.setattr(surrogate, "outside_box", counting)
    geom = hydro.WecGeometry(3.0, 6.0)
    tiny_provider.single(geom, GRID, ENV)
    assert calls == []
    tiny_provider.pair(geom, *PAIR_BATCH, GRID, ENV)
    assert calls == []


def test_provider_pair_computes_one_feature_pass(tiny_provider, monkeypatch):
    geom = hydro.WecGeometry(3.0, 6.0)
    sep, theta = PAIR_BATCH
    calls = []
    features = surrogate.Committee.features

    # J0/Y0 passes of the pair committees; single features run no Bessel
    def counting(self, inputs):
        blocks = features(self, inputs)
        if self.kind == "pair":
            calls.append(sorted(blocks))
        return blocks

    monkeypatch.setattr(surrogate.Committee, "features", counting)
    tiny_provider.pair(geom, sep, theta, GRID, ENV)
    assert calls == [[1.0, 2.0]]


# Frozen copies of the earlier per-multiplier feature block and of the
# committee apply built on np.stack, np.var and a fresh input box; the
# current code must reproduce them byte for byte. A committee forwards
# float32 copies of its float64 weights, so the frozen forms do the same.


def features_of_one_multiplier(committee, inputs, multiplier):
    phase = inputs[:, 2:3] * (multiplier * committee.kref[None, :])
    envelope = np.exp(-inputs[:, 2:3] / (hydro.INTERACTION_RANGE_RADII * inputs[:, 0:1]))
    return np.concatenate(
        [inputs, envelope * kernels.j0(phase), envelope * kernels.y0(phase)], axis=1
    )


def forward_with_temporaries(x, weights):
    w1, b1, w2, b2, w3, b3 = weights
    h1 = np.tanh(x @ w1 + b1)
    h2 = np.tanh(h1 @ w2 + b2)
    return h2 @ w3 + b3


def committee_forward(x, weights):
    """One member's forward as a committee runs it: in float32."""
    weights32 = [w.astype(np.float32) for w in weights]
    return forward_with_temporaries(x.astype(np.float32), weights32)


def apply_by_stacking(committee, inputs):
    feats = features_of_one_multiplier(committee, inputs, committee.phase_multiplier)
    z_in = committee.input_scaler.transform(feats)
    scaler = committee.output_scaler
    curves = (
        np.stack([
            committee_forward(z_in, committee.network.member(m))
            for m in range(committee.network.n_members)
        ])
        * scaler.scale
        + scaler.mean
    )
    disagreement = np.mean(np.var(curves, axis=0), axis=1) / committee.pooled_scale**2
    box = surrogate.input_box(committee.kind)
    outside = np.any((inputs < box[None, :, 0]) | (inputs > box[None, :, 1]), axis=1)
    return curves.mean(axis=0), disagreement, outside


def members_of(topology, n_members=5, seed=0):
    """Per-member weight lists [w1, b1, w2, b2, w3, b3]."""
    rng = np.random.default_rng(seed)
    members = [nn.he_init(list(topology), rng) for _ in range(n_members)]
    # he_init biases are zero; random ones make the bias broadcast count
    for weights in members:
        for b in weights[1::2]:
            b[...] = rng.normal(0.0, 0.1, b.shape)
    return members


# the pair topology is 138 -> 96 -> 96 -> 200 at 200 frequencies, the
# single 2 -> 32 -> 32 -> 200
@pytest.mark.parametrize("topology", [(138, 96, 96, 200), (2, 32, 32, 200)])
@pytest.mark.parametrize("n", [1, 2, 10, 45, 256, 300])
def test_member_block_forward_equals_the_per_member_loop_bytewise(topology, n):
    members = members_of(topology)
    network = nn.Regressor.stacked(members)
    x = np.random.default_rng(n).normal(size=(n, topology[0]))
    got = network.predict(x)
    assert got.shape == (5, n, topology[-1]) and got.dtype == np.float32
    want = np.stack([committee_forward(x, weights) for weights in members])
    assert got.tobytes() == want.tobytes()
    x32 = x.astype(np.float32)
    per_member = [
        kernels.mlp_forward(x32, [w.astype(np.float32) for w in network.member(m)])
        for m in range(5)
    ]
    assert got.tobytes() == np.stack(per_member).tobytes()
    # training forwards the float64 member views
    for m, weights in enumerate(members):
        trained_path = kernels.mlp_forward(x, network.member(m))
        assert trained_path.dtype == np.float64
        assert trained_path.tobytes() == forward_with_temporaries(x, weights).tobytes()


def test_members_are_views_of_the_block_and_train_it():
    members = members_of((4, 8, 8, 6), n_members=3, seed=1)
    network = nn.Regressor.stacked(members)
    assert [w.shape for w in network.weights] == [
        (3, 4, 8), (3, 1, 8), (3, 8, 8), (3, 1, 8), (3, 8, 6), (3, 1, 6)
    ]
    assert network.sizes == [4, 8, 8, 6]
    for m, weights in enumerate(members):
        views = network.member(m)
        assert [w.shape for w in views] == [(4, 8), (8,), (8, 8), (8,), (8, 6), (6,)]
        for w, block, frozen in zip(views, network.weights, weights, strict=True):
            assert np.shares_memory(w, block)
            assert w.tobytes() == frozen.tobytes()
    # training member 1 through the network changes its slice only, bit
    # for bit as a 2-D mlp_train of its frozen arrays
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(20, 4)), rng.normal(size=(20, 6))
    schedule = nn.epoch_schedule(20, 10, 3, rng)
    before = [w.copy() for w in network.weights]
    network.train(1, x, y, schedule, 2e-3)
    kernels.mlp_train(x, y, members[1], schedule, 2e-3)
    for w, w0, trained in zip(network.weights, before, members[1], strict=True):
        assert w[1].tobytes() == trained.tobytes()
        assert not np.array_equal(w[1], w0[1])
        for m in (0, 2):
            assert w[m].tobytes() == w0[m].tobytes()


def test_predict_follows_every_weight_write(tmp_path):
    # predict forwards a float32 copy of the weights; each write through
    # train, a QBC refit or a load must reach the next predict
    data = surrogate.build_datasets("single", 60, 8, GRID, ENV, ORACLE)["single_damping"]
    cfg = surrogate.CommitteeConfig(hidden=(8, 8), epochs=20, round_epochs=10, seed=0)
    com = surrogate.train_committee(data, cfg)
    z = com.input_scaler.transform(surrogate.sample_inputs("single", 9, 3))

    def follows(network, previous):
        got = network.predict(z)
        want = np.stack([
            committee_forward(z, network.member(m)) for m in range(network.n_members)
        ])
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(got, previous)
        return got

    seen = follows(com.network, np.zeros(0))
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(20, 2)), rng.normal(size=(20, GRID.n))
    com.network.train(2, x, y, nn.epoch_schedule(20, 10, 2, rng), 2e-3)
    seen = follows(com.network, seen)
    path = tmp_path / "committee.json"
    surrogate.save_committee(com, path)
    saved = seen
    # the round predicts on its pool before it refits
    surrogate.qbc_round(com, surrogate.sample_inputs("single", 20, 6), 5, ORACLE)
    seen = follows(com.network, seen)
    back = surrogate.load_committee(path)
    assert back.network.predict(z).tobytes() == saved.tobytes()
    follows(back.network, seen)


def random_pair_inputs(seed):
    # edge snapping puts every coordinate on its bounds, separations
    # 2R + 1 and SEPARATION_MAX included; the last rows leave the box
    u = surrogate.sample_inputs("pair", 60, np.random.default_rng(seed), edge_fraction=0.5)
    radius = u[:3, 0]
    sep_lo, sep_hi = surrogate.separation_interval(radius)
    bounds = np.column_stack([radius, u[:3, 1], sep_lo, u[:3, 3]])
    outside = bounds.copy()
    outside[:, 2] = sep_hi + 25.0
    return np.vstack([u, bounds, outside])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_feature_pass_equals_per_multiplier_blocks_bytewise(tiny_provider, seed):
    inputs = random_pair_inputs(seed)
    committee = tiny_provider.committees["pair_damping_cross"]
    blocks = committee.features(inputs)
    assert sorted(blocks) == [1.0, 2.0]
    for m in (1.0, 2.0):
        assert blocks[m].tobytes() == features_of_one_multiplier(committee, inputs, m).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_apply_equals_stacked_apply_bytewise(tiny_provider, seed):
    inputs = random_pair_inputs(seed)
    for tid in surrogate.PAIR_TARGET_IDS:
        committee = tiny_provider.committees[tid]
        got = (*committee.apply(inputs), surrogate.outside_box(committee.kind, inputs))
        want = apply_by_stacking(committee, inputs)
        assert got[2].any() and not got[2].all()
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_committee_paths_compute_only_their_own_feature_block(tiny_provider, monkeypatch):
    # training, the QBC selection and refit, and apply without a shared
    # block run J0 on the committee's own multiplier block alone; the
    # provider's shared pass still stacks both
    stacks = []
    j0 = kernels.j0

    def recording(x):
        stacks.append(np.shape(x))
        return j0(x)

    monkeypatch.setattr(kernels, "j0", recording)
    for tid in ("pair_added_mass_diag", "pair_damping_cross"):
        committee = tiny_provider.committees[tid]
        config = replace(committee.config, epochs=1, round_epochs=1)
        fresh = surrogate.train_committee(committee.dataset, config)
        pool = surrogate.sample_inputs("pair", 8, np.random.default_rng(4))
        _, fresh = surrogate.qbc_round(fresh, pool, 2, ORACLE)
        fresh.apply(pool)
    # the oracle's own J0 calls run on the frequency grid, not on kref
    features = [shape for shape in stacks if shape[-1] == committee.kref.size]
    assert len(features) == 8
    assert {shape[0] for shape in features} == {1}
    geom = hydro.WecGeometry(2.0, 2.0)
    tiny_provider.pair(geom, np.array([12.0, 30.0]), np.array([0.3, 1.2]), GRID, ENV)
    assert stacks[-1][0] == 2


def test_provider_rejects_committees_from_another_environment():
    committees = {
        tid: surrogate.CheatingCommittee(tid, GRID, ENV, ORACLE) for tid in surrogate.ALL_TARGET_IDS
    }
    committees["pair_damping_cross"] = surrogate.CheatingCommittee(
        "pair_damping_cross", GRID, hydro.Environment(water_depth=30.0), ORACLE
    )
    with pytest.raises(ValueError, match="pair_damping_cross trained in a different environment"):
        surrogate.SurrogateProvider(committees)


def test_provider_rejects_mismatched_grid(tiny_provider):
    other = hydro.FrequencyGrid.default(count=60)
    geom = hydro.WecGeometry(3.0, 6.0)
    with pytest.raises(ValueError, match="grid"):
        tiny_provider.single(geom, other, ENV)
    with pytest.raises(ValueError, match="environment"):
        tiny_provider.single(geom, GRID, hydro.Environment(water_depth=30.0))


def test_provider_composes_through_farm_assembly(tiny_provider):
    geom = hydro.WecGeometry(3.0, 6.0)
    layout = mbe.Layout(np.array([[0.0, 0.0], [40.0, 10.0]]))
    farm = mbe.compose_farm(tiny_provider, geom, layout, GRID, ENV)
    assert farm.added_mass.shape == (GRID.n, 2, 2)
    assert np.all(np.isfinite(farm.excitation))
