"""Committee learning, active sampling and the learned provider.

Full-budget training belongs to a planned acceptance suite (ROADMAP
item 5). Here the committees are small and the checks target contracts:
determinism, tie-breaking, scaling round-trips, provider structure. The
one tight fit check is test_committee_fits_linear_map.
"""

import numpy as np
import pytest

from wecfarm import hydro, mbe, nn, surrogate

ENV = hydro.Environment()
GRID = hydro.FrequencyGrid.default(count=50)
ORACLE = hydro.ReferenceProvider()


# --- scalers and schedules ------------------------------------------------


def test_affine_scaler_round_trip():
    rng = np.random.default_rng(0)
    data = rng.normal(3.0, 2.5, size=(40, 6))
    scaler = nn.AffineScaler.fit(data)
    assert np.allclose(scaler.inverse(scaler.transform(data)), data, rtol=0, atol=1e-12)
    z = scaler.transform(data)
    assert abs(z.mean()) < 1e-12
    back = nn.AffineScaler.from_dict(scaler.to_dict())
    assert np.array_equal(back.mean, scaler.mean)


def test_affine_scaler_floors_constant_columns():
    data = np.ones((30, 3))
    scaler = nn.AffineScaler.fit(data)
    assert np.all(scaler.scale == nn.SCALE_FLOOR)
    assert np.allclose(scaler.inverse(scaler.transform(data)), data)


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
    assert len(surrogate.ALL_TARGET_IDS) == 10


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
    s_b = surrogate.scale_vectors("single_damping", x, GRID, ENV)
    s_f = surrogate.scale_vectors("single_excitation_re", x, GRID, ENV)
    np.testing.assert_allclose(b / s_b, (f / s_f) ** 2, rtol=1e-10)


# --- training -------------------------------------------------------------


def _linear_dataset(n, seed):
    # raw outputs are the physics scale times a linear function of the
    # inputs, so the learned nondimensional map is exactly linear
    x = surrogate.sample_inputs("single", n, seed)
    s = surrogate.scale_vectors("single_damping", x, GRID, ENV)
    t = 0.3 * x[:, 0:1] - 0.2 * x[:, 1:2] + 0.05
    return surrogate.Dataset("single_damping", x, s * t, GRID, ENV)


def test_committee_fits_linear_map():
    # 200 rows bootstrap to 160; at batch 64 that is 2 steps per epoch,
    # so 1500 epochs give each member 3000 Adam steps
    cfg = surrogate.CommitteeConfig(hidden=(16, 16), epochs=1500, learning_rate=5e-3, seed=2)
    com = surrogate.train_committee(_linear_dataset(200, 0), cfg)
    assert len(com.member_mse) == 5
    fresh = _linear_dataset(100, 1)
    mean_t, _, _ = com.apply(fresh.inputs)
    scales = surrogate.scale_vectors("single_damping", fresh.inputs, GRID, ENV)
    diff = (mean_t - fresh.outputs / scales) / com.pooled_scale
    assert np.mean(diff * diff) < 1e-4


def test_committee_deterministic():
    cfg = surrogate.CommitteeConfig(hidden=(8, 8), epochs=30, members=3, seed=11)
    a = surrogate.train_committee(_linear_dataset(80, 5), cfg)
    b = surrogate.train_committee(_linear_dataset(80, 5), cfg)
    for ma, mb in zip(a.members, b.members):
        for wa, wb in zip(ma.weights, mb.weights):
            assert np.array_equal(wa, wb)
    assert a.member_mse == b.member_mse


def test_committee_minimum_samples():
    cfg = surrogate.CommitteeConfig(min_samples=50)
    with pytest.raises(ValueError, match="at least 50"):
        surrogate.train_committee(_linear_dataset(40, 0), cfg)


def test_committee_config_validation():
    with pytest.raises(ValueError, match="3 members"):
        surrogate.CommitteeConfig(members=2)
    with pytest.raises(ValueError, match="bootstrap"):
        surrogate.CommitteeConfig(bootstrap=0.0)


def test_zero_variance_dataset_warns_and_trains():
    x = surrogate.sample_inputs("single", 60, 2)
    data = surrogate.Dataset("single_excitation_im", x, np.zeros((60, GRID.n)), GRID, ENV)
    cfg = surrogate.CommitteeConfig(hidden=(8, 8), epochs=20, seed=0)
    with pytest.warns(UserWarning, match="constant outputs"):
        com = surrogate.train_committee(data, cfg)
    assert com.zero_variance
    mean, _, _ = com.apply(x[:1])
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
    mean, disagreement, outside = damping_committee.apply(np.array([[3.0, 6.0], [12.0, 6.0]]))
    assert mean.shape == (2, GRID.n)
    assert np.all(disagreement >= 0.0)
    assert outside.tolist() == [False, True]


def test_disagreement_ranks_dense_against_corner(damping_committee):
    pool = surrogate.sample_inputs("single", 300, 123)
    _, dis, _ = damping_committee.apply(pool)
    median = np.median(dis)
    _, (dense, corner), _ = damping_committee.apply(np.array([[5.0, 5.0], [0.5, 0.2]]))
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
    flat = surrogate.scale_vectors("single_damping", x, GRID, ENV)
    data = surrogate.Dataset("single_damping", x, flat, GRID, ENV)
    cfg = surrogate.CommitteeConfig(hidden=(8, 8), epochs=10, seed=1)
    with pytest.warns(UserWarning):
        com = surrogate.train_committee(data, cfg)
    com.members = [com.members[0]] * 5
    pool = np.array([[4.0, 5.0], [2.0, 4.0], [2.0, 3.0], [7.0, 1.0]])
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


def test_qbc_round_pool_validation(damping_committee):
    with pytest.raises(ValueError, match="empty"):
        surrogate.qbc_round(damping_committee, np.empty((0, 2)), 1, ORACLE)
    with pytest.raises(ValueError, match="cannot select"):
        surrogate.qbc_round(damping_committee, np.array([[3.0, 3.0]]), 5, ORACLE)


# --- validation -----------------------------------------------------------


def test_cheating_committee_validates_to_exact_zero():
    cheat = surrogate.CheatingCommittee("pair_damping_cross", GRID, ENV, ORACLE)
    vm = surrogate.validate_on_grid(cheat, ORACLE, counts=(3, 3, 4, 3))
    assert vm.max == 0.0
    assert vm.mean == 0.0
    assert vm.mse.shape == (108,)


def test_validate_on_grid_blocking_keeps_bits(damping_committee, monkeypatch):
    points = surrogate.tensor_grid("single", (23, 23))  # 529 rows: two full blocks and a tail
    assert surrogate.VALIDATE_BLOCK < points.shape[0]
    blocked = surrogate.validate_on_grid(damping_committee, ORACLE, points=points)
    monkeypatch.setattr(surrogate, "VALIDATE_BLOCK", points.shape[0])
    whole = surrogate.validate_on_grid(damping_committee, ORACLE, points=points)
    assert blocked.mse.tobytes() == whole.mse.tobytes()
    assert np.array_equal(blocked.points, points)


class CountingOracle(hydro.ReferenceProvider):
    def __init__(self):
        self.pair_rows = []

    def pair(self, geom, separation, heading_angle, grid, env):
        self.pair_rows.append(np.size(separation))
        return super().pair(geom, separation, heading_angle, grid, env)


def test_cheating_committee_batches_oracle_per_geometry():
    inputs = np.array(
        [[3.0, 6.0, 25.0, 0.7], [2.0, 4.0, 9.0, -1.0], [3.0, 6.0, 90.0, 3.0], [3.0, 6.0, 7.5, 0.0]]
    )
    oracle = CountingOracle()
    cheat = surrogate.CheatingCommittee("pair_excitation_im", GRID, ENV, oracle)
    raw = cheat.raw_curves(inputs)
    assert oracle.pair_rows == [3, 1]  # one query per distinct (R, slenderness)
    expected = surrogate.label_inputs("pair_excitation_im", inputs, GRID, ENV, ORACLE)
    assert raw.tobytes() == expected.tobytes()


def test_degenerate_committee_disagreement_zero():
    cheat = surrogate.CheatingCommittee("single_damping", GRID, ENV, ORACLE)
    _, dis, _ = cheat.apply(np.array([[3.0, 6.0]]))
    assert dis[0] == 0.0


# --- persistence ----------------------------------------------------------


def test_committee_json_round_trip(tmp_path, damping_committee):
    path = tmp_path / "committee.json"
    surrogate.save_committee(damping_committee, path)
    back = surrogate.load_committee(path)
    x = np.array([[4.2, 3.3]])
    mean_a, dis_a, _ = damping_committee.apply(x)
    mean_b, dis_b, _ = back.apply(x)
    assert np.array_equal(mean_a, mean_b)
    assert dis_a[0] == dis_b[0]
    assert back.config == damping_committee.config
    assert back.target_id == "single_damping"


def test_committee_schema_checked(tmp_path):
    path = tmp_path / "committee.json"
    path.write_text('{"schema_version": 99}')
    with pytest.raises(ValueError, match="schema"):
        surrogate.load_committee(path)


def test_dataset_csv_round_trip(tmp_path):
    data = surrogate.build_datasets("pair", 12, 31, GRID, ENV, ORACLE)["pair_excitation_im"]
    path = tmp_path / "dataset.csv"
    surrogate.save_dataset(data, path)
    back = surrogate.load_dataset(path, GRID, ENV)
    assert back.target_id == "pair_excitation_im"
    assert np.array_equal(back.inputs, data.inputs)
    assert np.array_equal(back.outputs, data.outputs)


def test_dataset_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("hs_m,tp_s\n1,2\n")
    with pytest.raises(ValueError, match="not a wecfarm dataset"):
        surrogate.load_dataset(path, GRID, ENV)


# --- provider -------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_provider():
    import warnings

    committees = {}
    for kind, n in (("single", 80), ("pair", 100)):
        data = surrogate.build_datasets(kind, n, 17, GRID, ENV, ORACLE, edge_fraction=0.2)
        for tid, ds in data.items():
            cfg = surrogate.CommitteeConfig(
                hidden=(16, 16), epochs=60, learning_rate=3e-3, seed=13
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the all-zero map is expected here
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


def test_cheating_provider_pair_batch_is_bitwise():
    provider = surrogate.SurrogateProvider(
        {
            tid: surrogate.CheatingCommittee(tid, GRID, ENV, ORACLE)
            for tid in surrogate.ALL_TARGET_IDS
        }
    )
    geom = hydro.WecGeometry(3.0, 6.0)
    sep, theta = PAIR_BATCH
    batch = provider.pair(geom, sep, theta, GRID, ENV)
    for i in range(sep.size):
        one = provider.pair(geom, sep[i], theta[i], GRID, ENV)
        assert np.array_equal(batch.added_mass[i], one.added_mass)
        assert np.array_equal(batch.damping[i], one.damping)
        assert np.array_equal(batch.excitation[i], one.excitation)


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


def test_provider_pair_computes_one_feature_block_per_phase(tiny_provider, monkeypatch):
    geom = hydro.WecGeometry(3.0, 6.0)
    sep, theta = PAIR_BATCH
    tiny_provider.pair(geom, sep, theta, GRID, ENV)  # the singles are cached from here on
    calls = []
    features = surrogate.Committee.features

    def counting(self, inputs):
        calls.append(self.target_id)
        return features(self, inputs)

    monkeypatch.setattr(surrogate.Committee, "features", counting)
    tiny_provider.pair(geom, sep, theta, GRID, ENV)
    assert len(calls) == 2
    assert {tiny_provider.committees[tid].phase_multiplier for tid in calls} == {1.0, 2.0}


def test_provider_haskind_projection(tiny_provider):
    projected = surrogate.SurrogateProvider(tiny_provider.committees, haskind_projection=True)
    geom = hydro.WecGeometry(2.0, 4.0)
    sc = projected.single(geom, GRID, ENV)
    k = hydro.solve_dispersion(GRID.values, ENV)
    vg = hydro.group_velocity(GRID.values, ENV, k=k)
    expected = k * np.abs(sc.excitation) ** 2 / (4.0 * ENV.water_density * ENV.gravity * vg)
    np.testing.assert_allclose(sc.damping, expected, rtol=1e-12)


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
