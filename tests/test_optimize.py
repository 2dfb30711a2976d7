"""Design evaluation, constraint handling and the GA driver.

GA runs here use toy budgets; the full study-scale runs live in the
acceptance suite.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from wecfarm import climate, dynamics, hydro, mbe, optimize, surrogate

from sea_states import irregular_power, lifetime_average_power

ENV = hydro.Environment()
GRID = hydro.FrequencyGrid.default(count=40)
ORACLE = hydro.ReferenceProvider()
EFF = climate.EfficiencyChain()


def make_site(n_gq=3, years=1):
    grid = climate.SeaStateGrid.build(n_gq, (1.0, 4.0), (5.0, 11.0))
    prob = np.full((n_gq, n_gq), 1.0 / n_gq**2)
    return climate.SiteClimate("toy", grid, prob, years)


SITE = make_site()


def make_design(n=3, radius=3.0, b_pto=1.2e5):
    positions = np.vstack([[0.0, 0.0], [[45.0 * d, 25.0 * (-1) ** d] for d in range(1, n)]])
    return optimize.DesignPoint(
        geometry=hydro.WecGeometry(radius, 2.0),
        pto=dynamics.PtoSettings(np.array([2.0e4]), np.array([b_pto])),
        layout=mbe.Layout(positions),
        site_id="toy",
    )


# --- design point ---------------------------------------------------------


def test_farm_half_width_formula():
    assert np.isclose(optimize.farm_half_width(5), 0.5 * np.sqrt(100000.0))


def test_design_point_validation():
    with pytest.raises(ValueError, match="origin"):
        optimize.DesignPoint(
            hydro.WecGeometry(3.0, 2.0),
            dynamics.PtoSettings(0.0, 1e5),
            mbe.Layout(np.array([[1.0, 0.0], [50.0, 0.0]])),
        )
    with pytest.raises(ValueError, match="x positions"):
        optimize.DesignPoint(
            hydro.WecGeometry(3.0, 2.0),
            dynamics.PtoSettings(0.0, 1e5),
            mbe.Layout(np.array([[0.0, 0.0], [-5.0, 20.0]])),
        )
    with pytest.raises(ValueError, match="y positions"):
        optimize.DesignPoint(
            hydro.WecGeometry(3.0, 2.0),
            dynamics.PtoSettings(0.0, 1e5),
            mbe.Layout(np.array([[0.0, 0.0], [5.0, 500.0]])),
        )


def test_design_round_trip_and_hash():
    design = make_design()
    doc = optimize.design_to_dict(design)
    back = optimize.design_from_dict(doc)
    assert optimize.design_hash(back) == optimize.design_hash(design)
    assert len(optimize.design_hash(design)) == 16
    doc["radius"] = 4.0
    assert optimize.design_hash(optimize.design_from_dict(doc)) != optimize.design_hash(design)


# --- constraints ----------------------------------------------------------


def test_min_distance_examples():
    geom = hydro.WecGeometry(3.0, 2.0)
    apart = mbe.Layout(np.array([[0.0, 0.0], [20.0, 0.0]]))
    assert optimize.min_distance_violations(apart, geom).tolist() == [0.0]
    close = mbe.Layout(np.array([[0.0, 0.0], [15.0, 0.0]]))
    np.testing.assert_allclose(optimize.min_distance_violations(close, geom), [1.0])
    three = mbe.Layout(np.array([[0.0, 0.0], [20.0, 0.0], [10.0, 100.0]]))
    assert optimize.min_distance_violations(three, geom).shape == (3,)


def test_penalized_fitness():
    feasible = optimize.EvaluationResult(1.0, 123.0, np.ones(3), 1.0, np.zeros(3))
    assert optimize.penalized_fitness(feasible, 1e6) == -123.0
    violated = optimize.EvaluationResult(1.0, 123.0, np.ones(3), 1.0, np.array([1.0, 0.0, 0.0]))
    assert optimize.penalized_fitness(violated, 1e6) == -123.0 + 1e6
    assert not violated.feasible and feasible.feasible


# --- evaluation -----------------------------------------------------------


def test_evaluate_matches_per_sea_state_summation():
    # the collapsed frequency weights must reproduce the literal
    # state-by-state pipeline
    design = make_design()
    result = optimize.evaluate_design(design, GRID, ENV, ORACLE, SITE)
    coeffs = mbe.compose_farm(hydro.ReferenceProvider(), design.geometry, design.layout, GRID, ENV)
    motion = dynamics.solve_motion(coeffs, design.geometry, design.pto, ENV)
    _, farm_total = dynamics.regular_wave_power(GRID, motion, design.pto)
    states = np.empty_like(SITE.probability)
    for i, hs in enumerate(SITE.grid.hs_nodes):
        for j, tp in enumerate(SITE.grid.tp_nodes):
            states[i, j] = irregular_power(farm_total, GRID, hs, tp)
    expected = lifetime_average_power(states, SITE, EFF)
    np.testing.assert_allclose(result.p_a, expected, rtol=1e-12)
    np.testing.assert_allclose(result.per_device_power.sum(), result.p_a, rtol=1e-12)
    np.testing.assert_allclose(
        result.p_v, climate.objective_pv(result.p_a, design.geometry, 3), rtol=1e-15
    )


def test_evaluate_is_pure():
    design = make_design()
    a = optimize.evaluate_design(design, GRID, ENV, ORACLE, SITE)
    b = optimize.evaluate_design(design, GRID, ENV, hydro.ReferenceProvider(), SITE)
    assert a.p_a == b.p_a and a.p_v == b.p_v and a.q_factor == b.q_factor
    assert np.array_equal(a.per_device_power, b.per_device_power)
    assert np.array_equal(a.violations, b.violations)


def test_evaluate_mirrored_layout_identical():
    design = make_design(n=4)
    mirrored = optimize.DesignPoint(
        design.geometry, design.pto, mbe.Layout(design.layout.positions * [1.0, -1.0]),
        design.site_id,
    )
    a = optimize.evaluate_design(design, GRID, ENV, ORACLE, SITE)
    b = optimize.evaluate_design(mirrored, GRID, ENV, ORACLE, SITE)
    np.testing.assert_allclose(b.p_a, a.p_a, rtol=1e-12)
    np.testing.assert_allclose(b.per_device_power, a.per_device_power, rtol=1e-12)


def test_evaluate_single_device_q_is_one():
    design = optimize.DesignPoint(
        hydro.WecGeometry(3.0, 2.0),
        dynamics.PtoSettings(1e4, 1e5),
        mbe.Layout(np.array([[0.0, 0.0]])),
    )
    result = optimize.evaluate_design(design, GRID, ENV, ORACLE, SITE)
    assert result.q_factor == 1.0
    assert result.violations.size == 0 and result.feasible


def test_evaluate_overlapping_bodies_score_zero():
    design = optimize.DesignPoint(
        hydro.WecGeometry(3.0, 2.0),
        dynamics.PtoSettings(0.0, 1e5),
        mbe.Layout(np.array([[0.0, 0.0], [4.0, 0.0]])),
    )
    result = optimize.evaluate_design(design, GRID, ENV, ORACLE, SITE)
    assert result.p_v == 0.0 and result.p_a == 0.0
    assert np.isnan(result.q_factor)
    assert result.violations[0] == pytest.approx(12.0)
    # the penalty still dominates any attainable objective
    assert optimize.penalized_fitness(result, 1e6) > 1e7


def test_evaluate_zero_pto_damping_absorbs_nothing():
    design = make_design(b_pto=0.0)
    result = optimize.evaluate_design(design, GRID, ENV, ORACLE, SITE)
    assert result.p_a == 0.0
    assert np.isnan(result.q_factor)


# --- encoding -------------------------------------------------------------


def test_gene_counts_per_study():
    assert optimize.gene_count("I", 5) == 10
    assert optimize.gene_count("II", 5) == 12
    assert optimize.gene_count("III", 5) == 20
    assert optimize.gene_bounds("III", 5).shape == (20, 2)
    for call in (optimize.gene_count, optimize.gene_bounds):
        with pytest.raises(ValueError, match=r"study must be one of \('I', 'II', 'III'\)"):
            call("IV", 3)


def test_decode_repairs_slenderness():
    genes = np.array([0.5, 10.0, 0.0, 1e5, 50.0, 0.0])
    design = optimize.decode("II", genes, 2)
    # at R=0.5 the draft floor caps slenderness at 2R
    assert design.geometry.slenderness == 1.0
    assert design.pto.mode == "farm-uniform"


def test_decode_study_modes():
    d1 = optimize.decode("I", np.array([3.0, 2.0, 40.0, 10.0]), 2, fixed_control=(1e4, 2e5))
    assert d1.pto.stiffness[0] == 1e4 and d1.pto.damping[0] == 2e5
    genes3 = np.array([3.0, 2.0, 1e4, 2e5, -1e4, 1e5, 40.0, 10.0])
    d3 = optimize.decode("III", genes3, 2)
    assert d3.pto.mode == "per-device"
    np.testing.assert_array_equal(d3.pto.stiffness, [1e4, -1e4])
    np.testing.assert_array_equal(d3.pto.damping, [2e5, 1e5])


def test_encode_decode_round_trip():
    genes = np.array([3.0, 2.0, 1.5e4, 2.1e5, 40.0, 10.0, 80.0, -30.0])
    design = optimize.decode("II", genes, 3)
    np.testing.assert_array_equal(optimize.encode("II", design), genes)
    up = optimize.encode("III", design)
    assert up.shape == (optimize.gene_count("III", 3),)
    np.testing.assert_array_equal(optimize.decode("III", up, 3).layout.positions,
                                  design.layout.positions)


def test_decode_nudges_coincident_corners():
    genes = np.array([3.0, 2.0, 0.0, 1e5, 50.0, 20.0, 50.0, 20.0])
    design = optimize.decode("II", genes, 3)
    assert not np.array_equal(design.layout.positions[1], design.layout.positions[2])
    assert optimize.min_distance_violations(design.layout, design.geometry).max() > 10.0


def test_decode_nudge_leaves_a_two_device_cycle():
    # device 2 starts on device 0 at the origin, and its first nudge,
    # |x - 2e-6|, lands it on device 1; a second nudge of the nudged x
    # would take it back to the origin
    genes = np.array([3.0, 2.0, 1e4, 1e5, 2e-6, 0.0, 0.0, 0.0])
    design = optimize.decode("II", genes, 3)
    np.testing.assert_array_equal(
        design.layout.positions, [[0.0, 0.0], [2e-6, 0.0], [4e-6, 0.0]]
    )


# fixed examples, no example database, and no explain phase
PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
)


@PROPERTY
@given(st.data())
def test_decode_terminates_and_round_trips_on_box_corners(data):
    study = data.draw(st.sampled_from(optimize.STUDIES))
    n = data.draw(st.integers(2, 6))
    half = optimize.farm_half_width(n)
    bounds = optimize.gene_bounds(study, n)
    plant_and_control = [data.draw(st.floats(lo, hi)) for lo, hi in bounds[: -2 * (n - 1)]]
    # multiples of the nudge step put devices where earlier nudges land
    tiny = [1e-6 * j for j in range(1, n)]
    xs = st.sampled_from([0.0] + tiny + [half])
    ys = st.sampled_from([0.0, half, -half] + tiny)
    free = [c for _ in range(n - 1) for c in (data.draw(xs), data.draw(ys))]
    genes = np.array(plant_and_control + free)
    fixed = (1e4, 2e5) if study == "I" else None

    design = optimize.decode(study, genes, n, fixed_control=fixed)

    pos = design.layout.positions
    assert np.all((pos[:, 0] >= 0.0) & (pos[:, 0] <= half) & (np.abs(pos[:, 1]) <= half))
    assert len({tuple(p) for p in pos}) == n
    raw = np.vstack([[0.0, 0.0], np.reshape(free, (n - 1, 2))])
    lo, hi = optimize.slenderness_interval(genes[0])
    if lo <= genes[1] <= hi and len({tuple(p) for p in raw}) == n:
        np.testing.assert_array_equal(optimize.encode(study, design), genes)


def test_study_spec_validation():
    with pytest.raises(ValueError, match="fixed_control is required"):
        optimize.StudySpec(study="I", site=SITE)
    with pytest.raises(ValueError, match="drop fixed_control"):
        optimize.StudySpec(study="III", site=SITE, fixed_control=(0.0, 1e5))
    with pytest.raises(ValueError, match="study must be one of"):
        optimize.StudySpec(study="IV", site=SITE)
    with pytest.raises(ValueError, match="provider mode"):
        optimize.StudySpec(study="II", site=SITE, provider_mode="magic")
    with pytest.raises(ValueError, match="injected genes"):
        optimize.StudySpec(study="II", site=SITE, n_devices=3,
                           inject_genes=np.zeros(5))


def test_ga_config_validation():
    with pytest.raises(ValueError, match="even"):
        optimize.GaConfig(population=7)
    with pytest.raises(ValueError, match="generation"):
        optimize.GaConfig(generations=0)
    # the integer fields take integers, not floats, bools or strings
    for kw in ({"generations": 1.5, "seed": 0.5}, {"population": "4"},
               {"seed": True}, {"population": 8.0}):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be an integer"):
            optimize.GaConfig(**kw)
    assert optimize.GaConfig(population=np.int64(8), seed=np.int64(3)).population == 8
    # the operators are fixed: three fields, and the penalty is a constant
    assert [f.name for f in dataclasses.fields(optimize.GaConfig)] == [
        "population", "generations", "seed"
    ]
    assert optimize.GaConfig().penalty_coeff == 1e6
    with pytest.raises(TypeError):
        optimize.GaConfig(tournament=3)


# --- GA -------------------------------------------------------------------


def small_spec(**kw):
    ga = optimize.GaConfig(population=8, generations=4, seed=5)
    return optimize.StudySpec(study="II", site=SITE, n_devices=3, ga=ga, **kw)


def test_run_ga_deterministic_and_monotone():
    a = optimize.run_ga(small_spec(), GRID, ENV, ORACLE)
    b = optimize.run_ga(small_spec(), GRID, ENV, hydro.ReferenceProvider())
    assert a.best_fitness == b.best_fitness
    assert optimize.design_hash(a.best_design) == optimize.design_hash(b.best_design)
    assert [h["best_fitness"] for h in a.history] == [h["best_fitness"] for h in b.history]
    fits = [h["best_fitness"] for h in a.history]
    assert all(later <= earlier for earlier, later in zip(fits, fits[1:]))
    assert a.evaluations == 8 + 4 * 7
    assert set(a.history[0]) == {
        "generation", "best_fitness", "median_fitness", "feasible_fraction", "best_pv"
    }


def test_run_ga_injection_bounds_the_result():
    genes = np.array([3.0, 2.0, 1e4, 2e5, 60.0, 0.0, 0.0, 60.0])
    design = optimize.decode("II", genes, 3)
    injected_fit = optimize.penalized_fitness(
        optimize.evaluate_design(design, GRID, ENV, ORACLE, SITE, with_q=False), 1e6
    )
    result = optimize.run_ga(small_spec(inject_genes=genes), GRID, ENV, ORACLE)
    assert result.best_fitness <= injected_fit + 1e-12


def test_run_ga_reports_failing_genome():
    class Broken:
        name = "broken"

        def single(self, *a):
            raise RuntimeError("boom")

        def pair(self, *a):
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="evaluation failed for genome"):
        optimize.run_ga(small_spec(), GRID, ENV, Broken())


def test_run_ga_hashes_only_the_provenance_it_is_asked_for(monkeypatch):
    # the run evaluates 8 designs (4, 3 children and the final one) and is
    # asked for no provenance: only the command line hashes the design it
    # writes (tests/test_cli.py)
    hashed = []
    monkeypatch.setattr(optimize, "design_hash", hashed.append)
    ga = optimize.GaConfig(population=4, generations=1, seed=2)
    spec = optimize.StudySpec(study="II", site=SITE, n_devices=3, ga=ga)
    result = optimize.run_ga(spec, GRID, ENV, ORACLE)
    assert result.evaluations == 7 and np.isfinite(result.best_result.q_factor)
    assert hashed == []


# --- analyses -------------------------------------------------------------


def test_sample_design_is_feasible_and_deterministic():
    a = optimize.sample_design(4, np.random.default_rng(3))
    b = optimize.sample_design(4, np.random.default_rng(3))
    assert optimize.design_hash(a) == optimize.design_hash(b)
    assert optimize.min_distance_violations(a.layout, a.geometry).max() == 0.0
    assert a.pto.mode == "per-device"


# --- q-factor -------------------------------------------------------------


def frozen_isolated_power_curves(design, grid, env, provider):
    """The lone-device curves as once built by hand beside `compose_farm`:
    one FarmCoefficients from `provider.single`, one solve per distinct
    (k, b); only the call shapes of the motion solve and power are new."""
    single = provider.single(design.geometry, grid, env)
    coeffs = mbe.FarmCoefficients(
        grid=grid,
        added_mass=single.added_mass[:, None, None],
        damping=single.damping[:, None, None],
        excitation=single.excitation[:, None],
    )
    k_all, b_all = design.pto.arrays_for(design.n_devices)
    curves = np.empty((grid.n, design.n_devices))
    cache = {}
    for d in range(design.n_devices):
        key = (k_all[d], b_all[d])
        if key not in cache:
            solo = dynamics.PtoSettings(np.array([k_all[d]]), np.array([b_all[d]]))
            motion = dynamics.solve_motion(coeffs, design.geometry, solo, env)
            cache[key] = dynamics.regular_wave_power(grid, motion, solo)[1]
        curves[:, d] = cache[key]
    return curves


# a surrogate provider whose committees answer from the oracle
CHEATING = surrogate.SurrogateProvider(
    {tid: surrogate.CheatingCommittee(tid, GRID, ENV, ORACLE) for tid in surrogate.ALL_TARGET_IDS}
)


@settings(PROPERTY, max_examples=40)
@given(st.data())
def test_isolated_curves_equal_the_hand_built_path_bytewise(data):
    n = data.draw(st.integers(2, 6))
    design = optimize.sample_design(n, np.random.default_rng(data.draw(st.integers(0, 2**32))))
    if data.draw(st.booleans()):
        # the last device repeats the first one's control
        k, b = design.pto.stiffness.copy(), design.pto.damping.copy()
        k[-1], b[-1] = k[0], b[0]
        design = optimize.DesignPoint(
            design.geometry, dynamics.PtoSettings(k, b, mode="per-device"), design.layout
        )
    for provider in (ORACLE, CHEATING):
        got = optimize._isolated_power_curves(design, GRID, ENV, provider)
        want = frozen_isolated_power_curves(design, GRID, ENV, provider)
        assert got.shape == want.shape == (GRID.n, n)
        assert got.tobytes() == want.tobytes()


def test_benchmark_cheating_surrogate_is_exact_zero():
    stats = optimize.power_error_benchmark(
        100, GRID, ENV, ORACLE, hydro.ReferenceProvider(), SITE, n_devices=3, seed=9
    )
    assert stats.errors.size + stats.skipped == 100
    assert np.all(stats.errors == 0.0)
    assert stats.percentiles[99] == 0.0
    assert stats.pv_pairs.shape == (stats.errors.size, 2)


def test_benchmark_determinism_and_minimum():
    a = optimize.power_error_benchmark(100, GRID, ENV, ORACLE, ORACLE, SITE, 3, seed=4)
    fresh = hydro.ReferenceProvider()
    b = optimize.power_error_benchmark(100, GRID, ENV, fresh, fresh, SITE, 3, seed=4)
    assert np.array_equal(a.pv_pairs, b.pv_pairs)
    with pytest.raises(ValueError, match="at least 100"):
        optimize.power_error_benchmark(50, GRID, ENV, ORACLE, ORACLE, SITE, 3)


def test_random_layout_analysis():
    design = make_design()
    out = optimize.random_layout_analysis(design, 100, ORACLE, GRID, ENV, SITE, seed=2)
    again = optimize.random_layout_analysis(
        design, 100, hydro.ReferenceProvider(), GRID, ENV, SITE, seed=2
    )
    assert np.array_equal(out.values, again.values)
    assert 0.0 <= out.percentile <= 100.0
    assert out.design_pv == pytest.approx(
        optimize.evaluate_design(design, GRID, ENV, ORACLE, SITE).p_v
    )
    with pytest.raises(ValueError, match="at least 100"):
        optimize.random_layout_analysis(design, 10, ORACLE, GRID, ENV, SITE)


def test_sensitivity_map_validation_and_symmetry():
    design = optimize.DesignPoint(
        hydro.WecGeometry(3.0, 2.0),
        dynamics.PtoSettings(2e4, 1.2e5),
        mbe.Layout(np.array([[0.0, 0.0], [60.0, 0.0], [120.0, 0.0]])),
    )
    with pytest.raises(ValueError, match="pinned"):
        optimize.sensitivity_map(design, 0, 10, ORACLE, GRID, ENV, SITE)
    with pytest.raises(ValueError, match="resolution"):
        optimize.sensitivity_map(design, 1, 9, ORACLE, GRID, ENV, SITE)
    with pytest.raises(ValueError, match="wec_index"):
        optimize.sensitivity_map(design, 3, 10, ORACLE, GRID, ENV, SITE)

    sm = optimize.sensitivity_map(design, 2, 10, ORACLE, GRID, ENV, SITE)
    assert sm.values.shape == (10, 10)
    # remaining devices sit on the x axis, so the map reflects in y
    np.testing.assert_allclose(sm.values, sm.values[:, ::-1], rtol=1e-9, equal_nan=True)
    assert np.isnan(sm.values).any() and np.isfinite(sm.values).any()
    # the mask agrees with the clearance predicate cell by cell
    others = np.delete(design.layout.positions, 2, axis=0)
    for i, x in enumerate(sm.x_axis):
        for j, y in enumerate(sm.y_axis):
            blocked = np.any(np.hypot(*(others - [x, y]).T) < 16.0)
            assert np.isnan(sm.values[i, j]) == blocked
    assert sm.argmax_offset >= 0.0
    assert np.isfinite(sm.argmax_pv)
