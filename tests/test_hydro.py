import itertools
import os

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from wecfarm import hydro, kernels
from wecfarm.hydro import Environment, FrequencyGrid, GeometryError, WecGeometry

ENV = Environment()
GRID = FrequencyGrid.default()


def random_geometries(rng, n):
    out = []
    while len(out) < n:
        r = rng.uniform(0.5, 10.0)
        ar = rng.uniform(0.2, 10.0)
        if 0.5 <= r / ar <= 20.0:
            out.append(WecGeometry(r, ar))
    return out


class TestGeometry:
    def test_draft_is_radius_over_slenderness(self):
        geom = WecGeometry(3.0, 6.0)
        assert geom.draft == pytest.approx(0.5)

    def test_rejects_out_of_box(self):
        with pytest.raises(GeometryError):
            WecGeometry(0.4, 1.0)
        with pytest.raises(GeometryError):
            WecGeometry(3.0, 11.0)

    def test_rejects_draft_bound(self):
        # radius 9 at slenderness 0.4 gives draft 22.5 m
        with pytest.raises(GeometryError):
            WecGeometry(9.0, 0.4)

    @pytest.mark.parametrize(
        "radius, slenderness, message",
        [
            (0.4, 1.0, "radius 0.4 outside [0.5, 10]"),
            (float("nan"), 1.0, "radius nan outside [0.5, 10]"),
            (3.0, 11.0, "slenderness 11.0 outside [0.2, 10]"),
            (3.0, float("nan"), "slenderness nan outside [0.2, 10]"),
            (9.0, 0.4, "draft 22.500 outside [0.5, 20]"),
        ],
    )
    def test_scalar_messages(self, radius, slenderness, message):
        with pytest.raises(GeometryError) as err:
            WecGeometry(radius, slenderness)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "first, later, message",
        [
            ((10.5, 2.0), (0.2, 1.0), "radius 10.5 outside [0.5, 10]"),
            ((float("nan"), 2.0), (0.2, 1.0), "radius nan outside [0.5, 10]"),
            ((3.0, 0.1), (3.0, 12.0), "slenderness 0.1 outside [0.2, 10]"),
            ((3.0, float("nan")), (3.0, 12.0), "slenderness nan outside [0.2, 10]"),
            ((9.0, 0.4), (0.5, 5.0), "draft 22.500 outside [0.5, 20]"),
        ],
        ids=["radius", "nan-radius", "slenderness", "nan-slenderness", "draft"],
    )
    def test_batch_with_a_bad_plant_names_the_first(self, first, later, message):
        plants = np.array([[3.0, 6.0], first, [2.0, 0.5], later])
        with pytest.raises(GeometryError) as err:
            WecGeometry(plants[:, 0], plants[:, 1])
        assert str(err.value) == message


@pytest.mark.parametrize("name", ["water_depth", "gravity", "water_density"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_environment_rejects_non_positive_and_nan(name, value):
    with pytest.raises(ValueError, match="strictly positive"):
        Environment(**{name: value})


class TestFrequencyGrid:
    def test_default_span_and_count(self):
        assert GRID.n == 200
        assert GRID.values[0] == 0.3
        assert GRID.values[-1] == 2.0

    def test_trapezoid_weights_sum_to_span(self):
        assert GRID.spacing.sum() == pytest.approx(1.7, rel=1e-12)
        assert GRID.spacing[0] == pytest.approx(0.5 * (GRID.values[1] - GRID.values[0]))

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            FrequencyGrid([1.0, 0.5])


class TestDispersion:
    def test_pinned_values(self):
        # bisection oracle at 40 decimal digits
        assert hydro.solve_dispersion(0.3, ENV) == pytest.approx(
            0.014672424731899716, rel=1e-12
        )
        assert hydro.solve_dispersion(2.0, ENV) == pytest.approx(
            0.40774719673802243, rel=1e-12
        )

    def test_deep_water_asymptote(self):
        k = hydro.solve_dispersion(2.0, ENV)
        assert k == pytest.approx(4.0 / ENV.gravity, rel=1e-6)

    def test_shallow_water_asymptote(self):
        omega = 1e-3
        k = hydro.solve_dispersion(omega, ENV)
        assert k * np.sqrt(ENV.gravity * ENV.water_depth) / omega == pytest.approx(
            1.0, abs=1e-6
        )

    @pytest.mark.parametrize("depth", [10.0, 50.0, 200.0])
    def test_residual_bound_across_grid(self, depth):
        env = Environment(water_depth=depth)
        om = GRID.values
        k = hydro.solve_dispersion(om, env)
        resid = np.abs(om**2 - env.gravity * k * np.tanh(k * depth))
        assert np.all(resid < 1e-10 * om**2)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            hydro.solve_dispersion(0.0, ENV)

    def test_memo_repeats_the_first_solution_bytes(self):
        hydro._dispersion_cache.clear()
        first = hydro.solve_dispersion(GRID.values, ENV)
        assert len(hydro._dispersion_cache) == 1
        again = hydro.solve_dispersion(GRID.values.copy(), ENV)
        assert again.tobytes() == first.tobytes()
        assert again is not first

    def test_memo_hands_out_copies(self):
        k = hydro.solve_dispersion(GRID.values, ENV)
        want = k.copy()
        k[:] = -1.0
        assert hydro.solve_dispersion(GRID.values, ENV).tobytes() == want.tobytes()

    def test_memo_keeps_scalar_omega_a_float(self):
        om = GRID.values[7]
        first = hydro.solve_dispersion(om, ENV)
        again = hydro.solve_dispersion(om, ENV)
        assert type(first) is float and type(again) is float
        assert again == first == hydro.solve_dispersion(np.array([om]), ENV)[0]

    def test_memo_keys_depth_and_gravity(self):
        om = GRID.values
        base = hydro.solve_dispersion(om, ENV)
        for env in (Environment(water_depth=8.0), Environment(gravity=9.7)):
            k = hydro.solve_dispersion(om, env)
            assert not np.array_equal(k, base)
            resid = np.abs(om**2 - env.gravity * k * np.tanh(k * env.water_depth))
            assert np.all(resid < 1e-10 * om**2)
        assert hydro.solve_dispersion(om, ENV).tobytes() == base.tobytes()

    def test_memo_never_stores_a_bad_omega(self):
        bad = np.array([0.5, -1.0, 1.0])
        for _ in range(3):
            with pytest.raises(ValueError):
                hydro.solve_dispersion(bad, ENV)
            with pytest.raises(ValueError):
                hydro.solve_dispersion(0.0, ENV)

    def test_memo_checks_omega_on_a_miss_after_a_good_grid(self):
        # a hit skips the check, so a bad omega must never become a hit:
        # with a good grid held, bad grids of its shape still raise and
        # the memo holds the good grid alone
        hydro._dispersion_cache.clear()
        good = hydro.solve_dispersion(GRID.values, ENV)
        for bad in (-GRID.values, np.where(np.arange(GRID.n) == 7, 0.0, GRID.values)):
            for _ in range(2):
                with pytest.raises(ValueError, match="strictly positive"):
                    hydro.solve_dispersion(bad, ENV)
            assert len(hydro._dispersion_cache) == 1
        assert hydro.solve_dispersion(GRID.values, ENV).tobytes() == good.tobytes()

    def test_group_velocity_limits(self):
        # deep water: vg -> g/(2 omega); shallow: vg -> sqrt(g h)
        def vg(omega):
            return hydro.group_velocity(omega, ENV, hydro.solve_dispersion(omega, ENV))

        assert vg(2.0) == pytest.approx(ENV.gravity / 4.0, rel=1e-6)
        assert vg(1e-3) == pytest.approx(np.sqrt(ENV.gravity * ENV.water_depth), rel=1e-4)


class TestSingleCoefficients:
    def test_pinned_point(self):
        # independent closed-form evaluation with bisection k, 40 digits
        geom = WecGeometry(3.0, 6.0)
        grid = FrequencyGrid([0.5, 1.0, 1.5])
        c = hydro.single_coefficients(geom, grid, ENV)
        assert c.excitation[1].real == pytest.approx(253761.36588629674, rel=1e-12)
        assert c.excitation[1].imag == 0.0
        assert c.damping[1] == pytest.approx(33252.493045349997, rel=1e-12)
        assert c.added_mass[1] == pytest.approx(10447.036199072222, rel=1e-12)

    def test_haskind_identity_across_design_box(self):
        rng = np.random.default_rng(42)
        om = GRID.values
        k = hydro.solve_dispersion(om, ENV)
        vg = hydro.group_velocity(om, ENV, k=k)
        for geom in random_geometries(rng, 1000):
            c = hydro.single_coefficients(geom, GRID, ENV)
            ratio = (
                c.damping
                * 4.0
                * ENV.water_density
                * ENV.gravity
                * vg
                / (k * np.abs(c.excitation) ** 2)
            )
            np.testing.assert_allclose(ratio, 1.0, rtol=1e-12)

    def test_long_wave_limit_recovers_hydrostatic_force(self):
        geom = WecGeometry(2.0, 4.0)
        grid = FrequencyGrid([1e-3, 2e-3])
        c = hydro.single_coefficients(geom, grid, ENV)
        f0 = ENV.water_density * ENV.gravity * np.pi * geom.radius**2
        assert c.excitation[0].real == pytest.approx(f0, rel=1e-3)

    def test_damping_nonnegative(self):
        rng = np.random.default_rng(1)
        for geom in random_geometries(rng, 50):
            c = hydro.single_coefficients(geom, GRID, ENV)
            assert np.all(c.damping >= 0)


@st.composite
def plants(draw):
    """(radius, slenderness) inside the box, often on a corner or a draft edge."""
    radius = draw(st.one_of(st.sampled_from(hydro.RADIUS_BOUNDS), st.floats(*hydro.RADIUS_BOUNDS)))
    lo, hi = (float(v) for v in hydro.slenderness_interval(radius))
    return radius, draw(st.one_of(st.sampled_from((lo, hi)), st.floats(lo, hi)))


# fixed examples, no example database, and no explain phase
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
)


@PROPERTY
@given(st.lists(plants(), min_size=1, max_size=6))
def test_batched_single_rows_equal_scalar_queries_bitwise(batch):
    radius, slenderness = (np.array(col) for col in zip(*batch))
    grid = FrequencyGrid.default(count=40)
    many = hydro.single_coefficients(WecGeometry(radius, slenderness), grid, ENV)
    for i, (r, s) in enumerate(batch):
        one = hydro.single_coefficients(WecGeometry(r, s), grid, ENV)
        for name in ("added_mass", "damping", "excitation"):
            got, want = getattr(many, name), getattr(one, name)
            assert got.shape == (len(batch), grid.n) and want.shape == (grid.n,)
            assert got[i].tobytes() == want.tobytes(), name
        # the isolated excitation is real (phase 0 at the body centre), so
        # the surrogate learns no map of its imaginary part
        assert np.all(np.imag(one.excitation) == 0.0)
    assert np.all(np.imag(many.excitation) == 0.0)


class TestPairCoefficients:
    GEOM = WecGeometry(3.0, 6.0)

    def test_pinned_point(self):
        # independent mpmath evaluation of the pair kernels, 40 digits
        grid = FrequencyGrid([0.5, 1.0, 1.5])
        p = hydro.pair_coefficients(self.GEOM, 20.0, np.pi / 4, grid, ENV)
        assert p.added_mass[1, 0, 0] == pytest.approx(10730.042597312971, rel=1e-12)
        assert p.added_mass[1, 0, 1] == pytest.approx(-12249.503109115163, rel=1e-12)
        assert p.damping[1, 0, 0] == pytest.approx(30924.203984259265, rel=1e-12)
        assert p.damping[1, 0, 1] == pytest.approx(4801.400487016355, rel=1e-12)
        assert p.excitation[1, 0].real == pytest.approx(229628.77702842637, rel=1e-12)
        assert p.excitation[1, 0].imag == pytest.approx(7925.198121325491, rel=1e-12)
        assert p.excitation[1, 1].real == pytest.approx(37418.531426791773, rel=1e-12)
        assert p.excitation[1, 1].imag == pytest.approx(-226698.11977759148, rel=1e-12)

    def test_matrices_symmetric(self):
        p = hydro.pair_coefficients(self.GEOM, 25.0, 0.3, GRID, ENV)
        np.testing.assert_allclose(
            p.added_mass, np.swapaxes(p.added_mass, 1, 2), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            p.damping, np.swapaxes(p.damping, 1, 2), rtol=0, atol=1e-12
        )

    def test_damping_positive_semidefinite(self):
        rng = np.random.default_rng(9)
        for geom in random_geometries(rng, 100):
            sep = rng.uniform(2 * geom.radius + 0.1, 300.0)
            theta = rng.uniform(-np.pi, np.pi)
            p = hydro.pair_coefficients(geom, sep, theta, GRID, ENV)
            eig = np.linalg.eigvalsh(p.damping)
            trace = p.damping[:, 0, 0] + p.damping[:, 1, 1]
            assert np.all(eig[:, 0] >= -1e-9 * trace)

    def test_decoupling_at_large_phase_separation(self):
        # k l >= 500 across the whole grid
        k_min = hydro.solve_dispersion(GRID.values, ENV)[0]
        sep = 500.0 / k_min
        single = hydro.single_coefficients(self.GEOM, GRID, ENV)
        p = hydro.pair_coefficients(self.GEOM, sep, 0.0, GRID, ENV)
        assert np.all(np.abs(p.damping[:, 0, 1]) < 1e-6 * single.damping)
        assert np.all(np.abs(p.added_mass[:, 0, 1]) < 1e-6 * single.added_mass)
        np.testing.assert_allclose(
            p.damping[:, 0, 0], single.damping, rtol=1e-6, atol=0
        )
        np.testing.assert_allclose(
            np.abs(p.excitation[:, 0]), np.abs(single.excitation), rtol=1e-6
        )

    def test_relabeling_symmetry(self):
        # swapping bodies is flipping the heading plus a frame translation
        rng = np.random.default_rng(21)
        k = hydro.solve_dispersion(GRID.values, ENV)
        for _ in range(20):
            sep = rng.uniform(7.0, 120.0)
            theta = rng.uniform(-np.pi, np.pi)
            a = hydro.pair_coefficients(self.GEOM, sep, theta, GRID, ENV)
            b = hydro.pair_coefficients(self.GEOM, sep, theta + np.pi, GRID, ENV)
            np.testing.assert_allclose(a.added_mass, b.added_mass, rtol=1e-12)
            np.testing.assert_allclose(a.damping, b.damping, rtol=1e-12)
            shift = np.exp(-1j * k * sep * np.cos(theta))
            np.testing.assert_allclose(
                a.excitation[:, [1, 0]],
                b.excitation * shift[:, None],
                rtol=1e-12,
            )

    def test_continuity_in_separation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            sep = rng.uniform(10.0, 200.0)
            delta = 1e-7 * sep
            p0 = hydro.pair_coefficients(self.GEOM, sep, 0.1, GRID, ENV)
            p1 = hydro.pair_coefficients(self.GEOM, sep + delta, 0.1, GRID, ENV)
            scale = np.abs(p0.damping).max()
            assert np.abs(p1.damping - p0.damping).max() < 1e-5 * scale

    def test_overlap_rejected(self):
        with pytest.raises(GeometryError):
            hydro.pair_coefficients(self.GEOM, 5.9, 0.0, GRID, ENV)

    def test_batch_equals_scalar_queries_bitwise(self):
        rng = np.random.default_rng(5)
        sep = np.concatenate([[6.0 + 1e-9, 500.0], rng.uniform(6.5, 300.0, 5)])
        theta = np.concatenate([[-np.pi, np.pi], rng.uniform(-np.pi, np.pi, 5)])
        batch = hydro.pair_coefficients(self.GEOM, sep, theta, GRID, ENV)
        assert batch.added_mass.shape == (7, GRID.n, 2, 2)
        assert batch.damping.shape == (7, GRID.n, 2, 2)
        assert batch.excitation.shape == (7, GRID.n, 2)
        assert np.array_equal(batch.separation, sep)
        assert np.array_equal(batch.heading_angle, theta)
        for i in range(sep.size):
            one = hydro.pair_coefficients(self.GEOM, sep[i], theta[i], GRID, ENV)
            assert one.added_mass.shape == (GRID.n, 2, 2)
            assert one.excitation.shape == (GRID.n, 2)
            assert np.array_equal(batch.added_mass[i], one.added_mass)
            assert np.array_equal(batch.damping[i], one.damping)
            assert np.array_equal(batch.excitation[i], one.excitation)

    def test_batch_with_one_overlapping_row_rejected(self):
        sep = np.array([20.0, 5.9, 40.0])
        with pytest.raises(GeometryError):
            hydro.pair_coefficients(self.GEOM, sep, np.zeros(3), GRID, ENV)

    def test_batch_needs_matching_shapes(self):
        with pytest.raises(ValueError, match="matching"):
            hydro.pair_coefficients(self.GEOM, np.array([20.0, 40.0]), 0.0, GRID, ENV)


# every non-empty subset of the five curves
CURVE_SETS = [
    set(curves)
    for n in range(1, len(hydro.PAIR_CURVES) + 1)
    for curves in itertools.combinations(hydro.PAIR_CURVES, n)
]
# what each derived view needs
DERIVED = {
    "added_mass": {"added_mass_diag", "added_mass_cross"},
    "damping": {"damping_diag", "damping_cross"},
    "excitation": {"forces"},
}


@PROPERTY
@given(
    plants(),
    st.lists(st.tuples(st.floats(1e-6, 400.0), st.floats(-np.pi, np.pi)), min_size=1, max_size=5),
    st.booleans(),
)
def test_asked_curves_equal_the_all_curves_answer_bitwise(plant, rows, scalar):
    geom = WecGeometry(*plant)
    grid = FrequencyGrid.default(count=40)
    sep = np.array([2.0 * geom.radius + gap for gap, _ in rows])
    theta = np.array([heading for _, heading in rows])
    if scalar:
        sep, theta = float(sep[0]), float(theta[0])
    full = hydro.pair_coefficients(geom, sep, theta, grid, ENV)
    provider = hydro.ReferenceProvider()
    for curves in CURVE_SETS:
        for part in (hydro.pair_coefficients(geom, sep, theta, grid, ENV, curves=curves),
                     provider.pair(geom, sep, theta, grid, ENV, curves=curves)):
            for name in hydro.PAIR_CURVES:
                got = getattr(part, name)
                if name in curves:
                    want = getattr(full, name)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
                    assert not got.flags.writeable
                else:
                    assert got is None, name
            for name, needs in DERIVED.items():
                if needs <= curves:
                    assert getattr(part, name).tobytes() == getattr(full, name).tobytes()
                else:
                    missing = next(c for c in hydro.PAIR_CURVES if c in needs - curves)
                    with pytest.raises(LookupError, match=f"holds no {missing} curve"):
                        getattr(part, name)


@pytest.mark.parametrize("curves", [("damping_diag",), ("damping_cross",), ("forces",),
                                    ("damping_diag", "damping_cross", "forces")])
def test_pair_query_without_added_mass_makes_no_y0_call(curves, monkeypatch):
    # Y0 serves only the added mass curves, whose amplitude -B/omega is
    # computed only when one of them is asked
    calls = {"j0": 0, "y0": 0}
    for name in calls:
        def counting(x, name=name, original=getattr(kernels, name)):
            calls[name] += 1
            return original(x)

        monkeypatch.setattr(kernels, name, counting)
    geom = WecGeometry(3.0, 6.0)
    provider = hydro.ReferenceProvider()
    for sep in (np.array([20.0]), np.array([20.0, 200.0])):
        hydro.pair_coefficients(geom, sep, np.zeros(sep.size), GRID, ENV, curves=curves)
        provider.pair(geom, sep, np.zeros(sep.size), GRID, ENV, curves=curves)
    assert calls == {"j0": 4 * any(c.startswith("damping") for c in curves), "y0": 0}


def test_unknown_curve_names_are_rejected():
    geom = WecGeometry(3.0, 6.0)
    with pytest.raises(ValueError, match="unknown pair curves: excitation"):
        hydro.pair_coefficients(geom, 20.0, 0.0, GRID, ENV, curves={"forces", "excitation"})
    with pytest.raises(ValueError, match="unknown pair curves: added_mass, damping"):
        hydro.ReferenceProvider().pair(geom, 20.0, 0.0, GRID, ENV, curves={"damping", "added_mass"})


def test_reference_provider_name_and_delegation():
    provider = hydro.ReferenceProvider()
    assert provider.name == "reference"
    c = provider.single(WecGeometry(1.0, 1.0), GRID, ENV)
    assert c.damping.shape == (GRID.n,)


def test_model_ledger_lists_every_constant():
    text = hydro.model_ledger_text()
    for token in ["0.5", "0.3", "0.25", "20 R", "J0(kl)", "Y0(kl)", "Haskind"]:
        assert token in text


def test_model_ledger_file_matches_package():
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "MODEL_LEDGER.txt")) as fh:
        assert fh.read() == hydro.model_ledger_text() + "\n"
