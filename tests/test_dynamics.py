import numpy as np
import pytest

from wecfarm import dynamics, mbe
from wecfarm.hydro import (
    Environment,
    FrequencyGrid,
    NumericalError,
    ReferenceProvider,
    WecGeometry,
)

ENV = Environment()
GEOM = WecGeometry(3.0, 6.0)
PROVIDER = ReferenceProvider()


def farm_for(positions, grid):
    return mbe.compose_farm(PROVIDER, GEOM, mbe.Layout(np.asarray(positions)), grid, ENV)


class TestPtoSettings:
    def test_uniform_broadcast(self):
        pto = dynamics.PtoSettings(1e4, 2e5)
        k, b = pto.arrays_for(5)
        assert np.all(k == 1e4) and k.shape == (5,)
        assert np.all(b == 2e5)

    def test_uniform_mode_rejects_mixed_entries(self):
        with pytest.raises(ValueError):
            dynamics.PtoSettings([1e4, 2e4], [1e5, 1e5])

    def test_per_device_mode(self):
        pto = dynamics.PtoSettings([1e4, 2e4], [1e5, 3e5], mode="per-device")
        k, b = pto.arrays_for(2)
        assert k[1] == 2e4 and b[1] == 3e5

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            dynamics.PtoSettings(6e5, 1e5)
        with pytest.raises(ValueError):
            dynamics.PtoSettings(0.0, -1.0)

    def test_nan_is_out_of_bounds(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="stiffness"):
            dynamics.PtoSettings(nan, 1e5)
        with pytest.raises(ValueError, match="damping"):
            dynamics.PtoSettings(0.0, nan)
        with pytest.raises(ValueError, match="stiffness"):
            dynamics.PtoSettings([1e4, nan], [1e5, 1e5], mode="per-device")

    def test_dimension_mismatch(self):
        pto = dynamics.PtoSettings([1e4, 2e4], [1e5, 1e5], mode="per-device")
        with pytest.raises(ValueError):
            pto.arrays_for(3)


class TestBodyConstants:
    def test_mass_pinned(self):
        # 1025 * pi * 9 * 0.5 and 1025 * pi
        assert dynamics.body_mass(GEOM, ENV) == pytest.approx(14490.596, abs=1e-3)
        assert dynamics.body_mass(WecGeometry(1.0, 1.0), ENV) == pytest.approx(
            3220.1325, abs=1e-4
        )

    def test_mass_quadruples_with_radius_at_fixed_draft(self):
        # radius 2 -> 4 at draft 1 m
        m1 = dynamics.body_mass(WecGeometry(2.0, 2.0), ENV)
        m2 = dynamics.body_mass(WecGeometry(4.0, 4.0), ENV)
        assert m2 == pytest.approx(4 * m1, rel=1e-12)

    def test_hydrostatic_pinned(self):
        # 1025 * 9.81 * pi * 9 and 1025 * 9.81 * pi * 0.25
        assert dynamics.hydrostatic_coefficient(GEOM, ENV) == pytest.approx(
            284305.496, abs=1e-3
        )
        assert dynamics.hydrostatic_coefficient(WecGeometry(0.5, 1.0), ENV) == pytest.approx(
            7897.375, abs=1e-3
        )

    def test_hydrostatic_homogeneity(self):
        g1 = dynamics.hydrostatic_coefficient(WecGeometry(2.0, 4.0), ENV)
        g2 = dynamics.hydrostatic_coefficient(WecGeometry(4.0, 4.0), ENV)
        assert g2 / g1 == pytest.approx(4.0, rel=1e-12)


class TestSolveMotion:
    def test_static_limit(self):
        grid = FrequencyGrid([1e-3, 2e-3])
        farm = farm_for([[0.0, 0.0]], grid)
        pto = dynamics.PtoSettings(0.0, 0.0)
        motion = dynamics.solve_motion(farm, GEOM, pto, ENV)
        g_hs = dynamics.hydrostatic_coefficient(GEOM, ENV)
        expected = farm.excitation[0, 0] / g_hs
        assert motion[0, 0] == pytest.approx(expected, rel=1e-4)

    def test_matched_power_at_every_grid_frequency(self):
        grid = FrequencyGrid.default()
        single = PROVIDER.single(GEOM, grid, ENV)
        m = dynamics.body_mass(GEOM, ENV)
        g_hs = dynamics.hydrostatic_coefficient(GEOM, ENV)
        for j in range(grid.n):
            om = grid.values[j]
            sub = FrequencyGrid([om])
            coeffs = mbe.FarmCoefficients(
                grid=sub,
                added_mass=single.added_mass[j].reshape(1, 1, 1),
                damping=single.damping[j].reshape(1, 1, 1),
                excitation=single.excitation[j].reshape(1, 1),
            )
            k_pto = om**2 * (m + single.added_mass[j]) - g_hs
            pto = dynamics.PtoSettings(k_pto, single.damping[j])
            motion = dynamics.solve_motion(coeffs, GEOM, pto, ENV)
            per_device, total = dynamics.regular_wave_power(sub, motion, pto)
            optimum = np.abs(single.excitation[j]) ** 2 / (8.0 * single.damping[j])
            assert total[0] == pytest.approx(optimum, rel=1e-9)
            # impedance-matched motion magnitude |F|/(2 omega B)
            assert np.abs(motion[0, 0]) == pytest.approx(
                np.abs(single.excitation[j]) / (2 * om * single.damping[j]), rel=1e-9
            )

    def test_five_body_solve_against_explicit_inverse(self):
        grid = FrequencyGrid([0.7, 1.0, 1.6])
        rng = np.random.default_rng(17)
        pos = np.vstack([[0.0, 0.0], rng.uniform(20, 140, size=(4, 2))])
        farm = farm_for(pos, grid)
        pto = dynamics.PtoSettings(-2e4, 1.5e5)
        motion = dynamics.solve_motion(farm, GEOM, pto, ENV)

        m = dynamics.body_mass(GEOM, ENV)
        g_hs = dynamics.hydrostatic_coefficient(GEOM, ENV)
        for j, om in enumerate(grid.values):
            z = (
                -(om**2) * (m * np.eye(5) + farm.added_mass[j])
                + (g_hs + -2e4) * np.eye(5)
                + 1j * om * (farm.damping[j] + 1.5e5 * np.eye(5))
            )
            xi = np.linalg.inv(z) @ farm.excitation[j]
            np.testing.assert_allclose(motion[j], xi, rtol=1e-10)

    def test_pinned_two_body_power(self):
        # closed-form 2x2 inverse evaluated at 40 digits
        grid = FrequencyGrid([0.9, 1.0])
        farm = farm_for([[0.0, 0.0], [30.0, 0.0]], grid)
        pto = dynamics.PtoSettings(1e4, 2e5)
        motion = dynamics.solve_motion(farm, GEOM, pto, ENV)
        _, total = dynamics.regular_wave_power(grid, motion, pto)
        assert total[1] == pytest.approx(92247.806421645915, rel=1e-12)
        assert np.abs(motion[1, 0]) == pytest.approx(0.6805554722317702, rel=1e-12)
        assert np.abs(motion[1, 1]) == pytest.approx(0.67773321700492991, rel=1e-12)

    def test_zero_pto_damping_zero_power(self):
        grid = FrequencyGrid.default(count=40)
        farm = farm_for([[0.0, 0.0], [0.0, 40.0]], grid)
        pto = dynamics.PtoSettings(1e4, 0.0)
        motion = dynamics.solve_motion(farm, GEOM, pto, ENV)
        per_device, total = dynamics.regular_wave_power(grid, motion, pto)
        assert np.all(per_device == 0.0)
        assert np.all(total == 0.0)

    def test_power_nonnegative_across_random_designs(self):
        grid = FrequencyGrid.default(count=30)
        rng = np.random.default_rng(23)
        for _ in range(60):
            r = rng.uniform(0.5, 10.0)
            ar = rng.uniform(0.2, 10.0)
            if not 0.5 <= r / ar <= 20.0:
                continue
            geom = WecGeometry(r, ar)
            while True:
                pos = np.vstack([[0.0, 0.0], rng.uniform(0, 220, size=(2, 2))])
                d01 = np.hypot(*pos[1])
                d02 = np.hypot(*pos[2])
                d12 = np.hypot(*(pos[2] - pos[1]))
                if min(d01, d02, d12) > 2 * r + 10:
                    break
            farm = mbe.compose_farm(PROVIDER, geom, mbe.Layout(pos), grid, ENV)
            pto = dynamics.PtoSettings(
                rng.uniform(-5e5, 5e5), rng.uniform(0, 5e5)
            )
            motion = dynamics.solve_motion(farm, geom, pto, ENV)
            per_device, total = dynamics.regular_wave_power(grid, motion, pto)
            assert per_device.min() >= -1e-12 * total.max()

    def test_power_invariant_under_translation_and_mirror(self):
        grid = FrequencyGrid.default(count=50)
        rng = np.random.default_rng(31)
        pos = np.vstack([[0.0, 0.0], rng.uniform(15, 130, size=(3, 2))])
        pto = dynamics.PtoSettings(3e4, 2.5e5)

        def farm_power(layout):
            farm = mbe.compose_farm(PROVIDER, GEOM, layout, grid, ENV)
            motion = dynamics.solve_motion(farm, GEOM, pto, ENV)
            return dynamics.regular_wave_power(grid, motion, pto)[1]

        base = farm_power(mbe.Layout(pos))
        shifted = farm_power(mbe.Layout(pos + [-40.0, 17.0]))
        mirrored = farm_power(mbe.Layout(pos * [1.0, -1.0]))
        np.testing.assert_allclose(shifted, base, rtol=1e-12)
        np.testing.assert_allclose(mirrored, base, rtol=1e-12)

    def test_singular_system_identifies_frequency(self):
        grid = FrequencyGrid([1.0, 1.5])
        geom = WecGeometry(0.5, 1.0)
        m = dynamics.body_mass(geom, ENV)
        g_hs = dynamics.hydrostatic_coefficient(geom, ENV)
        # at omega=1 the assembled stiffness-mass balance cancels the
        # added mass exactly, leaving a hard-zero system matrix
        resonant_added = (g_hs + 0.0) - m
        coeffs = mbe.FarmCoefficients(
            grid=grid,
            added_mass=np.full((2, 1, 1), resonant_added),
            damping=np.zeros((2, 1, 1)),
            excitation=np.ones((2, 1), dtype=np.complex128),
        )
        pto = dynamics.PtoSettings(0.0, 0.0)
        with pytest.raises(NumericalError, match="omega=1"):
            dynamics.solve_motion(coeffs, geom, pto, ENV)
