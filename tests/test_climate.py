"""Spectrum, site statistics and lifetime power tests.

Oracles: high-resolution trapezoid integration for the spectral moment,
an explicit double-loop kernel density estimate, and grid-refinement
re-computation of sea-state power.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wecfarm import climate, dynamics, hydro, mbe, optimize

from sea_states import irregular_power, lifetime_average_power


def make_records(seed=7, n=500):
    rng = np.random.default_rng(seed)
    rec = rng.normal([2.5, 9.0], [0.6, 1.5], size=(n, 2))
    keep = (rec[:, 0] > 0.5) & (rec[:, 0] < 4.5) & (rec[:, 1] > 4.0) & (rec[:, 1] < 14.0)
    return rec[keep]


BOUNDS = ((0.5, 4.5), (4.0, 14.0))


class TestJonswap:
    def test_zeroth_moment_matches_hs(self):
        # independent fine-grid trapezoid against the internal Simpson rule
        om = np.linspace(0.01, 6.0, 120001)
        rng = np.random.default_rng(3)
        for _ in range(25):
            hs = rng.uniform(0.5, 8.0)
            tp = rng.uniform(2.5, 19.0)
            m0 = np.trapezoid(climate.jonswap_density(om, hs, tp), om)
            assert m0 == pytest.approx(hs * hs / 16.0, rel=1e-6)

    def test_density_value_against_independent_normalisation(self):
        om = np.linspace(0.01, 6.0, 120001)
        shape = climate._jonswap_shape(om, 8.0)
        oracle = (4.0 / 16.0) * shape / np.trapezoid(shape, om)
        got = climate.jonswap_density(om, 2.0, 8.0)
        assert np.allclose(got, oracle, rtol=1e-6)

    def test_peak_sits_at_peak_frequency(self):
        om = np.linspace(0.05, 4.0, 20000)
        for tp in (5.0, 8.0, 14.0):
            s = climate.jonswap_density(om, 2.0, tp)
            hit = om[np.argmax(s)]
            assert abs(hit - 2.0 * np.pi / tp) < 2.0 * (om[1] - om[0])

    def test_vanishes_at_low_frequency(self):
        assert climate.jonswap_density(np.array([1e-2]), 2.0, 8.0)[0] < 1e-12

    def test_scales_with_hs_squared(self):
        om = np.linspace(0.2, 3.0, 50)
        a = climate.jonswap_density(om, 1.5, 9.0)
        b = climate.jonswap_density(om, 3.0, 9.0)
        assert np.allclose(b, 4.0 * a, rtol=1e-12)

    def test_hs_vector_rows_equal_scalar_calls(self):
        om = np.linspace(0.2, 3.0, 50)
        hs = np.array([0.7, 1.5, 3.2])
        rows = climate.jonswap_density(om, hs, 9.0)
        assert rows.shape == (3, 50)
        for i in range(3):
            assert rows[i].tobytes() == climate.jonswap_density(om, hs[i], 9.0).tobytes()

    def test_density_does_not_depend_on_earlier_calls(self):
        # the density at a Tp 3e-13 away from 8.0, from a fresh interpreter
        # that never evaluated Tp = 8.0, and here after Tp = 8.0 ran
        script = (
            "import sys, numpy as np\n"
            "from wecfarm import climate\n"
            "om = np.linspace(0.05, 4.0, 200)\n"
            "sys.stdout.write(climate.jonswap_density(om, 2.0, 8.0 + 3e-13).tobytes().hex())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(climate.__file__).parents[1]))
        fresh = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        om = np.linspace(0.05, 4.0, 200)
        climate.jonswap_density(om, 2.0, 8.0)
        assert climate.jonswap_density(om, 2.0, 8.0 + 3e-13).tobytes().hex() == fresh

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            climate.jonswap_density(np.array([1.0]), 0.0, 8.0)
        with pytest.raises(ValueError):
            climate.jonswap_density(np.array([1.0]), 2.0, -1.0)
        with pytest.raises(ValueError):
            climate.jonswap_density(np.array([0.0, 1.0]), 2.0, 8.0)
        # NaN and inf fail too, as no comparison with NaN is true
        for hs, tp in [(np.nan, 8.0), (np.inf, 8.0), (np.array([2.0, np.nan]), 8.0),
                       (2.0, np.nan), (2.0, np.inf)]:
            with pytest.raises(ValueError, match="strictly positive"):
                climate.jonswap_density(np.array([1.0]), hs, tp)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="omega"):
                climate.jonswap_density(np.array([0.5, bad]), 2.0, 8.0)


class TestIrregularPower:
    def test_zero_power_gives_zero(self):
        grid = hydro.FrequencyGrid.default()
        assert irregular_power(np.zeros(grid.values.size), grid, 2.0, 8.0) == 0.0

    def test_constant_power_recovers_moment(self):
        # with the grid covering the spectral support, sum(2 S dw) -> 2 hs^2/16
        grid = hydro.FrequencyGrid(np.linspace(0.01, 6.0, 12001))
        ones = np.ones(grid.values.size)
        for tp in (6.0, 8.0, 12.0):
            p_i = irregular_power(ones, grid, 2.0, tp)
            assert p_i == pytest.approx(2.0 * 4.0 / 16.0, rel=1e-5)

    def test_shape_mismatch_rejected(self):
        grid = hydro.FrequencyGrid.default()
        with pytest.raises(ValueError):
            irregular_power(np.ones(7), grid, 2.0, 8.0)

    def test_converged_on_default_grid(self):
        # single device tuned near the tp=8 peak; refining the frequency
        # grid 10x moves the sea-state power by far less than 0.5%
        env = hydro.Environment()
        geom = hydro.WecGeometry(3.0, 6.0)
        wp = 2.0 * np.pi / 8.0
        sw = hydro.single_coefficients(geom, hydro.FrequencyGrid(np.array([wp])), env)
        m = dynamics.body_mass(geom, env)
        g = dynamics.hydrostatic_coefficient(geom, env)
        k_pto = float(np.clip(wp**2 * (m + sw.added_mass[0]) - g, -5e5, 5e5))
        pto = dynamics.PtoSettings(k_pto, float(sw.damping[0]))

        def p_i_on(n):
            grid = hydro.FrequencyGrid(np.linspace(0.3, 2.0, n))
            farm = mbe.compose_farm(
                hydro.ReferenceProvider(), geom, mbe.Layout(np.zeros((1, 2))), grid, env
            )
            motion = dynamics.solve_motion(farm, geom, pto, env)
            _, total = dynamics.regular_wave_power(grid, motion, pto)
            return irregular_power(total, grid, 2.0, 8.0)

        coarse, fine = p_i_on(200), p_i_on(2000)
        assert coarse == pytest.approx(fine, rel=5e-3)
        assert p_i_on(100) == pytest.approx(coarse, rel=1e-2)


class TestSeaStateGrid:
    def test_weights_integrate_constants_exactly(self):
        g = climate.SeaStateGrid.build(20, (0.5, 4.5), (4.0, 14.0))
        assert g.quadrature_weights.sum() == pytest.approx(4.0 * 10.0, rel=1e-12)

    def test_nodes_strictly_inside_bounds(self):
        g = climate.SeaStateGrid.build(20, (0.5, 4.5), (4.0, 14.0))
        assert g.hs_nodes.min() > 0.5 and g.hs_nodes.max() < 4.5
        assert g.tp_nodes.min() > 4.0 and g.tp_nodes.max() < 14.0
        assert np.all(np.diff(g.hs_nodes) > 0)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            climate.SeaStateGrid.build(1, (0.5, 4.5), (4.0, 14.0))


class TestBuildSiteClimate:
    def test_probabilities_sum_to_one(self):
        site = climate.build_site_climate(make_records(), 20, BOUNDS, 30)
        assert abs(site.probability.sum() - 1.0) < 1e-12
        assert np.all(site.probability >= 0.0)
        assert site.years == 30

    def test_nan_probability_rejected(self):
        grid = climate.SeaStateGrid.build(3, (0.5, 4.5), (4.0, 14.0))
        prob = np.full((3, 3), 1.0 / 9.0)
        prob[1, 2] = np.nan
        with pytest.raises(ValueError, match="probabilities"):
            climate.SiteClimate("toy", grid, prob, 1)

    @pytest.mark.parametrize("years", [0, -3, float("nan")])
    def test_non_positive_or_nan_years_rejected(self, years):
        grid = climate.SeaStateGrid.build(3, (0.5, 4.5), (4.0, 14.0))
        with pytest.raises(ValueError, match="years"):
            climate.SiteClimate("toy", grid, np.full((3, 3), 1.0 / 9.0), years)

    def test_matches_double_loop_kde(self):
        rec = make_records(seed=11, n=200)
        site = climate.build_site_climate(rec, 8, BOUNDS, 30)
        bw = climate.silverman_bandwidths(rec)
        grid = climate.SeaStateGrid.build(8, *BOUNDS)
        density = np.zeros((8, 8))
        for i, hs in enumerate(grid.hs_nodes):
            for j, tp in enumerate(grid.tp_nodes):
                acc = 0.0
                for h_r, t_r in rec:
                    acc += np.exp(
                        -0.5 * ((hs - h_r) / bw[0]) ** 2 - 0.5 * ((tp - t_r) / bw[1]) ** 2
                    )
                density[i, j] = acc / (rec.shape[0] * 2.0 * np.pi * bw[0] * bw[1])
        expected = density * grid.quadrature_weights
        expected /= expected.sum()
        assert np.allclose(site.probability, expected, rtol=1e-12)

    def test_preserves_sample_means(self):
        rec = make_records()
        site = climate.build_site_climate(rec, 20, BOUNDS, 30)
        wmean_hs = np.sum(site.probability * site.grid.hs_nodes[:, None])
        wmean_tp = np.sum(site.probability * site.grid.tp_nodes[None, :])
        assert abs(wmean_hs - rec[:, 0].mean()) < 0.02
        assert abs(wmean_tp - rec[:, 1].mean()) < 0.05

    def test_uniform_records_give_flat_interior_density(self):
        g1 = np.linspace(1.0, 4.0, 40)
        g2 = np.linspace(5.0, 13.0, 40)
        lattice = np.array([(a, b) for a in g1 for b in g2])
        site = climate.build_site_climate(lattice, 20, ((1.0, 4.0), (5.0, 13.0)), 1)
        bw = climate.silverman_bandwidths(lattice)
        dens = site.probability / site.grid.quadrature_weights
        mh = (site.grid.hs_nodes > 1.0 + 2 * bw[0]) & (site.grid.hs_nodes < 4.0 - 2 * bw[0])
        mt = (site.grid.tp_nodes > 5.0 + 2 * bw[1]) & (site.grid.tp_nodes < 13.0 - 2 * bw[1])
        inner = dens[np.ix_(mh, mt)]
        assert inner.max() / inner.min() < 1.10

    def test_rejects_thin_histories(self):
        with pytest.raises(ValueError, match="at least 30"):
            climate.build_site_climate(make_records()[:29], 20, BOUNDS, 30)

    def test_rejects_records_outside_bounds(self):
        rec = make_records()
        with pytest.raises(ValueError, match="outside"):
            climate.build_site_climate(rec, 20, ((1.0, 4.5), (4.0, 14.0)), 30)

    def test_rejects_degenerate_records(self):
        rec = np.tile([[2.0, 8.0]], (40, 1))
        with pytest.raises(ValueError, match="bandwidth"):
            climate.build_site_climate(rec, 20, BOUNDS, 30)

    def test_spectral_matrix_rows_and_cache(self):
        site = climate.build_site_climate(make_records(), 4, BOUNDS, 30)
        grid = hydro.FrequencyGrid.default()
        mat = site.spectral_matrix(grid)
        assert mat.shape == (16, grid.values.size)
        row = climate.jonswap_density(grid.values, site.grid.hs_nodes[1], site.grid.tp_nodes[2])
        assert np.array_equal(mat[1 * 4 + 2], row)
        for i, hs in enumerate(site.grid.hs_nodes):
            for j, tp in enumerate(site.grid.tp_nodes):
                row = climate.jonswap_density(grid.values, hs, tp)
                assert mat[i * 4 + j].tobytes() == row.tobytes()
        assert site.spectral_matrix(grid) is mat

    def test_climate_weights_are_held_read_only_and_read_through_the_spectra(
        self, monkeypatch
    ):
        site = climate.build_site_climate(make_records(), 4, BOUNDS, 30)
        grid = hydro.FrequencyGrid.default()
        calls = []
        spectral_matrix = climate.SiteClimate.spectral_matrix

        def counting(self, grid):
            calls.append(grid)
            return spectral_matrix(self, grid)

        monkeypatch.setattr(climate.SiteClimate, "spectral_matrix", counting)
        weights = site.climate_weights(grid)
        fresh = 2.0 * grid.spacing * (site.probability.ravel() @ site.spectral_matrix(grid))
        assert weights.tobytes() == fresh.tobytes()
        assert not weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 1.0
        assert site.climate_weights(grid) is weights
        assert len(calls) == 3
        # a second grid gets its own weights
        other = hydro.FrequencyGrid.default(count=40)
        other_weights = site.climate_weights(other)
        fresh = 2.0 * other.spacing * (site.probability.ravel() @ site.spectral_matrix(other))
        assert other_weights.tobytes() == fresh.tobytes()
        assert site.climate_weights(grid) is weights
        assert len(calls) == 6

    def test_every_evaluation_reads_the_spectra_once(self, monkeypatch):
        site = climate.build_site_climate(make_records(), 3, BOUNDS, 30)
        grid = hydro.FrequencyGrid.default(count=40)
        calls = []
        spectral_matrix = climate.SiteClimate.spectral_matrix

        def counting(self, grid):
            calls.append(grid)
            return spectral_matrix(self, grid)

        monkeypatch.setattr(climate.SiteClimate, "spectral_matrix", counting)
        design = optimize.sample_design(3, np.random.default_rng(1), site_id=site.site_id)
        provider = hydro.ReferenceProvider()
        for with_q in (False, True, False):
            optimize.evaluate_design(design, grid, hydro.Environment(), provider, site,
                                     with_q=with_q)
        assert len(calls) == 3

    @pytest.mark.parametrize("axis, value", [("hs_nodes", 0.0), ("tp_nodes", -2.0)])
    def test_spectral_matrix_rejects_non_positive_nodes(self, axis, value):
        site = climate.build_site_climate(make_records(), 4, BOUNDS, 30)
        getattr(site.grid, axis)[1] = value
        with pytest.raises(ValueError, match="strictly positive"):
            site.spectral_matrix(hydro.FrequencyGrid.default())


class TestLifetimePower:
    def test_efficiency_chain_product(self):
        eff = climate.EfficiencyChain()
        assert eff.total == pytest.approx(0.7448, rel=1e-12)
        with pytest.raises(ValueError):
            climate.EfficiencyChain(pcc=0.0)
        with pytest.raises(ValueError):
            climate.EfficiencyChain(transmission=1.2)

    def test_unit_power_everywhere(self):
        # 0.8 * 0.95 * 0.98 * 30 years on a unit sea-state power surface
        site = climate.build_site_climate(make_records(), 20, BOUNDS, 30)
        p_a = lifetime_average_power(
            np.ones_like(site.probability), site, climate.EfficiencyChain()
        )
        assert p_a == pytest.approx(22.344, rel=1e-12)

    def test_point_mass_climate(self):
        grid = climate.SeaStateGrid.build(2, (1.0, 3.0), (6.0, 10.0))
        prob = np.array([[1.0, 0.0], [0.0, 0.0]])
        site = climate.SiteClimate("point", grid, prob, 1)
        p_i = np.array([[123.0, 7.0], [9.0, 11.0]])
        p_a = lifetime_average_power(p_i, site, climate.EfficiencyChain())
        assert p_a == pytest.approx(0.7448 * 123.0, rel=1e-12)

    def test_linear_in_years_and_efficiency(self):
        site = climate.build_site_climate(make_records(), 10, BOUNDS, 30)
        p_i = np.full_like(site.probability, 5.0e4)
        base = lifetime_average_power(p_i, site, climate.EfficiencyChain())
        half = climate.SiteClimate(site.site_id, site.grid, site.probability, 15)
        assert lifetime_average_power(p_i, half, climate.EfficiencyChain()) == pytest.approx(
            base / 2.0, rel=1e-12
        )
        weak = climate.EfficiencyChain(pcc=0.4)
        assert lifetime_average_power(p_i, site, weak) == pytest.approx(
            base / 2.0, rel=1e-12
        )

    def test_shape_mismatch_rejected(self):
        site = climate.build_site_climate(make_records(), 10, BOUNDS, 30)
        with pytest.raises(ValueError):
            lifetime_average_power(np.ones((3, 3)), site, climate.EfficiencyChain())

    def test_volume_objective(self):
        geom = hydro.WecGeometry(3.0, 6.0)
        assert climate.objective_pv(1.0e6, geom, 5) == pytest.approx(
            14147.106052612919, rel=1e-12
        )
        with pytest.raises(ValueError):
            climate.objective_pv(1.0e6, geom, 0)

    def test_q_factor(self):
        assert climate.q_factor(10.0, [2.0, 3.0, 5.0]) == pytest.approx(1.0, rel=1e-12)
        assert climate.q_factor(5.0, 4.0) == pytest.approx(1.25, rel=1e-12)
        with pytest.raises(ZeroDivisionError):
            climate.q_factor(5.0, [0.0, 0.0])


class TestPersistence:
    def test_site_roundtrip(self, tmp_path):
        site = climate.build_site_climate(make_records(), 12, BOUNDS, 30, site_id="alpha")
        path = tmp_path / "site.json"
        climate.save_site(site, path)
        back = climate.load_site(path)
        assert back.site_id == "alpha"
        assert back.years == 30
        assert np.array_equal(back.probability, site.probability)
        assert np.array_equal(back.grid.hs_nodes, site.grid.hs_nodes)
        assert np.array_equal(back.grid.quadrature_weights, site.grid.quadrature_weights)

    @pytest.mark.parametrize("name", ["alpha", "bravo"])
    def test_stock_sites_load_byte_for_byte(self, tmp_path, name):
        # load_site checks the field types and shapes and converts nothing
        data = Path(__file__).resolve().parents[1] / "data"
        config = json.loads((data / f"site_{name}_config.json").read_text())
        records = climate.read_records_csv(data / f"site_{name}.csv")
        site = climate.build_site_climate(
            records, config["n_gq"], config["bounds"], config["years"], site_id=name
        )
        path = tmp_path / "site.json"
        climate.save_site(site, path)
        back = climate.load_site(path)
        assert back.years == 30 and type(back.years) is int
        for got, want in [
            (back.grid.hs_nodes, site.grid.hs_nodes),
            (back.grid.tp_nodes, site.grid.tp_nodes),
            (back.grid.quadrature_weights, site.grid.quadrature_weights),
            (back.probability, site.probability),
        ]:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_non_finite_site_is_refused_and_leaves_no_file(self, tmp_path):
        site = climate.build_site_climate(make_records(), 12, BOUNDS, 30, site_id="alpha")
        site.probability = site.probability.copy()
        site.probability[0, 0] = np.nan
        path = tmp_path / "site.json"
        with pytest.raises(ValueError, match="JSON"):
            climate.save_site(site, path)
        assert not path.exists()

    def test_site_file_holding_nan_is_refused(self, tmp_path):
        site = climate.build_site_climate(make_records(), 12, BOUNDS, 30, site_id="alpha")
        path = tmp_path / "site.json"
        climate.save_site(site, path)
        # Python's json reads the bare NaN token that other writers emit
        doc = json.loads(path.read_text())
        doc["probability"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        with pytest.raises(ValueError, match="probabilities"):
            climate.load_site(path)

    @pytest.mark.parametrize("axis, value", [("tp_nodes", np.nan), ("hs_nodes", np.inf)])
    def test_site_file_with_a_non_finite_node_fails_its_spectra(self, tmp_path, axis, value):
        site = climate.build_site_climate(make_records(), 12, BOUNDS, 30, site_id="alpha")
        path = tmp_path / "site.json"
        climate.save_site(site, path)
        doc = json.loads(path.read_text())
        doc[axis][3] = value
        path.write_text(json.dumps(doc))
        back = climate.load_site(path)
        with pytest.raises(ValueError, match="strictly positive"):
            back.spectral_matrix(hydro.FrequencyGrid.default())

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "site.json"
        path.write_text('{"schema_version": 99}')
        with pytest.raises(ValueError, match="schema"):
            climate.load_site(path)

    def test_records_csv_roundtrip(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("hs_m,tp_s\n1.5,7.25\n2.75,9.5\n")
        rec = climate.read_records_csv(path)
        assert np.array_equal(rec, [[1.5, 7.25], [2.75, 9.5]])

    def test_records_csv_header_enforced(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("hs,tp\n1.5,7.25\n")
        with pytest.raises(ValueError, match="hs_m,tp_s"):
            climate.read_records_csv(path)

    def test_records_csv_malformed_row(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("hs_m,tp_s\n1.5,abc\n")
        with pytest.raises(ValueError, match="malformed"):
            climate.read_records_csv(path)

    @pytest.mark.parametrize("row", ["nan,7.25", "1.5,inf", "-inf,7.25", "1.5,NaN"])
    def test_records_csv_non_finite_row(self, tmp_path, row):
        # refused where it is read, naming its line, not later as a bad
        # probability or a record outside the bounds
        path = tmp_path / "records.csv"
        path.write_text(f"hs_m,tp_s\n1.5,7.25\n{row}\n")
        with pytest.raises(ValueError, match=r"records\.csv:3: non-finite record"):
            climate.read_records_csv(path)
