import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from wecfarm import hydro, mbe
from wecfarm.hydro import Environment, FrequencyGrid, ReferenceProvider, WecGeometry

ENV = Environment()
GRID = FrequencyGrid.default(count=60)
GEOM = WecGeometry(3.0, 6.0)
PROVIDER = ReferenceProvider()


class TestLayout:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            mbe.Layout(np.zeros((3, 3)))

    def test_rejects_coincident_devices(self):
        with pytest.raises(ValueError):
            mbe.Layout(np.array([[0.0, 0.0], [0.0, 0.0]]))


class TestPairGeometry:
    def test_axis_aligned(self):
        lay = mbe.Layout(np.array([[0.0, 0.0], [10.0, 0.0]]))
        assert mbe.pair_geometry(lay, 0, 1) == (10.0, 0.0)

    def test_vertical(self):
        lay = mbe.Layout(np.array([[0.0, 0.0], [0.0, 10.0]]))
        sep, theta = mbe.pair_geometry(lay, 0, 1)
        assert sep == 10.0
        assert theta == pytest.approx(np.pi / 2)

    def test_three_four_five(self):
        lay = mbe.Layout(np.array([[3.0, 4.0], [0.0, 0.0]]))
        sep, theta = mbe.pair_geometry(lay, 0, 1)
        assert sep == pytest.approx(5.0)
        assert theta == pytest.approx(np.arctan2(-4.0, -3.0))

    def test_swap_rule(self):
        lay = mbe.Layout(np.array([[1.0, 2.0], [-4.0, 7.0]]))
        s_pq, t_pq = mbe.pair_geometry(lay, 0, 1)
        s_qp, t_qp = mbe.pair_geometry(lay, 1, 0)
        assert s_pq == s_qp
        assert (t_qp - t_pq) % (2 * np.pi) == pytest.approx(np.pi)

    def test_same_index_rejected(self):
        lay = mbe.Layout(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(IndexError):
            mbe.pair_geometry(lay, 1, 1)


class TestComposeFarm:
    def test_single_device_reduces_to_isolated(self):
        lay = mbe.Layout(np.array([[0.0, 0.0]]))
        farm = mbe.compose_farm(PROVIDER, GEOM, lay, GRID, ENV)
        single = hydro.single_coefficients(GEOM, GRID, ENV)
        assert np.array_equal(farm.added_mass[:, 0, 0], single.added_mass)
        assert np.array_equal(farm.damping[:, 0, 0], single.damping)
        assert np.array_equal(farm.excitation[:, 0], single.excitation)

    def test_two_devices_equal_pair_query_bitwise(self):
        lay = mbe.Layout(np.array([[0.0, 0.0], [24.0, 18.0]]))
        sep, theta = mbe.pair_geometry(lay, 0, 1)
        farm = mbe.compose_farm(PROVIDER, GEOM, lay, GRID, ENV)
        pair = hydro.pair_coefficients(GEOM, sep, theta, GRID, ENV)
        assert np.array_equal(farm.added_mass, pair.added_mass)
        assert np.array_equal(farm.damping, pair.damping)
        assert np.array_equal(farm.excitation, pair.excitation)

    def test_three_devices_match_term_summation(self):
        # equilateral triangle, side 30; brute-force sum of the
        # second-order terms assembled outside compose_farm
        side = 30.0
        pos = np.array(
            [[0.0, 0.0], [side, 0.0], [side / 2, side * np.sqrt(3) / 2]]
        )
        lay = mbe.Layout(pos)
        farm = mbe.compose_farm(PROVIDER, GEOM, lay, GRID, ENV)

        single = hydro.single_coefficients(GEOM, GRID, ENV)
        k = hydro.solve_dispersion(GRID.values, ENV)
        n = GRID.n
        added = np.zeros((n, 3, 3))
        damping = np.zeros((n, 3, 3))
        excitation = np.zeros((n, 3), dtype=np.complex128)
        for p in range(3):
            phase = np.exp(-1j * k * pos[p, 0])
            added[:, p, p] = single.added_mass
            damping[:, p, p] = single.damping
            excitation[:, p] = single.excitation * phase
            for q in range(3):
                if q == p:
                    continue
                dx, dy = pos[q] - pos[p]
                pc = hydro.pair_coefficients(
                    GEOM, np.hypot(dx, dy), np.arctan2(dy, dx), GRID, ENV
                )
                added[:, p, p] += pc.added_mass[:, 0, 0] - single.added_mass
                damping[:, p, p] += pc.damping[:, 0, 0] - single.damping
                excitation[:, p] += (pc.excitation[:, 0] - single.excitation) * phase
                if q > p:
                    added[:, p, q] = added[:, q, p] = pc.added_mass[:, 0, 1]
                    damping[:, p, q] = damping[:, q, p] = pc.damping[:, 0, 1]

        scale_a = np.abs(added).max()
        scale_f = np.abs(excitation).max()
        np.testing.assert_allclose(farm.added_mass, added, rtol=0, atol=1e-12 * scale_a)
        np.testing.assert_allclose(
            farm.damping, damping, rtol=0, atol=1e-12 * np.abs(damping).max()
        )
        np.testing.assert_allclose(
            farm.excitation, excitation, rtol=0, atol=1e-12 * scale_f
        )

    def test_matrices_symmetric(self):
        rng = np.random.default_rng(0)
        pos = np.vstack([[0.0, 0.0], rng.uniform(20, 150, size=(4, 2))])
        farm = mbe.compose_farm(PROVIDER, GEOM, mbe.Layout(pos), GRID, ENV)
        np.testing.assert_allclose(
            farm.added_mass, np.swapaxes(farm.added_mass, 1, 2), atol=1e-12
        )
        np.testing.assert_allclose(
            farm.damping, np.swapaxes(farm.damping, 1, 2), atol=1e-12
        )

    def test_translation_multiplies_excitation_by_common_phase(self):
        rng = np.random.default_rng(4)
        pos = np.vstack([[0.0, 0.0], rng.uniform(15, 120, size=(3, 2))])
        lay = mbe.Layout(pos)
        dx, dy = 37.5, -12.0
        farm0 = mbe.compose_farm(PROVIDER, GEOM, lay, GRID, ENV)
        farm1 = mbe.compose_farm(PROVIDER, GEOM, mbe.Layout(pos + [dx, dy]), GRID, ENV)
        # translated coordinates reconstruct (l, theta) with ~1e-12 m of
        # rounding, so coefficient entries can move by ~1e-11 of the
        # matrix scale; the power pipeline stays at 1e-12
        np.testing.assert_allclose(
            farm1.added_mass,
            farm0.added_mass,
            rtol=0,
            atol=1e-11 * np.abs(farm0.added_mass).max(),
        )
        np.testing.assert_allclose(
            farm1.damping,
            farm0.damping,
            rtol=0,
            atol=1e-11 * np.abs(farm0.damping).max(),
        )
        k = hydro.solve_dispersion(GRID.values, ENV)
        shift = np.exp(-1j * k * dx)
        np.testing.assert_allclose(
            farm1.excitation,
            farm0.excitation * shift[:, None],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            np.abs(farm1.excitation), np.abs(farm0.excitation), rtol=1e-12
        )

    def test_mirror_invariance(self):
        rng = np.random.default_rng(8)
        pos = np.vstack([[0.0, 0.0], rng.uniform(-100, 100, size=(4, 2))])
        lay = mbe.Layout(pos)
        farm0 = mbe.compose_farm(PROVIDER, GEOM, lay, GRID, ENV)
        farm1 = mbe.compose_farm(PROVIDER, GEOM, mbe.Layout(pos * [1.0, -1.0]), GRID, ENV)
        np.testing.assert_allclose(farm1.added_mass, farm0.added_mass, rtol=1e-12)
        np.testing.assert_allclose(farm1.damping, farm0.damping, rtol=1e-12)
        np.testing.assert_allclose(farm1.excitation, farm0.excitation, rtol=1e-12)

    def test_permutation_consistency(self):
        rng = np.random.default_rng(13)
        pos = np.vstack([[0.0, 0.0], rng.uniform(18, 90, size=(3, 2))])
        perm = np.array([2, 0, 3, 1])
        farm0 = mbe.compose_farm(PROVIDER, GEOM, mbe.Layout(pos), GRID, ENV)
        farm1 = mbe.compose_farm(PROVIDER, GEOM, mbe.Layout(pos[perm]), GRID, ENV)
        np.testing.assert_allclose(
            farm1.added_mass, farm0.added_mass[:, perm][:, :, perm], rtol=1e-12
        )
        np.testing.assert_allclose(
            farm1.damping, farm0.damping[:, perm][:, :, perm], rtol=1e-12
        )
        np.testing.assert_allclose(farm1.excitation, farm0.excitation[:, perm], rtol=1e-12)

    def test_far_separation_decouples(self):
        k_min = hydro.solve_dispersion(GRID.values, ENV)[0]
        sep = 520.0 / k_min
        pos = np.array([[0.0, 0.0], [sep, 0.0], [0.0, 2 * sep]])
        farm = mbe.compose_farm(PROVIDER, GEOM, mbe.Layout(pos), GRID, ENV)
        single = hydro.single_coefficients(GEOM, GRID, ENV)
        assert np.abs(farm.damping[:, 0, 1]).max() < 1e-6 * single.damping.min()
        np.testing.assert_allclose(
            farm.added_mass[:, 0, 0], single.added_mass, rtol=1e-6
        )
        np.testing.assert_allclose(farm.damping[:, 1, 1], single.damping, rtol=1e-6)

    def test_pair_cache_dedupes_symmetric_queries(self):
        calls = []

        class CountingProvider(ReferenceProvider):
            def pair(self, geom, separation, heading_angle, grid, env):
                calls.append(np.size(separation))
                return super().pair(geom, separation, heading_angle, grid, env)

        # both off-origin devices sit at the same (l, theta) from device 0
        pos = np.array([[0.0, 0.0], [40.0, 0.0], [80.0, 0.0]])
        mbe.compose_farm(CountingProvider(), GEOM, mbe.Layout(pos), GRID, ENV)
        # one batched call: (l=40, 0) shared by two pairs, plus (l=80, 0)
        assert calls == [2]

    def test_one_provider_query_per_assembly(self):
        class CountingProvider(ReferenceProvider):
            def __init__(self):
                super().__init__()
                self.queries = []

            def single(self, geom, grid, env):
                self.queries.append("single")
                return super().single(geom, grid, env)

            def pair(self, geom, separation, heading_angle, grid, env):
                self.queries.append("pair")
                return super().pair(geom, separation, heading_angle, grid, env)

        # the pair answer carries the isolated body, so N >= 2 sends no single
        for pos, queries in (
            ([[0.0, 0.0]], ["single"]),
            ([[0.0, 0.0], [24.0, 18.0]], ["pair"]),
            ([[0.0, 0.0], [40.0, 0.0], [80.0, 0.0], [10.0, 60.0]], ["pair"]),
        ):
            provider = CountingProvider()
            mbe.compose_farm(provider, GEOM, mbe.Layout(np.array(pos)), GRID, ENV)
            assert provider.queries == queries


def compose_by_scalar_queries(provider, geom, layout, grid, env):
    """compose_farm as a p < q double loop of one-pair queries.

    Pairs with equal (l, theta) at 1e-9 resolution reuse the first
    pair's answer, as the batched assembly's dedupe does.
    """
    pos = layout.positions
    n_wec = layout.n
    single = provider.single(geom, grid, env)
    k = hydro.solve_dispersion(grid.values, env)
    phases = np.exp(-1j * np.outer(k, pos[:, 0]))
    added = np.zeros((grid.n, n_wec, n_wec))
    damping = np.zeros((grid.n, n_wec, n_wec))
    excitation = np.zeros((grid.n, n_wec), dtype=np.complex128)
    base = float(2 - n_wec)
    for p in range(n_wec):
        added[:, p, p] = base * single.added_mass
        damping[:, p, p] = base * single.damping
        excitation[:, p] = base * single.excitation * phases[:, p]
    cache = {}
    for p in range(n_wec):
        for q in range(p + 1, n_wec):
            sep, theta = mbe.pair_geometry(layout, p, q)
            key = (round(sep, 9), round(theta, 9))
            if key not in cache:
                cache[key] = provider.pair(geom, sep, theta, grid, env)
            pc = cache[key]
            added[:, p, p] += pc.added_mass[:, 0, 0]
            added[:, q, q] += pc.added_mass[:, 1, 1]
            damping[:, p, p] += pc.damping[:, 0, 0]
            damping[:, q, q] += pc.damping[:, 1, 1]
            added[:, p, q] = added[:, q, p] = pc.added_mass[:, 0, 1]
            damping[:, p, q] = damping[:, q, p] = pc.damping[:, 0, 1]
            excitation[:, p] += pc.excitation[:, 0] * phases[:, p]
            excitation[:, q] += pc.excitation[:, 1] * phases[:, p]
    return added, damping, excitation


@st.composite
def geometries(draw):
    radius = draw(st.floats(0.5, 10.0))
    slenderness = draw(st.floats(max(0.2, radius / 20.0), min(10.0, radius / 0.5)))
    assume(0.5 <= radius / slenderness <= 20.0)
    return WecGeometry(radius, slenderness)


@st.composite
def feasible_layouts(draw, geom, n_min=2, n_max=6):
    """Device 0 at the origin; either free positions or lattice points.

    Lattice layouts repeat (l, theta) between pairs, which exercises
    the dedupe.
    """
    others = draw(st.integers(n_min, n_max)) - 1
    if draw(st.booleans()):
        spacing = 2.0 * geom.radius + draw(st.floats(0.5, 40.0))
        cell = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda c: c != (0, 0))
        points = draw(st.lists(cell, min_size=others, max_size=others, unique=True))
        pos = spacing * np.array([(0, 0)] + points, dtype=np.float64)
    else:
        coord = st.floats(-300.0, 300.0)
        points = draw(st.lists(st.tuples(coord, coord), min_size=others, max_size=others))
        pos = np.array([(0.0, 0.0)] + points)
    assume(len({tuple(p) for p in pos}) == pos.shape[0])
    layout = mbe.Layout(pos)
    assume(mbe.pair_table(layout)[2].min() > 2.0 * geom.radius)
    return layout


# fixed examples, no example database, and no explain phase (it re-runs
# failing examples many times)
PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
)


class TestComposeFarmProperties:
    @PROPERTY
    @given(st.data())
    def test_batched_assembly_equals_scalar_queries_bitwise(self, data):
        geom = data.draw(geometries())
        layout = data.draw(feasible_layouts(geom))
        farm = mbe.compose_farm(PROVIDER, geom, layout, GRID, ENV)
        added, damping, excitation = compose_by_scalar_queries(
            ReferenceProvider(), geom, layout, GRID, ENV
        )
        assert np.array_equal(farm.added_mass, added)
        assert np.array_equal(farm.damping, damping)
        assert np.array_equal(farm.excitation, excitation)

    @PROPERTY
    @given(st.data())
    def test_two_devices_equal_pair_query(self, data):
        geom = data.draw(geometries())
        layout = data.draw(feasible_layouts(geom, n_max=2))
        sep, theta = mbe.pair_geometry(layout, 0, 1)
        farm = mbe.compose_farm(PROVIDER, geom, layout, GRID, ENV)
        pair = hydro.pair_coefficients(geom, sep, theta, GRID, ENV)
        assert np.array_equal(farm.added_mass, pair.added_mass)
        assert np.array_equal(farm.damping, pair.damping)
        assert np.array_equal(farm.excitation, pair.excitation)


# a grid and an environment that differ from GRID and ENV only in values
OTHER_GRID = FrequencyGrid(np.linspace(0.35, 2.0, 60))
OTHER_ENV = Environment(water_depth=30.0)


def answers_bytes(provider, geom, layout, grid, env):
    """Every array a provider gives for one layout, as bytes: the farm
    assembly and the undeduplicated pair query of the whole pair table."""
    farm = mbe.compose_farm(provider, geom, layout, grid, env)
    _, _, sep, theta = mbe.pair_table(layout)
    pair = provider.pair(geom, sep, theta, grid, env)
    arrays = (farm.added_mass, farm.damping, farm.excitation,
              pair.added_mass, pair.damping, pair.excitation,
              pair.isolated.added_mass, pair.isolated.damping, pair.isolated.excitation)
    return [a.tobytes() for a in arrays]


def feasible(geom, layout):
    return mbe.pair_table(layout)[2].min() > 2.0 * geom.radius


class TestReferenceProviderMemo:
    @PROPERTY
    @given(st.data())
    def test_walk_equals_fresh_provider_bitwise(self, data):
        # one provider through one-device moves, geometry, grid and
        # environment changes and repeated queries answers as a provider
        # that remembers nothing
        geom = data.draw(geometries())
        layout = data.draw(feasible_layouts(geom, n_min=2, n_max=6))
        grid, env = GRID, ENV
        walker = ReferenceProvider()
        kinds = ["move", "geometry", "repeat", "grid", "environment"]
        steps = data.draw(st.lists(st.sampled_from(kinds), max_size=6))
        for step in ["repeat"] + steps:
            if step == "move":
                pos = layout.positions.copy()
                d = data.draw(st.integers(1, layout.n - 1))
                pos[d] = data.draw(st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)))
                if len({tuple(p) for p in pos}) == layout.n and feasible(geom, mbe.Layout(pos)):
                    layout = mbe.Layout(pos)
            elif step == "geometry":
                other = data.draw(geometries())
                if feasible(other, layout):
                    geom = other
            elif step == "grid":
                grid = OTHER_GRID if grid is GRID else GRID
            elif step == "environment":
                env = OTHER_ENV if env is ENV else ENV
            assert answers_bytes(walker, geom, layout, grid, env) == answers_bytes(
                ReferenceProvider(), geom, layout, grid, env
            )

    @PROPERTY
    @given(st.data())
    def test_mutating_an_answer_leaves_the_next_unchanged(self, data):
        # answers are read-only: the memo holds the arrays it returns and
        # the frozen isolated record, so a write to either, or rebinding a
        # field of the record, must fail
        geom = data.draw(geometries())
        layout = data.draw(feasible_layouts(geom, n_min=3, n_max=6))
        _, _, sep, theta = mbe.pair_table(layout)
        names = ("added_mass", "damping", "excitation")
        fresh = hydro.single_coefficients(geom, GRID, ENV)

        def try_zero(answer):
            for curve in (*(getattr(answer, name) for name in hydro.PAIR_CURVES),
                          *(getattr(answer.isolated, name) for name in names)):
                with pytest.raises(ValueError, match="read-only"):
                    curve[...] = 0.0
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(answer.isolated, name, np.zeros(GRID.n))

        def assert_equal(got, want):
            for name in hydro.PAIR_CURVES:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            for name in names:
                assert getattr(got.isolated, name).tobytes() == getattr(fresh, name).tobytes()

        provider = ReferenceProvider()
        try_zero(provider.pair(geom, sep, theta, GRID, ENV))
        # new rows, so the next pair query computes through the held body
        got = provider.pair(geom, 1.5 * sep, theta, GRID, ENV)
        assert_equal(got, hydro.pair_coefficients(geom, 1.5 * sep, theta, GRID, ENV))
        provider = ReferenceProvider()
        # a full miss, then a partial hit (one row dropped), then a full hit
        for rows in (slice(None), slice(1, None), slice(1, None)):
            want = hydro.pair_coefficients(geom, sep[rows], theta[rows], GRID, ENV)
            got = provider.pair(geom, sep[rows], theta[rows], GRID, ENV)
            assert_equal(got, want)
            try_zero(got)

    def test_pair_carries_the_single_answer_bitwise(self):
        provider = ReferenceProvider()
        single = provider.single(GEOM, GRID, ENV)
        sep, theta = np.array([20.0, 35.0, 90.0]), np.array([0.3, -1.0, 2.5])
        # scalar, batched (a new query), full memo hit, partial hit (one row
        # new), and a new plant, whose isolated body is computed again
        queries = [(GEOM, sep[0], theta[0]), (GEOM, sep, theta), (GEOM, sep, theta),
                   (GEOM, np.append(sep[1:], 50.0), np.append(theta[1:], 0.0)),
                   (WecGeometry(2.0, 1.0), sep, theta)]
        for geom, l, t in queries:
            want = single if geom is GEOM else provider.single(geom, GRID, ENV)
            got = provider.pair(geom, l, t, GRID, ENV).isolated
            for name in ("added_mass", "damping", "excitation"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_memo_holds_one_query(self):
        provider = ReferenceProvider()
        rng = np.random.default_rng(6)
        for n_wec, rows in ((10, 45), (5, 10)):
            layout = mbe.Layout(np.vstack([[0.0, 0.0], rng.uniform(-300.0, 300.0, (n_wec - 1, 2))]))
            _, _, sep, theta = mbe.pair_table(layout)
            provider.pair(GEOM, sep, theta, GRID, ENV)
            _, isolated, memo_rows, arrays = provider._pairs
            assert len(memo_rows) == rows
            # the five curves of this query, read-only, and nothing else
            assert {name: a.shape for name, a in arrays.items()} == {
                "added_mass_diag": (rows, GRID.n),
                "damping_diag": (rows, GRID.n),
                "added_mass_cross": (rows, GRID.n),
                "damping_cross": (rows, GRID.n),
                "forces": (2, rows, GRID.n),
            }
            assert not any(a.flags.writeable for a in arrays.values())
            assert isolated.added_mass.shape == (GRID.n,)


    def test_memo_never_serves_rows_of_another_curve_set(self, monkeypatch):
        computed = []
        original = hydro.pair_coefficients

        def recording(geom, separation, heading_angle, grid, env, isolated=None,
                      curves=hydro.PAIR_CURVES):
            computed.append((np.size(separation), set(curves)))
            return original(geom, separation, heading_angle, grid, env, isolated, curves)

        monkeypatch.setattr(hydro, "pair_coefficients", recording)
        provider = ReferenceProvider()
        sep, theta = np.array([20.0, 35.0, 90.0]), np.array([0.3, -1.0, 2.5])
        asked = [{"damping_cross"}, {"damping_cross"}, {"added_mass_cross"},
                 set(hydro.PAIR_CURVES), {"forces"}, {"forces", "damping_diag"}]
        for curves in asked:
            got = provider.pair(GEOM, sep, theta, GRID, ENV, curves=curves)
            want = original(GEOM, sep, theta, GRID, ENV, curves=curves)
            for name in hydro.PAIR_CURVES:
                if name in curves:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                else:
                    assert getattr(got, name) is None
        # only the repeat of the same curves is served from the memo; every
        # other query computes all of its rows afresh
        assert computed == [(3, curves) for curves in asked[:1] + asked[2:]]
        # a partial hit reads the memo only under the same curves
        computed.clear()
        provider.pair(GEOM, np.append(sep[1:], 50.0), np.append(theta[1:], 0.0), GRID, ENV,
                      curves={"forces", "damping_diag"})
        provider.pair(GEOM, np.append(sep[1:], 60.0), np.append(theta[1:], 0.0), GRID, ENV,
                      curves={"forces"})
        assert computed == [(1, {"forces", "damping_diag"}), (3, {"forces"})]
        # only the forces read the heading: a query without them reuses the
        # rows held at its separations whatever their headings, and a query
        # with them computes each new heading
        computed.clear()
        turned = theta + 1.0
        for curves in ({"added_mass_diag", "damping_cross"}, {"forces"}):
            provider.pair(GEOM, sep, theta, GRID, ENV, curves=curves)
            got = provider.pair(GEOM, sep[::-1], turned[::-1], GRID, ENV, curves=curves)
            want = original(GEOM, sep[::-1], turned[::-1], GRID, ENV, curves=curves)
            for name in curves:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert computed == [(3, {"added_mass_diag", "damping_cross"}), (3, {"forces"}),
                            (3, {"forces"})]


def test_pair_table_matches_pair_geometry():
    rng = np.random.default_rng(4)
    layout = mbe.Layout(rng.uniform(-100.0, 100.0, (6, 2)))
    p, q, sep, theta = mbe.pair_table(layout)
    assert list(zip(p, q)) == [(a, b) for a in range(6) for b in range(a + 1, 6)]
    for i in range(p.size):
        assert (sep[i], theta[i]) == mbe.pair_geometry(layout, p[i], q[i])
    empty = mbe.pair_table(mbe.Layout(np.zeros((1, 2))))
    assert all(a.size == 0 for a in empty)
    # the layout keeps that table, over a read-only copy of its positions
    source = rng.uniform(-100.0, 100.0, (6, 2))
    layout = mbe.Layout(source)
    for kept, fresh in zip(layout.pairs, mbe.pair_table(layout), strict=True):
        assert kept.dtype == fresh.dtype and kept.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError):
        layout.positions[0, 0] = 1.0
    source[0, 0] += 1.0
    assert layout.positions[0, 0] != source[0, 0]
