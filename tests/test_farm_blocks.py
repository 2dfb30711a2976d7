"""Farm blocks built once: the assembly and the motion solve equal their
block-summed forms byte for byte, and allocate no block twice.

`compose_farm` adds each device's pair terms one (N, n_w) slot at a time
and `solve_motion` writes the impedance in place into one complex block.
The frozen copies below are the forms they replaced: the assembly built
(N, N - 1, n_w) blocks of the diagonal terms, the forces and their phases
and summed them slot by slot, and the motion solve added real and complex
(n_w, N, N) temporaries onto a zero diagonal block.
"""

import tracemalloc

import numpy as np
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from wecfarm import climate, dynamics, hydro, kernels, mbe, optimize
from wecfarm.dynamics import PTO_DAMPING_BOUNDS, PTO_STIFFNESS_BOUNDS, PtoSettings
from wecfarm.hydro import Environment, FrequencyGrid, ReferenceProvider, WecGeometry

ENV = Environment()
GRID = FrequencyGrid.default()


def frozen_compose_farm(provider, geom, layout, grid, env):
    """compose_farm with (N, N - 1, n_w) term blocks and complex-exp phases."""
    pos = layout.positions
    n_wec = layout.n
    if n_wec > 1:
        ip, iq, separation, heading = layout.pairs
        rank, first, row = {}, [], []
        rounded = np.round(np.column_stack([separation, heading]), 9).tolist()
        for i, key in enumerate(map(tuple, rounded)):
            if key not in rank:
                rank[key] = len(first)
                first.append(i)
            row.append(rank[key])
        row = np.array(row)
        pc = provider.pair(geom, separation[first], heading[first], grid, env)
        single = pc.isolated
    else:
        single = provider.single(geom, grid, env)
    k = hydro.solve_dispersion(grid.values, env)
    phases = np.exp(-1j * np.outer(k, pos[:, 0]))

    base = float(2 - n_wec)
    added_diag = np.tile(base * single.added_mass, (n_wec, 1))
    damping_diag = np.tile(base * single.damping, (n_wec, 1))
    excitation = (base * single.excitation) * phases.T
    added = np.zeros((grid.n, n_wec, n_wec))
    damping = np.zeros((grid.n, n_wec, n_wec))
    if n_wec > 1:
        added[:, ip, iq] = added[:, iq, ip] = pc.added_mass_cross.take(row, axis=0).T
        damping[:, ip, iq] = damping[:, iq, ip] = pc.damping_cross.take(row, axis=0).T
        pair_index = np.full((n_wec, n_wec), -1)
        pair_index[ip, iq] = pair_index[iq, ip] = np.arange(ip.size)
        pair_index = pair_index[~np.eye(n_wec, dtype=bool)].reshape(n_wec, n_wec - 1)
        side = (np.arange(n_wec)[:, None] == iq[pair_index]).astype(int)
        query_row = row[pair_index]
        added_terms = pc.added_mass_diag.take(query_row, axis=0)
        damping_terms = pc.damping_diag.take(query_row, axis=0)
        excitation_terms = pc.forces.reshape(-1, grid.n).take(
            side * len(first) + query_row, axis=0
        )
        excitation_terms *= phases.T[ip[pair_index]]
        for s in range(n_wec - 1):
            added_diag += added_terms[:, s]
            damping_diag += damping_terms[:, s]
            excitation += excitation_terms[:, s]

    diag = np.arange(n_wec)
    added[:, diag, diag] = added_diag.T
    damping[:, diag, diag] = damping_diag.T
    return added, damping, np.ascontiguousarray(excitation.T)


def frozen_motion(added_mass, damping, excitation, geom, pto, env, om):
    """solve_motion's impedance on a zero diagonal block, then the batched solve."""
    n_wec = excitation.shape[1]
    k_pto, b_pto = pto.arrays_for(n_wec)
    m = dynamics.body_mass(geom, env)
    g_hs = dynamics.hydrostatic_coefficient(geom, env)
    diag = np.zeros((om.size, n_wec, n_wec))
    idx = np.arange(n_wec)
    diag[:, idx, idx] = g_hs + k_pto[None, :] - om[:, None] ** 2 * m
    lhs = (
        diag
        - om[:, None, None] ** 2 * added_mass
        + 1j * om[:, None, None] * damping
    )
    lhs[:, idx, idx] += 1j * om[:, None] * b_pto[None, :]
    return kernels.solve_batch(lhs, excitation)


@st.composite
def plants(draw):
    radius = draw(st.floats(0.5, 10.0))
    slenderness = draw(st.floats(max(0.2, radius / 20.0), min(10.0, radius / 0.5)))
    assume(0.5 <= radius / slenderness <= 20.0)
    return WecGeometry(radius, slenderness)


@st.composite
def layouts(draw, geom):
    """N in {1, 2, 3, 5, 10}: free positions, or a lattice whose copies of
    one (l, theta) differ in their last bits and agree after rounding."""
    n = draw(st.sampled_from([1, 2, 3, 5, 10]))
    if draw(st.booleans()):
        spacing = 2.0 * geom.radius + draw(st.floats(0.5, 40.0))
        cell = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
        cells = np.array(draw(st.lists(cell, min_size=n, max_size=n, unique=True)), float)
        origin = np.array(draw(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))))
        jitter = np.array(draw(st.lists(st.floats(-1e-10, 1e-10), min_size=2 * n,
                                        max_size=2 * n))).reshape(n, 2)
        pos = origin + spacing * cells + jitter
    else:
        coord = st.floats(-300.0, 300.0)
        pos = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    assume(len({tuple(p) for p in pos}) == n)
    layout = mbe.Layout(pos)
    assume(n == 1 or mbe.pair_table(layout)[2].min() > 2.0 * geom.radius)
    return layout


PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
)


@PROPERTY
@given(st.data())
def test_assembly_and_motion_equal_the_block_sums_bytewise(data):
    geom = data.draw(plants())
    layout = data.draw(layouts(geom))
    pto = PtoSettings(data.draw(st.floats(*PTO_STIFFNESS_BOUNDS)),
                      data.draw(st.floats(*PTO_DAMPING_BOUNDS)))
    farm = mbe.compose_farm(ReferenceProvider(), geom, layout, GRID, ENV)
    added, damping, excitation = frozen_compose_farm(ReferenceProvider(), geom, layout, GRID, ENV)
    assert farm.added_mass.tobytes() == added.tobytes()
    assert farm.damping.tobytes() == damping.tobytes()
    assert farm.excitation.tobytes() == excitation.tobytes()
    try:
        motion = dynamics.solve_motion(farm, geom, pto, ENV)
    except hydro.NumericalError:
        assume(False)
    want = frozen_motion(added, damping, excitation, geom, pto, ENV, GRID.values)
    assert motion.tobytes() == want.tobytes()


def test_phasor_equals_the_complex_exp_bytewise():
    rng = np.random.default_rng(11)
    k = hydro.solve_dispersion(GRID.values, ENV)
    angles = [
        np.multiply.outer(np.concatenate([[0.0], rng.uniform(-300.0, 300.0, 9)]), k),
        rng.uniform(5.0, 3000.0, (90, 200)) + 0.25 * np.pi,
        rng.uniform(-1e3, 1e3, 7),
        np.array([0.0, 1e-300, -1e-300, np.pi, -np.pi, 1e6]),
    ]
    for angle in angles:
        assert hydro.phasor(angle).tobytes() == np.exp(1j * angle).tobytes()
        assert hydro.phasor(angle, -1.0).tobytes() == np.exp(-1j * angle).tobytes()
    # the one documented difference: the sign of the zero sine at -0.0
    assert hydro.phasor(np.array([-0.0]), -1.0).tobytes() == np.exp(-1j * -0.0).tobytes()
    assert np.signbit(hydro.phasor(np.array([-0.0])).imag) != np.signbit(np.exp(1j * -0.0).imag)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_memo_serves_reordered_rows_bitwise(data):
    # held rows reach the answer as runs of slices: rows kept in order,
    # reversed, shuffled, dropped and mixed with new ones
    geom = WecGeometry(2.0, 1.0)
    rows = data.draw(st.integers(1, 12))
    sep = 10.0 + np.arange(rows) * 7.5
    theta = np.linspace(-3.0, 3.0, rows)
    provider = ReferenceProvider()
    provider.pair(geom, sep, theta, GRID, ENV)
    order = data.draw(st.permutations(range(rows)))
    kept = order[: data.draw(st.integers(0, rows))]
    new = data.draw(st.integers(0, 3))
    l = np.concatenate([sep[kept], 200.0 + np.arange(new)])
    t = np.concatenate([theta[kept], np.zeros(new)])
    assume(l.size)
    got = provider.pair(geom, l, t, GRID, ENV)
    want = hydro.pair_coefficients(geom, l, t, GRID, ENV)
    for name in hydro.PAIR_CURVES:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_an_evaluation_builds_each_farm_block_once():
    # one warm N=10, 200-frequency reference evaluation, one device move
    # after the one before, as a sensitivity map runs it. These forms read
    # 1.36 MB for the evaluation, 0.93 MB for the assembly and 0.42 MB for
    # the motion solve; the block-summed forms read 1.89, 1.30 and 0.90 MB,
    # and one (N, N - 1, n_w) real block more is 0.14 MB. numpy reports its
    # buffers to tracemalloc, the LAPACK work arrays excepted
    rng = np.random.default_rng(3)
    pos = np.vstack([[0.0, 0.0], rng.uniform((0.0, -200.0), (200.0, 200.0), (9, 2))])
    site = climate.SiteClimate(
        "toy", climate.SeaStateGrid.build(3, (1.0, 4.0), (5.0, 11.0)), np.full((3, 3), 1 / 9), 1
    )
    geom = WecGeometry(2.0, 1.0)
    pto = PtoSettings(1e4, 2e5)
    provider = ReferenceProvider()

    def design():
        return optimize.DesignPoint(geom, pto, mbe.Layout(pos), "toy")

    optimize.evaluate_design(design(), GRID, ENV, provider, site)
    pos[4] += (7.0, 3.0)
    tracemalloc.start()
    try:
        optimize.evaluate_design(design(), GRID, ENV, provider, site)
        evaluation = tracemalloc.get_traced_memory()[1]
        pos[4] += (7.0, 3.0)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        farm = mbe.compose_farm(provider, geom, mbe.Layout(pos), GRID, ENV)
        assembly = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        dynamics.solve_motion(farm, geom, pto, ENV)
        motion = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert evaluation < 1.45e6
    assert assembly < 1.05e6
    assert motion < 0.5e6
