"""A design is built and checked once, cheaply, and exactly as before.

`optimize.decode` and the constructors it runs (`WecGeometry`,
`PtoSettings`, `mbe.Layout` with its `pair_table`, `DesignPoint`) test
each condition once, on Python floats where a value is one number. The
frozen copies below are the numpy forms they replaced. Each returns the
values the constructors keep, or raises; the properties check that the
new path builds byte-identical designs and pair tables and raises the
same exception types with the same messages, on NaN and infinite genes,
PTO values outside the box, non-uniform farm PTO, coincident devices and
devices parked on box corners.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from wecfarm import hydro, mbe, optimize
from wecfarm.dynamics import PTO_DAMPING_BOUNDS, PTO_STIFFNESS_BOUNDS, PtoSettings
from wecfarm.hydro import DRAFT_BOUNDS, RADIUS_BOUNDS, SLENDERNESS_BOUNDS, WecGeometry


def frozen_first_outside(name, values, bounds, fmt=""):
    inside = (bounds[0] <= values) & (values <= bounds[1])
    if not np.asarray(inside).all():
        first = np.ravel(values)[np.argmin(inside)]
        raise hydro.GeometryError(f"{name} {first:{fmt}} outside {hydro._box_text(bounds)}")


def frozen_geometry(radius, slenderness):
    frozen_first_outside("radius", radius, RADIUS_BOUNDS)
    frozen_first_outside("slenderness", slenderness, SLENDERNESS_BOUNDS)
    frozen_first_outside("draft", radius / slenderness, DRAFT_BOUNDS, ".3f")
    return radius, slenderness


def frozen_pto(stiffness, damping, mode="farm-uniform"):
    stiffness = np.atleast_1d(np.asarray(stiffness, dtype=np.float64))
    damping = np.atleast_1d(np.asarray(damping, dtype=np.float64))
    if mode not in ("farm-uniform", "per-device"):
        raise ValueError(f"unknown pto mode {mode!r}")
    lo, hi = PTO_STIFFNESS_BOUNDS
    if not np.all((lo <= stiffness) & (stiffness <= hi)):
        raise ValueError("pto stiffness outside its design bounds")
    lo, hi = PTO_DAMPING_BOUNDS
    if not np.all((lo <= damping) & (damping <= hi)):
        raise ValueError("pto damping outside its design bounds")
    if mode == "farm-uniform":
        if np.unique(stiffness).size > 1 or np.unique(damping).size > 1:
            raise ValueError("farm-uniform pto requires identical entries")
    return stiffness, damping, mode


def frozen_arrays_for(stiffness, damping, n_devices):
    k, b = stiffness, damping
    if k.size == 1:
        k = np.full(n_devices, k[0])
    if b.size == 1:
        b = np.full(n_devices, b[0])
    if k.size != n_devices or b.size != n_devices:
        raise ValueError("pto dimensions do not match the device count")
    return k, b


def frozen_pair_table(pos):
    p, q = np.triu_indices(pos.shape[0], 1)
    d = pos[q] - pos[p]
    return p, q, np.hypot(d[:, 0], d[:, 1]), np.arctan2(d[:, 1], d[:, 0])


def frozen_layout(positions):
    pos = np.array(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
        raise ValueError("positions must be an (N, 2) array")
    pairs = frozen_pair_table(pos)
    p, q, separation, _ = pairs
    hit = np.flatnonzero(separation == 0.0)
    if hit.size:
        raise ValueError(f"devices {p[hit[0]]} and {q[hit[0]]} coincide")
    return pos, pairs


def frozen_design_checks(pto, pos):
    if not np.array_equal(pos[0], [0.0, 0.0]):
        raise ValueError("first device must sit at the origin")
    half = optimize.farm_half_width(pos.shape[0])
    if not np.all((pos[:, 0] >= 0.0) & (pos[:, 0] <= half)):
        raise ValueError(f"x positions must lie in [0, {half:.3f}]")
    if not np.all(np.abs(pos[:, 1]) <= half):
        raise ValueError(f"y positions must lie in [-{half:.3f}, {half:.3f}]")
    frozen_arrays_for(pto[0], pto[1], pos.shape[0])


def frozen_decode(study, genes, n_devices, fixed_control=None):
    """decode with np.clip, np.vstack and the nudge loop run for every device."""
    genes = np.asarray(genes, dtype=np.float64)
    if genes.shape != (optimize.gene_count(study, n_devices),):
        raise ValueError(
            f"study {study} at N={n_devices} needs {optimize.gene_count(study, n_devices)} genes"
        )
    radius = float(genes[0])
    lo, hi = hydro.slenderness_interval(radius)
    geom = frozen_geometry(radius, float(np.clip(genes[1], lo, hi)))
    n_ctrl = optimize._control_pairs(study, n_devices)
    if n_ctrl:
        block = genes[2 : 2 + 2 * n_ctrl].reshape(n_ctrl, 2)
    else:
        block = np.reshape(fixed_control, (1, 2))
    mode = "per-device" if study == "III" else "farm-uniform"
    pto = frozen_pto(block[:, 0].copy(), block[:, 1].copy(), mode=mode)
    rest = genes[2 + 2 * n_ctrl :]
    pos = np.vstack([[0.0, 0.0], rest.reshape(n_devices - 1, 2)])
    for d in range(1, n_devices):
        x = pos[d, 0]
        tries = 0
        while tries <= 2 * d and np.any(np.all(pos[:d] == pos[d], axis=1)):
            tries += 1
            pos[d, 0] = abs(x - tries * (1e-6 * d))
    pos, pairs = frozen_layout(pos)
    frozen_design_checks(pto, pos)
    return geom, pto, pos, pairs


def outcome(build):
    """What a build returns, or the type and message of what it raises."""
    try:
        # infinite coordinates subtract to NaN in the pair table, in both forms
        with np.errstate(invalid="ignore"):
            return "ok", build()
    except Exception as exc:  # noqa: BLE001 - every exception is compared
        return "raised", (type(exc), str(exc))


def assert_same_bytes(got, want):
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def assert_same_pairs(got, want):
    for g, w in zip(got, want, strict=True):
        assert_same_bytes(g, w)


PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
)

SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-6]


def gene_values(lo, hi, corners=()):
    """Values in the box, on its edges and corners, outside it, and NaN."""
    width = hi - lo
    return st.one_of(
        st.floats(lo, hi),
        st.sampled_from([lo, hi, *corners]),
        st.floats(lo - width, hi + width),
        st.sampled_from(SPECIAL),
    )


@st.composite
def genomes(draw):
    study = draw(st.sampled_from(optimize.STUDIES))
    n = draw(st.integers(1, 10))
    bounds = optimize.gene_bounds(study, n)
    n_plant_control = 2 + 2 * optimize._control_pairs(study, n)
    # multiples of the nudge step put devices where earlier nudges land
    tiny = [1e-6 * j for j in range(1, n)]
    genes = [draw(gene_values(lo, hi)) for lo, hi in bounds[:n_plant_control]]
    for lo, hi in bounds[n_plant_control:]:
        genes.append(draw(gene_values(lo, hi, corners=[0.0, *tiny])))
    # copies of an earlier device make coincident layouts
    free = np.reshape(genes[n_plant_control:], (n - 1, 2))
    for d in range(1, n - 1):
        if draw(st.integers(0, 3)) == 0:
            free[d] = free[draw(st.integers(0, d - 1))]
    genes = np.array(genes[:n_plant_control] + free.ravel().tolist())
    if draw(st.integers(0, 19)) == 0:
        genes = genes[: draw(st.integers(0, genes.size - 1))]
    fixed = None
    if study == "I":
        fixed = (draw(gene_values(*PTO_STIFFNESS_BOUNDS)), draw(gene_values(*PTO_DAMPING_BOUNDS)))
    return study, genes, n, fixed


@settings(PROPERTY, max_examples=300)
@given(genomes())
def test_decode_equals_the_frozen_checks_bytewise(genome):
    study, genes, n, fixed = genome
    got = outcome(lambda: optimize.decode(study, genes.copy(), n, fixed_control=fixed))
    want = outcome(lambda: frozen_decode(study, genes.copy(), n, fixed_control=fixed))
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] == want[1]
        return
    design = got[1]
    (radius, slenderness), (stiffness, damping, mode), pos, pairs = want[1]
    assert type(design.geometry.radius) is float
    assert type(design.geometry.slenderness) is float
    assert_same_bytes(design.geometry.radius, radius)
    assert_same_bytes(design.geometry.slenderness, slenderness)
    assert_same_bytes(design.pto.stiffness, stiffness)
    assert_same_bytes(design.pto.damping, damping)
    assert design.pto.mode == mode
    assert_same_bytes(design.layout.positions, pos)
    assert_same_pairs(design.layout.pairs, pairs)


def pto_arrays():
    values = st.one_of(
        st.floats(-6e5, 6e5),
        st.sampled_from([-5e5, 5e5, 0.0, -0.0, np.nan, np.inf, -np.inf]),
    )
    shapes = st.sampled_from([(), (0,), (1,), (2,), (3,), (5,), (1, 1), (2, 2)])
    return shapes.flatmap(
        lambda shape: st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
        .map(lambda v: np.array(v, dtype=np.float64).reshape(shape))
    )


@PROPERTY
@given(st.data())
def test_pto_settings_equal_the_frozen_checks(data):
    stiffness = data.draw(pto_arrays())
    damping = data.draw(pto_arrays())
    if data.draw(st.booleans()):
        # farm-uniform values, equal or not, and signed zeros
        value = data.draw(st.sampled_from([0.0, -0.0, 1e4, 2e5]))
        other = data.draw(st.sampled_from([0.0, -0.0, value, np.nextafter(value, 1.0)]))
        damping = np.array([value, other, value])
    mode = data.draw(st.sampled_from(["farm-uniform", "per-device", "uniform"]))
    n = data.draw(st.integers(1, 6))
    got = outcome(lambda: PtoSettings(stiffness.copy(), damping.copy(), mode=mode))
    want = outcome(lambda: frozen_pto(stiffness.copy(), damping.copy(), mode=mode))
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] == want[1]
        return
    pto, (k, b, _) = got[1], want[1]
    assert_same_bytes(pto.stiffness, k)
    assert_same_bytes(pto.damping, b)
    got = outcome(lambda: pto.arrays_for(n))
    want = outcome(lambda: frozen_arrays_for(k, b, n))
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1] == want[1]
    else:
        for g, w in zip(got[1], want[1]):
            assert_same_bytes(g, w)


@PROPERTY
@given(st.data())
def test_layouts_and_design_points_equal_the_frozen_checks(data):
    n = data.draw(st.integers(1, 10))
    half = optimize.farm_half_width(n)
    coordinate = st.one_of(
        st.floats(-1.5 * half, 1.5 * half),
        st.sampled_from([0.0, -0.0, half, -half, np.nextafter(half, np.inf), np.nan, np.inf]),
    )
    pos = np.array([[data.draw(coordinate), data.draw(coordinate)] for _ in range(n)])
    if data.draw(st.booleans()):
        pos[0] = data.draw(st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)]))
    if n > 1 and data.draw(st.integers(0, 3)) == 0:
        pos[data.draw(st.integers(1, n - 1))] = pos[data.draw(st.integers(0, n - 1))]
    sizes = st.sampled_from([1, n, n + 1, 2])
    stiffness = np.full(data.draw(sizes), 1e4)
    damping = np.full(data.draw(sizes), 2e5)
    pto = PtoSettings(stiffness, damping, mode="per-device")
    geom = WecGeometry(2.0, 1.0)

    got = outcome(lambda: mbe.Layout(pos.copy()))
    want = outcome(lambda: frozen_layout(pos.copy()))
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] == want[1]
        return
    layout, (frozen_pos, frozen_pairs) = got[1], want[1]
    assert_same_bytes(layout.positions, frozen_pos)
    assert_same_pairs(layout.pairs, frozen_pairs)
    with np.errstate(invalid="ignore"):
        assert_same_pairs(mbe.pair_table(layout), frozen_pairs)

    got = outcome(lambda: optimize.DesignPoint(geom, pto, layout))
    want = outcome(lambda: frozen_design_checks((stiffness, damping), frozen_pos))
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] == want[1]


@PROPERTY
@given(st.data())
def test_geometries_equal_the_frozen_checks(data):
    radius = data.draw(gene_values(*RADIUS_BOUNDS))
    slenderness = data.draw(gene_values(*SLENDERNESS_BOUNDS))
    if data.draw(st.booleans()):
        # numpy scalars take the array path
        radius, slenderness = np.float64(radius), np.float64(slenderness)
    got = outcome(lambda: WecGeometry(radius, slenderness))
    want = outcome(lambda: frozen_geometry(radius, slenderness))
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] == want[1]
