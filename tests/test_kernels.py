import importlib.util
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from wecfarm import _bessel_coeffs, hydro, kernels, nn

mp.mp.dps = 30

ROOT = Path(__file__).resolve().parents[1]


def _ulp_walk(x, steps):
    # x and its `steps` float neighbours on either side
    down = [x]
    up = [x]
    for _ in range(steps):
        down.append(np.nextafter(down[-1], 0.0))
        up.append(np.nextafter(up[-1], np.inf))
    return np.array(down[::-1] + up[1:])


# first zeros of J0, J1 and Y0
BESSEL_ZEROS = (
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    3.8317059702075125, 7.015586669815619, 10.173468135062722,
    0.8935769662791675, 3.957678419314858, 7.086051060301773, 10.222345043496418,
)

XS = np.concatenate(
    [
        np.linspace(0.01, 11.99, 160),
        np.linspace(11.5, 12.5, 40),  # straddle the polynomial/Hankel switch
        np.geomspace(12.5, 500.0, 120),
        BESSEL_ZEROS,
    ]
    # every interval edge of the fit, 12 included, and its neighbours
    + [_ulp_walk(edge, 3) for edge in (4.0, 8.0, 12.0)]
)

# The fit reaches 3.3e-16 on XS. A sweep of 15k points over [0.01, 500]
# finds at most 8.9e-16, for Y0 near 0.01 where (2/pi) ln(x/2) is
# large; the bound leaves a factor of two over that for a libm whose
# log, sin or cos rounds differently.
FIT_ERROR_BOUND = 2e-15


@pytest.mark.parametrize(
    "fn, order, mp_fn",
    [
        (kernels.j0, 0, mp.besselj),
        (kernels.j1, 1, mp.besselj),
        (kernels.y0, 0, mp.bessely),
    ],
    ids=["j0", "j1", "y0"],
)
def test_bessel_against_high_precision(fn, order, mp_fn):
    vals = fn(XS)
    for x, v in zip(XS, vals):
        assert abs(v - float(mp_fn(order, x))) < FIT_ERROR_BOUND


# The power-series and asymptotic-expansion kernel that the fitted
# polynomials replaced, frozen here. Its own error against mpmath is up
# to about 2e-12, so the fit must stay within 3e-12 of it everywhere,
# from tiny x through the switch at 12 to 500.


def _frozen_series_sums(x):
    q = -0.25 * x * x
    t0 = np.ones_like(x)
    s0 = np.ones_like(x)
    t1 = 0.5 * x
    s1 = t1.copy()
    ty = np.ones_like(x)
    sy = np.zeros_like(x)
    h = 0.0
    sign = 1.0
    for k in range(1, 60):
        t0 = t0 * (q / (k * k))
        s0 += t0
        t1 = t1 * (q / (k * (k + 1)))
        s1 += t1
        ty = ty * (-q / (k * k))
        h += 1.0 / k
        sy += sign * ty * h
        sign = -sign
    return s0, s1, sy


def _frozen_pq_large(x, mu):
    p = np.ones_like(x)
    q = np.zeros_like(x)
    a = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    live = np.ones(x.shape, dtype=bool)
    eightx = 8.0 * x
    for m in range(1, 40):
        a = a * ((mu - (2.0 * m - 1.0) ** 2) / (m * eightx))
        t = np.abs(a)
        live &= t < prev
        if not live.any():
            break
        contrib = np.where(live, a, 0.0)
        sgn = 1.0 if (m // 2) % 2 == 0 else -1.0
        if m % 2 == 1:
            q += sgn * contrib
        else:
            p += sgn * contrib
        prev = t
    return p, q


def _frozen_bessel(x, which):
    out = np.empty_like(x)
    small = x < 12.0
    xs = x[small]
    s0, s1, sy = _frozen_series_sums(xs)
    if which == 0:
        out[small] = s0
    elif which == 1:
        out[small] = s1
    else:
        out[small] = (2.0 / np.pi) * ((np.log(0.5 * xs) + 0.5772156649015328606) * s0 + sy)
    xb = x[~small]
    amp = np.sqrt(2.0 / (np.pi * xb))
    if which == 1:
        p, q = _frozen_pq_large(xb, 4.0)
        chi = xb - 0.75 * np.pi
        out[~small] = amp * (p * np.cos(chi) - q * np.sin(chi))
    else:
        p, q = _frozen_pq_large(xb, 0.0)
        chi = xb - 0.25 * np.pi
        if which == 0:
            out[~small] = amp * (p * np.cos(chi) - q * np.sin(chi))
        else:
            out[~small] = amp * (p * np.sin(chi) + q * np.cos(chi))
    return out


DENSE_XS = np.concatenate(
    [
        np.geomspace(1e-300, 1e-3, 400),  # tiny x, down to where q underflows
        np.linspace(1e-3, 12.0, 6000),
        np.linspace(11.5, 12.5, 4001),  # the polynomial/Hankel switch
        _ulp_walk(12.0, 50),
        np.geomspace(12.0, 500.0, 4000),
        2.0 ** np.arange(-30, 9, dtype=np.float64),
    ]
    + [_ulp_walk(z, 40) for z in BESSEL_ZEROS]
    + [np.linspace(z - 1e-4, z + 1e-4, 201) for z in BESSEL_ZEROS]
)


@pytest.mark.parametrize(
    "fn, which",
    [(kernels.j0, 0), (kernels.j1, 1), (kernels.y0, 2)],
    ids=["j0", "j1", "y0"],
)
def test_bessel_within_all_terms_kernel_error(fn, which):
    assert np.max(np.abs(fn(DENSE_XS) - _frozen_bessel(DENSE_XS, which))) < 3e-12


@pytest.mark.parametrize("fn", [kernels.j0, kernels.j1, kernels.y0], ids=["j0", "j1", "y0"])
def test_bessel_batch_elements_equal_scalar_calls(fn):
    rng = np.random.default_rng(11)
    for size in (1, 3, 200):
        for idx in rng.integers(0, DENSE_XS.size, (20, size)):
            batch = fn(DENSE_XS[idx])
            for x, v in zip(DENSE_XS[idx], batch):
                assert np.float64(fn(float(x))).tobytes() == v.tobytes()


# The kernel as it ran each interval on its own, frozen here: one
# boolean mask, gather, Horner pass with scalar coefficients and scatter
# per interval, and the Hankel branch from 12 up. The kernel must
# reproduce it byte for byte.


def _frozen_horner(v, coeffs):
    r = coeffs[0] * v
    r += coeffs[1]
    for c in coeffs[2:]:
        r *= v
        r += c
    return r


def _frozen_small(x, which, i):
    u = x - _bessel_coeffs.SMALL_CENTRES[i]
    if which == 0:
        return _frozen_horner(u, _bessel_coeffs.J0[i])
    if which == 1:
        return x * _frozen_horner(u, _bessel_coeffs.J1X[i])
    y = _frozen_horner(u, _bessel_coeffs.J0[i])
    y *= (2.0 / np.pi) * np.log(0.5 * x)
    y += _frozen_horner(u, _bessel_coeffs.E0[i])
    return y


def _frozen_large(x, which):
    inv = 1.0 / x
    t = (_bessel_coeffs.SWITCH * _bessel_coeffs.SWITCH * inv) * inv
    c, s = np.cos(x), np.sin(x)
    p = _frozen_horner(t, _bessel_coeffs.P1 if which == 1 else _bessel_coeffs.P0)
    q = _frozen_horner(t, _bessel_coeffs.XQ1 if which == 1 else _bessel_coeffs.XQ0) * inv
    # sqrt(2) cos chi and sqrt(2) sin chi as sums of c and s
    if which == 0:
        p = p * (c + s) - q * (s - c)
    elif which == 1:
        p = p * (s - c) + q * (s + c)
    else:
        p = p * (s - c) + q * (c + s)
    return p * np.sqrt((1.0 / np.pi) * inv)


def _frozen_per_interval(x, which):
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    out = np.empty_like(x)
    below = [x < c + _bessel_coeffs.SMALL_HALF_WIDTH for c in _bessel_coeffs.SMALL_CENTRES]
    for i, mask in enumerate(below):
        if i:
            mask = mask & ~below[i - 1]
        if mask.any():
            out[mask] = _frozen_small(x[mask], which, i)
    big = ~below[-1]
    if big.any():
        out[big] = _frozen_large(x[big], which)
    return out


PINNED_XS = np.concatenate(
    [DENSE_XS, [1e-300, np.nan, np.inf]]
    + [_ulp_walk(edge, 1) for edge in (4.0, 8.0, 12.0)]
)


@pytest.mark.parametrize(
    "fn, which",
    [(kernels.j0, 0), (kernels.j1, 1), (kernels.y0, 2)],
    ids=["j0", "j1", "y0"],
)
def test_bessel_equals_the_per_interval_kernel_bytewise(fn, which):
    # (n,) gathers one coefficient row at a time, a pair query's (2, P, n)
    # four rows at a time and then the last two, and a scalar the whole table
    order = np.random.default_rng(5).permutation(PINNED_XS.size)
    stacked = PINNED_XS[order[: 2 * 10 * 150]].reshape(2, 10, 150)
    # arrays on one side of 12 take one branch with no gather or scatter:
    # all below, all at or above (NaN among them), and one-row labels, the
    # phases kl and 2kl of 20 m and 200 m on the default grid
    below = PINNED_XS[PINNED_XS < 12.0]
    above = PINNED_XS[~(PINNED_XS < 12.0)]
    k = hydro.solve_dispersion(hydro.FrequencyGrid.default().values, hydro.Environment())
    labels = [(multiple * l * k)[None, :] for l in (20.0, 200.0) for multiple in (1.0, 2.0)]
    assert (labels[0] < 12.0).all() and (labels[-1] >= 12.0).any()
    with np.errstate(invalid="ignore"):
        for xs in (PINNED_XS, stacked, below, above, below[-200:], above[:200], *labels):
            got = fn(xs)
            assert got.shape == xs.shape
            assert got.tobytes() == _frozen_per_interval(xs, which).tobytes()
        assert fn(np.empty(0)).shape == (0,)
        for x in PINNED_XS[-12:]:
            got = fn(float(x))
            assert type(got) is float
            assert np.float64(got).tobytes() == _frozen_per_interval(x, which).tobytes()


def test_bessel_tables_are_what_the_fitting_script_writes():
    spec = importlib.util.spec_from_file_location("fit_bessel", ROOT / "scripts" / "fit_bessel.py")
    fit_bessel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fit_bessel)
    committed = Path(_bessel_coeffs.__file__).read_text()
    assert fit_bessel.render() == committed
    # the intervals tile [0, 12) and end at the Hankel switch
    assert kernels._EDGES[-1] == _bessel_coeffs.SWITCH
    assert np.all(np.diff(_bessel_coeffs.SMALL_CENTRES) == 2 * _bessel_coeffs.SMALL_HALF_WIDTH)
    # the kernel's (term, interval) tables hold the generated tuples, and
    # no caller can write to them
    derived = [
        (kernels._CENTRES, [_bessel_coeffs.SMALL_CENTRES]),
        (kernels._J0_TERMS, list(zip(*_bessel_coeffs.J0))),
        (kernels._J1X_TERMS, list(zip(*_bessel_coeffs.J1X))),
        (kernels._E0_TERMS, list(zip(*_bessel_coeffs.E0))),
    ]
    for table, rows in derived:
        assert np.atleast_2d(table).tolist() == [list(row) for row in rows]
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[..., 0] = 0.0


def test_bessel_scalar_and_shape_handling():
    assert kernels.j0(0.5) == pytest.approx(float(mp.besselj(0, 0.5)), abs=1e-12)
    arr = np.array([[0.5, 3.0], [20.0, 100.0]])
    out = kernels.j0(arr)
    assert out.shape == arr.shape
    assert out[1, 1] == pytest.approx(float(mp.besselj(0, 100.0)), abs=1e-12)


def test_solve_batch_residuals():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(40, 5, 5)) + 1j * rng.normal(size=(40, 5, 5))
    a = a + 6.0 * np.eye(5)  # keep the batch comfortably nonsingular
    b = rng.normal(size=(40, 5)) + 1j * rng.normal(size=(40, 5))
    x = kernels.solve_batch(a, b)
    resid = np.abs(np.einsum("kij,kj->ki", a, x) - b)
    assert resid.max() < 1e-12 * np.abs(b).max()


def _init_weights(seed, sizes):
    rng = np.random.default_rng(seed)
    weights = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out)))
        weights.append(np.zeros(fan_out))
    return weights


def _batch_schedule(seed, n, batch, steps):
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(n)[:batch] for _ in range(steps)])


def full_set_mse(x, y, weights):
    diff = kernels.mlp_forward(x, weights) - y
    return np.sum(diff * diff) / (y.shape[0] * y.shape[1])


def test_mlp_train_reduces_loss_and_fits_linear_map():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(400, 3))
    coef = rng.normal(size=(3, 6))
    y = x @ coef + 0.3
    weights = _init_weights(0, [3, 32, 32, 6])
    initial = full_set_mse(x, y, weights)
    batches = _batch_schedule(1, 400, 64, 4000)
    assert kernels.mlp_train(x, y, weights, batches, lr=3e-3) is None
    final = full_set_mse(x, y, weights)
    assert final < 1e-4
    assert final < initial


def test_mlp_train_deterministic():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=(100, 2))
    y = np.stack([np.sin(3 * x[:, 0]), x.prod(axis=1)], axis=1)
    batches = _batch_schedule(2, 100, 32, 300)
    w_a = _init_weights(9, [2, 16, 16, 2])
    w_b = [w.copy() for w in w_a]
    kernels.mlp_train(x, y, w_a, batches, lr=2e-3)
    kernels.mlp_train(x, y, w_b, batches, lr=2e-3)
    assert full_set_mse(x, y, w_a) == full_set_mse(x, y, w_b)
    for wa, wb in zip(w_a, w_b):
        assert np.array_equal(wa, wb)


def _unrolled_adam_reference(x, y, w1, b1, w2, b2, w3, b3, batches, lr):
    # Frozen copy of the Adam loop as it was first written, one named
    # moment array and one update line per weight array; mlp_train must
    # reproduce it bit for bit.
    mw1 = np.zeros_like(w1)
    vw1 = np.zeros_like(w1)
    mb1 = np.zeros_like(b1)
    vb1 = np.zeros_like(b1)
    mw2 = np.zeros_like(w2)
    vw2 = np.zeros_like(w2)
    mb2 = np.zeros_like(b2)
    vb2 = np.zeros_like(b2)
    mw3 = np.zeros_like(w3)
    vw3 = np.zeros_like(w3)
    mb3 = np.zeros_like(b3)
    vb3 = np.zeros_like(b3)
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    c1 = 1.0
    c2 = 1.0
    for step in range(batches.shape[0]):
        idx = batches[step]
        xb = x[idx]
        yb = y[idx]
        h1 = np.tanh(xb @ w1 + b1)
        h2 = np.tanh(h1 @ w2 + b2)
        out = h2 @ w3 + b3
        d3 = (2.0 / (yb.shape[0] * yb.shape[1])) * (out - yb)
        gw3 = h2.T @ d3
        gb3 = np.sum(d3, axis=0)
        d2 = (d3 @ w3.T) * (1.0 - h2 * h2)
        gw2 = h1.T @ d2
        gb2 = np.sum(d2, axis=0)
        d1 = (d2 @ w2.T) * (1.0 - h1 * h1)
        gw1 = xb.T @ d1
        gb1 = np.sum(d1, axis=0)
        c1 *= beta1
        c2 *= beta2
        k1 = 1.0 - c1
        k2 = 1.0 - c2
        mw1 = beta1 * mw1 + (1.0 - beta1) * gw1
        vw1 = beta2 * vw1 + (1.0 - beta2) * gw1 * gw1
        w1 -= lr * (mw1 / k1) / (np.sqrt(vw1 / k2) + eps)
        mb1 = beta1 * mb1 + (1.0 - beta1) * gb1
        vb1 = beta2 * vb1 + (1.0 - beta2) * gb1 * gb1
        b1 -= lr * (mb1 / k1) / (np.sqrt(vb1 / k2) + eps)
        mw2 = beta1 * mw2 + (1.0 - beta1) * gw2
        vw2 = beta2 * vw2 + (1.0 - beta2) * gw2 * gw2
        w2 -= lr * (mw2 / k1) / (np.sqrt(vw2 / k2) + eps)
        mb2 = beta1 * mb2 + (1.0 - beta1) * gb2
        vb2 = beta2 * vb2 + (1.0 - beta2) * gb2 * gb2
        b2 -= lr * (mb2 / k1) / (np.sqrt(vb2 / k2) + eps)
        mw3 = beta1 * mw3 + (1.0 - beta1) * gw3
        vw3 = beta2 * vw3 + (1.0 - beta2) * gw3 * gw3
        w3 -= lr * (mw3 / k1) / (np.sqrt(vw3 / k2) + eps)
        mb3 = beta1 * mb3 + (1.0 - beta1) * gb3
        vb3 = beta2 * vb3 + (1.0 - beta2) * gb3 * gb3
        b3 -= lr * (mb3 / k1) / (np.sqrt(vb3 / k2) + eps)
    h1 = np.tanh(x @ w1 + b1)
    h2 = np.tanh(h1 @ w2 + b2)
    out = h2 @ w3 + b3
    diff = out - y
    return np.sum(diff * diff) / (y.shape[0] * y.shape[1])


@pytest.mark.parametrize(
    "sizes, n, batch, epochs",
    [
        ([2, 32, 32, 200], 160, 64, 300),  # the single-map topology
        ([138, 96, 96, 200], 160, 64, 20),  # the pair-map topology
        ([4, 16, 16, 8], 40, 64, 50),  # full batch: fewer rows than the batch
    ],
    ids=["single", "pair", "full-batch"],
)
def test_mlp_train_matches_the_unrolled_adam_reference_bitwise(sizes, n, batch, epochs):
    rng = np.random.default_rng(sizes[0])
    x = rng.normal(size=(n, sizes[0]))
    y = np.sin(x @ rng.normal(size=(sizes[0], sizes[-1])))
    schedule = nn.epoch_schedule(n, batch, epochs, rng)
    assert schedule.shape == (epochs * (n // min(batch, n)), min(batch, n))
    weights = nn.he_init(sizes, rng)
    frozen = [w.copy() for w in weights]
    kernels.mlp_train(x, y, weights, schedule, 2e-3)
    expected = _unrolled_adam_reference(x, y, *frozen, schedule, 2e-3)
    # the frozen loop ends on the full-set loss; mlp_forward of the
    # trained weights must give it bit for bit
    assert np.float64(full_set_mse(x, y, weights)).tobytes() == np.float64(expected).tobytes()
    for w, w_ref in zip(weights, frozen):
        assert w.tobytes() == w_ref.tobytes()


def test_mlp_train_with_no_steps_leaves_the_weights_as_they_were():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=(20, 4))
    weights = nn.he_init([3, 8, 8, 4], rng)
    frozen = [w.copy() for w in weights]
    assert kernels.mlp_train(x, y, weights, np.empty((0, 8), dtype=np.int64), 2e-3) is None
    for w, w_ref in zip(weights, frozen, strict=True):
        assert w.tobytes() == w_ref.tobytes()


def test_mlp_train_updates_the_callers_arrays_in_place():
    # the six arrays stay the same objects; only their values change, so
    # a committee's member views write through to its network
    rng = np.random.default_rng(12)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(40, 4))
    weights = nn.he_init([3, 8, 8, 4], rng)
    arrays = list(weights)
    frozen = [w.copy() for w in arrays]
    kernels.mlp_train(x, y, weights, nn.epoch_schedule(40, 16, 5, rng), 2e-3)
    for w, same, before in zip(weights, arrays, frozen, strict=True):
        assert w is same
        assert not np.array_equal(w, before)


def test_mlp_forward_frees_the_first_layer_before_the_head():
    # five members of the pair topology, 256 rows; numpy reports its
    # buffers to tracemalloc, and all three layers never coexist
    rng = np.random.default_rng(14)
    network = nn.Regressor.initialized(138, (96, 96), 200, [rng] * 5)
    x = rng.normal(size=(256, 138))
    tracemalloc.start()
    try:
        out = kernels.mlp_forward(x, network.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hidden = 5 * 256 * 96 * x.itemsize
    assert out.shape == (5, 256, 200)
    assert peak < 2 * hidden + out.nbytes


def test_mlp_train_in_two_segments_matches_the_reference_bitwise():
    # the committee fit trains each member over consecutive segments of
    # one schedule, each at its own rate; Adam's moments restart per call
    rng = np.random.default_rng(13)
    x = rng.normal(size=(96, 5))
    y = np.sin(x @ rng.normal(size=(5, 7)))
    schedule = nn.epoch_schedule(96, 32, 10, rng)
    weights = nn.he_init([5, 16, 16, 7], rng)
    frozen = [w.copy() for w in weights]
    segments = ((schedule[:18], 2e-3), (schedule[18:], 5e-4))
    for batches, lr in segments:
        kernels.mlp_train(x, y, weights, batches, lr)
    for batches, lr in segments:
        expected = _unrolled_adam_reference(x, y, *frozen, batches, lr)
    assert np.float64(full_set_mse(x, y, weights)).tobytes() == np.float64(expected).tobytes()
    for w, w_ref in zip(weights, frozen, strict=True):
        assert w.tobytes() == w_ref.tobytes()


def test_backend_reports_a_name():
    assert kernels.backend() == "numpy"
