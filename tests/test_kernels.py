import mpmath as mp
import numpy as np
import pytest

from wecfarm import kernels

mp.mp.dps = 30

XS = np.concatenate(
    [
        np.linspace(0.01, 11.99, 160),
        np.linspace(11.5, 12.5, 40),  # straddle the series/asymptotic crossover
        np.geomspace(12.5, 500.0, 120),
    ]
)


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
        assert abs(v - float(mp_fn(order, x))) < 1e-10


# The all-terms kernel as it stood before the per-function series and the
# early stop, frozen here so that any change of output bits shows.


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

DENSE_XS = np.concatenate(
    [
        np.geomspace(1e-300, 1e-3, 400),  # tiny x, down to where q underflows
        np.linspace(1e-3, 12.0, 6000),
        np.linspace(11.5, 12.5, 4001),  # the series/asymptotic crossover
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
def test_bessel_bits_match_all_terms_kernel(fn, which):
    expected = _frozen_bessel(DENSE_XS, which)
    assert fn(DENSE_XS).tobytes() == expected.tobytes()
    # the early stop is decided per call: small and mixed batches too
    rng = np.random.default_rng(which)
    for size in (1, 3, 200):
        for idx in rng.integers(0, DENSE_XS.size, (40, size)):
            assert fn(DENSE_XS[idx]).tobytes() == _frozen_bessel(DENSE_XS[idx], which).tobytes()


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


def test_mlp_train_reduces_loss_and_fits_linear_map():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(400, 3))
    coef = rng.normal(size=(3, 6))
    y = x @ coef + 0.3
    weights = _init_weights(0, [3, 32, 32, 6])
    initial = np.mean((kernels.mlp_forward(x, weights) - y) ** 2)
    batches = _batch_schedule(1, 400, 64, 4000)
    final = kernels.mlp_train(x, y, weights, batches, lr=3e-3)
    assert final < 1e-4
    assert final < initial
    assert np.mean((kernels.mlp_forward(x, weights) - y) ** 2) == pytest.approx(final)


def test_mlp_train_deterministic():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=(100, 2))
    y = np.stack([np.sin(3 * x[:, 0]), x.prod(axis=1)], axis=1)
    batches = _batch_schedule(2, 100, 32, 300)
    w_a = _init_weights(9, [2, 16, 16, 2])
    w_b = [w.copy() for w in w_a]
    loss_a = kernels.mlp_train(x, y, w_a, batches, lr=2e-3)
    loss_b = kernels.mlp_train(x, y, w_b, batches, lr=2e-3)
    assert loss_a == loss_b
    for wa, wb in zip(w_a, w_b):
        assert np.array_equal(wa, wb)


def test_mlp_sgd_mode_runs():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, size=(200, 2))
    y = x @ np.array([[1.0], [-2.0]])
    weights = _init_weights(1, [2, 16, 16, 1])
    before = np.mean((kernels.mlp_forward(x, weights) - y) ** 2)
    batches = _batch_schedule(4, 200, 50, 400)
    after = kernels.mlp_train(x, y, weights, batches, lr=5e-2, use_adam=False)
    assert after < before


def test_backend_reports_a_name():
    assert kernels.backend() == "numpy"
