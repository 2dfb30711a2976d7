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
