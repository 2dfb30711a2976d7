"""Low-level numerical kernels shared across the package.

Three families live here: cylinder-wave Bessel functions (J0, J1, Y0),
batched dense complex solves, and the training/inference loops of the
small feed-forward regressors. Each has a single vectorized numpy
implementation.
"""

import numpy as np


def backend():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# Bessel functions for x > 0.
#
# Power series below the crossover, Hankel asymptotic expansion above it.
# A crossover at 12 keeps the worst absolute error near 2e-12 on
# [0.01, 500]; at the conventional 8 the asymptotic tail is not yet
# converged and the error degrades to a few 1e-9.

_SWITCH = 12.0
_EULER = 0.5772156649015328606


def _series_sums(x):
    # Vectorized small-argument series for j0, j1 and the y0 partial sum.
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


def _pq_large(x, mu):
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


def _bessel_1d(x, which):
    out = np.empty_like(x)
    small = x < _SWITCH
    if small.any():
        xs = x[small]
        s0, s1, sy = _series_sums(xs)
        if which == 0:
            out[small] = s0
        elif which == 1:
            out[small] = s1
        else:
            out[small] = (2.0 / np.pi) * ((np.log(0.5 * xs) + _EULER) * s0 + sy)
    big = ~small
    if big.any():
        xb = x[big]
        amp = np.sqrt(2.0 / (np.pi * xb))
        if which == 1:
            p, q = _pq_large(xb, 4.0)
            chi = xb - 0.75 * np.pi
            out[big] = amp * (p * np.cos(chi) - q * np.sin(chi))
        else:
            p, q = _pq_large(xb, 0.0)
            chi = xb - 0.25 * np.pi
            if which == 0:
                out[big] = amp * (p * np.cos(chi) - q * np.sin(chi))
            else:
                out[big] = amp * (p * np.sin(chi) + q * np.cos(chi))
    return out


# ---------------------------------------------------------------------------
# Two-hidden-layer tanh regressors. The caller supplies the initialized
# weights, the minibatch index schedule and the learning rate; training
# mutates the weight arrays in place and returns the final full-set MSE
# in scaled units. Keeping the schedule outside the kernel makes a run
# a function of its seed alone.


def _mlp_train(x, y, w1, b1, w2, b2, w3, b3, batches, lr, use_adam):
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
        if use_adam:
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
        else:
            w1 -= lr * gw1
            b1 -= lr * gb1
            w2 -= lr * gw2
            b2 -= lr * gb2
            w3 -= lr * gw3
            b3 -= lr * gb3
    h1 = np.tanh(x @ w1 + b1)
    h2 = np.tanh(h1 @ w2 + b2)
    out = h2 @ w3 + b3
    diff = out - y
    return np.sum(diff * diff) / (y.shape[0] * y.shape[1])


def _dispatch_bessel(x, which):
    arr = np.ascontiguousarray(x, dtype=np.float64).ravel()
    res = _bessel_1d(arr, which)
    if np.ndim(x) == 0:
        return float(res[0])
    return res.reshape(np.shape(x))


def j0(x):
    """Bessel J0 for positive real x, scalar or array."""
    return _dispatch_bessel(x, 0)


def j1(x):
    """Bessel J1 for positive real x, scalar or array."""
    return _dispatch_bessel(x, 1)


def y0(x):
    """Bessel Y0 for positive real x, scalar or array."""
    return _dispatch_bessel(x, 2)


def solve_batch(a, b):
    """Solve a[k] @ x[k] = b[k] for a stack of small complex systems.

    Parameters
    ----------
    a : (K, N, N) complex array
    b : (K, N) complex array

    Returns
    -------
    (K, N) complex array of solutions.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    return np.linalg.solve(a, b[:, :, None])[:, :, 0]


def mlp_forward(x, weights):
    """Evaluate a two-hidden-layer tanh network on scaled inputs."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    w1, b1, w2, b2, w3, b3 = weights
    h1 = np.tanh(x @ w1 + b1)
    h2 = np.tanh(h1 @ w2 + b2)
    return h2 @ w3 + b3


def mlp_train(x, y, weights, batches, lr, use_adam=True):
    """Train the network in place on a fixed minibatch schedule.

    `batches` is an integer array of shape (steps, batch_size) holding
    row indices into x and y. Returns the final mean-squared error over
    the full set, in scaled units.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    batches = np.ascontiguousarray(batches, dtype=np.int64)
    w1, b1, w2, b2, w3, b3 = weights
    return _mlp_train(x, y, w1, b1, w2, b2, w3, b3, batches, float(lr), bool(use_adam))
