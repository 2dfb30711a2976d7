"""Low-level numerical kernels shared across the package.

Three families live here: cylinder-wave Bessel functions (J0, J1, Y0),
batched dense complex solves, and the training/inference loops of the
small feed-forward regressors. Each has a single vectorized numpy
implementation.
"""

import numpy as np

from . import _bessel_coeffs as _coeffs


def backend():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# Bessel functions for x > 0: fitted polynomials, a fixed cost per element.
#
# Below 12, J0, J1(x)/x and the entire part E0 = Y0 - (2/pi) ln(x/2) J0
# are polynomials of degree 17 in u = x - c on [0, 4), [4, 8) and
# [8, 12), and Y0 = (2/pi) ln(x/2) J0 + E0. From 12 up the kernels use
# the Hankel form sqrt(2/(pi x)) (P cos chi - Q sin chi) for J0 and J1
# and sqrt(2/(pi x)) (P sin chi + Q cos chi) for Y0, with
# chi = x - (2 nu + 1) pi/4 and P and x Q polynomials of degree 7 in
# t = (12/x)^2. sqrt(2) cos chi and sqrt(2) sin chi are sums of cos x
# and sin x, so the rounding of x - pi/4 never enters.
#
# The tables in _bessel_coeffs are Chebyshev interpolants against mpmath
# at 40 digits, written by scripts/fit_bessel.py. The worst absolute
# error against mpmath on [0.01, 500] is 8.9e-16, for Y0 near x = 0.01
# where (2/pi) ln(x/2) is large; it is at most 4.4e-16 from x = 0.1 and
# 1.1e-16 from 12. Each element takes the branch and the interval its
# own value selects, so a batch and a scalar call agree bit for bit.
#
# A call splits its arguments once, at 12, and only when they lie on
# both sides of it. Below it, one Horner pass serves all three
# intervals: row k of a term table holds the k-th
# coefficient of each interval's polynomial, and the rows gathered at
# the elements' intervals give each element the same operations on the
# same values, in the same order, as a pass over its interval alone.
# So a call pays one pass, not one per interval. Rows are gathered as
# many at a time as fit in _GATHER_BYTES: the whole table for a one-row
# label, one row at a time for a large feature block, where all 18 rows
# at once would take 18 times the memory of its arguments. The tables
# are read-only: a write would change every later Bessel value in the
# process.

_EDGES = tuple(c + _coeffs.SMALL_HALF_WIDTH for c in _coeffs.SMALL_CENTRES)


def _read_only(values):
    a = np.array(values, dtype=np.float64, order="C")
    a.flags.writeable = False
    return a


_CENTRES = _read_only(_coeffs.SMALL_CENTRES)
_J0_TERMS = _read_only(np.transpose(_coeffs.J0))
_J1X_TERMS = _read_only(np.transpose(_coeffs.J1X))
_E0_TERMS = _read_only(np.transpose(_coeffs.E0))
# under glibc's 128 KiB mmap threshold: 18-row blocks of up to 576 KiB
# raised study2-ref's perfbench peak RSS by 0.5 MB
_GATHER_BYTES = 1 << 16


def _horner(v, coeffs):
    coeffs = iter(coeffs)
    r = next(coeffs) * v
    r += next(coeffs)
    # bound ufuncs writing into r, not the in-place operators: about 325
    # against 350 ns per operation on a 200-element row
    multiply, add = np.multiply, np.add
    for c in coeffs:
        multiply(r, v, r)
        add(r, c, r)
    return r


def _gathered(terms, interval):
    """Term by term, each element's coefficient for its own interval."""
    rows = max(1, _GATHER_BYTES // (8 * interval.size))
    for k in range(0, len(terms), rows):
        yield from terms[k : k + rows].take(interval, axis=1)


def _polynomial(x, which):
    # each element's interval: the number of inner edges at or below it
    interval = (x >= _EDGES[0]).astype(np.intp)
    for edge in _EDGES[1:-1]:
        interval += x >= edge
    u = x - _CENTRES.take(interval)
    if which == 0:
        return _horner(u, _gathered(_J0_TERMS, interval))
    if which == 1:
        return x * _horner(u, _gathered(_J1X_TERMS, interval))
    y = _horner(u, _gathered(_J0_TERMS, interval))
    y *= (2.0 / np.pi) * np.log(0.5 * x)
    y += _horner(u, _gathered(_E0_TERMS, interval))
    return y


def _large(x, which):
    inv = 1.0 / x
    t = (_coeffs.SWITCH * _coeffs.SWITCH * inv) * inv
    c = np.cos(x)
    s = np.sin(x)
    p = _horner(t, _coeffs.P1 if which == 1 else _coeffs.P0)
    q = _horner(t, _coeffs.XQ1 if which == 1 else _coeffs.XQ0)
    q *= inv
    # sqrt(2) cos chi and sqrt(2) sin chi are sums of c and s
    if which == 0:  # chi = x - pi/4: c + s and s - c
        p *= c + s
        q *= s - c
        p -= q
    elif which == 1:  # chi = x - 3 pi/4: s - c and -(s + c)
        p *= s - c
        q *= s + c
        p += q
    else:  # Y0, chi = x - pi/4
        p *= s - c
        q *= c + s
        p += q
    p *= np.sqrt((1.0 / np.pi) * inv)  # sqrt(2/(pi x)) / sqrt(2)
    return p


def _bessel_1d(x, which):
    below = x < _EDGES[-1]
    n_below = np.count_nonzero(below)
    # all on one side of 12, as a one-row label's phases often are: one
    # branch over the whole array, with no gather and no scatter. NaN
    # fails every comparison and takes the large branch, as NaN
    if n_below == 0:
        return _large(x, which)
    if n_below == x.size:
        return _polynomial(x, which)
    out = np.empty_like(x)
    out[below] = _polynomial(x[below], which)
    big = ~below
    out[big] = _large(x[big], which)
    return out


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


# ---------------------------------------------------------------------------
# Two-hidden-layer tanh regressors. The caller supplies the initialized
# weights, the minibatch index schedule and the learning rate; training
# mutates the weight arrays in place. Keeping the schedule outside the
# kernel makes a run a function of its seed alone.


def mlp_forward(x, weights):
    """Evaluate a two-hidden-layer tanh network on scaled inputs.

    `x` is (n, n_in). The weights are (fan_in, fan_out) with (fan_out,)
    biases, giving (n, n_out); or they carry a leading member axis,
    (M, fan_in, fan_out) with (M, 1, fan_out) biases, giving
    (M, n, n_out) from one pass. Each member's slice of a batched matmul
    is the 2-D product of that member alone, so both forms agree byte
    for byte.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    w1, b1, w2, b2, w3, b3 = weights
    # bias and tanh run in the matmul result's own buffer
    h1 = x @ w1
    h1 += b1
    np.tanh(h1, out=h1)
    h2 = h1 @ w2
    # freed before the head's product, so at most two layers are live
    del h1
    h2 += b2
    np.tanh(h2, out=h2)
    out = h2 @ w3
    out += b3
    return out


def _views(flat, shapes):
    """Consecutive views of a flat buffer, one per shape."""
    views, start = [], 0
    for shape in shapes:
        stop = start + int(np.prod(shape))
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


def mlp_train(x, y, weights, batches, lr):
    """Train the network in place on a fixed minibatch schedule with Adam.

    `batches` is an integer array of shape (steps, batch_size) holding
    row indices into x and y. The six weight arrays are updated in
    place and keep their identity.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    batches = np.ascontiguousarray(batches, dtype=np.int64)
    lr = float(lr)
    # One block holds the flat weights, their gradient, Adam's first and
    # second moments (Kingma & Ba 2015; zero at every call) and two
    # scratch vectors, so a step's update is 14 ufuncs over the whole
    # parameter vector. One block, not six buffers: under glibc the six
    # were faulted in afresh on every call (620 minor page faults per
    # 7-step pair-topology call, against under 50).
    shapes = [w.shape for w in weights]
    flat, grad, m, v, num, den = np.zeros((6, sum(w.size for w in weights)))
    trained = _views(flat, shapes)
    for view, w in zip(trained, weights):
        view[...] = w
    w1, b1, w2, b2, w3, b3 = trained
    gw1, gb1, gw2, gb2, gw3, gb3 = _views(grad, shapes)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    c1 = c2 = 1.0
    for idx in batches:
        xb = x[idx]
        # bias, tanh, residual, scale and the (1 - h^2) factors run in the
        # matmul results' own buffers; a layer's activations become its
        # factor only after its weight gradient has read them
        h1 = xb @ w1
        h1 += b1
        np.tanh(h1, out=h1)
        h2 = h1 @ w2
        h2 += b2
        np.tanh(h2, out=h2)
        d3 = h2 @ w3
        d3 += b3
        d3 -= y[idx]
        d3 *= 2.0 / (len(idx) * y.shape[1])
        np.matmul(h2.T, d3, out=gw3)
        np.add.reduce(d3, axis=0, out=gb3)
        d2 = d3 @ w3.T
        h2 *= h2
        np.subtract(1.0, h2, out=h2)
        d2 *= h2
        np.matmul(h1.T, d2, out=gw2)
        np.add.reduce(d2, axis=0, out=gb2)
        d1 = d2 @ w2.T
        h1 *= h1
        np.subtract(1.0, h1, out=h1)
        d1 *= h1
        np.matmul(xb.T, d1, out=gw1)
        np.add.reduce(d1, axis=0, out=gb1)
        c1 *= beta1
        c2 *= beta2
        k1 = 1.0 - c1
        k2 = 1.0 - c2
        # m = beta1 m + (1 - beta1) g
        m *= beta1
        np.multiply(1.0 - beta1, grad, out=num)
        m += num
        # v = beta2 v + ((1 - beta2) g) g
        v *= beta2
        np.multiply(1.0 - beta2, grad, out=num)
        num *= grad
        v += num
        # w -= (lr (m / k1)) / (sqrt(v / k2) + eps)
        np.divide(m, k1, out=num)
        np.multiply(lr, num, out=num)
        np.divide(v, k2, out=den)
        np.sqrt(den, out=den)
        den += eps
        num /= den
        flat -= num
    for w, view in zip(weights, trained):
        w[...] = view
