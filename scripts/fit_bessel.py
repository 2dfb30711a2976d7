"""Fit the polynomial tables behind `wecfarm.kernels.j0`, `j1` and `y0`.

Every table is the Chebyshev interpolant of its function on its
interval, computed with mpmath at 40 significant digits, converted to
monomial coefficients in the kernel's own variable and rounded once to
float64. Below `SWITCH` = 12 the kernels take J0, J1(x)/x and the
entire part E0 = Y0 - (2/pi) ln(x/2) J0 as polynomials in u = x - c
around each centre c of `SMALL_CENTRES`, on [c - 2, c + 2]. From 12 up
they use the Hankel form

    J_nu(x) = sqrt(2/(pi x)) (P_nu(x) cos chi - Q_nu(x) sin chi),
    Y_nu(x) = sqrt(2/(pi x)) (P_nu(x) sin chi + Q_nu(x) cos chi),
    chi = x - (2 nu + 1) pi/4,

with P_nu and x Q_nu as polynomials in t = (12/x)^2 on (0, 1].

Run from anywhere to rewrite the generated module:

    python3 scripts/fit_bessel.py

`tests/test_kernels.py` calls `render()` and checks that it reproduces
the committed `src/wecfarm/_bessel_coeffs.py` byte for byte.
"""

from math import comb
from pathlib import Path

import mpmath as mp

DPS = 40
SWITCH = 12
SMALL_CENTRES = (2, 6, 10)
SMALL_HALF_WIDTH = 2
SMALL_DEGREE = 17
LARGE_DEGREE = 7
TARGET = Path(__file__).resolve().parents[1] / "src" / "wecfarm" / "_bessel_coeffs.py"


def _e0(x):
    return mp.bessely(0, x) - 2 / mp.pi * mp.log(x / 2) * mp.besselj(0, x)


def _hankel_p_xq(nu, x):
    # invert the Hankel form: with M = sqrt(2/(pi x)),
    # P = (J cos chi + Y sin chi) / M and Q = (Y cos chi - J sin chi) / M
    j = mp.besselj(nu, x)
    y = mp.bessely(nu, x)
    chi = x - (2 * nu + 1) * mp.pi / 4
    m = mp.sqrt(2 / (mp.pi * x))
    p = (j * mp.cos(chi) + y * mp.sin(chi)) / m
    q = (y * mp.cos(chi) - j * mp.sin(chi)) / m
    return p, x * q


def _chebyshev_nodes(n):
    return [mp.cos(mp.pi * (j + mp.mpf(1) / 2) / n) for j in range(n)]


def _monomials(values, scale, shift):
    """Horner coefficients, highest power first, of the interpolant.

    `values[j]` is the function at the j-th of `_chebyshev_nodes(n)`,
    s_j; the polynomial is returned in the kernel's variable v, where
    s = scale * v + shift.
    """
    n = len(values)
    nodes = _chebyshev_nodes(n)
    # Chebyshev coefficients by the discrete orthogonality of T_k at the nodes
    cheb = [2 * mp.fsum(f * mp.chebyt(k, s) for f, s in zip(values, nodes)) / n for k in range(n)]
    cheb[0] /= 2
    # T_k as integer monomial coefficients in s
    basis = [[1], [0, 1]]
    while len(basis) < n:
        nxt = [0] + [2 * a for a in basis[-1]]
        for i, a in enumerate(basis[-2]):
            nxt[i] -= a
        basis.append(nxt)
    in_s = [mp.mpf(0)] * n
    for c, poly in zip(cheb, basis):
        for i, a in enumerate(poly):
            in_s[i] += c * a
    # substitute s = scale * v + shift
    in_v = [mp.mpf(0)] * n
    for i, m in enumerate(in_s):
        for j in range(i + 1):
            in_v[j] += m * comb(i, j) * mp.mpf(scale) ** j * mp.mpf(shift) ** (i - j)
    return tuple(float(a) for a in reversed(in_v))


def fit_tables():
    """Every coefficient table of the kernels, by name.

    `J0`, `J1X` and `E0` hold one table per centre of `SMALL_CENTRES`;
    `P0`, `XQ0`, `P1` and `XQ1` one table each for nu = 0 and nu = 1.
    """
    small = {
        "J0": lambda x: mp.besselj(0, x),
        "J1X": lambda x: mp.besselj(1, x) / x,
        "E0": _e0,
    }
    tables = {}
    with mp.workdps(DPS):
        nodes = _chebyshev_nodes(SMALL_DEGREE + 1)
        for name, f in small.items():
            tables[name] = tuple(
                _monomials([f(c + SMALL_HALF_WIDTH * s) for s in nodes], 1 / mp.mpf(SMALL_HALF_WIDTH), 0)
                for c in SMALL_CENTRES
            )
        # t = (1 + s)/2 at the nodes, x = 12/sqrt(t)
        xs = [SWITCH / mp.sqrt((1 + s) / 2) for s in _chebyshev_nodes(LARGE_DEGREE + 1)]
        for nu in (0, 1):
            p, xq = zip(*(_hankel_p_xq(nu, x) for x in xs))
            tables[f"P{nu}"] = _monomials(p, 2, -1)
            tables[f"XQ{nu}"] = _monomials(xq, 2, -1)
    return tables


def _lines(coeffs, indent):
    items = [repr(c) + "," for c in coeffs]
    return [indent + " ".join(items[i : i + 3]) for i in range(0, len(items), 3)]


def render():
    """Source text of the generated coefficient module."""
    tables = fit_tables()
    out = [
        '"""Polynomial tables of the Bessel kernels: generated, do not edit.',
        "",
        "Written by scripts/fit_bessel.py (Chebyshev interpolation against",
        f"mpmath at {DPS} digits); rerun it to change them. Each table lists",
        "Horner coefficients, highest power first.",
        "",
        "J0, J1X, E0: J0(x), J1(x)/x and Y0(x) - (2/pi) ln(x/2) J0(x) in",
        f"u = x - c, one table per centre c of SMALL_CENTRES, for |u| <= {SMALL_HALF_WIDTH}.",
        f"P0, XQ0, P1, XQ1: the Hankel P_nu(x) and x Q_nu(x) in t = ({SWITCH}/x)^2,",
        "0 < t <= 1.",
        '"""',
        "",
        f"SWITCH = {float(SWITCH)!r}",
        f"SMALL_CENTRES = {tuple(float(c) for c in SMALL_CENTRES)!r}",
        f"SMALL_HALF_WIDTH = {float(SMALL_HALF_WIDTH)!r}",
    ]
    for name in ("J0", "J1X", "E0"):
        out += ["", f"{name} = ("]
        for table in tables[name]:
            out += ["    ("] + _lines(table, "        ") + ["    ),"]
        out += [")"]
    for name in ("P0", "XQ0", "P1", "XQ1"):
        out += ["", f"{name} = ("] + _lines(tables[name], "    ") + [")"]
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    TARGET.write_text(render())
    print(f"wrote {TARGET}")
