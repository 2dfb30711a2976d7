"""Farm-level coefficient matrices from single and pair queries.

The N-body interaction is truncated at second order: diagonals are the
isolated values plus the sum of pairwise diagonal shifts, off-diagonals
come straight from the pair query, and excitation accumulates pairwise
corrections on top of the phased isolated force. The truncation is
exact for N <= 2 by construction.
"""

from dataclasses import dataclass

import numpy as np

from . import hydro


@dataclass
class Layout:
    """Planar device centres, wave travelling along +x.

    Optimization pins the first device at the origin; the type itself
    only requires distinct positions so that rigidly moved copies of a
    layout remain representable.
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError("positions must be an (N, 2) array")
        self.positions = pos
        p, q, separation, _ = pair_table(self)
        hit = np.flatnonzero(separation == 0.0)
        if hit.size:
            raise ValueError(f"devices {p[hit[0]]} and {q[hit[0]]} coincide")

    @property
    def n(self):
        return self.positions.shape[0]

    def translated(self, dx, dy):
        return Layout(self.positions + np.array([dx, dy]))

    def mirrored(self):
        return Layout(self.positions * np.array([1.0, -1.0]))


@dataclass
class FarmCoefficients:
    grid: hydro.FrequencyGrid
    added_mass: np.ndarray
    damping: np.ndarray
    excitation: np.ndarray

    @property
    def n_devices(self):
        return self.excitation.shape[1]


def pair_geometry(layout, p, q):
    """Separation and heading of the pair axis from device p to q."""
    if p == q:
        raise IndexError("pair geometry needs two distinct devices")
    dx, dy = layout.positions[q] - layout.positions[p]
    return float(np.hypot(dx, dy)), float(np.arctan2(dy, dx))


def pair_table(layout):
    """Every pair p < q in row-major order, as (p, q, separation, heading).

    Each is a (P,) array with P = N(N-1)/2; row i holds the same values
    as pair_geometry(layout, p[i], q[i]), bit for bit.
    """
    p, q = np.triu_indices(layout.n, 1)
    d = layout.positions[q] - layout.positions[p]
    return p, q, np.hypot(d[:, 0], d[:, 1]), np.arctan2(d[:, 1], d[:, 0])


def compose_farm(provider, geom, layout, grid, env):
    """Assemble N-body matrices from one single and one batched pair query.

    Every pair p < q is taken in the frame of its lower-index body, and
    all of them go to the provider in a single `pair` call. Pairs whose
    (l, theta) agree after rounding to 1e-9 share one row of that call,
    queried at the exact values of the first such pair. Diagonals are
    seeded with (2 - N) times the isolated values so that each pair's
    full diagonal adds up to the single-plus-shift composition; for
    N = 2 this reproduces the pair query bit for bit. The pair terms are
    added in row-major pair order, so every sum rounds the same way for
    any batching.
    """
    pos = layout.positions
    n_wec = layout.n
    single = provider.single(geom, grid, env)
    k = hydro.solve_dispersion(grid.values, env)
    phases = np.exp(-1j * np.outer(k, pos[:, 0]))

    nw = grid.n
    added = np.zeros((nw, n_wec, n_wec))
    damping = np.zeros((nw, n_wec, n_wec))
    excitation = np.zeros((nw, n_wec), dtype=np.complex128)
    base = float(2 - n_wec)
    for p in range(n_wec):
        added[:, p, p] = base * single.added_mass
        damping[:, p, p] = base * single.damping
        excitation[:, p] = base * single.excitation * phases[:, p]
    if n_wec == 1:
        return FarmCoefficients(grid=grid, added_mass=added, damping=damping, excitation=excitation)

    ip, iq, separation, heading = pair_table(layout)
    keys = np.round(np.column_stack([separation, heading]), 9)
    _, first, row = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    row = row.reshape(-1)  # numpy 2.0.0 returns the inverse as a column
    pc = provider.pair(geom, separation[first], heading[first], grid, env)
    pair_added = pc.added_mass[row]
    pair_damping = pc.damping[row]
    # the pair frame is anchored at body p, so both contributions carry
    # body p's travelling-wave phase
    pair_excitation = pc.excitation[row] * phases.T[ip][:, :, None]
    added[:, ip, iq] = added[:, iq, ip] = pair_added[:, :, 0, 1].T
    damping[:, ip, iq] = damping[:, iq, ip] = pair_damping[:, :, 0, 1].T
    for i, (p, q) in enumerate(zip(ip, iq)):
        added[:, p, p] += pair_added[i, :, 0, 0]
        added[:, q, q] += pair_added[i, :, 1, 1]
        damping[:, p, p] += pair_damping[i, :, 0, 0]
        damping[:, q, q] += pair_damping[i, :, 1, 1]
        excitation[:, p] += pair_excitation[i, :, 0]
        excitation[:, q] += pair_excitation[i, :, 1]
    return FarmCoefficients(grid=grid, added_mass=added, damping=damping, excitation=excitation)
