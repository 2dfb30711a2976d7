"""Farm-level coefficient matrices from one provider query.

The N-body interaction is truncated at second order: diagonals are the
isolated values plus the sum of pairwise diagonal shifts, off-diagonals
come straight from the pair query, and excitation accumulates pairwise
corrections on top of the phased isolated force. The truncation is
exact for N <= 2 by construction.
"""

from dataclasses import dataclass, field

import numpy as np

from . import hydro


@dataclass
class Layout:
    """Planar device centres, wave travelling along +x.

    Optimization pins the first device at the origin; the type itself
    only requires distinct positions so that rigidly moved copies of a
    layout remain representable.

    It keeps a read-only copy of its positions and their ``pair_table``
    as ``pairs``, which the constraint check and the assembly read.
    """

    positions: np.ndarray
    pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError("positions must be an (N, 2) array")
        pos.flags.writeable = False
        self.positions = pos
        self.pairs = pair_table(self)
        p, q, separation, _ = self.pairs
        # a NaN separation is nonzero here, as it is unequal to 0.0
        if not separation.all():
            hit = np.flatnonzero(separation == 0.0)[0]
            raise ValueError(f"devices {p[hit]} and {q[hit]} coincide")

    @property
    def n(self):
        return self.positions.shape[0]


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
    i = np.arange(layout.n)
    # the entries above the diagonal, in C order: what np.triu_indices(n, 1)
    # returns, without its mask and broadcasting wrappers
    p, q = np.nonzero(i[:, None] < i)
    d = layout.positions[q] - layout.positions[p]
    return p, q, np.hypot(d[:, 0], d[:, 1]), np.arctan2(d[:, 1], d[:, 0])


def compose_farm(provider, geom, layout, grid, env):
    """Assemble N-body matrices from one provider query.

    Every pair p < q is taken in the frame of its lower-index body, and
    all of them go to the provider in a single `pair` call, whose answer
    carries the isolated body; one device alone is one `single` call.
    Pairs whose (l, theta) agree after rounding to 1e-9 share one row of
    that call, queried at the exact values of the first such pair.
    Diagonals are seeded with (2 - N) times the isolated values so that
    each pair's full diagonal adds up to the single-plus-shift
    composition; for N = 2 this reproduces the pair query bit for bit.
    Each device adds its N - 1 pair terms in row-major pair order, so
    every sum rounds the same way for any batching.
    """
    pos = layout.positions
    n_wec = layout.n
    if n_wec > 1:
        ip, iq, separation, heading = layout.pairs
        # first-occurrence dedupe of the rounded keys; every row of the
        # query is independent, so their order does not matter
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
    # the travelling-wave phase e^(-i k x) of every device, (N, n_w)
    phases = hydro.phasor(np.multiply.outer(pos[:, 0], k), -1.0)

    # per-device sums, (N, n_w), each seeded with (2 - N) isolated values
    base = float(2 - n_wec)
    added_diag = np.tile(base * single.added_mass, (n_wec, 1))
    damping_diag = np.tile(base * single.damping, (n_wec, 1))
    excitation = (base * single.excitation) * phases
    # every entry is written below: the pair rows fill the off-diagonals
    added = np.empty((grid.n, n_wec, n_wec))
    damping = np.empty((grid.n, n_wec, n_wec))
    if n_wec > 1:
        pair_index = np.full((n_wec, n_wec), -1)
        pair_index[ip, iq] = pair_index[iq, ip] = np.arange(ip.size)
        # the query row of every (row, column) entry, flattened; the
        # diagonal's -1 reads the last row and is overwritten below. One take
        # per matrix writes its (n_w, N^2) view from the (n_w, rows) curves.
        # Every index is in range, so mode "clip" changes none; it lets take
        # write into `out` directly, where "raise" would fill a temporary
        entry_row = row[pair_index].ravel()
        for curve, matrix in ((pc.added_mass_cross, added), (pc.damping_cross, damping)):
            np.take(curve.T, entry_row, axis=1, out=matrix.reshape(grid.n, -1), mode="clip")

        # slot s of device d: the pair it belongs to, and which of the
        # pair's two bodies d is (0 for p, 1 for q); pairs (p, d) come
        # before pairs (d, q) in row-major order. Slot-major, (N - 1, N)
        slots = pair_index[~np.eye(n_wec, dtype=bool)].reshape(n_wec, n_wec - 1).T
        side = np.arange(n_wec) == iq[slots]
        query_row = row[slots]
        # both bodies of a pair share its diagonal curves; body b's force
        # of query row r is row b P + r of the flattened (2, P, n_w) forces,
        # and the pair frame is anchored at body p, so both forces carry
        # body p's phase
        force_row = side * len(first) + query_row
        anchor = ip[slots]
        forces = pc.forces.reshape(-1, grid.n)
        # one (N, n_w) term per slot: every device adds its N - 1 terms in
        # row-major pair order, and no (N, N - 1, n_w) block is built. The
        # product is force times phase, in place: numpy's complex multiply
        # is not commutative bit for bit
        term = np.empty((n_wec, grid.n), dtype=np.complex128)
        for s in range(n_wec - 1):
            added_diag += pc.added_mass_diag.take(query_row[s], axis=0)
            damping_diag += pc.damping_diag.take(query_row[s], axis=0)
            forces.take(force_row[s], axis=0, out=term)
            term *= phases.take(anchor[s], axis=0)
            excitation += term

    diag = np.arange(n_wec)
    added[:, diag, diag] = added_diag.T
    damping[:, diag, diag] = damping_diag.T
    return FarmCoefficients(
        grid=grid, added_mass=added, damping=damping, excitation=np.ascontiguousarray(excitation.T)
    )
