"""Hydrodynamic coefficients for heaving cylinder buoys.

A coefficient provider answers two queries on a frequency grid:

- ``single(geom, grid, env)``: the added mass, radiation damping and
  complex excitation force of one body in isolation, each (n_w,).
- ``pair(geom, separation, heading_angle, grid, env)``: the 2x2 added
  mass and damping matrices plus the excitation pair of two identical
  bodies. Scalar separation and heading give one pair, (n_w, 2, 2) and
  (n_w, 2); (P,) arrays give P pairs stacked on a leading axis,
  (P, n_w, 2, 2) and (P, n_w, 2), row i equal to the scalar query of
  row i. A batch fails with GeometryError if any row overlaps. The
  answer carries `isolated`, the single-body answer its rows were built
  from, so a caller that needs both asks once.

The reference provider below uses documented closed forms (see
model_ledger_text); any object with the same `single`/`pair` methods
can stand in, which is how the learned committees plug into the rest
of the pipeline. It remembers its previous `pair` query, rows and
isolated body, because a layout step or a sensitivity map moves one
device at a time: at N = 10 that leaves 36 of the 45 pair rows as they
were, and only the other 9 are computed. The memo never holds more
than one query.

Conventions: water depth h, gravity g, density rho; unit-amplitude
incident wave travelling along +x with phase zero at the origin; heave
only. In the pair frame body 1 sits at the origin and body 2 at
(l cos(theta), l sin(theta)).
"""

from dataclasses import dataclass

import numpy as np

from . import kernels


class GeometryError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


# Closed-form constants of the reference model. ADDED_MASS_BASE and
# ADDED_MASS_DECAY shape the single-body added mass, INTERACTION_EPS
# scales every pairwise correction, and INTERACTION_RANGE_RADII fixes
# the interaction decay length l0 = 20 R.
ADDED_MASS_BASE = 0.5
ADDED_MASS_DECAY = 0.3
INTERACTION_EPS = 0.25
INTERACTION_RANGE_RADII = 20.0


@dataclass
class Environment:
    """Site-independent physical constants."""

    water_depth: float = 50.0
    gravity: float = 9.81
    water_density: float = 1025.0

    def __post_init__(self):
        # written so that NaN fails the check, as it fails every comparison
        if not (self.water_depth > 0 and self.gravity > 0 and self.water_density > 0):
            raise ValueError("environment constants must be strictly positive")


# the plant box: radius and slenderness are the design variables, and the
# derived draft bound couples slenderness to radius
RADIUS_BOUNDS = (0.5, 10.0)
SLENDERNESS_BOUNDS = (0.2, 10.0)
DRAFT_BOUNDS = (0.5, 20.0)


def slenderness_interval(radius):
    """Admissible slenderness at a radius: the box row cut by the draft bound."""
    return (
        np.maximum(SLENDERNESS_BOUNDS[0], radius / DRAFT_BOUNDS[1]),
        np.minimum(SLENDERNESS_BOUNDS[1], radius / DRAFT_BOUNDS[0]),
    )


def _box_text(bounds):
    return f"[{bounds[0]:g}, {bounds[1]:g}]"


def _first_outside(name, values, bounds, fmt=""):
    """GeometryError naming the first value outside the closed bounds, if any.

    Written so that NaN fails the check, as it fails every comparison.
    """
    inside = (bounds[0] <= values) & (values <= bounds[1])
    if not np.asarray(inside).all():
        first = np.ravel(values)[np.argmin(inside)]
        raise GeometryError(f"{name} {first:{fmt}} outside {_box_text(bounds)}")


@dataclass
class WecGeometry:
    """Buoy plant variables: radius R and slenderness R/D.

    Both are floats for one plant or (U,) arrays for a batch of U
    plants. The draft D = radius/slenderness is derived; constructors
    reject geometries whose draft leaves DRAFT_BOUNDS or whose primary
    variables leave RADIUS_BOUNDS x SLENDERNESS_BOUNDS, naming the
    first offending value of a batch.
    """

    radius: float
    slenderness: float

    def __post_init__(self):
        _first_outside("radius", self.radius, RADIUS_BOUNDS)
        _first_outside("slenderness", self.slenderness, SLENDERNESS_BOUNDS)
        _first_outside("draft", self.draft, DRAFT_BOUNDS, ".3f")

    @property
    def draft(self):
        return self.radius / self.slenderness


class FrequencyGrid:
    """Strictly increasing angular frequencies with trapezoid weights.

    `spacing[i]` is the trapezoid quadrature weight of node i, so
    sum(spacing * f(values)) approximates the integral of f over the
    grid span.
    """

    def __init__(self, values):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("frequency grid needs at least one value")
        if not np.all(np.diff(v) > 0):
            raise ValueError("frequency grid must be strictly increasing")
        if v[0] <= 0:
            raise ValueError("frequencies must be positive")
        self.values = v
        d = np.zeros_like(v)
        if v.size > 1:
            d[1:-1] = 0.5 * (v[2:] - v[:-2])
            d[0] = 0.5 * (v[1] - v[0])
            d[-1] = 0.5 * (v[-1] - v[-2])
        self.spacing = d

    @classmethod
    def default(cls, lo=0.3, hi=2.0, count=200):
        return cls(np.linspace(lo, hi, count))

    @property
    def n(self):
        return self.values.size

    def matches(self, other):
        return self.n == other.n and np.array_equal(self.values, other.values)


@dataclass
class SingleBodyCoefficients:
    grid: FrequencyGrid
    added_mass: np.ndarray
    damping: np.ndarray
    excitation: np.ndarray


@dataclass
class PairCoefficients:
    """One pair, or a batch of P pairs on a leading axis.

    `separation` and `heading_angle` are floats for one pair and (P,)
    arrays for a batch. `isolated` is the SingleBodyCoefficients of the
    plant that the rows were built from, on the same grid.
    """

    grid: FrequencyGrid
    added_mass: np.ndarray
    damping: np.ndarray
    excitation: np.ndarray
    separation: float
    heading_angle: float
    isolated: SingleBodyCoefficients


def pair_inputs(geom, separation, heading_angle):
    """Separations and headings of a pair query as (P,) arrays.

    Returns (l, theta, batched), where `batched` is False for scalar
    inputs. Raises GeometryError when any separation does not clear
    the body diameter.
    """
    l = np.asarray(separation, dtype=np.float64)
    theta = np.asarray(heading_angle, dtype=np.float64)
    batched = l.ndim > 0 or theta.ndim > 0
    # reshape, not np.atleast_1d: this runs once per oracle label
    l = l.reshape(1) if l.ndim == 0 else l
    theta = theta.reshape(1) if theta.ndim == 0 else theta
    if l.ndim != 1 or l.shape != theta.shape:
        raise ValueError("separation and heading_angle must be scalars or matching (P,) arrays")
    close = l <= 2.0 * geom.radius
    if close.any():
        raise GeometryError(
            f"separation {l[close][0]:.3f} m does not clear the body diameter "
            f"{2 * geom.radius:.3f} m"
        )
    return l, theta, batched


def pair_result(grid, l, theta, batched, isolated, diagonal, cross, excitation):
    """PairCoefficients from stacked (P, n_w) curves built from `isolated`.

    `diagonal` and `cross` are (added mass, damping) tuples of the
    diagonal and off-diagonal entries of the symmetric 2x2 matrices;
    `excitation` is the (P, n_w, 2) force pair. An unbatched query
    drops the leading axis.
    """
    shape = l.shape + (grid.n, 2, 2)
    added = np.empty(shape)
    damping = np.empty(shape)
    for matrix, diag, off in zip((added, damping), diagonal, cross):
        matrix[..., 0, 0] = matrix[..., 1, 1] = diag
        matrix[..., 0, 1] = matrix[..., 1, 0] = off
    return _pair_answer(grid, l, theta, batched, isolated, added, damping, excitation)


def _pair_answer(grid, l, theta, batched, isolated, added, damping, excitation):
    if batched:
        return PairCoefficients(grid, added, damping, excitation, l, theta, isolated)
    return PairCoefficients(
        grid, added[0], damping[0], excitation[0], float(l[0]), float(theta[0]), isolated
    )


# kept for its traffic: a reference evaluation solves its grid 3 times and
# 1 of 60 calls missed over 20; a miss costs 170 us, a hit 9 (200 points)
_dispersion_cache = {}


def solve_dispersion(omega, env):
    """Wavenumber k > 0 with omega^2 = g k tanh(k h).

    Parameters
    ----------
    omega : float or ndarray
        Angular frequency [rad/s], strictly positive.
    env : Environment

    Returns
    -------
    float or ndarray matching the input shape.

    Newton iteration from the deep-water guess omega^2/g, halving the
    step whenever it would leave k <= 0. The residual is verified
    against 1e-10 * omega^2 before returning.

    Solutions are memoized by (omega bytes and shape, gravity, depth),
    at most 64 of them, and every call returns a fresh copy; an
    evaluation asks for the same grid several times. A call that raises
    stores nothing.

    An element's last bit depends on the array it is solved in: the
    iteration stops when every element has converged, so an element
    can take more steps inside a grid than alone. A scalar omega and
    the same omega inside a grid may differ by one ulp; callers that
    need the grid's k should index the grid's solution.
    """
    om = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    if np.any(om <= 0):
        raise ValueError("omega must be strictly positive")
    key = (om.shape, om.tobytes(), env.gravity, env.water_depth)
    k = _dispersion_cache.get(key)
    if k is None:
        k = _newton_dispersion(om, env)
        if len(_dispersion_cache) >= 64:
            _dispersion_cache.clear()
        _dispersion_cache[key] = k
    if np.ndim(omega) == 0:
        return float(k[0])
    return k.copy()


def _newton_dispersion(om, env):
    g = env.gravity
    h = env.water_depth
    k = om * om / g
    k = np.maximum(k, 1e-14)
    for _ in range(100):
        kh = np.minimum(k * h, 350.0)
        t = np.tanh(kh)
        f = om * om - g * k * t
        df = -g * (t + kh * (1.0 - t * t))
        k_new = k - f / df
        k_new = np.where(k_new <= 0, 0.5 * k, k_new)
        if np.all(np.abs(k_new - k) <= 1e-15 * k_new):
            k = k_new
            break
        k = k_new
    resid = np.abs(om * om - g * k * np.tanh(np.minimum(k * h, 350.0)))
    if np.any(resid > 1e-10 * om * om):
        raise NumericalError("dispersion iteration failed to converge")
    return k


def group_velocity(omega, env, k=None):
    """Group velocity v_g = d(omega)/dk at the dispersion solution."""
    om = np.asarray(omega, dtype=np.float64)
    if k is None:
        k = solve_dispersion(omega, env)
    kh = np.asarray(k, dtype=np.float64) * env.water_depth
    # sinh overflows harmlessly past ~350; clamp instead of warning
    ratio = 2.0 * kh / np.sinh(np.minimum(2.0 * kh, 700.0))
    n = 0.5 * (1.0 + np.where(kh < 300.0, ratio, 0.0))
    return n * om / k


def _excitation_magnitude(r, d, env, k):
    h = env.water_depth
    f0 = env.water_density * env.gravity * np.pi * r * r
    kr = k * r
    chi = np.where(kr < 1e-12, 1.0, 2.0 * kernels.j1(np.maximum(kr, 1e-12)) / np.maximum(kr, 1e-12))
    depth_factor = np.cosh(np.minimum(k * (h - d), 350.0)) / np.cosh(np.minimum(k * h, 350.0))
    return f0 * np.exp(-k * d) * depth_factor * chi


def single_coefficients(geom, grid, env):
    """Isolated-body coefficients on the grid.

    The excitation magnitude attenuates the hydrostatic force rho g pi
    R^2 by draft submergence and finite depth and by the Bessel factor
    chi(kR) = 2 J1(kR)/(kR); its phase is zero at the origin. Damping
    follows from the excitation through the Haskind relation
    B = k |F|^2 / (4 rho g v_g), so the two are consistent by
    construction. Added mass is the documented smooth form
    rho pi R^2 D (0.5 + 0.3 e^(-kR)).

    A scalar plant gives (n_w,) curves; a batch of U plants, radius and
    slenderness (U,) arrays, gives (U, n_w) curves, row i equal bit for
    bit to the scalar query of plant i.
    """
    om = grid.values
    k = solve_dispersion(om, env)
    vg = group_velocity(om, env, k=k)
    # plants on a leading axis; a scalar plant broadcasts as one row of (n_w,)
    r = np.asarray(geom.radius)[..., None]
    d = np.asarray(geom.draft)[..., None]
    fmag = _excitation_magnitude(r, d, env, k)
    damping = k * fmag * fmag / (4.0 * env.water_density * env.gravity * vg)
    added = (
        env.water_density * np.pi * r * r * d
        * (ADDED_MASS_BASE + ADDED_MASS_DECAY * np.exp(-k * r))
    )
    return SingleBodyCoefficients(
        grid=grid,
        added_mass=added,
        damping=damping,
        excitation=fmag.astype(np.complex128),
    )


def pair_coefficients(geom, separation, heading_angle, grid, env, isolated=None):
    """Two-body coefficients in the pair-local frame.

    Cross radiation terms follow the cylindrical spreading kernel,
    B12 = B J0(kl) and omega A12 = -B Y0(kl), and the diagonal picks up
    corrections at twice the phase, scaled by INTERACTION_EPS. Every
    interaction term carries the range envelope e^(-l/l0) with
    l0 = INTERACTION_RANGE_RADII * R, so widely separated bodies
    decouple cleanly. Excitation multiplies the isolated force by
    (1 + eps sqrt(2/(pi k l)) e^(i(kl+pi/4)) e^(-l/l0)) and by the
    travelling-wave phase e^(-i k x) of each body's x coordinate.

    `separation` and `heading_angle` are scalars or (P,) arrays (see
    the module docstring for the shapes). A batch shares one dispersion
    solve, and its P x n_w arguments kl and 2kl go through one J0 and
    one Y0 call; every entry equals the scalar query's bit for bit.

    `isolated`, when given, is this geometry's single_coefficients
    answer on the same grid and environment; it saves computing it
    again. The answer carries it, computed or given, as `isolated`.
    """
    l, theta, batched = pair_inputs(geom, separation, heading_angle)
    om = grid.values
    k = solve_dispersion(om, env)
    single = single_coefficients(geom, grid, env) if isolated is None else isolated
    kl = l[:, None] * k
    envelope = np.exp(-l / (INTERACTION_RANGE_RADII * geom.radius))[:, None]
    bessel_args = np.stack([2.0 * kl, kl])
    j0_2kl, j0_kl = kernels.j0(bessel_args)
    y0_2kl, y0_kl = kernels.y0(bessel_args)
    b_s = single.damping
    db11 = b_s * INTERACTION_EPS * j0_2kl * envelope
    da11 = -(b_s / om) * INTERACTION_EPS * y0_2kl * envelope
    b12 = b_s * j0_kl * envelope
    a12 = -(b_s / om) * y0_kl * envelope

    correction = 1.0 + INTERACTION_EPS * np.sqrt(2.0 / (np.pi * kl)) * np.exp(
        1j * (kl + 0.25 * np.pi)
    ) * envelope
    x2 = (l * np.cos(theta))[:, None]
    excitation = np.empty(l.shape + (grid.n, 2), dtype=np.complex128)
    excitation[..., 0] = single.excitation * correction
    excitation[..., 1] = single.excitation * correction * np.exp(-1j * k * x2)
    return pair_result(
        grid,
        l,
        theta,
        batched,
        single,
        diagonal=(single.added_mass + da11, b_s + db11),
        cross=(a12, b12),
        excitation=excitation,
    )


class ReferenceProvider:
    """Closed-form coefficient provider used as the labelling oracle.

    `single` computes the isolated body. `pair` remembers its previous
    query: the rows and the isolated body they were built from. A layout
    step or a sensitivity map moves one device while the plant, the
    control and the other devices stay fixed, so most rows of a pair
    query repeat the query before it, and one-row labels of one plant
    compute its isolated body once. A row is keyed exactly, by the bits
    of its separation and heading, and a query is reused only when
    radius, slenderness, grid values and environment constants are
    equal too. Only the missing rows are computed, in one
    pair_coefficients call through the held isolated body, and the memo
    then holds this query's rows and nothing else, so it is bounded by
    one query. Every answer is bit-identical to a fresh provider's, and
    the memo keeps its own copies, so a caller may modify what it gets
    back, `isolated` included.
    """

    name = "reference"

    def __init__(self):
        self._pairs = None  # (context, isolated, {row key: row}, (added, damping, excitation))

    def single(self, geom, grid, env):
        return single_coefficients(geom, grid, env)

    def pair(self, geom, separation, heading_angle, grid, env):
        l, theta, batched = pair_inputs(geom, separation, heading_angle)
        context = _context(geom, grid, env)
        # exact row keys: the bits of each separation and heading
        keys = list(zip(l.view(np.int64).tolist(), theta.view(np.int64).tolist()))
        if self._pairs is not None and self._pairs[0] == context:
            _, isolated, rows, held = self._pairs
        else:
            isolated, rows, held = single_coefficients(geom, grid, env), {}, None
        hits = [rows.get(key) for key in keys]
        missing = [i for i, row in enumerate(hits) if row is None]
        if len(missing) == len(keys):
            c = pair_coefficients(geom, l, theta, grid, env, isolated)
            arrays = (c.added_mass, c.damping, c.excitation)
        else:
            found = [i for i, row in enumerate(hits) if row is not None]
            reused = [hits[i] for i in found]
            arrays = tuple(np.empty((len(keys),) + old.shape[1:], old.dtype) for old in held)
            for out, old in zip(arrays, held):
                out[found] = old[reused]
            if missing:
                c = pair_coefficients(geom, l[missing], theta[missing], grid, env, isolated)
                for out, new in zip(arrays, (c.added_mass, c.damping, c.excitation)):
                    out[missing] = new
        self._pairs = (
            context,
            isolated,
            {key: i for i, key in enumerate(keys)},
            tuple(a.copy() for a in arrays),
        )
        answer = SingleBodyCoefficients(
            grid, isolated.added_mass.copy(), isolated.damping.copy(), isolated.excitation.copy()
        )
        return _pair_answer(grid, l, theta, batched, answer, *arrays)


def _context(geom, grid, env):
    """What every row of a query shares: plant, grid and environment."""
    return (
        geom.radius,
        geom.slenderness,
        grid.values.tobytes(),
        env.water_depth,
        env.gravity,
        env.water_density,
    )


def model_ledger_text():
    """Plain-text record of every closed-form constant of the reference model."""
    lines = [
        "reference hydrodynamic model, closed-form constants",
        "===================================================",
        "",
        "dispersion        omega^2 = g k tanh(k h); Newton from omega^2/g,",
        "                  residual < 1e-10 omega^2",
        "group velocity    v_g = (omega/2k) (1 + 2kh/sinh 2kh)",
        "",
        "excitation        |F| = rho g pi R^2 exp(-k D) cosh(k(h-D))/cosh(kh)",
        "                      * 2 J1(kR)/(kR); phase 0 at the body centre",
        "damping           B = k |F|^2 / (4 rho g v_g)   (Haskind)",
        f"added mass        A = rho pi R^2 D ({ADDED_MASS_BASE} + {ADDED_MASS_DECAY} exp(-kR))",
        "",
        f"interaction eps   {INTERACTION_EPS}",
        f"interaction range l0 = {INTERACTION_RANGE_RADII:g} R; every pair term is",
        "                  damped by exp(-l/l0)",
        "cross radiation   B12 = B J0(kl) exp(-l/l0)",
        "                  A12 = -(B/omega) Y0(kl) exp(-l/l0)",
        "diagonal shift    dB11 = eps B J0(2kl) exp(-l/l0)",
        "                  dA11 = -eps (B/omega) Y0(2kl) exp(-l/l0)",
        "pair excitation   F_j = F exp(-i k x_j)",
        "                      * (1 + eps sqrt(2/(pi kl)) exp(i(kl+pi/4)) exp(-l/l0))",
        "",
        "bessel routines   fitted polynomials for x < 12, fitted Hankel form above;",
        "                  absolute error < 2e-15 on [0.01, 500]",
        "",
    ]
    return "\n".join(lines)
