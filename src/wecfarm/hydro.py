"""Hydrodynamic coefficients for heaving cylinder buoys.

A coefficient provider answers two queries on a frequency grid:

- ``single(geom, grid, env)``: the added mass, radiation damping and
  complex excitation force of one body in isolation, each (n_w,).
- ``pair(geom, separation, heading_angle, grid, env, curves=PAIR_CURVES)``:
  named curves of two identical bodies. The symmetric 2x2 added mass and
  damping matrices are held as their diagonal and off-diagonal entries,
  `added_mass_diag`, `damping_diag`, `added_mass_cross` and
  `damping_cross`, and `forces` is the excitation of body 1 and body 2.
  Scalar separation and heading give one pair, (n_w,) curves and (2, n_w)
  forces; (P,) arrays give P pairs, (P, n_w) curves and (2, P, n_w)
  forces, row i equal to the scalar query of row i. A batch fails with
  GeometryError if any row overlaps. `curves` names the curves the
  caller reads; a provider computes at least those and may return
  more, and a curve it did not compute is None. The matrices
  `added_mass`, `damping` (P, n_w, 2, 2) and `excitation` (P, n_w, 2)
  are derived from the curves on access. The answer carries `isolated`,
  the single-body answer its rows were built from, so a caller that
  needs both asks once.

The reference provider below uses documented closed forms (see
model_ledger_text) and computes only the asked curves; any object with
the same `single`/`pair` methods can stand in, which is how the learned
committees plug into the rest of the pipeline. It remembers its
previous `pair` query, rows and isolated body, because a layout step or
a sensitivity map moves one device at a time: at N = 10 that leaves 36
of the 45 pair rows as they were, and only the other 9 are computed.
The memo never holds more than one query. Its answers are read-only,
the curves and the isolated arrays alike, because the memo holds the
arrays it hands out.

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
    A Python float inside its bounds is passed by its own comparison.
    """
    inside = (bounds[0] <= values) & (values <= bounds[1])
    if inside is not True and not np.asarray(inside).all():
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
    def default(cls, count=200):
        """`count` evenly spaced frequencies over the band, 0.3 to 2.0 rad/s."""
        return cls(np.linspace(0.3, 2.0, count))

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


# the named curves of a pair answer: the diagonal and off-diagonal entries
# of the symmetric 2x2 added mass and damping matrices, and the forces
PAIR_CURVES = ("added_mass_diag", "damping_diag", "added_mass_cross", "damping_cross", "forces")


_CURVE_NAMES = frozenset(PAIR_CURVES)


def curve_set(curves):
    """The asked curves as a frozenset, rejecting names that are not PAIR_CURVES."""
    asked = frozenset(curves)
    if not asked <= _CURVE_NAMES:
        raise ValueError(f"unknown pair curves: {', '.join(sorted(asked - _CURVE_NAMES))}")
    return asked


@dataclass
class PairCoefficients:
    """One pair, or a batch of P pairs, as named curves.

    `added_mass_diag`, `damping_diag`, `added_mass_cross` and
    `damping_cross` are (P, n_w), and `forces` is the (2, P, n_w)
    excitation of body 1 and body 2; a curve that was not computed is
    None. `separation` and `heading_angle` are floats for one pair and
    (P,) arrays for a batch, and one pair drops the P axis. `isolated`
    is the SingleBodyCoefficients of the plant that the rows were built
    from, on the same grid. `added_mass`, `damping` (P, n_w, 2, 2) and
    `excitation` (P, n_w, 2) are derived afresh from the curves on each
    access.
    """

    grid: FrequencyGrid
    separation: float
    heading_angle: float
    isolated: SingleBodyCoefficients
    added_mass_diag: np.ndarray = None
    damping_diag: np.ndarray = None
    added_mass_cross: np.ndarray = None
    damping_cross: np.ndarray = None
    forces: np.ndarray = None

    def _curve(self, name):
        value = getattr(self, name)
        if value is None:
            raise LookupError(f"this pair answer holds no {name} curve; ask pair() for it")
        return value

    def _matrix(self, quantity):
        diag, cross = self._curve(f"{quantity}_diag"), self._curve(f"{quantity}_cross")
        matrix = np.empty(diag.shape + (2, 2))
        matrix[..., 0, 0] = matrix[..., 1, 1] = diag
        matrix[..., 0, 1] = matrix[..., 1, 0] = cross
        return matrix

    @property
    def added_mass(self):
        return self._matrix("added_mass")

    @property
    def damping(self):
        return self._matrix("damping")

    @property
    def excitation(self):
        return np.stack(self._curve("forces"), axis=-1)


def _row_arrays(separation, heading_angle):
    """(l, theta, batched): the rows of a pair query as matching (P,) arrays."""
    l = np.asarray(separation, dtype=np.float64)
    theta = np.asarray(heading_angle, dtype=np.float64)
    batched = l.ndim > 0 or theta.ndim > 0
    # reshape, not np.atleast_1d: this runs once per oracle label
    l = l.reshape(1) if l.ndim == 0 else l
    theta = theta.reshape(1) if theta.ndim == 0 else theta
    if l.ndim != 1 or l.shape != theta.shape:
        raise ValueError("separation and heading_angle must be scalars or matching (P,) arrays")
    return l, theta, batched


def pair_inputs(geom, separation, heading_angle):
    """Separations and headings of a pair query as (P,) arrays.

    Returns (l, theta, batched), where `batched` is False for scalar
    inputs. Raises GeometryError when any separation does not clear
    the body diameter.
    """
    l, theta, batched = _row_arrays(separation, heading_angle)
    close = l <= 2.0 * geom.radius
    if close.any():
        raise GeometryError(
            f"separation {l[close][0]:.3f} m does not clear the body diameter "
            f"{2 * geom.radius:.3f} m"
        )
    return l, theta, batched


def pair_result(grid, l, theta, batched, isolated, curves):
    """PairCoefficients from stacked curves built from `isolated`.

    `curves` maps PAIR_CURVES names to their stacked arrays, (P, n_w)
    and (2, P, n_w) for `forces`. An unbatched query drops the P axis.
    """
    if batched:
        return PairCoefficients(grid, l, theta, isolated, **curves)
    # the row axis is second to last in every curve
    rows = {name: a[..., 0, :] for name, a in curves.items()}
    return PairCoefficients(grid, float(l[0]), float(theta[0]), isolated, **rows)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


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
    stores nothing, so omega is checked only when the memo misses.

    An element's last bit depends on the array it is solved in: the
    iteration stops when every element has converged, so an element
    can take more steps inside a grid than alone. A scalar omega and
    the same omega inside a grid may differ by one ulp; callers that
    need the grid's k should index the grid's solution.
    """
    om = np.asarray(omega, dtype=np.float64)
    scalar = om.ndim == 0
    om = om.reshape(1) if scalar else om
    key = (om.shape, om.tobytes(), env.gravity, env.water_depth)
    k = _dispersion_cache.get(key)
    if k is None:
        if (om <= 0).any():
            raise ValueError("omega must be strictly positive")
        k = _newton_dispersion(om, env)
        if len(_dispersion_cache) >= 64:
            _dispersion_cache.clear()
        _dispersion_cache[key] = k
    if scalar:
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


def group_velocity(omega, env, k):
    """Group velocity v_g = d(omega)/dk at the dispersion solution k of omega."""
    om = np.asarray(omega, dtype=np.float64)
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


def phasor(angle, sign=1.0):
    """e^(i sign angle) for sign +1 or -1, without a complex exp.

    cos(angle) and sign sin(angle) are written into one complex block.
    It equals np.exp(sign * 1j * angle) bit for bit at about half its
    cost, except that e^(i (-0.0)) has the imaginary part -0.0 here and
    +0.0 there.
    """
    out = np.empty(np.shape(angle), dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    if sign < 0:
        np.negative(out.imag, out=out.imag)
    return out


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
    vg = group_velocity(om, env, k)
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


def pair_coefficients(geom, separation, heading_angle, grid, env, isolated=None,
                      curves=PAIR_CURVES):
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
    solve; every entry equals the scalar query's bit for bit.

    Only the named `curves` are computed, and the answer holds exactly
    those. J0 serves the damping curves and Y0 the added mass curves,
    at 2kl for a diagonal and at kl for a cross curve, so each of the
    two gets at most one call over the P x n_w phases its curves read,
    and the forces need neither. Each curve equals the same curve of
    the all-curves answer bit for bit.

    `isolated`, when given, is this geometry's single_coefficients
    answer on the same grid and environment; it saves computing it
    again. The answer carries it, computed or given, as `isolated`. The
    curves and the arrays of `isolated` are read-only.
    """
    curves = curve_set(curves)
    l, theta, batched = pair_inputs(geom, separation, heading_angle)
    om = grid.values
    k = solve_dispersion(om, env)
    single = single_coefficients(geom, grid, env) if isolated is None else isolated
    kl = l[:, None] * k
    envelope = np.exp(-l / (INTERACTION_RANGE_RADII * geom.radius))[:, None]
    out = {}
    for quantity, bessel in (("damping", kernels.j0), ("added_mass", kernels.y0)):
        names = [name for name in (f"{quantity}_diag", f"{quantity}_cross") if name in curves]
        if not names:
            continue
        multiples = [2.0 if name.endswith("_diag") else 1.0 for name in names]
        # one call over every asked phase; a lone phase needs no outer product
        if len(names) == 1:
            values = [bessel(multiples[0] * kl)]
        else:
            values = bessel(np.multiply.outer(multiples, kl))
        # -B/omega only when an added mass curve is asked
        amplitude = single.damping if quantity == "damping" else -(single.damping / om)
        for name, multiple, value in zip(names, multiples, values):
            if multiple == 2.0:
                shift = amplitude * INTERACTION_EPS * value * envelope
                out[name] = getattr(single, quantity) + shift
            else:
                out[name] = amplitude * value * envelope

    if "forces" in curves:
        correction = 1.0 + INTERACTION_EPS * np.sqrt(2.0 / (np.pi * kl)) * phasor(
            kl + 0.25 * np.pi
        ) * envelope
        x2 = (l * np.cos(theta))[:, None]
        forces = np.empty((2,) + kl.shape, dtype=np.complex128)
        # np.multiply, not `*`: the operator may swap its operands to reuse
        # a temporary right one, and numpy's complex multiply is not
        # commutative bit for bit
        np.multiply(single.excitation, correction, out=forces[0])
        np.multiply(forces[0], phasor(k * x2, -1.0), out=forces[1])
        out["forces"] = forces
    _read_only(single.added_mass, single.damping, single.excitation, *out.values())
    return pair_result(grid, l, theta, batched, single, out)


class ReferenceProvider:
    """Closed-form coefficient provider used as the labelling oracle.

    `single` computes the isolated body. `pair` computes the curves it
    is asked for and remembers its previous query: the rows and the
    isolated body they were built from. A layout step or a sensitivity
    map moves one device while the plant, the control and the other
    devices stay fixed, so most rows of a pair query repeat the query
    before it, and one-row labels of one plant compute its isolated body
    once. A row is keyed exactly, by the bits of its separation and
    heading, and a query is reused only when radius, slenderness, grid
    values, environment constants and the asked curves are equal too.
    Only the missing rows are computed, in one pair_coefficients call
    through the held isolated body, and the memo then holds this
    query's rows and nothing else, so it is bounded by one query. Every
    answer is bit-identical to a fresh provider's. The memo holds the
    read-only arrays it returns, so no caller can change what a later
    answer reads.
    """

    name = "reference"

    def __init__(self):
        self._pairs = None  # (context, isolated, {row key: row}, {curve: array})

    def single(self, geom, grid, env):
        return single_coefficients(geom, grid, env)

    def pair(self, geom, separation, heading_angle, grid, env, curves=PAIR_CURVES):
        curves = curve_set(curves)
        # pair_coefficients checks the separations of the rows it computes;
        # a held row passed that check under the same radius
        l, theta, batched = _row_arrays(separation, heading_angle)
        context = _context(geom, grid, env, curves)
        # exact row keys: the bits of each separation and heading
        keys = list(zip(l.view(np.int64).tolist(), theta.view(np.int64).tolist()))
        if self._pairs is not None and self._pairs[0] == context:
            _, isolated, rows, held = self._pairs
            hits = [rows.get(key) for key in keys]
        else:
            isolated, hits = single_coefficients(geom, grid, env), [None] * len(keys)
        missing = [i for i, row in enumerate(hits) if row is None]
        # the memo's isolated arrays under a new record, so that no caller
        # can rebind what the memo holds
        record = SingleBodyCoefficients(
            grid, isolated.added_mass, isolated.damping, isolated.excitation
        )
        if len(missing) == len(keys):
            answer = pair_coefficients(geom, l, theta, grid, env, record, curves)
            arrays = {name: getattr(answer, name) for name in curves}
            if not batched:
                answer = pair_result(grid, l, theta, batched, record, arrays)
        else:
            # the row axis is second to last in every curve
            arrays = {
                name: np.empty(old.shape[:-2] + (len(keys), old.shape[-1]), old.dtype)
                for name, old in held.items()
            }
            # held rows are copied run by run, as slices: a fancy-indexed
            # copy would gather them into a temporary first
            for start, source, length in _runs(hits):
                for name, out in arrays.items():
                    out[..., start:start + length, :] = held[name][..., source:source + length, :]
            if missing:
                c = pair_coefficients(geom, l[missing], theta[missing], grid, env, isolated, curves)
                for name, out in arrays.items():
                    out[..., missing, :] = getattr(c, name)
            _read_only(*arrays.values())
            answer = pair_result(grid, l, theta, batched, record, arrays)
        self._pairs = (context, isolated, {key: i for i, key in enumerate(keys)}, arrays)
        return answer


def _runs(hits):
    """(start, source, length) of every run of held rows in a query.

    `hits[i]` is the held row of query row i, or None; a run is a
    maximal stretch of query rows whose held rows follow one another.
    """
    runs = []
    for i, row in enumerate(hits):
        if row is None:
            continue
        if runs and runs[-1][0] + runs[-1][2] == i and runs[-1][1] + runs[-1][2] == row:
            runs[-1][2] += 1
        else:
            runs.append([i, row, 1])
    return runs


def _context(geom, grid, env, curves):
    """What every row of a query shares: plant, grid, environment and curves."""
    return (
        geom.radius,
        geom.slenderness,
        grid.values.tobytes(),
        env.water_depth,
        env.gravity,
        env.water_density,
        curves,
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
