"""Frequency-domain equation of motion and regular-wave power.

Per frequency the farm motion solves

    [-omega^2 (M + A) + G + K_pto + i omega (B + B_pto)] xi = F_e

with M, G, K_pto, B_pto diagonal and A, B the composed farm matrices.
Time-average absorbed power per device is the Hermitian form
0.5 omega^2 B_pto |xi|^2, real and non-negative for B_pto >= 0.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .hydro import NumericalError

PTO_STIFFNESS_BOUNDS = (-5e5, 5e5)
PTO_DAMPING_BOUNDS = (0.0, 5e5)


def _vector(values):
    """float64 array of at least one dimension, as np.atleast_1d gives."""
    a = np.asarray(values, dtype=np.float64)
    return a.reshape(1) if a.ndim == 0 else a


def _within(values, bounds):
    """Whether every value lies in the closed bounds.

    NaN fails, as it fails every comparison; one value is compared as a
    Python float.
    """
    lo, hi = bounds
    if values.size == 1:
        return lo <= values.item() <= hi
    return bool(np.all((lo <= values) & (values <= hi)))


def _varies(values):
    """Whether any two entries differ (-0.0 equals 0.0, as in np.unique)."""
    return values.size > 1 and bool((values != values.flat[0]).any())


@dataclass
class PtoSettings:
    """Linear spring-damper power take-off, uniform or per-device."""

    stiffness: np.ndarray
    damping: np.ndarray
    mode: str = "farm-uniform"

    def __post_init__(self):
        self.stiffness = _vector(self.stiffness)
        self.damping = _vector(self.damping)
        if self.mode not in ("farm-uniform", "per-device"):
            raise ValueError(f"unknown pto mode {self.mode!r}")
        if not _within(self.stiffness, PTO_STIFFNESS_BOUNDS):
            raise ValueError("pto stiffness outside its design bounds")
        if not _within(self.damping, PTO_DAMPING_BOUNDS):
            raise ValueError("pto damping outside its design bounds")
        # NaN failed the bounds, so equality is all that is left to test
        if self.mode == "farm-uniform" and (_varies(self.stiffness) or _varies(self.damping)):
            raise ValueError("farm-uniform pto requires identical entries")

    def check_device_count(self, n_devices):
        """Raise unless each array has one entry or one per device."""
        if self.stiffness.size not in (1, n_devices) or self.damping.size not in (1, n_devices):
            raise ValueError("pto dimensions do not match the device count")

    def arrays_for(self, n_devices):
        self.check_device_count(n_devices)
        k = self.stiffness
        b = self.damping
        if k.size == 1:
            k = np.full(n_devices, k[0])
        if b.size == 1:
            b = np.full(n_devices, b[0])
        return k, b


def body_mass(geom, env):
    """Displaced-water mass of the half-submerged cylinder, rho pi R^2 D."""
    return env.water_density * np.pi * geom.radius**2 * geom.draft


def hydrostatic_coefficient(geom, env):
    """Waterplane stiffness G = rho g pi R^2."""
    return env.water_density * env.gravity * np.pi * geom.radius**2


def solve_motion(coeffs, geom, pto, env):
    """Complex heave amplitudes per metre of wave amplitude, (n_omega, N).

    Assembles the impedance matrix at every grid frequency and solves
    the dense complex systems in one batch. The residual of every solve
    is checked against 1e-9 ``|F_e|``, and a NaN residual fails the
    check; a singular or non-finite system is reported with its
    frequency.
    """
    om = coeffs.grid.values
    n_wec = coeffs.n_devices
    k_pto, b_pto = pto.arrays_for(n_wec)
    m = body_mass(geom, env)
    g_hs = hydrostatic_coefficient(geom, env)

    # the impedance, written in place into one complex block. The real
    # part is 0 - omega^2 A off the diagonal and (0 - omega^2 A) + (G +
    # K_pto - omega^2 M) on it, which equals G + K_pto - omega^2 M -
    # omega^2 A bit for bit; the imaginary part is omega B, plus omega
    # B_pto on the diagonal
    lhs = np.empty(coeffs.added_mass.shape, dtype=np.complex128)
    np.multiply((om**2)[:, None, None], coeffs.added_mass, out=lhs.real)
    np.subtract(0.0, lhs.real, out=lhs.real)
    np.multiply(om[:, None, None], coeffs.damping, out=lhs.imag)
    on_diagonal = lhs.reshape(om.size, -1)[:, :: n_wec + 1]
    on_diagonal.real += g_hs + k_pto[None, :] - om[:, None] ** 2 * m
    on_diagonal.imag += om[:, None] * b_pto[None, :]

    try:
        motion = kernels.solve_batch(lhs, coeffs.excitation)
    except np.linalg.LinAlgError:
        motion = _solve_identifying_failure(lhs, coeffs.excitation, om)
    resid = np.abs(np.matmul(lhs, motion[:, :, None])[:, :, 0] - coeffs.excitation)
    # written so that a NaN residual fails too
    bad = ~(resid.max(axis=1) <= 1e-9 * np.maximum(
        np.abs(coeffs.excitation).max(axis=1), 1e-300
    ))
    if bad.any():
        raise NumericalError(
            f"motion solve residual too large at omega={om[np.argmax(bad)]:.6g}"
        )
    return motion


def _solve_identifying_failure(lhs, rhs, om):
    out = np.empty_like(rhs)
    for j in range(om.size):
        try:
            out[j] = np.linalg.solve(lhs[j], rhs[j])
        except np.linalg.LinAlgError:
            raise NumericalError(f"singular system matrix at omega={om[j]:.6g}")
    return out


def regular_wave_power(grid, motion, pto):
    """Per-device and summed farm power, 0.5 omega^2 B_pto |xi|^2.

    ``motion`` is the (n_omega, N) answer of `solve_motion` on ``grid``.

    Returns
    -------
    per_device : (n_omega, N) array [W per m^2 amplitude]
    farm_total : (n_omega,) array
    """
    om = grid.values
    _, b_pto = pto.arrays_for(motion.shape[1])
    per_device = 0.5 * om[:, None] ** 2 * b_pto[None, :] * np.abs(motion) ** 2
    return per_device, per_device.sum(axis=1)
