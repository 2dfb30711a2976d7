"""Irregular seas, site statistics and lifetime power aggregation.

A site is a probability matrix over (Hs, Tp) sea states, built by
kernel-density smoothing of measured records and evaluated at tensor
Gauss-Legendre nodes. Spectral power per sea state uses the JONSWAP
spectrum; lifetime power sums sea-state power against the per-year
probabilities and applies the conversion-chain efficiencies.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

PEAK_ENHANCEMENT = 3.3
SIGMA_BELOW = 0.07
SIGMA_ABOVE = 0.09

# window and resolution used to pin the zeroth moment to hs^2/16
_NORM_WINDOW = (0.01, 6.0)
_NORM_POINTS = 6001


def _jonswap_shape(omega, tp):
    wp = 2.0 * np.pi / tp
    sigma = np.where(omega <= wp, SIGMA_BELOW, SIGMA_ABOVE)
    peak = np.exp(-0.5 * ((omega - wp) / (sigma * wp)) ** 2)
    return omega**-5.0 * np.exp(-1.25 * (wp / omega) ** 4) * PEAK_ENHANCEMENT**peak


def _simpson(values, h):
    # uniform composite Simpson; values length must be odd
    return (h / 3.0) * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    )


def _shape_moment(tp):
    lo, hi = _NORM_WINDOW
    om = np.linspace(lo, hi, _NORM_POINTS)
    return _simpson(_jonswap_shape(om, tp), om[1] - om[0])


def jonswap_density(omega, hs, tp):
    """Spectral density S(omega) [m^2 s/rad] for one Tp and one or more Hs.

    The standard peak-enhanced form, rescaled numerically so that the
    zeroth moment over the fixed window [0.01, 6] rad/s equals
    hs^2/16 to better than 1e-6 relative. An (n,) array of Hs gives
    one row per Hs, each equal bit for bit to its scalar call.
    """
    # written so that NaN and inf fail the checks, as NaN fails every comparison
    hs_array = np.asarray(hs)
    if not (np.all((hs_array > 0) & (hs_array < np.inf)) and 0 < tp < np.inf):
        raise ValueError("hs and tp must be finite and strictly positive")
    om = np.asarray(omega, dtype=np.float64)
    if not np.all((om > 0) & (om < np.inf)):
        raise ValueError("omega must be finite and strictly positive")
    scale = (hs * hs / 16.0) / _shape_moment(tp)
    return np.multiply.outer(scale, _jonswap_shape(om, tp))


@dataclass
class SeaStateGrid:
    """Tensor Gauss-Legendre nodes over the (Hs, Tp) box."""

    hs_nodes: np.ndarray
    tp_nodes: np.ndarray
    quadrature_weights: np.ndarray

    @classmethod
    def build(cls, n_gq, hs_bounds, tp_bounds):
        if n_gq < 2:
            raise ValueError("need at least 2 quadrature nodes per dimension")
        x, w = np.polynomial.legendre.leggauss(n_gq)
        hs = 0.5 * (hs_bounds[0] + hs_bounds[1]) + 0.5 * (hs_bounds[1] - hs_bounds[0]) * x
        tp = 0.5 * (tp_bounds[0] + tp_bounds[1]) + 0.5 * (tp_bounds[1] - tp_bounds[0]) * x
        w_hs = 0.5 * (hs_bounds[1] - hs_bounds[0]) * w
        w_tp = 0.5 * (tp_bounds[1] - tp_bounds[0]) * w
        return cls(hs, tp, np.outer(w_hs, w_tp))


@dataclass
class EfficiencyChain:
    """Power conversion chain: pcc, operational availability, transmission."""

    pcc: float = 0.8
    operational_availability: float = 0.95
    transmission: float = 0.98

    def __post_init__(self):
        for name in ("pcc", "operational_availability", "transmission"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")

    @property
    def total(self):
        return self.pcc * self.operational_availability * self.transmission


@dataclass
class SiteClimate:
    """Per-year sea-state probabilities at tensor quadrature nodes."""

    site_id: str
    grid: SeaStateGrid
    probability: np.ndarray
    years: int
    _spectra: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # each check is written so that NaN fails it
        prob = np.asarray(self.probability, dtype=np.float64)
        if not np.all(prob >= 0):
            raise ValueError("probabilities must be non-negative numbers")
        if not abs(prob.sum() - 1.0) <= 1e-9:
            raise ValueError("probabilities must sum to one per year")
        if not self.years > 0:
            raise ValueError(f"years must be positive, got {self.years!r}")
        self.probability = prob

    def spectral_matrix(self, grid):
        """JONSWAP density of every sea state on a frequency grid.

        Shape (n_states, n_omega), cached per grid together with its
        `climate_weights`; states enumerate the (Hs, Tp) tensor nodes in
        row-major order. One jonswap_density call per Tp node covers
        every Hs node; a node that is not finite and strictly positive
        raises.
        """
        key = grid.values.tobytes()
        held = self._spectra.get(key)
        if held is None:
            per_tp = [
                jonswap_density(grid.values, self.grid.hs_nodes, tp) for tp in self.grid.tp_nodes
            ]
            spectra = np.stack(per_tp, axis=1).reshape(-1, grid.n)
            weights = 2.0 * grid.spacing * (self.probability.ravel() @ spectra)
            weights.flags.writeable = False
            held = self._spectra[key] = (spectra, weights)
        return held[0]

    def climate_weights(self, grid):
        """Frequency weights collapsing the sea-state sum for linear pipelines.

        Farm power is linear in the spectral density, so summing
        irregular-wave power over sea states equals one dot product of
        the regular-wave power with these weights,
        2 spacing (p @ spectral_matrix). They are computed once per grid,
        next to the spectra, and returned read-only; every call still
        goes through `spectral_matrix`, which fills the cache on a miss.
        """
        self.spectral_matrix(grid)
        return self._spectra[grid.values.tobytes()][1]


def silverman_bandwidths(records):
    """Per-dimension Silverman bandwidth sigma_i n^(-1/6) for 2-D data."""
    n = records.shape[0]
    sigma = records.std(axis=0, ddof=1)
    if np.any(sigma == 0):
        raise ValueError("degenerate records: zero variance gives zero bandwidth")
    return sigma * n ** (-1.0 / 6.0)


def build_site_climate(records, n_gq, bounds, years, site_id="site"):
    """Kernel-smoothed joint (Hs, Tp) probability on quadrature nodes.

    Parameters
    ----------
    records : (n, 2) array of (hs, tp) samples, n >= 30
    n_gq : nodes per dimension
    bounds : ((hs_lo, hs_hi), (tp_lo, tp_hi)), must enclose the records
    years : lifetime years; the climate is stationary, one KDE shared
        by every year
    """
    rec = np.asarray(records, dtype=np.float64)
    if rec.ndim != 2 or rec.shape[1] != 2:
        raise ValueError("records must be an (n, 2) array of (hs, tp)")
    if rec.shape[0] < 30:
        raise ValueError(f"need at least 30 records, got {rec.shape[0]}")
    (hs_lo, hs_hi), (tp_lo, tp_hi) = bounds
    if (
        rec[:, 0].min() < hs_lo
        or rec[:, 0].max() > hs_hi
        or rec[:, 1].min() < tp_lo
        or rec[:, 1].max() > tp_hi
    ):
        raise ValueError("records fall outside the configured bounds")

    bw = silverman_bandwidths(rec)
    grid = SeaStateGrid.build(n_gq, (hs_lo, hs_hi), (tp_lo, tp_hi))
    # product Gaussian kernel evaluated on the node tensor
    du = (grid.hs_nodes[:, None] - rec[None, :, 0]) / bw[0]
    dv = (grid.tp_nodes[:, None] - rec[None, :, 1]) / bw[1]
    eu = np.exp(-0.5 * du * du)
    ev = np.exp(-0.5 * dv * dv)
    density = (eu @ ev.T) / (rec.shape[0] * 2.0 * np.pi * bw[0] * bw[1])
    prob = density * grid.quadrature_weights
    prob /= prob.sum()
    return SiteClimate(site_id=site_id, grid=grid, probability=prob, years=int(years))


def objective_pv(p_a, geom, n_wec):
    """Lifetime power per unit submerged device volume [W/m^3]."""
    if n_wec < 1:
        raise ValueError("need at least one device")
    volume = n_wec * np.pi * geom.radius**2 * geom.draft
    return p_a / volume


def q_factor(farm_pa, isolated_pa):
    """Farm power over the summed power of isolated devices."""
    isolated = np.atleast_1d(np.asarray(isolated_pa, dtype=np.float64))
    total = isolated.sum()
    if total <= 0:
        raise ZeroDivisionError("isolated power must be strictly positive")
    return float(farm_pa / total)


# --- persistence ----------------------------------------------------------

SCHEMA_VERSION = 1


def read_records_csv(path):
    """Load (hs, tp) records from a two-column CSV with header hs_m,tp_s."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty records file")
        if [c.strip() for c in header] != ["hs_m", "tp_s"]:
            raise ValueError(f"{path}: expected header 'hs_m,tp_s', got {','.join(header)!r}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                raise ValueError(f"{path}:{lineno}: malformed record {row!r}")
    return np.array(rows)


def save_site(climate, path):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "site_id": climate.site_id,
        "years": climate.years,
        "hs_nodes": climate.grid.hs_nodes.tolist(),
        "tp_nodes": climate.grid.tp_nodes.tolist(),
        "quadrature_weights": climate.grid.quadrature_weights.tolist(),
        "probability": climate.probability.tolist(),
    }
    # strict JSON: a non-finite value raises before the file is opened
    text = json.dumps(doc, indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_site(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported site schema {doc.get('schema_version')!r}")
    grid = SeaStateGrid(
        np.array(doc["hs_nodes"]),
        np.array(doc["tp_nodes"]),
        np.array(doc["quadrature_weights"]),
    )
    return SiteClimate(
        site_id=doc["site_id"],
        grid=grid,
        probability=np.array(doc["probability"]),
        years=int(doc["years"]),
    )
