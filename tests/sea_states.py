"""Sea-state-by-sea-state power, the literal form of the climate weighting.

`optimize.evaluate_design` weights regular-wave power by
`climate.SiteClimate.climate_weights`, one weight per frequency. These
two functions do the same sum one sea state at a time, as the paper
writes it; the tests use them as the reference for that collapse.
"""

import numpy as np

from wecfarm import climate


def irregular_power(response_power, grid, hs, tp):
    """Sea-state mean power from regular-wave farm power.

    ``response_power`` is the per-frequency farm total [W per m^2 of
    wave amplitude] on ``grid``; the result sums
    2 S(omega) p(omega) d(omega) over the grid.
    """
    p = np.asarray(response_power, dtype=np.float64)
    if p.shape != grid.values.shape:
        raise ValueError("response power does not match the frequency grid")
    s = climate.jonswap_density(grid.values, hs, tp)
    return float(np.sum(2.0 * grid.spacing * s * p))


def lifetime_average_power(p_i_matrix, site, eff):
    """Lifetime-summed average power [W].

    Sums sea-state power against the per-year probabilities over the
    stationary lifetime and applies the efficiency chain. The per-year
    mean is this value divided by ``site.years``.
    """
    p_i = np.asarray(p_i_matrix, dtype=np.float64)
    if p_i.shape != site.probability.shape:
        raise ValueError("sea-state power does not match the climate grid")
    per_year = float(np.sum(p_i * site.probability))
    return eff.total * site.years * per_year
