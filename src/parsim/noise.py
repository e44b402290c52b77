"""Thermal (Brownian) pressure noise in the cell and the detection floor.

Fluctuation-dissipation
-----------------------
The gas in the cell behaves as a damped oscillator bathed in molecular
noise.  With damping rate Gamma_n the Langevin force R(t) obeys
<R(t) R(t')> = 2 D delta(t - t') with

    D = rho0 V Gamma_n k T,

fixed by requiring equipartition, rho0 V <u^2> = k T, for the velocity-like
mode coordinate u.  Its stationary autocorrelation is
<u(t) u(t')> = [D / ((rho0 V)^2 Gamma_n)] exp(-Gamma_n |t - t'|).

Spectral convention
-------------------
With the Fourier convention A(t) = integral dw exp(-i w t) A(w), the force
correlator reads <R(w) R(w')> = (D / pi) delta(w + w').  All power spectral
densities in this package are two-sided in angular frequency, normalized so
that the variance is the two-sided integral with measure dw / pi:

    <x^2> = integral_{-inf}^{inf} PSD_x(w) dw / pi.

The detector reads the pressure of acoustic modes of the gas in the cell;
a detector mode is one such gas mode, and w_1 is the angular frequency of
the lowest one it reads, the scenario's ``detector.noise_mode_omega``.  w_1
is an input: the package does not derive it from the cell's geometry.
Under that convention the thermal pressure-amplitude noise of a detector
mode at w_j is

    PSD_A(w) = rho0 c^2 w_j^2 Gamma_n k T / {V [(w_j^2 - w^2)^2 + (w Gamma_n)^2]}

whose plain two-sided integral with measure dw / 2 pi is rho0 c^2 k T / (2 V)
independently of w_j (half the variance, as the measure implies).  The
stochastic integrator in ``oracle`` reproduces this density pointwise,
which is what pins the normalization.

Noise-equivalent heating
------------------------
Equating the uniform-mode signal response at modulation frequency w to the
noise floor of the lowest detector mode (w << w_1) gives the detectable
volume-integrated heating per root bandwidth,

    V H_nep = sqrt[V Gamma_n rho0 c^2 k T (w^2 + Gamma_s^2)] / (w_1 (gamma - 1))

in W s^(1/2); dividing by V gives the heating density floor in
W m^-3 s^(1/2).  The small-modulation assumption w << w_1 is checked, not
enforced: ``nep`` returns it as ``NepResult.small_modulation``, and
``detection`` attaches the warning code where it is False.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .quantities import K_BOLTZMANN, Scenario, sound_speed, xp

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SpectrumSeries",
    "NepResult",
    "thermal_variance",
    "noise_spectrum",
    "nep",
]

# w above this fraction of the detector mode frequency is not small
_SMALL_MODULATION_FRACTION = 0.1


@dataclass(frozen=True)
class SpectrumSeries:
    """A power spectral density (real, non-negative, Pa^2 s) on an
    angular-frequency grid, in the convention of the module docstring:
    the variance is the two-sided integral of the PSD with measure dw / pi.
    """

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        import numpy as np

        omega = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", np.asarray(self.values))
        if omega.ndim != 1 or len(omega) != len(self.values):
            raise ValueError("omega and values must be 1-D and equal length")
        if len(omega) > 1 and not np.all(np.diff(omega) > 0.0):
            raise ValueError("frequency grid must be strictly increasing")
        if np.any(self.values < 0.0):
            raise ValueError("power density cannot be negative")


def thermal_variance(scenario: Scenario) -> float:
    """Equipartition pressure variance of a detector mode, rho0 c^2 k T / V, Pa^2."""
    gas = scenario.gas
    return (gas.density * sound_speed(gas)**2 * K_BOLTZMANN
            * gas.temperature / scenario.cell.volume)


def noise_spectrum(mode_omega: float, scenario: Scenario,
                   omega_grid) -> SpectrumSeries:
    """Thermal pressure-amplitude PSD of a detector mode at mode_omega.

    Its integral over the grid with the package's dw / pi two-sided measure
    (even extension) approaches ``thermal_variance`` as the grid covers the
    spectral support.
    """
    import numpy as np

    if mode_omega < 0.0:
        raise ValueError("mode frequency cannot be negative")
    w = np.asarray(omega_grid, dtype=float)
    damping = scenario.detector.noise_damping
    return SpectrumSeries(w, thermal_variance(scenario) * mode_omega**2 * damping
                          / ((mode_omega**2 - w**2) ** 2 + (w * damping) ** 2))


@dataclass(frozen=True)
class NepResult:
    """Noise-equivalent heating floor at a given modulation frequency.

    vh_nep  W s^(1/2), volume-integrated heating per root bandwidth
    h_nep   W m^-3 s^(1/2), heating density per root bandwidth
    small_modulation  the modulation lies well below the detector mode
    """

    vh_nep: float
    h_nep: float
    modulation_omega: float
    small_modulation: bool


def nep(scenario: Scenario) -> NepResult:
    """Noise-equivalent volumetric heating at the scenario's modulation
    frequency, evaluated against the lowest detector mode's thermal noise
    floor."""
    modulation_omega = scenario.laser.modulation_omega
    gas = scenario.gas
    det = scenario.detector
    c = sound_speed(gas)
    v = scenario.cell.volume
    # not thermal_variance(scenario) * ...: that order moves h_nep by an ulp
    vh2 = (v * det.noise_damping * gas.density * c**2
           * K_BOLTZMANN * gas.temperature
           * (modulation_omega**2 + det.signal_damping**2))
    vh = xp(vh2).sqrt(vh2) / (det.noise_mode_omega * (gas.gamma - 1.0))
    small = modulation_omega <= _SMALL_MODULATION_FRACTION * det.noise_mode_omega
    return NepResult(
        vh_nep=vh,
        h_nep=vh / v,
        modulation_omega=modulation_omega,
        small_modulation=small,
    )
