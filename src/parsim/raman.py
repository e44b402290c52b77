"""Stimulated Raman gain and the heat it deposits in particle material.

A Stokes beam crossing a medium of Raman-active molecules grows as
n_s(z) = n_s(0) exp(g z).  For Stokes-type stimulated scattering the gain
coefficient is

    g = [8 pi^2 N v_s^2 / (hbar w_s^3 dnu)] (dsigma/dOmega) I_p f_pop

where N is the active molecule density, v_s = c0/n the Stokes phase
velocity, w_s the angular Stokes frequency, dnu the transition linewidth,
dsigma/dOmega the differential cross section, I_p the pump intensity and
f_pop = 1 - exp(-hbar (w_p - w_s) / k T) the thermal population contrast
between the two vibrational levels.

Linewidth convention: quoted Raman linewidths are ordinary frequencies in
Hz while w_s here is angular, so the formula is ambiguous by a factor of
2 pi depending on how dnu is read.  Both readings are supported through
``linewidth_convention``: "ordinary" uses the quoted Hz value as is (the
default), "angular" multiplies it by 2 pi.  Results record which reading
produced them.

Of the optical power transferred from pump to Stokes, the fraction
(w_p - w_s)/w_s is left behind in the medium as vibrational quanta; the
share of those quanta that decays collisionally (rate Gamma_c against
radiative rate Gamma_r) becomes heat.  That is the photoacoustic source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quantities import HBAR, K_BOLTZMANN, SPEED_OF_LIGHT, Refusal, Scenario, xp

__all__ = [
    "RamanGainResult",
    "HeatDeposition",
    "LINEWIDTH_CONVENTIONS",
    "gain_coefficient",
    "heat_source_density",
    "population_factor",
]

LINEWIDTH_CONVENTIONS = ("ordinary", "angular")


@dataclass(frozen=True)
class RamanGainResult:
    """Gain of the Stokes beam through the Raman-active medium.

    gain                 1/m, g at the scenario's pump intensity
    gain_factor          m/W, G = g / I_p, independent of intensity
    population_factor    dimensionless thermal level contrast in [0, 1]
    stokes_velocity      m/s, phase velocity at the Stokes frequency
    linewidth_convention which reading of the quoted linewidth was used
    """

    gain: float
    gain_factor: float
    population_factor: float
    stokes_velocity: float
    linewidth_convention: str


@dataclass(frozen=True)
class HeatDeposition:
    """Volumetric heating of the particle medium by the Raman process.

    h_r              W/m^3, heat deposited per unit volume of particle medium
    deposition_rate  W/m^3, energy left as vibrational quanta before the
                     collisional/radiative branching is applied
    branching        Gamma_c / (Gamma_c + Gamma_r), fraction degraded to heat
    """

    h_r: float
    deposition_rate: float
    branching: float


def population_factor(raman_shift: float, temperature: float) -> float:
    """Thermal population contrast 1 - exp(-hbar dw / kT), in [0, 1]."""
    x = HBAR * raman_shift / (K_BOLTZMANN * temperature)
    return -xp(x).expm1(-x)


def gain_coefficient(scenario: Scenario,
                     linewidth_convention: str = "ordinary") -> RamanGainResult:
    """Stimulated Raman gain coefficient for the scenario's beams and medium."""
    if linewidth_convention not in LINEWIDTH_CONVENTIONS:
        raise Refusal(f"unknown linewidth convention {linewidth_convention!r}; "
                      f"expected one of {LINEWIDTH_CONVENTIONS}")
    laser = scenario.laser
    particle = scenario.particle

    v_s = SPEED_OF_LIGHT / laser.refractive_index
    dnu = particle.linewidth_hz
    if linewidth_convention == "angular":
        dnu = 2.0 * math.pi * dnu

    f_pop = population_factor(laser.raman_shift, scenario.gas.temperature)
    gain_factor = (8.0 * math.pi**2 * particle.active_density * v_s**2
                   * particle.raman_cross_section * f_pop
                   / (HBAR * laser.stokes_omega**3 * dnu))
    return RamanGainResult(
        gain=gain_factor * laser.pump_intensity,
        gain_factor=gain_factor,
        population_factor=f_pop,
        stokes_velocity=v_s,
        linewidth_convention=linewidth_convention,
    )


def heat_source_density(scenario: Scenario,
                        gain: RamanGainResult) -> HeatDeposition:
    """Heat deposited per unit volume of particle medium, W/m^3.

    The Stokes beam gains G I_p I_s per unit length; the fraction
    (w_p - w_s)/w_s of the transferred power stays in the medium, and the
    collisional branch of the vibrational decay turns it into heat.
    """
    laser = scenario.laser
    particle = scenario.particle
    branching = particle.collisional_rate / (particle.collisional_rate
                                             + particle.radiative_rate)

    deposition_rate = (laser.raman_shift / laser.stokes_omega
                       * gain.gain_factor
                       * laser.pump_intensity * laser.stokes_intensity)
    return HeatDeposition(
        h_r=branching * deposition_rate,
        deposition_rate=deposition_rate,
        branching=branching,
    )
