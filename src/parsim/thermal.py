"""Particle heating, gas-collision cooling, and heat-transfer efficiency.

A particle that absorbs vibrational quanta warms by
dT = f_R N_A hbar(w_p - w_s) / c_v per mole-averaged excitation cycle and
cools by molecular collisions with the buffer gas.  Each collision carries
away of order k T_s, so with N_c collisions per second the temperature
relaxes exponentially with time constant

    tau = (c_v / R) (N_S / N_c)

where N_S is the number of excited molecules per particle.  The model
assumes a unit accommodation coefficient: every collision leaves in thermal
equilibrium with the particle's surface.  A smaller coefficient, the
order-one efficiency of energy exchange per collision, would lengthen tau
by its inverse.

Heat reaches the gas, and therefore the acoustic signal, only through the
collisional channel.  Radiation is the competing loss; its timescale is the
deposited energy divided by the blackbody power at the particle's peak
temperature.  When collisions beat both the modulation timescale 1/w and
radiation by a comfortable margin (DEFAULT_DOMINANCE_RATIO, 10), the
transfer efficiency eta is 1; otherwise the collisional fraction
(1/tau_coll) / (1/tau_coll + 1/tau_rad) applies.  The stage returns which
case holds as ``EfficiencyResult.separated``, and ``detection`` attaches
the warning code where it is False.

The modulation timescale is taken as 1/w, not the full period 2 pi / w,
matching how modulation times are usually quoted for these estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .quantities import (
    AVOGADRO,
    GAS_CONSTANT,
    HBAR,
    K_BOLTZMANN,
    STEFAN_BOLTZMANN,
    GasProperties,
    Scenario,
    in_range,
    is_array,
    xp,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EfficiencyResult",
    "ThermalReport",
    "collision_rate",
    "temperature_rise",
    "collisional_timescale",
    "radiative_power",
    "transfer_efficiency",
    "thermal_report",
]

DEFAULT_DOMINANCE_RATIO = 10.0


def collision_rate(gas: GasProperties, radius: float) -> float:
    """Gas-molecule collision rate on a sphere of the given radius, 1/s.

    N_c = P 4 pi r^2 / (2 m_g u_g) with u_g = sqrt(3 k T / m_g) the rms
    molecular speed: flux of momentum-carrying molecules onto the surface.
    """
    u_g2 = 3.0 * K_BOLTZMANN * gas.temperature / gas.molecule_mass
    u_g = xp(u_g2).sqrt(u_g2)
    return gas.pressure * 4.0 * math.pi * radius**2 / (2.0 * gas.molecule_mass * u_g)


def temperature_rise(particle_molar_heat: float, raman_fraction: float,
                     raman_shift: float) -> float:
    """Temperature gained per excitation cycle, K.

    dT = f_R N_A hbar dw / c_v: every active molecule receives one quantum
    hbar dw, a fraction f_R of which is degraded to heat in the particle.
    """
    return (raman_fraction * AVOGADRO * HBAR * raman_shift
            / particle_molar_heat)


def collisional_timescale(molecule_count: float, collisions_per_second: float,
                          molar_heat: float) -> float:
    """Cooling time constant tau = (c_v/R)(N_S/N_c), s.

    A collision rate at 0 or inf is refused by in_range at the first
    sweep point that holds it.
    """
    in_range("the collision rate is", collisions_per_second)
    return (molar_heat / GAS_CONSTANT) * (molecule_count / collisions_per_second)


def radiative_power(temperature: float, radius: float) -> float:
    """Blackbody power radiated by a sphere: sigma T^4 4 pi r^2, W."""
    return STEFAN_BOLTZMANN * temperature**4 * 4.0 * math.pi * radius**2


@dataclass(frozen=True)
class EfficiencyResult:
    """Heat-transfer efficiency into the gas with its justification.

    eta               fraction of deposited heat reaching the gas in time
    modulation_time   s, 1/w for the scenario's modulation frequency
    drive_separation      modulation_time / tau_coll
    radiative_separation  tau_rad / tau_coll
    chain_separation      tau_rad / modulation_time
    separated         collisions dominate both other timescales, so eta == 1
    """

    eta: float
    modulation_time: float
    drive_separation: float
    radiative_separation: float
    chain_separation: float
    separated: bool | np.ndarray


def transfer_efficiency(tau_collisional: float, tau_radiative: float,
                        modulation_omega: float) -> EfficiencyResult:
    """Fraction of deposited heat that reaches the gas within a cycle.

    eta = 1 when collisions dominate: tau_coll shorter than the modulation
    timescale AND shorter than the radiative timescale, both by at least
    DEFAULT_DOMINANCE_RATIO.  Otherwise the collisional branching fraction is
    returned, with separated False.  The inputs are positive, as
    thermal_report and validation leave them.
    """
    t_mod = 1.0 / modulation_omega
    drive_sep = t_mod / tau_collisional
    rad_sep = tau_radiative / tau_collisional
    chain_sep = tau_radiative / t_mod
    separated = ((drive_sep >= DEFAULT_DOMINANCE_RATIO)
                 & (rad_sep >= DEFAULT_DOMINANCE_RATIO))
    collisional_fraction = tau_radiative / (tau_radiative + tau_collisional)
    if is_array(separated):
        eta = xp(separated).where(separated, 1.0, collisional_fraction)
    else:
        eta = 1.0 if separated else collisional_fraction
    return EfficiencyResult(eta, t_mod, drive_sep, rad_sep, chain_sep,
                            separated)


@dataclass(frozen=True)
class ThermalReport:
    """Full thermal chain for one scenario."""

    collision_rate: float        # 1/s, at the particle's equivalent radius
    temperature_rise: float      # K
    peak_temperature: float      # K, ambient plus the rise
    collisional_timescale: float  # s
    deposited_energy: float      # J per particle per cycle
    radiative_power: float       # W at the peak temperature
    radiative_timescale: float   # s
    efficiency: EfficiencyResult

    @property
    def eta(self) -> float:
        return self.efficiency.eta


def thermal_report(scenario: Scenario) -> ThermalReport:
    """Evaluate the whole heating/cooling chain for a scenario.

    A collision rate, timescale or radiative power at 0 or inf is refused
    by in_range at the first sweep point that holds it.
    """
    particle = scenario.particle
    gas = scenario.gas

    n_c = collision_rate(gas, particle.equivalent_radius)
    d_t = temperature_rise(particle.molar_heat, particle.raman_fraction,
                           scenario.laser.raman_shift)
    tau_c = in_range("the collisional timescale is",
                     collisional_timescale(particle.molecule_count, n_c,
                                           particle.molar_heat))
    peak_t = gas.temperature + d_t
    p_rad = in_range("the radiative power is",
                     radiative_power(peak_t, particle.equivalent_radius))
    e_dep = particle.molecule_count * HBAR * scenario.laser.raman_shift
    tau_rad = in_range("the radiative timescale is", e_dep / p_rad)
    eff = transfer_efficiency(tau_c, tau_rad, scenario.laser.modulation_omega)
    return ThermalReport(
        collision_rate=n_c,
        temperature_rise=d_t,
        peak_temperature=peak_t,
        collisional_timescale=tau_c,
        deposited_energy=e_dep,
        radiative_power=p_rad,
        radiative_timescale=tau_rad,
        efficiency=eff,
    )
