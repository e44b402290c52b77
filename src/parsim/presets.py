"""Ready-made scenarios.

The headline preset is a bacterial-spore detection setup: single
micron-scale spores suspended in air at standard conditions inside a
closed cylindrical cell, interrogated by a pump/Stokes pair tuned to a
strong marker Raman line (calcium dipicolinate, the spore's dominant
Raman-active component) and read out by a condenser-microphone style
acoustic resonator.  Values are order-of-magnitude engineering numbers
for that configuration, not a calibrated instrument model.

The cell radius is chosen so the cell volume is exactly 1e-8 m^3 at
10 cm length, which keeps thermodynamic noise figures round; it is
within a factor of two of the confocal optimum for near-infrared beams,
r = sqrt(lambda l / pi), the radius at which the cell just contains a
focused diffraction-limited beam of wavelength lambda over its length l.
"""

from __future__ import annotations

import math

from .quantities import (
    ATOMIC_MASS,
    CellGeometry,
    DetectorNoiseSpec,
    GasProperties,
    LaserDrive,
    ParticleSpec,
    Refusal,
    Scenario,
    validate_scenario,
)

__all__ = ["ANTHRAX_STP_SUMMARY", "anthrax_stp", "build_preset"]

# the one-line description `parsim presets` prints for anthrax_stp
ANTHRAX_STP_SUMMARY = "airborne bacterial spores, air at STP, 10 cm cell"

CELL_LENGTH = 0.1          # m
CELL_VOLUME = 1.0e-8       # m^3


def anthrax_stp() -> Scenario:
    """Spore detection in open air: the reference detection-limit scenario.

    Gas: air at standard temperature and pressure, treated as diatomic.

    Laser: Stokes seed at 400 THz (near infrared), pump offset by the
    1e14 rad/s marker shift, both at 1e12 W/m^2 (a kW focused to ~30 um),
    slow 100 rad/s amplitude modulation matched to the lock-in bandwidth.

    Particle: a 2e-18 m^3 spore carrying 1e12 marker molecules at
    4e26 m^-3 with a 3.25e-33 m^2/sr differential cross-section and a
    64.5 GHz linewidth.  A tenth of the deposited quanta heat the spore;
    collisional de-excitation dominates radiative decay by nine orders.

    Detector: acoustic readout of a gas mode of the cell at
    w_1 = 4e4 rad/s (~6 kHz), the noise mode whose pressure variance is
    rho0 c^2 k T / V.  Its damping (5e4 rad/s) reflects the heavy loading
    of that mode by the microphone; the signal bandwidth (100 rad/s) is
    the lock-in detection bandwidth around the modulation tone.  w_1 is an
    input: this cell's own first axial mode lies at 1.04e4 rad/s.
    """
    scenario = Scenario(
        gas=GasProperties(
            pressure=101325.0,
            temperature=300.0,
            density=1.3,
            gamma=1.4,
            molecule_mass=28.0 * ATOMIC_MASS,
        ),
        cell=CellGeometry(
            length=CELL_LENGTH,
            radius=math.sqrt(CELL_VOLUME / (math.pi * CELL_LENGTH)),
            detector_coverage=1.0,
        ),
        laser=LaserDrive(
            pump_omega=2.0 * math.pi * 4.0e14 + 1.0e14,
            stokes_omega=2.0 * math.pi * 4.0e14,
            pump_intensity=1.0e12,
            stokes_intensity=1.0e12,
            refractive_index=1.0,
            modulation_omega=100.0,
        ),
        particle=ParticleSpec(
            volume=2.0e-18,
            molecule_count=1.0e12,
            raman_fraction=0.1,
            active_density=4.0e26,
            raman_cross_section=3.25e-33,
            linewidth_hz=6.45e10,
            collisional_rate=1.0e12,
            radiative_rate=1.0e3,
            molar_heat=4.2,
        ),
        detector=DetectorNoiseSpec(
            noise_mode_omega=4.0e4,
            noise_damping=5.0e4,
            signal_damping=100.0,
        ),
    )
    return validate_scenario(scenario)


def build_preset(name: str) -> Scenario:
    """The built-in scenario of that name; anthrax_stp is the only one."""
    if name != "anthrax_stp":
        raise Refusal(f"unknown preset {name!r}; available: anthrax_stp")
    return anthrax_stp()
