"""parsim: detection limits for photoacoustic Raman sensing of aerosols.

The package models one detection chain end to end: stimulated Raman
pumping of marker molecules inside a micron-scale particle, collisional
transfer of the deposited heat into the surrounding gas, the acoustic
response of a closed cylindrical cell, the thermodynamic pressure noise
of the readout mode, and the resulting minimum detectable particle
density.  ``oracle`` integrates the stochastic mode dynamics in the time
domain to keep the analytic spectra honest, and ``cli`` exposes it all
as a command line tool.

Unit discipline: SI throughout; every frequency is angular (rad/s)
unless a name says otherwise (``linewidth_hz``).

The names from ``acoustics`` and ``oracle`` (and those two modules) are
imported on first use, so the scalar detection chain runs without numpy.
"""

import importlib

from .quantities import (
    ATOMIC_MASS,
    AVOGADRO,
    GAS_CONSTANT,
    HBAR,
    K_BOLTZMANN,
    SPEED_OF_LIGHT,
    STEFAN_BOLTZMANN,
    CellGeometry,
    DetectorNoiseSpec,
    GasProperties,
    LaserDrive,
    ParticleSpec,
    PhysicalConstants,
    Scenario,
    ScenarioValidationError,
    Violation,
    optimal_cell_radius,
    sound_speed,
    validate_scenario,
)
from .raman import (
    gain_coefficient,
    heat_source_density,
    population_factor,
)
from .thermal import (
    collision_rate,
    collisional_timescale,
    radiative_power,
    temperature_rise,
    thermal_report,
    transfer_efficiency,
)
from .noise import nep, noise_spectrum
from .detection import DetectionReport, min_density
from .presets import anthrax_stp, build_preset, preset_names
from .scenario_io import load_scenario, loads_scenario, scenario_hash

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # constants
    "ATOMIC_MASS", "AVOGADRO", "GAS_CONSTANT", "HBAR", "K_BOLTZMANN",
    "SPEED_OF_LIGHT", "STEFAN_BOLTZMANN",
    # scenario types
    "CellGeometry", "DetectorNoiseSpec", "GasProperties", "LaserDrive",
    "ParticleSpec", "PhysicalConstants", "Scenario",
    "ScenarioValidationError", "Violation",
    "optimal_cell_radius", "sound_speed", "validate_scenario",
    # physics
    "gain_coefficient", "heat_source_density", "population_factor",
    "collision_rate", "collisional_timescale", "radiative_power",
    "temperature_rise", "thermal_report", "transfer_efficiency",
    "AcousticMode", "SpectrumSeries", "cylinder_modes",
    "nep", "noise_spectrum",
    "DetectionReport", "min_density",
    # oracle
    "FreeDecay", "SdeRunConfig", "ThermalForcing", "estimate_psd",
    "integrate_driven", "integrate_langevin", "series_variance",
    "transition",
    # scenarios
    "anthrax_stp", "build_preset", "preset_names",
    "load_scenario", "loads_scenario", "scenario_hash",
]

# public names resolved on first access (PEP 562), by defining module
_LAZY = {
    **dict.fromkeys(("AcousticMode", "SpectrumSeries", "cylinder_modes"),
                    "acoustics"),
    **dict.fromkeys((
        "FreeDecay", "SdeRunConfig", "ThermalForcing", "estimate_psd",
        "integrate_driven", "integrate_langevin", "series_variance",
        "transition"), "oracle"),
}


def __getattr__(name):
    if name in ("acoustics", "oracle"):
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
