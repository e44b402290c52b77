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

Every public name below, and the module that defines it, is imported on
first use, so ``import parsim`` loads none of its modules, and a caller
loads only what it touches: the scalar detection chain runs without
numpy, and the driven oracle without numpy or yaml.
"""

import importlib

__version__ = "0.1.0"

# public names resolved on first access (PEP 562), by defining module
_LAZY = {
    # constants
    **dict.fromkeys((
        "ATOMIC_MASS", "AVOGADRO", "GAS_CONSTANT", "HBAR", "K_BOLTZMANN",
        "SPEED_OF_LIGHT", "STEFAN_BOLTZMANN"), "quantities"),
    # scenario types
    **dict.fromkeys((
        "CellGeometry", "DetectorNoiseSpec", "GasProperties", "LaserDrive",
        "ParticleSpec", "Scenario", "ScenarioValidationError", "Violation",
        "sound_speed", "validate_scenario"), "quantities"),
    # physics
    **dict.fromkeys(("gain_coefficient", "heat_source_density",
                     "population_factor"), "raman"),
    **dict.fromkeys((
        "collision_rate", "collisional_timescale", "radiative_power",
        "temperature_rise", "thermal_report", "transfer_efficiency"),
        "thermal"),
    **dict.fromkeys(("AcousticMode", "cylinder_modes"), "acoustics"),
    **dict.fromkeys(("SpectrumSeries", "nep", "noise_spectrum"), "noise"),
    **dict.fromkeys(("DetectionReport", "min_density"), "detection"),
    # oracle
    **dict.fromkeys((
        "FreeDecay", "SdeRunConfig", "estimate_psd",
        "integrate_driven", "integrate_langevin", "series_variance",
        "transition"), "oracle"),
    # scenarios
    **dict.fromkeys(("anthrax_stp", "build_preset", "preset_names"),
                    "presets"),
    **dict.fromkeys(("load_scenario", "loads_scenario", "scenario_hash"),
                    "scenario_io"),
}

__all__ = ["__version__", *_LAZY]

# the modules that define those names, also reachable as attributes
_SUBMODULES = frozenset(_LAZY.values())


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
