"""Physical constants, scenario data model, and validation.

The physical constants are the CODATA 2018 values, fixed at module level;
every stage of the detection chain reads them from here.

Unit discipline
---------------
Everything is SI internally.  All frequencies are angular (rad/s); scenario
files may carry ordinary frequencies with an ``_hz`` key suffix, which the
file reader converts on ingestion.  The one deliberate exception is the
Raman transition linewidth: linewidths are conventionally quoted in
ordinary Hz and the ``linewidth_hz`` field keeps that convention (see
``raman`` for how the ambiguity is handled inside the gain formula).

A ``Scenario`` is a dumb record; nothing is checked at construction time so
that values parsed from external input can be assembled first and examined
afterwards.  ``validate_scenario`` performs the checks and reports every
violation at once instead of stopping at the first.

Each value field states once, in its ``dataclasses.field`` metadata, its
file key (unit as suffix), alias keys with their factor into its unit, and
the name of its check: positive, nonnegative, fraction, at_least_one or
above_one.  ``schema(cls)`` lists them for ``scenario_io``, and
``validate_scenario`` applies each check by name.  Only the checks that
relate two fields are written out: Stokes below pump, and the two decay
rates not both zero.

That is the one check of a scenario's domain: the stages of the chain
take a validated scenario (every command validates first, in
``scenario_io.loads_scenario``, ``presets.anthrax_stp`` or ``sweep``) and
refuse only the values they derive, through ``in_range``.

Broadcasting
------------
Any float field may instead hold a 1-D numpy array, one entry per point of
a sweep; fields that do not vary stay floats.  The validator and the
closed forms of the detection chain take either: on floats they compute
with ``math`` and return Python floats, on arrays with numpy and return
arrays.  A check over a sweep fails at the first point that breaks it.
numpy is imported only by callers that pass arrays: on floats the chain
runs without it (``is_array`` tells the two apart without importing it).
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from operator import ge, gt, le, lt

__all__ = [
    "HBAR",
    "K_BOLTZMANN",
    "AVOGADRO",
    "GAS_CONSTANT",
    "STEFAN_BOLTZMANN",
    "SPEED_OF_LIGHT",
    "ATOMIC_MASS",
    "GasProperties",
    "CellGeometry",
    "LaserDrive",
    "ParticleSpec",
    "DetectorNoiseSpec",
    "Scenario",
    "COMPONENTS",
    "schema",
    "Violation",
    "ScenarioValidationError",
    "validate_scenario",
    "sound_speed",
    "is_array",
    "xp",
    "errstate",
    "first_failure",
    "value_at",
    "in_range",
]

# CODATA 2018, exact where the SI defines them so
HBAR = 1.054571817e-34        # J s
K_BOLTZMANN = 1.380649e-23    # J/K
AVOGADRO = 6.02214076e23      # 1/mol
GAS_CONSTANT = K_BOLTZMANN * AVOGADRO   # J/(mol K)
STEFAN_BOLTZMANN = 5.670374419e-8       # W/(m^2 K^4)
SPEED_OF_LIGHT = 2.99792458e8           # m/s
ATOMIC_MASS = 1.66053906660e-27         # kg

_TWO_PI = 2.0 * math.pi


def _field(key: str, check: str, default=MISSING, **aliases: float):
    """A scenario value: its file key, the name of its check in
    validate_scenario and alias keys, each with its factor into the unit."""
    return field(default=default,
                 metadata={"key": key, "check": check, "aliases": aliases})


@functools.cache
def schema(cls) -> tuple[tuple[str, str, str, dict[str, float]], ...]:
    """(attribute, file key, check name, aliases) of each value field of a
    scenario dataclass, in field order; built once per class."""
    return tuple((f.name, f.metadata["key"], f.metadata["check"],
                  f.metadata["aliases"])
                 for f in fields(cls) if "key" in f.metadata)


@dataclass(frozen=True)
class GasProperties:
    """Buffer gas filling the acoustic cell.

    pressure        Pa
    temperature     K
    density         kg/m^3
    gamma           ratio of specific heats (dimensionless, > 1)
    molecule_mass   kg, mass of one gas molecule
    """

    pressure: float = _field("pressure_pa", "positive")
    temperature: float = _field("temperature_k", "positive")
    density: float = _field("density_kg_m3", "positive")
    gamma: float = _field("adiabatic_index", "above_one")
    molecule_mass: float = _field("molecule_mass_kg", "positive",
                                  molecule_mass_amu=ATOMIC_MASS)


@dataclass(frozen=True)
class CellGeometry:
    """Cylindrical acoustic cell with rigid walls.

    length              m, along the optical axis
    radius              m
    detector_coverage   fraction of the signal the detector actually sees,
                        in (0, 1]; 1 means ideal coupling
    """

    length: float = _field("length_m", "positive")
    radius: float = _field("radius_m", "positive")
    detector_coverage: float = _field("detector_coverage", "fraction",
                                      default=1.0)

    @property
    def volume(self) -> float:
        """Cell volume pi r^2 l, recomputed on read so it can never go stale."""
        return math.pi * self.radius**2 * self.length


@dataclass(frozen=True)
class LaserDrive:
    """Pump and Stokes beams plus the intensity modulation.

    pump_omega        rad/s, angular optical frequency of the pump
    stokes_omega      rad/s, angular optical frequency of the Stokes beam
    pump_intensity    W/m^2
    stokes_intensity  W/m^2
    refractive_index  of the medium at the Stokes frequency (>= 1)
    modulation_omega  rad/s, angular frequency of the intensity modulation
    """

    pump_omega: float = _field("pump_omega_rad_s", "positive",
                               pump_hz=_TWO_PI)
    stokes_omega: float = _field("stokes_omega_rad_s", "positive",
                                 stokes_hz=_TWO_PI)
    pump_intensity: float = _field("pump_intensity_w_m2", "nonnegative")
    stokes_intensity: float = _field("stokes_intensity_w_m2", "nonnegative")
    refractive_index: float = _field("refractive_index", "at_least_one",
                                     default=1.0)
    modulation_omega: float = _field("modulation_omega_rad_s", "positive",
                                     default=100.0, modulation_hz=_TWO_PI)

    @property
    def raman_shift(self) -> float:
        """Angular frequency difference pump minus Stokes, rad/s."""
        return self.pump_omega - self.stokes_omega


@dataclass(frozen=True)
class ParticleSpec:
    """Target particle (e.g. a bacterial spore) and its Raman-active content.

    volume              m^3, particle volume
    molecule_count      number of Raman-active molecules in one particle
    raman_fraction      fraction of deposited vibrational quanta degraded to
                        heat inside the particle, in (0, 1]
    active_density      1/m^3, number density of Raman-active molecules in
                        the particle material
    raman_cross_section m^2/sr, differential Raman cross section
    linewidth_hz        Hz (ordinary), Raman transition linewidth
    collisional_rate    1/s, vibrational decay into heat (collisional)
    radiative_rate      1/s, vibrational decay by re-radiation
    molar_heat          J/(mol K), heat capacity of the particle material
    radius_override     m, optional; replaces the volume-equivalent radius
    """

    volume: float = _field("volume_m3", "positive")
    molecule_count: float = _field("molecule_count", "positive")
    raman_fraction: float = _field("raman_fraction", "fraction")
    active_density: float = _field("active_density_m3", "nonnegative")
    raman_cross_section: float = _field("raman_cross_section_m2_sr",
                                        "nonnegative")
    linewidth_hz: float = _field("linewidth_hz", "positive")
    collisional_rate: float = _field("collisional_rate_rad_s", "nonnegative")
    radiative_rate: float = _field("radiative_rate_rad_s", "nonnegative")
    molar_heat: float = _field("molar_heat_j_mol_k", "positive")
    radius_override: float | None = _field("equivalent_radius_m", "positive",
                                           default=None)

    @property
    def equivalent_radius(self) -> float:
        """Radius of the volume-equivalent sphere, unless overridden."""
        if self.radius_override is not None:
            return self.radius_override
        return (3.0 * self.volume / (4.0 * math.pi)) ** (1.0 / 3.0)


@dataclass(frozen=True)
class DetectorNoiseSpec:
    """Resonant pressure detector (microphone) parameters.

    noise_mode_omega  rad/s, angular frequency w_1 of the lowest gas mode
                      of the cell that the detector reads, the one that
                      dominates thermal noise; its pressure variance is
                      the gas mode's rho0 c^2 k T / V (see ``noise``).  An
                      input, not derived from the cell
    noise_damping     1/s, damping rate of that noise mode
    signal_damping    1/s, damping rate acting on the detected signal mode
    """

    noise_mode_omega: float = _field("noise_mode_omega_rad_s", "positive",
                                     noise_mode_hz=_TWO_PI)
    noise_damping: float = _field("noise_damping_rad_s", "positive")
    signal_damping: float = _field("signal_damping_rad_s", "positive")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one measurement configuration."""

    gas: GasProperties = field(metadata={"component": GasProperties})
    cell: CellGeometry = field(metadata={"component": CellGeometry})
    laser: LaserDrive = field(metadata={"component": LaserDrive})
    particle: ParticleSpec = field(metadata={"component": ParticleSpec})
    detector: DetectorNoiseSpec = field(metadata={"component": DetectorNoiseSpec})
    spore_density: float | None = _field("spore_density_m3", "nonnegative",
                                         default=None)


# section name -> component dataclass, in field order
COMPONENTS = {f.name: f.metadata["component"] for f in fields(Scenario)
              if "component" in f.metadata}


# violation codes, stable strings used by tests and the CLI
NEGATIVE_QUANTITY = "negative_quantity"
STOKES_NOT_BELOW_PUMP = "stokes_not_below_pump"
GAMMA_NOT_ABOVE_ONE = "gamma_not_above_one"
OUT_OF_RANGE = "out_of_range"


@dataclass(frozen=True)
class Violation:
    code: str
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message} [{self.code}]"


class ScenarioValidationError(ValueError):
    """Raised with the complete list of violations, not just the first.

    point is the index of the first invalid point of a scenario holding
    sweep arrays (0 for a plain scenario); the violations are that point's.
    """

    def __init__(self, violations: list[Violation], point: int = 0):
        self.violations = list(violations)
        self.point = point
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid scenario: {lines}")


def is_array(value) -> bool:
    """True for a numpy array (a sweep field), without importing numpy.

    An ndarray cannot exist before numpy is in sys.modules, so a process
    that never imported numpy holds no array.
    """
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def xp(value):
    """The module to compute with: numpy for an array, math otherwise."""
    return sys.modules["numpy"] if is_array(value) else math


def errstate(**how):
    """numpy.errstate(**how), or no context while numpy is not loaded (then
    no value is an array)."""
    np = sys.modules.get("numpy")
    return contextlib.nullcontext() if np is None else np.errstate(**how)


def first_failure(ok) -> int | None:
    """Index of the first point where a check fails, None if it holds.

    ok is a bool for one scenario (a failure is point 0) or a bool array
    for a sweep.
    """
    if ok is True:
        return None
    if ok is False:
        return 0
    import numpy as np

    failed = np.flatnonzero(np.logical_not(ok))
    return int(failed[0]) if failed.size else None


def value_at(value, point: int):
    """One point's value of a field that is a float or a sweep array."""
    return float(value[point]) if is_array(value) else value


def in_range(what: str, value, ok=None):
    """value if ok holds (a bool, or a bool array over a sweep), by default
    0 < value < inf.  Otherwise the one wording of arithmetic past the
    double range: ValueError "arithmetic out of range: {what} {value!r}",
    of the first failing point, with " at sweep point k" for an array."""
    point = first_failure((value > 0.0) & (value < math.inf) if ok is None else ok)
    if point is None:
        return value
    where = f" at sweep point {point}" if is_array(value) else ""
    raise ValueError(f"arithmetic out of range: {what} "
                     f"{value_at(value, point)!r}{where}")


def _require(out: list, ok, code: str, field: str, message: str,
             value=None) -> None:
    """Record a violation at the first point where ok fails.

    The message gains ", got <value>" (that point's value) when a value
    is given.  Callers skip the call when ok is True, the common case.
    """
    point = first_failure(ok)
    if point is None:
        return
    if value is not None:
        message = f"{message}, got {value_at(value, point)!r}"
    out.append((point, Violation(code, field, message)))


# check name -> (lower test, upper test, violation code, message); a value
# passes when both tests give True (on arrays, a bool array each)
_CHECKS = {
    "positive": ((gt, 0.0), (lt, math.inf), NEGATIVE_QUANTITY,
                 "must be finite and > 0"),
    "nonnegative": ((ge, 0.0), (lt, math.inf), NEGATIVE_QUANTITY,
                    "must be finite and >= 0"),
    "fraction": ((gt, 0.0), (le, 1.0), OUT_OF_RANGE, "must lie in (0, 1]"),
    "at_least_one": ((ge, 1.0), (lt, math.inf), OUT_OF_RANGE,
                     "must be finite and >= 1"),
    "above_one": ((gt, 1.0), (lt, math.inf), GAMMA_NOT_ABOVE_ONE,
                  "heat capacity ratio must be finite and exceed 1"),
}

# (section, or None for the scenario's own fields, and per checked field
# (attribute, violation field, optional, *_CHECKS entry)), built once
_CHECKED = tuple(
    (section, tuple((f.name, f"{section or 'scenario'}.{f.name}",
                     f.default is None, *_CHECKS[f.metadata["check"]])
                    for f in fields(cls) if "check" in f.metadata))
    for section, cls in (*COMPONENTS.items(), (None, Scenario)))


def validate_scenario(scenario: Scenario) -> Scenario:
    """Check a scenario candidate, returning it if sound.

    Raises ScenarioValidationError carrying every violation found (of the
    first invalid point, for a scenario holding arrays), in field order
    and then the two cross-field checks.  Derived quantities (cell volume,
    particle equivalent radius, sound speed) are implemented as
    recompute-on-read, so a validated scenario cannot drift out of
    internal consistency afterwards.
    """
    v: list[tuple[int, Violation]] = []
    for section, checks in _CHECKED:
        obj = scenario if section is None else getattr(scenario, section)
        for attr, name, optional, (lo, a), (hi, b), code, message in checks:
            value = getattr(obj, attr)
            if optional and value is None:
                continue
            # a valid float passes the cheap test; arrays take the broadcast one
            if lo(value, a) is not True or hi(value, b) is not True:
                _require(v, lo(value, a) & hi(value, b), code, name, message,
                         value)

    laser, particle = scenario.laser, scenario.particle
    if (ok := laser.pump_omega > laser.stokes_omega) is not True:
        _require(v, ok, STOKES_NOT_BELOW_PUMP, "laser.stokes_omega",
                 "Stokes frequency must lie below the pump frequency")
    if (ok := particle.collisional_rate + particle.radiative_rate > 0.0) is not True:
        _require(v, ok, OUT_OF_RANGE, "particle.collisional_rate",
                 "collisional and radiative decay rates cannot both vanish")

    if v:
        point = min(p for p, _ in v)
        raise ScenarioValidationError([x for p, x in v if p == point], point)
    return scenario


def sound_speed(gas: GasProperties) -> float:
    """Adiabatic sound speed c = sqrt(gamma p / rho)."""
    c2 = gas.gamma * gas.pressure / gas.density
    return xp(c2).sqrt(c2)

