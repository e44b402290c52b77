"""Minimum detectable particle density: signal chain against the noise floor.

A suspension of rho_S particles per unit volume, each of volume V_S and
heated at density H_R with transfer efficiency eta, produces the available
volumetric heating

    H = rho_S eta H_R V_S.

Setting H equal to the noise-equivalent heating H_nep sqrt(Gamma_s), the
floor integrated over the detection bandwidth, gives the detection limit

    rho_min = snr * H_nep sqrt(Gamma_s) / (eta H_R V_S).

rho_min is a continuum density, the suspension's mean heating held equal
to the floor.  Below one particle per cell (rho_min V < 1) no single
measurement sees that mean: the cell holds a particle with probability
1 - exp(-rho V), and it is the count, not the thermal floor, that limits
detection.  At the preset rho_min V = 7.65e-6, and rho_min V grows as
sqrt(V), since H_nep falls as V^(-1/2).

Guards: intensities at or above the cascade-breakdown threshold of the gas
are flagged, as is a detection limit so low that fewer than a handful of
particles would occupy the cell (the continuum-suspension picture breaks
down there).  A scenario without Raman heating (no active molecules, no
cross section or no collisional decay) is refused: nothing is detectable.
So is one whose arithmetic leaves the range of a double (say, a product of
intensities above 1.8e308 W^2/m^4, or a gas pressure of 1e-300 Pa that
takes rho_min to 0): its numbers would be inf, nan or 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import noise, raman, thermal
from .quantities import (ParticleSpec, Scenario, errstate, first_failure, in_range,
                         is_array, value_at, xp)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DetectionReport",
    "BREAKDOWN_RISK",
    "SPARSE_SUSPENSION",
    "NEP_CONVENTION_NOTE",
    "BREAKDOWN_INTENSITY",
    "SPARSE_COUNT_LIMIT",
    "available_power_density",
    "breakdown_guard",
    "sparse_regime_flag",
    "min_density",
]

BREAKDOWN_RISK = "cascade_breakdown_risk"
# rho_min V < SPARSE_COUNT_LIMIT: rho_min is then a continuum figure that no
# one cell resolves (module docstring); the preset's rho_min V is 7.65e-6
SPARSE_SUSPENSION = "sparse_suspension_limit"
NEP_CONVENTION_NOTE = "nep_two_sided_angular_convention"

# laser cascade breakdown of air sets in around this intensity, W/m^2
BREAKDOWN_INTENSITY = 1e16

# fewer expected particles than this in the cell breaks the continuum picture
SPARSE_COUNT_LIMIT = 10.0


def available_power_density(spore_density: float, eta: float, h_r: float,
                            particle_volume: float) -> float:
    """Volumetric heating available from a particle suspension, W/m^3."""
    return spore_density * eta * h_r * particle_volume


def breakdown_guard(pump_intensity: float, stokes_intensity: float) -> bool:
    """True when either beam risks cascade breakdown of the buffer gas."""
    return ((pump_intensity >= BREAKDOWN_INTENSITY)
            | (stokes_intensity >= BREAKDOWN_INTENSITY))


def sparse_regime_flag(density: float, cell_volume: float) -> bool:
    """True when the cell would hold too few particles for a continuum model."""
    return density * cell_volume < SPARSE_COUNT_LIMIT


@dataclass(frozen=True)
class DetectionReport:
    """Detection limit with its full intermediate trace.

    warning_flags maps each warning code, in report order, to where it
    holds: a bool, or a bool array for a scenario holding sweep arrays.
    h_r (W/m^3 inside the particle), eta and h_nep (W m^-3 s^(1/2)) read
    the nested results.
    """

    rho_min: float               # 1/m^3
    bandwidth_root: float        # sqrt(Gamma_s), s^(-1/2)
    intensity_product: float     # I_p I_s, W^2/m^4
    h_available: float | None    # W/m^3 at the scenario's own density, if given
    snr: float
    warning_flags: dict[str, bool | np.ndarray]
    gain: raman.RamanGainResult
    deposition: raman.HeatDeposition
    thermal: thermal.ThermalReport
    nep: noise.NepResult

    @property
    def h_r(self) -> float:
        return self.deposition.h_r

    @property
    def eta(self) -> float:
        return self.thermal.eta

    @property
    def h_nep(self) -> float:
        return self.nep.h_nep

    @property
    def warnings(self) -> tuple[str, ...]:
        """Warning codes that hold at one point or more, in report order."""
        return tuple(code for code, flag in self.warning_flags.items()
                     if (flag.any() if is_array(flag) else flag))


def _negate(flag):
    return ~flag if is_array(flag) else not flag


def _no_heating(particle: ParticleSpec, point: int) -> str:
    for name in ("active_density", "raman_cross_section", "collisional_rate"):
        value = value_at(getattr(particle, name), point)
        if not (value > 0.0):
            return f"particle.{name} is {value!r}: no Raman heating, nothing to detect"
    return "the Raman signal per particle underflows to 0: nothing to detect"


def _require_finite(result, prefix: str = "") -> None:
    """Refuse through in_range, as "<dotted field name> is <value>", the
    first float field, or point of a sweep array field, that is not finite."""
    for name, value in vars(result).items():
        if isinstance(value, float):
            if not math.isfinite(value):
                in_range(f"{prefix}{name} is", value, False)
        elif is_array(value):
            in_range(f"{prefix}{name} is", value, xp(value).isfinite(value))
        elif hasattr(value, "__dataclass_fields__"):   # is_dataclass, faster
            _require_finite(value, f"{prefix}{name}.")


def min_density(scenario: Scenario, snr: float = 1.0,
                linewidth_convention: str = "ordinary") -> DetectionReport:
    """Minimum detectable particle density for one scenario.

    snr scales the required signal-to-noise ratio (1 means signal equal to
    the integrated noise floor).  Swept fields give a report of arrays, one
    entry per point; a refusal names the first point refused.  Arithmetic
    that overflows, divides by zero or turns invalid is refused as out of
    range (quantities.in_range), and so is a rho_min that underflows to 0.
    """
    # sweep arrays go on to inf or nan, as Python float products do
    try:
        with errstate(all="ignore"):
            report = _min_density(scenario, snr, linewidth_convention)
    except ArithmeticError as exc:
        # math and Python float powers raise OverflowError or ZeroDivisionError
        detail = "overflow" if isinstance(exc, OverflowError) else exc
        raise ValueError(f"arithmetic out of range: {detail}") from exc
    # an overflow to inf, or an invalid nan, raises nothing there
    _require_finite(report)
    # nor does a rho_min that underflows to 0
    in_range("rho_min underflows to", report.rho_min, report.rho_min > 0.0)
    return report


def _min_density(scenario: Scenario, snr: float,
                 linewidth_convention: str) -> DetectionReport:
    if not (0.0 < snr < math.inf):
        raise ValueError(f"snr must be positive and finite, got {snr!r}")
    laser = scenario.laser
    if first_failure((laser.pump_intensity > 0.0)
                     & (laser.stokes_intensity > 0.0)) is not None:
        raise ValueError("both beam intensities must be positive to detect anything")

    gain = raman.gain_coefficient(scenario, linewidth_convention)
    deposition = raman.heat_source_density(scenario, gain)
    therm = thermal.thermal_report(scenario)
    floor = noise.nep(scenario)

    signal_damping = scenario.detector.signal_damping
    root_bw = xp(signal_damping).sqrt(signal_damping)
    signal_per_density = (therm.eta * deposition.h_r * scenario.particle.volume
                          * scenario.cell.detector_coverage)
    point = first_failure(signal_per_density > 0.0)
    if point is not None:
        raise ValueError(_no_heating(scenario.particle, point))
    rho_min = snr * floor.h_nep * root_bw / signal_per_density

    # the one place where each warning code meets its condition
    flags = {
        BREAKDOWN_RISK: breakdown_guard(laser.pump_intensity,
                                        laser.stokes_intensity),
        thermal.TIMESCALES_NOT_SEPARATED: _negate(therm.efficiency.separated),
        noise.MODULATION_NOT_SMALL: _negate(floor.small_modulation),
        SPARSE_SUSPENSION: sparse_regime_flag(rho_min, scenario.cell.volume),
        NEP_CONVENTION_NOTE: True,
    }

    h_avail = None
    if scenario.spore_density is not None:
        h_avail = available_power_density(scenario.spore_density, therm.eta,
                                          deposition.h_r,
                                          scenario.particle.volume)
    return DetectionReport(
        rho_min=rho_min,
        bandwidth_root=root_bw,
        intensity_product=laser.pump_intensity * laser.stokes_intensity,
        h_available=h_avail,
        snr=snr,
        warning_flags=flags,
        gain=gain,
        deposition=deposition,
        thermal=therm,
        nep=floor,
    )
