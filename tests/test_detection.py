import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsim import cli, noise, thermal
from parsim.presets import anthrax_stp
from parsim.quantities import ScenarioValidationError, validate_scenario
from parsim.detection import (
    BREAKDOWN_INTENSITY,
    BREAKDOWN_RISK,
    NEP_CONVENTION_NOTE,
    SPARSE_COUNT_LIMIT,
    SPARSE_SUSPENSION,
    available_power_density,
    breakdown_guard,
    min_density,
    sparse_regime_flag,
)


def test_min_density_reference(anthrax):
    report = min_density(anthrax)
    assert math.isclose(report.rho_min, 764.6233783224283, rel_tol=1e-10)
    assert math.isclose(report.h_r, 3132759401626.9243, rel_tol=1e-12)
    assert report.eta == 1.0
    assert math.isclose(report.h_nep, 4.790762154286656e-4, rel_tol=1e-12)
    assert math.isclose(report.bandwidth_root, 10.0, rel_tol=1e-14)
    assert math.isclose(report.intensity_product, 1.0e24, rel_tol=1e-14)
    assert report.snr == 1.0
    assert report.h_available is None


def test_min_density_identity(anthrax):
    # rho_min eta H_R V_S = snr h_nep sqrt(Gamma_s) must hold exactly
    report = min_density(anthrax, snr=3.0)
    lhs = (report.rho_min * report.eta * report.h_r
           * anthrax.particle.volume * anthrax.cell.detector_coverage)
    rhs = report.snr * report.h_nep * report.bandwidth_root
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_min_density_snr_linear(anthrax):
    one = min_density(anthrax, snr=1.0).rho_min
    five = min_density(anthrax, snr=5.0).rho_min
    assert math.isclose(five, 5.0 * one, rel_tol=1e-13)
    with pytest.raises(ValueError):
        min_density(anthrax, snr=0.0)
    with pytest.raises(ValueError):
        min_density(anthrax, snr=-2.0)


def test_min_density_needs_light(anthrax):
    laser = dataclasses.replace(anthrax.laser, pump_intensity=0.0)
    with pytest.raises(ValueError):
        min_density(dataclasses.replace(anthrax, laser=laser))


@pytest.mark.parametrize("name", ["active_density", "raman_cross_section",
                                  "collisional_rate"])
def test_min_density_refuses_zero_heating(anthrax, name):
    # each passes validation (checked >= 0) but leaves no signal
    particle = dataclasses.replace(anthrax.particle, **{name: 0.0})
    scenario = dataclasses.replace(anthrax, particle=particle)
    with pytest.raises(ValueError, match=f"particle.{name} is 0.0"):
        min_density(scenario)


def test_min_density_broadcasts_over_a_sweep(anthrax):
    intensities = np.geomspace(1.0e8, 1.0e16, 9)
    laser = dataclasses.replace(anthrax.laser, pump_intensity=intensities)
    swept = min_density(dataclasses.replace(anthrax, laser=laser))
    assert swept.rho_min.shape == (9,)
    for i, value in enumerate(intensities.tolist()):
        laser = dataclasses.replace(anthrax.laser, pump_intensity=value)
        point = min_density(dataclasses.replace(anthrax, laser=laser))
        assert math.isclose(swept.rho_min[i], point.rho_min, rel_tol=1e-13)
        assert swept.eta == point.eta
        flags = {code: flag[i] if isinstance(flag, np.ndarray) else flag
                 for code, flag in swept.warning_flags.items()}
        assert flags == point.warning_flags
    # codes that hold at any point, in report order
    assert swept.warnings == (BREAKDOWN_RISK, SPARSE_SUSPENSION,
                              NEP_CONVENTION_NOTE)


def test_min_density_intensity_scaling(anthrax):
    # rho_min I_p I_s is invariant while eta stays pinned at 1
    rng = random.Random(7301)
    base = min_density(anthrax)
    invariant = base.rho_min * base.intensity_product
    for _ in range(100):
        s = 10.0 ** rng.uniform(-1.5, 1.5)
        laser = dataclasses.replace(
            anthrax.laser,
            pump_intensity=s * anthrax.laser.pump_intensity,
            stokes_intensity=s * anthrax.laser.stokes_intensity)
        report = min_density(dataclasses.replace(anthrax, laser=laser))
        assert math.isclose(report.rho_min * report.intensity_product,
                            invariant, rel_tol=1e-10)


def test_min_density_monotonic_in_noise(anthrax):
    # more detector damping means more noise means a worse limit
    rng = random.Random(7302)
    for _ in range(50):
        s = 1.0 + 10.0 ** rng.uniform(-2, 2)
        det = dataclasses.replace(
            anthrax.detector,
            noise_damping=s * anthrax.detector.noise_damping)
        worse = min_density(dataclasses.replace(anthrax, detector=det))
        base = min_density(anthrax)
        assert worse.rho_min > base.rho_min
        assert math.isclose(worse.rho_min, base.rho_min * math.sqrt(s),
                            rel_tol=1e-12)


def test_min_density_coverage_scaling(anthrax):
    rng = random.Random(7303)
    base = min_density(anthrax).rho_min
    for _ in range(50):
        coverage = rng.uniform(0.05, 1.0)
        cell = dataclasses.replace(anthrax.cell, detector_coverage=coverage)
        report = min_density(dataclasses.replace(anthrax, cell=cell))
        assert math.isclose(report.rho_min, base / coverage, rel_tol=1e-12)


def test_min_density_volume_scaling(anthrax):
    # the particle volume enters only through the collected signal while
    # the thermal chain stays separated, so rho_min falls as 1/V_S; the
    # collision rate rises with the bigger particle, keeping eta at 1
    base = min_density(anthrax)
    particle = dataclasses.replace(anthrax.particle,
                                   volume=2.0 * anthrax.particle.volume)
    double = min_density(dataclasses.replace(anthrax, particle=particle))
    assert double.eta == 1.0
    assert math.isclose(double.rho_min, base.rho_min / 2.0, rel_tol=1e-12)


def test_min_density_convention_choice(anthrax):
    ordinary = min_density(anthrax, linewidth_convention="ordinary")
    angular = min_density(anthrax, linewidth_convention="angular")
    assert math.isclose(angular.rho_min / ordinary.rho_min, 2.0 * math.pi,
                        rel_tol=1e-12)


def test_breakdown_guard():
    assert breakdown_guard(1.0e16, 1.0)
    assert breakdown_guard(1.0, 1.0e16)
    assert not breakdown_guard(9.9e15, 9.9e15)


def test_breakdown_warning_emitted(anthrax):
    laser = dataclasses.replace(anthrax.laser, pump_intensity=1.0e16)
    hot = dataclasses.replace(anthrax, laser=laser)
    report = min_density(hot)
    assert BREAKDOWN_RISK in report.warnings
    assert BREAKDOWN_RISK not in min_density(anthrax).warnings


def test_sparse_flag(anthrax):
    assert sparse_regime_flag(764.0, anthrax.cell.volume)
    assert not sparse_regime_flag(1.0e10, anthrax.cell.volume)
    report = min_density(anthrax)
    assert SPARSE_SUSPENSION in report.warnings
    # rho_min V ~ 7.6e-6 spores in the cell: far into the sparse regime
    assert report.rho_min * anthrax.cell.volume < 1.0e-4


def test_convention_note_always_attached(anthrax):
    assert NEP_CONVENTION_NOTE in min_density(anthrax).warnings


def test_timescale_warning_propagates(anthrax):
    laser = dataclasses.replace(anthrax.laser, modulation_omega=1.0e6)
    fast = dataclasses.replace(anthrax, laser=laser)
    report = min_density(fast)
    assert thermal.TIMESCALES_NOT_SEPARATED in report.warnings
    assert report.eta < 1.0


def test_modulation_warning_propagates(anthrax):
    det = dataclasses.replace(anthrax.detector, noise_mode_omega=500.0)
    slow_detector = dataclasses.replace(anthrax, detector=det)
    report = min_density(slow_detector)
    assert noise.MODULATION_NOT_SMALL in report.warnings


def test_available_power_density(anthrax):
    report = min_density(dataclasses.replace(anthrax, spore_density=1.0e5))
    assert report.h_available is not None
    manual = available_power_density(1.0e5, report.eta, report.h_r,
                                     anthrax.particle.volume)
    assert math.isclose(report.h_available, manual, rel_tol=1e-14)
    assert math.isclose(manual, 1.0e5 * report.h_r * anthrax.particle.volume,
                        rel_tol=1e-14)


def test_detectability_crossover(anthrax):
    # at the minimum density the available heating matches the detection
    # floor h_nep sqrt(Gamma_s) / snr exactly
    report = min_density(anthrax)
    at_limit = available_power_density(report.rho_min, report.eta,
                                       report.h_r, anthrax.particle.volume)
    floor = report.h_nep * report.bandwidth_root
    assert math.isclose(at_limit, floor, rel_tol=1e-12)


_PRESET = anthrax_stp()


def _preset_value(section, name):
    value = getattr(getattr(_PRESET, section), name)
    # the volume-equivalent radius stands in for the unset radius override
    return _PRESET.particle.equivalent_radius if value is None else value


# every float a scenario file can set, with the preset's value
_FIELDS = tuple(
    (section, f.name, _preset_value(section, f.name))
    for section in ("gas", "cell", "laser", "particle", "detector")
    for f in dataclasses.fields(getattr(_PRESET, section)))
_EXTREMES = (0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1e-150, 1e150, 1e300,
             1.7e308, math.inf, math.nan)
_DECADES = (-200, -100, 100, 200)


@st.composite
def _extreme_fields(draw):
    fields = draw(st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=3,
                           unique=True))
    return [(section, name, draw(st.one_of(
        st.sampled_from(_EXTREMES),
        st.sampled_from(_DECADES).map(lambda k: preset * 10.0**k))))
        for section, name, preset in fields]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(changes=_extreme_fields())
def test_accepted_scenarios_give_a_positive_finite_rho_min_or_a_refusal(changes):
    scenario = _PRESET
    for section, name, value in changes:
        part = dataclasses.replace(getattr(scenario, section), **{name: value})
        scenario = dataclasses.replace(scenario, **{section: part})
    try:
        validate_scenario(scenario)
    except ScenarioValidationError:
        return
    try:
        report = min_density(scenario)
    except ValueError:
        return
    rho_min = report.rho_min
    assert math.isfinite(rho_min) and rho_min > 0.0, changes

    flags = report.warning_flags
    assert report.warnings == tuple(code for code, flag in flags.items() if flag)
    # each flag is its defining inequality, recomputed from the report
    laser, eff = scenario.laser, report.thermal.efficiency
    ratio = thermal.DEFAULT_DOMINANCE_RATIO
    assert flags == {
        BREAKDOWN_RISK: max(laser.pump_intensity,
                            laser.stokes_intensity) >= BREAKDOWN_INTENSITY,
        thermal.TIMESCALES_NOT_SEPARATED: (eff.drive_separation < ratio
                                           or eff.radiative_separation < ratio),
        noise.MODULATION_NOT_SMALL: (report.nep.modulation_omega
                                     > 0.1 * scenario.detector.noise_mode_omega),
        SPARSE_SUSPENSION: rho_min * scenario.cell.volume < SPARSE_COUNT_LIMIT,
        NEP_CONVENTION_NOTE: True,
    }, changes
    assert cli.warning_bits(flags) == sum(
        cli.WARNING_BITS.get(code, 0) for code in report.warnings)
