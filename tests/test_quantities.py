import dataclasses
import math

import numpy as np
import pytest

from parsim import quantities as q


def test_constants_exact():
    # 2019 SI exact values
    assert q.HBAR == 1.054571817e-34
    assert q.K_BOLTZMANN == 1.380649e-23
    assert q.AVOGADRO == 6.02214076e23
    assert q.SPEED_OF_LIGHT == 2.99792458e8
    assert q.GAS_CONSTANT == q.K_BOLTZMANN * q.AVOGADRO
    assert math.isclose(q.GAS_CONSTANT, 8.31446261815324, rel_tol=1e-12)


def test_sound_speed_air_stp(anthrax):
    c = q.sound_speed(anthrax.gas)
    assert math.isclose(c, 330.33200082527696, rel_tol=1e-13)


def test_sound_speed_scales_as_sqrt_pressure(anthrax):
    gas4 = dataclasses.replace(anthrax.gas, pressure=4.0 * anthrax.gas.pressure)
    assert math.isclose(q.sound_speed(gas4), 2.0 * q.sound_speed(anthrax.gas),
                        rel_tol=1e-13)


def test_cell_volume(anthrax):
    cell = anthrax.cell
    assert math.isclose(cell.volume, math.pi * cell.radius**2 * cell.length,
                        rel_tol=1e-15)
    # the preset radius is chosen to make the volume exactly round
    assert math.isclose(cell.volume, 1.0e-8, rel_tol=1e-12)


def test_preset_radius_is_near_confocal_optimum(anthrax):
    # the confocal radius sqrt(lambda l / pi) of a 500 nm beam over twice
    # the cell length lands on the preset's radius
    r = math.sqrt(5.0e-7 * (2.0 * anthrax.cell.length) / math.pi)
    assert math.isclose(r, anthrax.cell.radius, rel_tol=1e-12)


def test_equivalent_radius(anthrax):
    particle = anthrax.particle
    assert particle.radius_override is None
    assert math.isclose(particle.equivalent_radius, 7.815926417967727e-07,
                        rel_tol=1e-13)
    volume_back = 4.0 / 3.0 * math.pi * particle.equivalent_radius**3
    assert math.isclose(volume_back, particle.volume, rel_tol=1e-12)


def test_radius_override(anthrax):
    particle = dataclasses.replace(anthrax.particle, radius_override=1.0e-6)
    assert particle.equivalent_radius == 1.0e-6


def test_raman_shift_property(anthrax):
    laser = anthrax.laser
    assert laser.raman_shift == laser.pump_omega - laser.stokes_omega
    assert math.isclose(laser.raman_shift, 1.0e14, rel_tol=1e-12)


def test_validate_accepts_preset(anthrax):
    assert q.validate_scenario(anthrax) is anthrax


def _broken(anthrax, **laser_overrides):
    laser = dataclasses.replace(anthrax.laser, **laser_overrides)
    return dataclasses.replace(anthrax, laser=laser)


def test_validate_collects_all_violations(anthrax):
    bad_gas = dataclasses.replace(anthrax.gas, pressure=-1.0, gamma=0.9)
    bad = dataclasses.replace(anthrax, gas=bad_gas)
    with pytest.raises(q.ScenarioValidationError) as err:
        q.validate_scenario(bad)
    codes = {(v.code, v.field) for v in err.value.violations}
    assert (q.NEGATIVE_QUANTITY, "gas.pressure") in codes
    assert (q.GAMMA_NOT_ABOVE_ONE, "gas.gamma") in codes
    assert len(err.value.violations) == 2
    assert "gas.pressure" in str(err.value)


def test_validate_lists_violations_in_field_order(anthrax):
    # each section's fields in dataclass order, then the cross-field checks
    bad = dataclasses.replace(
        anthrax,
        gas=dataclasses.replace(anthrax.gas, gamma=0.9, molecule_mass=-1.0),
        laser=dataclasses.replace(anthrax.laser, modulation_omega=0.0,
                                  pump_intensity=-1.0,
                                  stokes_omega=anthrax.laser.pump_omega + 1.0),
        particle=dataclasses.replace(anthrax.particle, radius_override=-1.0,
                                     collisional_rate=0.0, radiative_rate=0.0))
    with pytest.raises(q.ScenarioValidationError) as err:
        q.validate_scenario(bad)
    assert [(v.code, v.field) for v in err.value.violations] == [
        (q.GAMMA_NOT_ABOVE_ONE, "gas.gamma"),
        (q.NEGATIVE_QUANTITY, "gas.molecule_mass"),
        (q.NEGATIVE_QUANTITY, "laser.pump_intensity"),
        (q.NEGATIVE_QUANTITY, "laser.modulation_omega"),
        (q.NEGATIVE_QUANTITY, "particle.radius_override"),
        (q.STOKES_NOT_BELOW_PUMP, "laser.stokes_omega"),
        (q.OUT_OF_RANGE, "particle.collisional_rate"),
    ]


def test_validate_gamma_must_be_finite(anthrax):
    # an infinite gamma used to pass and give rho_min = nan
    gas = dataclasses.replace(anthrax.gas, gamma=math.inf)
    with pytest.raises(q.ScenarioValidationError) as err:
        q.validate_scenario(dataclasses.replace(anthrax, gas=gas))
    assert [str(v) for v in err.value.violations] == [
        "gas.gamma: heat capacity ratio must be finite and exceed 1, got inf "
        "[gamma_not_above_one]"]


def test_validate_rejects_stokes_above_pump(anthrax):
    bad = _broken(anthrax, stokes_omega=anthrax.laser.pump_omega + 1.0)
    with pytest.raises(q.ScenarioValidationError) as err:
        q.validate_scenario(bad)
    assert any(v.code == q.STOKES_NOT_BELOW_PUMP for v in err.value.violations)


def test_validate_rejects_equal_pump_and_stokes(anthrax):
    bad = _broken(anthrax, stokes_omega=anthrax.laser.pump_omega)
    with pytest.raises(q.ScenarioValidationError):
        q.validate_scenario(bad)


def test_validate_refractive_index_below_one(anthrax):
    bad = _broken(anthrax, refractive_index=0.5)
    with pytest.raises(q.ScenarioValidationError) as err:
        q.validate_scenario(bad)
    assert any(v.code == q.OUT_OF_RANGE
               and v.field == "laser.refractive_index"
               for v in err.value.violations)


def test_validate_coverage_range(anthrax):
    for coverage in (0.0, 1.5, -0.1):
        cell = dataclasses.replace(anthrax.cell, detector_coverage=coverage)
        bad = dataclasses.replace(anthrax, cell=cell)
        with pytest.raises(q.ScenarioValidationError):
            q.validate_scenario(bad)
    cell = dataclasses.replace(anthrax.cell, detector_coverage=1.0)
    q.validate_scenario(dataclasses.replace(anthrax, cell=cell))


def test_validate_raman_fraction_range(anthrax):
    for fraction in (0.0, 1.0001, -0.2):
        particle = dataclasses.replace(anthrax.particle, raman_fraction=fraction)
        bad = dataclasses.replace(anthrax, particle=particle)
        with pytest.raises(q.ScenarioValidationError):
            q.validate_scenario(bad)
    particle = dataclasses.replace(anthrax.particle, raman_fraction=1.0)
    q.validate_scenario(dataclasses.replace(anthrax, particle=particle))


def test_validate_decay_rates_cannot_both_vanish(anthrax):
    particle = dataclasses.replace(anthrax.particle, collisional_rate=0.0,
                                   radiative_rate=0.0)
    bad = dataclasses.replace(anthrax, particle=particle)
    with pytest.raises(q.ScenarioValidationError) as err:
        q.validate_scenario(bad)
    assert any(v.code == q.OUT_OF_RANGE for v in err.value.violations)


def test_validate_refractive_index_must_be_finite(anthrax):
    # an infinite index makes the Stokes velocity, and so the gain, zero
    with pytest.raises(q.ScenarioValidationError) as err:
        q.validate_scenario(_broken(anthrax, refractive_index=math.inf))
    assert [(v.code, v.field) for v in err.value.violations] == [
        (q.OUT_OF_RANGE, "laser.refractive_index")]


def test_validate_modulation_must_be_positive(anthrax):
    # thermal.transfer_efficiency divides by w and leaves w = 0 to validation
    with pytest.raises(q.ScenarioValidationError) as err:
        q.validate_scenario(_broken(anthrax, modulation_omega=0.0))
    assert [(v.code, v.field) for v in err.value.violations] == [
        (q.NEGATIVE_QUANTITY, "laser.modulation_omega")]


def test_validate_sweep_reports_first_invalid_point(anthrax):
    gas = dataclasses.replace(anthrax.gas,
                              temperature=np.array([300.0, 300.0, -1.0, 300.0]),
                              pressure=np.array([1.0e5, -2.0, -3.0, 1.0e5]))
    swept = dataclasses.replace(anthrax, gas=gas)
    with pytest.raises(q.ScenarioValidationError) as err:
        q.validate_scenario(swept)
    # point 1 breaks only the pressure; point 2 breaks both
    assert err.value.point == 1
    assert [str(v) for v in err.value.violations] == [
        "gas.pressure: must be finite and > 0, got -2.0 [negative_quantity]"]
    ok = dataclasses.replace(gas, pressure=np.full(4, 1.0e5),
                             temperature=np.linspace(100.0, 400.0, 4))
    q.validate_scenario(dataclasses.replace(anthrax, gas=ok))


def test_validate_zero_intensity_is_allowed(anthrax):
    # a dark beam is a valid configuration, detection just cannot happen
    ok = _broken(anthrax, pump_intensity=0.0, stokes_intensity=0.0)
    q.validate_scenario(ok)


def test_validate_spore_density(anthrax):
    ok = dataclasses.replace(anthrax, spore_density=0.0)
    q.validate_scenario(ok)
    bad = dataclasses.replace(anthrax, spore_density=-5.0)
    with pytest.raises(q.ScenarioValidationError):
        q.validate_scenario(bad)


def test_validate_nonfinite_rejected(anthrax):
    bad_gas = dataclasses.replace(anthrax.gas, density=float("nan"))
    bad = dataclasses.replace(anthrax, gas=bad_gas)
    with pytest.raises(q.ScenarioValidationError):
        q.validate_scenario(bad)


def test_violation_str_mentions_code_and_field():
    v = q.Violation(q.OUT_OF_RANGE, "cell.detector_coverage", "nope")
    text = str(v)
    assert "cell.detector_coverage" in text
    assert q.OUT_OF_RANGE in text
