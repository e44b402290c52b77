import dataclasses
import math
import random

import numpy as np
import pytest

from parsim import thermal
from parsim.detection import TIMESCALES_NOT_SEPARATED, min_density


def test_collision_rate_reference_micron(anthrax):
    rate = thermal.collision_rate(anthrax.gas, 1.0e-6)
    assert math.isclose(rate, 2.6486832206982124e+16, rel_tol=1e-12)


def test_collision_rate_reference_equivalent_radius(anthrax):
    rate = thermal.collision_rate(anthrax.gas,
                                  anthrax.particle.equivalent_radius)
    assert math.isclose(rate, 1.6180462995004508e+16, rel_tol=1e-12)


def test_collision_rate_scalings(anthrax):
    rng = random.Random(7101)
    base = thermal.collision_rate(anthrax.gas, 1.0e-6)
    for _ in range(100):
        s = 10.0 ** rng.uniform(-2, 2)
        assert math.isclose(thermal.collision_rate(anthrax.gas, 1.0e-6 * s),
                            base * s * s, rel_tol=1e-12)
        gas = dataclasses.replace(anthrax.gas, pressure=s * anthrax.gas.pressure)
        assert math.isclose(thermal.collision_rate(gas, 1.0e-6),
                            base * s, rel_tol=1e-12)
        gas = dataclasses.replace(anthrax.gas, temperature=s * anthrax.gas.temperature)
        assert math.isclose(thermal.collision_rate(gas, 1.0e-6),
                            base / math.sqrt(s), rel_tol=1e-12)
        gas = dataclasses.replace(anthrax.gas, molecule_mass=s * anthrax.gas.molecule_mass)
        assert math.isclose(thermal.collision_rate(gas, 1.0e-6),
                            base / math.sqrt(s), rel_tol=1e-12)


def test_temperature_rise_reference(anthrax):
    rise = thermal.temperature_rise(anthrax.particle.molar_heat,
                                    anthrax.particle.raman_fraction,
                                    anthrax.laser.raman_shift)
    assert math.isclose(rise, 151.20904579768953, rel_tol=1e-12)


def test_temperature_rise_linear_in_fraction(anthrax):
    lo = thermal.temperature_rise(4.2, 0.1, 1.0e14)
    hi = thermal.temperature_rise(4.2, 0.5, 1.0e14)
    assert math.isclose(hi, 5.0 * lo, rel_tol=1e-12)
    # and inversely proportional to the heat capacity
    assert math.isclose(thermal.temperature_rise(8.4, 0.1, 1.0e14),
                        lo / 2.0, rel_tol=1e-12)


def test_collisional_timescale_reference(anthrax):
    n_c = thermal.collision_rate(anthrax.gas,
                                 anthrax.particle.equivalent_radius)
    tau = thermal.collisional_timescale(anthrax.particle.molecule_count,
                                        n_c, anthrax.particle.molar_heat)
    assert math.isclose(tau, 3.121937186441486e-05, rel_tol=1e-12)
    with pytest.raises(ValueError):
        thermal.collisional_timescale(1.0e12, 0.0, 4.2)


def test_radiative_power_reference():
    # blackbody sphere, 1 um radius at 1000 K
    power = thermal.radiative_power(1000.0, 1.0e-6)
    assert math.isclose(power, 7.125602647133556e-07, rel_tol=1e-12)


def test_radiative_power_t4_scaling():
    rng = random.Random(7102)
    base = thermal.radiative_power(300.0, 1.0e-6)
    for _ in range(50):
        s = 10.0 ** rng.uniform(-1, 1)
        assert math.isclose(thermal.radiative_power(300.0 * s, 1.0e-6),
                            base * s**4, rel_tol=1e-12)


def test_transfer_efficiency_separated():
    result = thermal.transfer_efficiency(1.0e-5, 0.5, 100.0)
    assert result.eta == 1.0
    assert result.separated is True
    assert math.isclose(result.modulation_time, 0.01, rel_tol=1e-15)
    assert math.isclose(result.drive_separation, 1.0e3, rel_tol=1e-12)
    assert math.isclose(result.radiative_separation, 5.0e4, rel_tol=1e-12)


def test_transfer_efficiency_uses_reciprocal_omega_not_period():
    # separation is defined against 1/w; at tau_coll = 1/(8 w) the margin
    # is 8, below the default dominance ratio even though the full period
    # 2 pi / w would be 50 times longer than tau_coll
    omega = 100.0
    tau_coll = 1.0 / (8.0 * omega)
    result = thermal.transfer_efficiency(tau_coll, 1.0e3, omega)
    assert result.eta < 1.0
    assert result.separated is False


def test_transfer_efficiency_degraded_value():
    result = thermal.transfer_efficiency(1.0e-3, 1.0e-3, 100.0)
    assert math.isclose(result.eta, 0.5, rel_tol=1e-14)
    assert result.separated is False


def test_transfer_efficiency_boundary_inclusive():
    # exactly at the dominance ratio on both margins counts as separated
    omega = 100.0
    tau_coll = 1.0 / (10.0 * omega)
    result = thermal.transfer_efficiency(tau_coll, 10.0 * tau_coll, omega)
    assert result.eta == 1.0


def test_transfer_efficiency_guards():
    with pytest.raises(ValueError):
        thermal.transfer_efficiency(0.0, 1.0, 100.0)
    with pytest.raises(ValueError):
        thermal.transfer_efficiency(1.0e-5, -1.0, 100.0)
    with pytest.raises(ValueError):
        thermal.transfer_efficiency(1.0e-5, 1.0, 0.0)


def test_collisional_timescale_refuses_a_rate_out_of_range(anthrax):
    # refused here, before tau_c = 0 reaches transfer_efficiency's check
    # on the timescales
    with pytest.raises(ValueError, match="^arithmetic out of range: "
                                         "the collision rate is inf$"):
        thermal.collisional_timescale(1.0e12, math.inf, 30.0)
    with pytest.raises(ValueError, match="^collision rate must be positive$"):
        thermal.collisional_timescale(1.0e12, np.array([1.0e16, 0.0]), 30.0)
    gas = dataclasses.replace(anthrax.gas,
                              pressure=np.array([1.0e5, 1.0e6, 1.7e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="^arithmetic out of range: the "
                                             "collision rate is inf at sweep "
                                             "point 2$"):
            thermal.thermal_report(dataclasses.replace(anthrax, gas=gas))


def test_min_density_names_a_swept_collision_rate_that_overflows(anthrax):
    # under min_density's errstate, numpy used to raise inside
    # collision_rate and name only the multiplication
    gas = dataclasses.replace(anthrax.gas,
                              pressure=np.array([1.0e5, 8.5e307, 1.7e308]))
    with pytest.raises(ValueError, match="^arithmetic out of range: the "
                                         "collision rate is inf at sweep "
                                         "point 1$"):
        min_density(dataclasses.replace(anthrax, gas=gas))


def test_thermal_report_reference(anthrax):
    report = thermal.thermal_report(anthrax)
    assert math.isclose(report.collision_rate, 1.6180462995004508e+16, rel_tol=1e-12)
    assert math.isclose(report.temperature_rise, 151.20904579768953, rel_tol=1e-12)
    assert math.isclose(report.peak_temperature, 451.20904579768956, rel_tol=1e-12)
    assert math.isclose(report.collisional_timescale, 3.121937186441486e-05,
                        rel_tol=1e-12)
    assert math.isclose(report.deposited_energy, 1.0545718169999999e-08,
                        rel_tol=1e-12)
    assert math.isclose(report.radiative_power, 1.8042375448353833e-08,
                        rel_tol=1e-12)
    assert math.isclose(report.radiative_timescale, 0.5844972132514945,
                        rel_tol=1e-12)
    assert report.eta == 1.0
    assert report.efficiency.separated is True


def test_thermal_report_separations(anthrax):
    eff = thermal.thermal_report(anthrax).efficiency
    assert math.isclose(eff.drive_separation, 320.31393980089706, rel_tol=1e-12)
    assert math.isclose(eff.radiative_separation, 18722.26051792313, rel_tol=1e-12)
    assert math.isclose(eff.chain_separation, 58.44972132514945, rel_tol=1e-12)
    assert eff.drive_separation >= 10.0
    assert eff.radiative_separation >= 10.0


def test_thermal_report_degrades_when_modulated_fast(anthrax):
    # at 1 MHz modulation 1/w is far below tau_coll: warn and degrade
    laser = dataclasses.replace(anthrax.laser, modulation_omega=1.0e6)
    fast = dataclasses.replace(anthrax, laser=laser)
    report = thermal.thermal_report(fast)
    assert report.efficiency.separated is False
    assert min_density(fast).warning_flags[TIMESCALES_NOT_SEPARATED] is True
    tau_c, tau_r = report.collisional_timescale, report.radiative_timescale
    assert math.isclose(report.eta, tau_r / (tau_r + tau_c), rel_tol=1e-14)
    assert 0.0 < report.eta < 1.0


def test_thermal_report_band_of_raman_fractions(anthrax):
    # the temperature rise spans roughly 150 K to 760 K across the
    # plausible heat-degradation fractions
    for fraction, expected in ((0.1, 151.20904579768953),
                               (0.5, 756.0452289884477)):
        particle = dataclasses.replace(anthrax.particle, raman_fraction=fraction)
        scenario = dataclasses.replace(anthrax, particle=particle)
        report = thermal.thermal_report(scenario)
        assert math.isclose(report.temperature_rise, expected, rel_tol=1e-12)

