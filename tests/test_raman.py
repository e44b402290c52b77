import dataclasses
import math
import random

import numpy as np
import pytest

from parsim import quantities as q
from parsim import raman


def test_population_factor_reference(anthrax):
    f = raman.population_factor(anthrax.laser.raman_shift,
                                anthrax.gas.temperature)
    assert math.isclose(f, 0.9216114592223598, rel_tol=1e-13)


def test_population_factor_limits():
    assert raman.population_factor(0.0, 300.0) == 0.0
    f = raman.population_factor(1.0e20, 300.0)
    assert f == pytest.approx(1.0, abs=1e-15)


def test_population_factor_bounds_random():
    rng = random.Random(7001)
    for _ in range(200):
        shift = 10.0 ** rng.uniform(8, 17)
        temp = 10.0 ** rng.uniform(0, 4)
        f = raman.population_factor(shift, temp)
        assert 0.0 < f <= 1.0


def test_gain_factor_reference(anthrax):
    result = raman.gain_coefficient(anthrax)
    assert result.linewidth_convention == "ordinary"
    assert math.isclose(result.gain_factor, 7.873483145165884e-11, rel_tol=1e-12)
    assert math.isclose(result.gain,
                        result.gain_factor * anthrax.laser.pump_intensity,
                        rel_tol=1e-15)
    assert result.stokes_velocity == q.SPEED_OF_LIGHT


def test_gain_conventions_differ_by_two_pi(anthrax):
    ordinary = raman.gain_coefficient(anthrax, "ordinary")
    angular = raman.gain_coefficient(anthrax, "angular")
    assert math.isclose(ordinary.gain_factor / angular.gain_factor,
                        2.0 * math.pi, rel_tol=1e-13)
    assert math.isclose(angular.gain_factor, 1.2531037619038734e-11,
                        rel_tol=1e-12)


def test_gain_unknown_convention(anthrax):
    with pytest.raises(ValueError):
        raman.gain_coefficient(anthrax, "rpm")


def test_gain_scalings(anthrax):
    base = raman.gain_coefficient(anthrax).gain_factor
    rng = random.Random(7002)
    for _ in range(100):
        s = 10.0 ** rng.uniform(-2, 2)

        particle = dataclasses.replace(anthrax.particle, active_density=s * anthrax.particle.active_density)
        got = raman.gain_coefficient(dataclasses.replace(anthrax, particle=particle)).gain_factor
        assert math.isclose(got, s * base, rel_tol=1e-12)

        particle = dataclasses.replace(anthrax.particle, raman_cross_section=s * anthrax.particle.raman_cross_section)
        got = raman.gain_coefficient(dataclasses.replace(anthrax, particle=particle)).gain_factor
        assert math.isclose(got, s * base, rel_tol=1e-12)

        particle = dataclasses.replace(anthrax.particle, linewidth_hz=s * anthrax.particle.linewidth_hz)
        got = raman.gain_coefficient(dataclasses.replace(anthrax, particle=particle)).gain_factor
        assert math.isclose(got, base / s, rel_tol=1e-12)


def test_gain_refractive_index_squared(anthrax):
    # v_s = c0 / n and the gain goes as v_s^2
    laser = dataclasses.replace(anthrax.laser, refractive_index=1.5)
    got = raman.gain_coefficient(dataclasses.replace(anthrax, laser=laser))
    base = raman.gain_coefficient(anthrax)
    assert math.isclose(got.gain_factor * 1.5**2, base.gain_factor, rel_tol=1e-13)
    assert math.isclose(got.stokes_velocity, q.SPEED_OF_LIGHT / 1.5, rel_tol=1e-15)


def test_gain_pump_only_enters_through_population(anthrax):
    # moving the pump changes the gain only through the thermal contrast
    base = raman.gain_coefficient(anthrax)
    laser = dataclasses.replace(anthrax.laser,
                                pump_omega=anthrax.laser.stokes_omega + 2.0e14)
    shifted_scenario = dataclasses.replace(anthrax, laser=laser)
    shifted = raman.gain_coefficient(shifted_scenario)
    expected = (base.gain_factor / base.population_factor
                * shifted.population_factor)
    assert math.isclose(shifted.gain_factor, expected, rel_tol=1e-13)


def test_heat_reference(anthrax):
    gain = raman.gain_coefficient(anthrax)
    heat = raman.heat_source_density(anthrax, gain)
    assert math.isclose(heat.branching, 0.999999999, rel_tol=1e-15)
    # independent-oracle value 3132759404759.6836 at branching exactly 1
    assert math.isclose(heat.deposition_rate, 3132759404759.6836, rel_tol=1e-12)
    assert math.isclose(heat.h_r, 3132759401626.9243, rel_tol=1e-12)
    assert math.isclose(heat.h_r, heat.branching * heat.deposition_rate,
                        rel_tol=1e-15)


def test_heat_quadratic_in_intensity(anthrax):
    rng = random.Random(7003)
    gain0 = raman.gain_coefficient(anthrax)
    h0 = raman.heat_source_density(anthrax, gain0).h_r
    for _ in range(100):
        s = 10.0 ** rng.uniform(-3, 3)
        laser = dataclasses.replace(
            anthrax.laser,
            pump_intensity=s * anthrax.laser.pump_intensity,
            stokes_intensity=s * anthrax.laser.stokes_intensity)
        scaled = dataclasses.replace(anthrax, laser=laser)
        gain = raman.gain_coefficient(scaled)
        h = raman.heat_source_density(scaled, gain).h_r
        assert math.isclose(h, s * s * h0, rel_tol=1e-12)


def test_heat_branching_limits(anthrax):
    gain = raman.gain_coefficient(anthrax)
    radiative = dataclasses.replace(anthrax.particle, collisional_rate=0.0,
                                    radiative_rate=1.0e3)
    heat = raman.heat_source_density(
        dataclasses.replace(anthrax, particle=radiative), gain)
    assert heat.branching == 0.0
    assert heat.h_r == 0.0

    # two vanishing decay rates are refused by validation, at the first
    # such sweep point; heat_source_density divides by their sum unchecked
    for collisional, point in ((0.0, 0), (np.array([1.0e3, 0.0, 0.0]), 1)):
        dead = dataclasses.replace(anthrax.particle, collisional_rate=collisional,
                                   radiative_rate=0.0)
        with pytest.raises(q.ScenarioValidationError) as err:
            q.validate_scenario(dataclasses.replace(anthrax, particle=dead))
        assert err.value.point == point
        assert [str(v) for v in err.value.violations] == [
            "particle.collisional_rate: collisional and radiative decay rates "
            "cannot both vanish [out_of_range]"]


def test_heat_uses_frequency_ratio(anthrax):
    gain = raman.gain_coefficient(anthrax)
    heat = raman.heat_source_density(anthrax, gain)
    ratio = anthrax.laser.raman_shift / anthrax.laser.stokes_omega
    assert math.isclose(ratio, 0.039788735772973836, rel_tol=1e-13)
    expected = (ratio * gain.gain_factor * anthrax.laser.pump_intensity
                * anthrax.laser.stokes_intensity)
    assert math.isclose(heat.deposition_rate, expected, rel_tol=1e-15)
