import dataclasses
import math
import random

import numpy as np
import pytest
from scipy import integrate

from parsim import quantities
from parsim.detection import MODULATION_NOT_SMALL, min_density
from parsim.noise import (
    SpectrumSeries,
    nep,
    noise_spectrum,
    thermal_variance,
)


def test_thermal_variance_reference(anthrax):
    gas = anthrax.gas
    c2 = gas.gamma * gas.pressure / gas.density
    manual = (gas.density * c2 * quantities.K_BOLTZMANN * gas.temperature
              / anthrax.cell.volume)
    assert math.isclose(thermal_variance(anthrax), manual, rel_tol=1e-15)


def test_noise_spectrum_peak_location(anthrax):
    # the PSD peaks below the mode frequency at sqrt(w_j^2 - Gamma^2 / 2)
    wj = anthrax.detector.noise_mode_omega
    expected_peak = 18708.286933869706
    assert math.isclose(expected_peak,
                        math.sqrt(wj**2 - anthrax.detector.noise_damping**2 / 2.0),
                        rel_tol=1e-12)
    grid = np.linspace(1.0, 1.0e5, 400001)
    result = noise_spectrum(wj, anthrax, grid)
    peak = float(grid[np.argmax(result.values)])
    assert abs(peak - expected_peak) < 2.0 * (grid[1] - grid[0])


def test_noise_spectrum_total_variance_grid(anthrax):
    wj = anthrax.detector.noise_mode_omega
    grid = np.linspace(0.0, 2.0e6, 200001)
    result = noise_spectrum(wj, anthrax, grid)
    gas = anthrax.gas
    c = quantities.sound_speed(gas)
    analytic = (gas.density * c**2 * quantities.K_BOLTZMANN * gas.temperature
                / anthrax.cell.volume)
    # the dw / pi two-sided measure, even extension
    variance = 2.0 / math.pi * float(np.trapezoid(result.values, grid))
    assert math.isclose(variance, analytic, rel_tol=1e-4)


def test_noise_variance_independent_of_mode_frequency(anthrax):
    # the two-sided integral of the mode PSD must not depend on where the
    # mode sits; integrate the head adaptively and the 1/w^4 tail by u = 1/w
    gas = anthrax.gas
    c2 = gas.gamma * gas.pressure / gas.density
    kt = quantities.K_BOLTZMANN * gas.temperature
    volume = anthrax.cell.volume
    gamma_n = anthrax.detector.noise_damping
    target = gas.density * c2 * kt / volume

    def psd(w, wj):
        return (gas.density * c2 * wj**2 * gamma_n * kt
                / (volume * ((wj**2 - w**2) ** 2 + (w * gamma_n) ** 2)))

    for wj in (1.0e4, 4.0e4, 2.0e5):
        scale = max(wj, gamma_n)
        head, _ = integrate.quad(psd, 0.0, 10.0 * scale, args=(wj,),
                                 points=[wj, scale], limit=800,
                                 epsabs=0.0, epsrel=1e-12)
        cut = 10.0 * scale
        tail, _ = integrate.quad(lambda u: psd(1.0 / u, wj) / u**2,
                                 0.0, 1.0 / cut, limit=200,
                                 epsabs=1e-30, epsrel=1e-12)
        total = 2.0 * (head + tail) / math.pi
        assert math.isclose(total, target, rel_tol=1e-9), wj


def test_noise_spectrum_guards(anthrax):
    with pytest.raises(ValueError):
        noise_spectrum(-1.0, anthrax, np.array([1.0, 2.0]))


def test_nep_reference(anthrax):
    result = nep(anthrax)
    assert math.isclose(result.vh_nep, 4.790762154286656e-12, rel_tol=1e-12)
    assert math.isclose(result.h_nep, 4.790762154286656e-4, rel_tol=1e-12)
    assert result.modulation_omega == anthrax.laser.modulation_omega
    assert result.small_modulation is True


def test_nep_formula(anthrax):
    gas = anthrax.gas
    det = anthrax.detector
    c = quantities.sound_speed(gas)
    v = anthrax.cell.volume
    w = anthrax.laser.modulation_omega
    expected = math.sqrt(v * det.noise_damping * gas.density * c**2
                         * quantities.K_BOLTZMANN * gas.temperature
                         * (w**2 + det.signal_damping**2)) \
        / (det.noise_mode_omega * (gas.gamma - 1.0))
    assert math.isclose(nep(anthrax).vh_nep, expected, rel_tol=1e-14)


def test_nep_scalings(anthrax):
    base = nep(anthrax).vh_nep
    rng = random.Random(7201)
    for _ in range(100):
        s = 10.0 ** rng.uniform(-1, 1)
        det = dataclasses.replace(anthrax.detector,
                                  noise_damping=s * anthrax.detector.noise_damping)
        got = nep(dataclasses.replace(anthrax, detector=det)).vh_nep
        assert math.isclose(got, base * math.sqrt(s), rel_tol=1e-12)

        det = dataclasses.replace(anthrax.detector,
                                  noise_mode_omega=s * anthrax.detector.noise_mode_omega)
        got = nep(dataclasses.replace(anthrax, detector=det)).vh_nep
        assert math.isclose(got, base / s, rel_tol=1e-12)


def _nep_at(scenario, modulation_omega):
    laser = dataclasses.replace(scenario.laser, modulation_omega=modulation_omega)
    return nep(dataclasses.replace(scenario, laser=laser))


def test_nep_modulation_dependence(anthrax):
    # flat for w << Gamma_s, linear for w >> Gamma_s
    gs = anthrax.detector.signal_damping
    low = _nep_at(anthrax, 0.0).vh_nep
    assert math.isclose(low, _nep_at(anthrax, gs).vh_nep / math.sqrt(2.0),
                        rel_tol=1e-12)
    w1, w2 = 200.0 * gs, 400.0 * gs
    ratio = _nep_at(anthrax, w2).vh_nep / _nep_at(anthrax, w1).vh_nep
    assert math.isclose(ratio, 2.0, rel_tol=1e-4)


def test_nep_flags_fast_modulation(anthrax):
    wj = anthrax.detector.noise_mode_omega
    ok = _nep_at(anthrax, 0.1 * wj)
    assert ok.small_modulation
    flagged = _nep_at(anthrax, 0.2 * wj)
    assert flagged.small_modulation is False
    laser = dataclasses.replace(anthrax.laser, modulation_omega=0.2 * wj)
    flags = min_density(dataclasses.replace(anthrax, laser=laser)).warning_flags
    assert flags[MODULATION_NOT_SMALL] is True
    with pytest.raises(ValueError):
        _nep_at(anthrax, -1.0)


def test_spectrum_series_validation():
    with pytest.raises(ValueError):
        SpectrumSeries(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        SpectrumSeries(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        SpectrumSeries(np.array([1.0, 2.0]), np.array([1.0]))
