"""Acceptance gate for the airborne-spore detection-limit calculator.

One test per headline guarantee.  Every test prints a single PASS/FAIL
summary line (visible under ``pytest -s``) and asserts the same condition,
so this file doubles as a checklist: order-of-magnitude agreement with the
reference figures for the spore scenario, exact internal scaling laws,
analytic-versus-stochastic consistency of the noise model, mode-solver
cross-checks, and a deterministic CLI.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import eigh_tridiagonal

from parsim import quantities
from parsim.acoustics import cylinder_modes
from parsim.cli import main
from parsim.detection import min_density
from parsim.noise import nep, noise_spectrum
from parsim.oracle import SdeRunConfig, estimate_psd, integrate_driven, integrate_langevin
from parsim.quantities import CellGeometry, sound_speed
from parsim.raman import LINEWIDTH_CONVENTIONS, gain_coefficient, heat_source_density
from parsim.scenario_io import dumps_scenario, loads_scenario
from parsim.thermal import radiative_power, thermal_report


def _check(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _fold(ratio: float) -> float:
    """How far a value sits from a reference, as a factor >= 1."""
    return max(ratio, 1.0 / ratio)


# ---------------------------------------------------------------------------
# 1. Raman gain magnitude

def test_raman_gain_magnitude(anthrax):
    reference = 8.5e-12  # m/W
    gains = {name: gain_coefficient(anthrax, linewidth_convention=name).gain_factor
             for name in LINEWIDTH_CONVENTIONS}
    folds = {name: _fold(g / reference) for name, g in gains.items()}
    closest = min(folds, key=folds.get)
    ok = all(f <= 10.0 for f in folds.values()) and closest == "angular"
    _check("1 raman gain within 10x of 8.5e-12 m/W", ok,
           ", ".join(f"{name} {gains[name]:.3e} ({folds[name]:.2f}x)"
                     for name in sorted(gains))
           + f"; closest convention: {closest}")


# ---------------------------------------------------------------------------
# 2. Thermal chain magnitudes

def test_thermal_chain_magnitudes(anthrax):
    report = thermal_report(anthrax)
    parts = []

    # heating band: the rise is exactly linear in the degraded fraction,
    # so the band endpoints at 0.1 and 0.5 stand in for the whole range
    rise_low = report.temperature_rise            # fraction 0.1 (preset)
    rise_high = 5.0 * rise_low                    # fraction 0.5
    band_ok = (100.0 <= rise_low <= 500.0
               and _fold(rise_low / 100.0) <= 2.0
               and _fold(rise_high / 500.0) <= 2.0)
    parts.append((band_ok,
                  f"dT {rise_low:.0f}..{rise_high:.0f} K vs 100..500 K"))

    tau_fold = _fold(report.collisional_timescale / 1.0e-5)
    parts.append((tau_fold <= 10.0,
                  f"tau_coll {report.collisional_timescale:.2e} s "
                  f"({tau_fold:.1f}x of 1e-5)"))

    rate_fold = _fold(report.collision_rate / 4.0e17)
    parts.append((rate_fold <= 100.0,
                  f"collision rate {report.collision_rate:.2e} /s "
                  f"({rate_fold:.1f}x of 4e17)"))

    p_rad = radiative_power(1000.0, 1.0e-6)
    p_fold = _fold(p_rad / 1.0e-7)
    parts.append((p_fold <= 10.0,
                  f"radiative power {p_rad:.2e} W ({p_fold:.1f}x of 1e-7)"))

    eff = report.efficiency
    separations = (eff.drive_separation, eff.radiative_separation,
                   eff.chain_separation)
    eta_ok = (report.eta == 1.0 and eff.separated
              and all(s >= 10.0 for s in separations))
    parts.append((eta_ok, "eta=1 with separations "
                  + "/".join(f"{s:.0f}" for s in separations)))

    _check("2 thermal chain magnitudes", all(ok for ok, _ in parts),
           "; ".join(d for _, d in parts))


# ---------------------------------------------------------------------------
# 3. Noise-equivalent heating power

def test_nep_magnitude(anthrax):
    result = nep(anthrax)
    reference = 5.0e-5  # W m^-3 s^1/2
    ratio = result.h_nep / reference
    _check("3 h_nep within 30x of 5e-5 W m^-3 s^1/2", _fold(ratio) <= 30.0,
           f"h_nep {result.h_nep:.4e}, ratio to reference {ratio:.2f}")


# ---------------------------------------------------------------------------
# 4. Detection limit

def test_detection_limit_magnitude(anthrax):
    assert anthrax.laser.pump_intensity == 1.0e12
    assert anthrax.laser.stokes_intensity == 1.0e12
    report = min_density(anthrax)
    product = (report.rho_min * anthrax.laser.pump_intensity
               * anthrax.laser.stokes_intensity)
    product_fold = _fold(product / 3.0e25)
    low_fold = _fold(report.rho_min / 30.0)
    high_fold = _fold(report.rho_min / 100.0)
    ok = product_fold <= 30.0 and low_fold <= 30.0 and high_fold <= 30.0
    _check("4 detection limit within 30x of references", ok,
           f"rho_min {report.rho_min:.1f} /m^3 "
           f"({low_fold:.1f}x of 30, {high_fold:.1f}x of 100); "
           f"rho*Ip*Is {product:.2e} ({product_fold:.1f}x of 3e25)")


# ---------------------------------------------------------------------------
# 5. Mode solver cross-checks

def test_mode_solver_cross_checks(anthrax, mode_pressure):
    cell = CellGeometry(length=0.1, radius=0.05)
    gas = anthrax.gas
    c = sound_speed(gas)
    modes = cylinder_modes(cell, gas, max_axial=3, max_radial=2,
                           max_azimuthal=2)
    by_index = {m.index: m for m in modes}
    parts = []

    root_err = abs(by_index[(0, 0, 1)].bessel_root - 3.8317)
    parts.append((root_err <= 1.0e-4,
                  f"first radial root off by {root_err:.1e}"))

    axial = by_index[(1, 0, 0)].omega
    axial_rel = abs(axial - math.pi * c / cell.length) / axial
    parts.append((axial_rel <= 1.0e-6,
                  f"axial mode vs closed form rel {axial_rel:.1e}"))

    # independent check: second-order Neumann Laplacian on the cell axis
    n = 4000
    h = cell.length / (n - 1)
    main_diag = np.full(n, 2.0)
    off = np.full(n - 1, 1.0)
    off[0] = off[-1] = math.sqrt(2.0)   # symmetrized ghost-point closure
    vals = eigh_tridiagonal(main_diag, -off, select="i", select_range=(0, 1),
                            eigvals_only=True)
    fd_omega = math.sqrt(abs(vals[1])) * c / h
    fd_rel = abs(axial - fd_omega) / axial
    parts.append((fd_rel <= 1.0e-4,
                  f"axial mode vs finite differences rel {fd_rel:.1e}"))

    # orthonormality of the first ten modes under the cell average
    ten = modes[:10]
    nodes_z, wz = np.polynomial.legendre.leggauss(80)
    nodes_r, wr = np.polynomial.legendre.leggauss(160)
    z = 0.5 * cell.length * (nodes_z + 1.0)
    r = 0.5 * cell.radius * (nodes_r + 1.0)
    phi = (np.arange(64) + 0.5) * (2.0 * math.pi / 64)
    wz = 0.5 * wz                      # cell-average weights on [0, 1]
    wr = 0.5 * wr * 2.0 * (r / cell.radius)
    wphi = np.full(64, 1.0 / 64)
    zz, rr, pp = np.meshgrid(z, r, phi, indexing="ij")
    weight = (wz[:, None, None] * wr[None, :, None] * wphi[None, None, :])
    profiles = np.array([mode_pressure(m, cell, zz, rr, pp).reshape(-1)
                         for m in ten])
    gram = profiles @ (profiles * weight.reshape(-1)).T
    gram_err = float(np.max(np.abs(gram - np.eye(len(ten)))))
    parts.append((gram_err <= 1.0e-8,
                  f"10x10 orthonormality off identity by {gram_err:.1e}"))

    _check("5 mode solver cross-checks", all(ok for ok, _ in parts),
           "; ".join(d for _, d in parts))


# ---------------------------------------------------------------------------
# 6. Stochastic oracle versus the analytic noise model

@pytest.fixture(scope="module")
def noise_run(anthrax):
    det = anthrax.detector
    config = SdeRunConfig(timestep=1.0e-6, duration=1.6e-2, seed=2026,
                          ensemble_size=64, mode_omega=det.noise_mode_omega,
                          damping=det.noise_damping, keep_samples=True)
    return integrate_langevin(config, anthrax)


def test_oracle_equipartition(noise_run):
    ratio = noise_run.equipartition_ratio
    sigma = ratio * noise_run.mean_u2_stderr / noise_run.mean_u2
    z = abs(ratio - 1.0) / sigma
    _check("6a equipartition within 3 standard errors", z <= 3.0,
           f"rho V <u^2> / kT = {ratio:.4f} +- {sigma:.4f} (z = {z:.2f}, "
           f"{noise_run.n_members} members)")


def test_oracle_psd_pointwise(noise_run, anthrax):
    w1 = anthrax.detector.noise_mode_omega
    gas = anthrax.gas
    # Welch's estimate of the kept pressure amplitude rho0 c w1 q
    psd = estimate_psd(gas.density * sound_speed(gas) * w1 * noise_run.position,
                       1.0 / noise_run.metadata["timestep"], 1024)
    grid = psd.omega
    band = (grid >= w1 / 4.0) & (grid <= 4.0 * w1)
    analytic = noise_spectrum(w1, anthrax, grid[band]).values
    deviation = np.abs(psd.values[band] / analytic - 1.0)
    worst = float(np.max(deviation))
    _check("6b empirical PSD within 10% on [w1/4, 4 w1]", worst <= 0.10,
           f"worst bin {100 * worst:.1f}% across {int(band.sum())} bins")


def test_oracle_psd_integral_mode_independent(anthrax):
    gas = anthrax.gas
    c2 = gas.gamma * gas.pressure / gas.density
    kt = quantities.K_BOLTZMANN * gas.temperature
    volume = anthrax.cell.volume
    gamma_n = anthrax.detector.noise_damping
    target = gas.density * c2 * kt / (2.0 * volume)

    def psd(w, wj):
        return (gas.density * c2 * wj**2 * gamma_n * kt
                / (volume * ((wj**2 - w**2) ** 2 + (w * gamma_n) ** 2)))

    totals = []
    for wj in (1.0e4, 4.0e4, 2.0e5):
        scale = max(wj, gamma_n)
        head, _ = integrate.quad(psd, 0.0, 10.0 * scale, args=(wj,),
                                 points=[wj, scale], limit=800,
                                 epsabs=0.0, epsrel=1e-12)
        tail, _ = integrate.quad(lambda u: psd(1.0 / u, wj) / u**2,
                                 0.0, 0.1 / scale, limit=200,
                                 epsabs=1e-30, epsrel=1e-12)
        totals.append((head + tail) / math.pi)
    worst = max(abs(t - target) / target for t in totals)
    spread = (max(totals) - min(totals)) / target
    _check("6c two-sided PSD integral = rho c^2 kT / 2V for any mode",
           worst <= 1.0e-6 and spread <= 1.0e-6,
           f"worst rel err {worst:.1e}, spread {spread:.1e} over three modes")


def test_oracle_driven_response(anthrax):
    mode_omega = 10377.685870383077   # first axial mode of the preset cell
    damping = 100.0
    strength = 2.0e-3
    worst = 0.0
    for drive in (mode_omega, 2.5e3, 2.1e4):
        result = integrate_driven(mode_omega, damping, strength, drive)
        expected = (-1j * drive * strength
                    / (mode_omega**2 - drive**2 - 1j * drive * damping))
        worst = max(worst, abs(result.amplitude - expected) / abs(expected))
    _check("6d driven steady state matches the transfer function to 0.5%",
           worst <= 5.0e-3, f"worst rel err {worst:.2e} "
           "(resonance and both flanks)")


# ---------------------------------------------------------------------------
# 7. Exact scaling laws on randomized scenarios

def _randomized(anthrax, rng):
    gas = dataclasses.replace(
        anthrax.gas,
        temperature=rng.uniform(150.0, 600.0),
        density=rng.uniform(0.2, 5.0))
    particle = dataclasses.replace(
        anthrax.particle,
        molecule_count=10.0 ** rng.uniform(10.0, 14.0),
        raman_cross_section=10.0 ** rng.uniform(-34.0, -32.0))
    return dataclasses.replace(anthrax, gas=gas, particle=particle)


def test_exact_scaling_laws(anthrax):
    rng = random.Random(8101)
    worst = 0.0

    def track(value, expected):
        nonlocal worst
        worst = max(worst, abs(value - expected) / abs(expected))

    for _ in range(100):
        scenario = _randomized(anthrax, rng)
        a = 10.0 ** rng.uniform(-1.5, 1.5)
        b = 10.0 ** rng.uniform(-1.5, 1.5)
        laser = dataclasses.replace(
            scenario.laser,
            pump_intensity=a * scenario.laser.pump_intensity,
            stokes_intensity=b * scenario.laser.stokes_intensity)
        scaled = dataclasses.replace(scenario, laser=laser)

        base_h = heat_source_density(scenario, gain_coefficient(scenario)).h_r
        scaled_h = heat_source_density(scaled, gain_coefficient(scaled)).h_r
        track(scaled_h, a * b * base_h)

        track(min_density(scaled).rho_min, min_density(scenario).rho_min / (a * b))

        factor = rng.uniform(0.2, 5.0)
        report = thermal_report(scenario)
        particle = dataclasses.replace(
            scenario.particle,
            raman_fraction=factor * scenario.particle.raman_fraction)
        rescaled = dataclasses.replace(scenario, particle=particle)
        track(thermal_report(rescaled).temperature_rise,
              factor * report.temperature_rise)

        t = rng.uniform(300.0, 2000.0)
        s = rng.uniform(0.3, 3.0)
        track(radiative_power(s * t, 1.0e-6), s**4 * radiative_power(t, 1.0e-6))

    _check("7 exact scaling laws on 100 randomized scenarios to 1e-10",
           worst <= 1.0e-10, f"worst rel err {worst:.1e}")


# ---------------------------------------------------------------------------
# 8. CLI contract

def test_cli_contract(anthrax, capsys):
    code1 = main(["report"])
    first = capsys.readouterr().out
    code2 = main(["report"])
    second = capsys.readouterr().out
    deterministic = code1 == code2 == 0 and first == second

    code = main(["sweep", "--vary",
                 "laser.pump_intensity,laser.stokes_intensity=log:1e11:1e13:9"])
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith("#")][1:]
    x = np.log([float(r[0]) for r in rows])
    y = np.log([float(r[2]) for r in rows])
    slope = float(np.polyfit(x, y, 1)[0])
    slope_ok = code == 0 and abs(slope + 2.0) <= 0.01 * 2.0

    text = dumps_scenario(anthrax)
    round_trip = loads_scenario(text).scenario
    identity = round_trip == anthrax and dumps_scenario(round_trip) == text

    _check("8 CLI contract", deterministic and slope_ok and identity,
           f"report deterministic: {deterministic}; sweep log-log slope "
           f"{slope:.6f}; scenario round-trip identity: {identity}")
