"""Tests of the time-domain oracles in ``parsim.oracle``.

Stochastic checks
-----------------
Five tests bound a statistic of random draws.  Each runs one fixed seed, so
it passes or fails for good; its false-alarm probability is the chance
that another seed fails it while the code is right.  The counts k/N below
rerun the same configuration at seeds 0-1999 (0-999 for the white noise).
The margin is the bound over the statistic at the test's seed.  z is
|ratio - 1| / (stderr / mean) over 64 members, close to |t| at 63 degrees
of freedom, whose two-sided tail is 3.9e-3 beyond 3 and 1.7e-4 beyond 4.

- test_equipartition: seed 2026; 64 members of 8 ms at w_j 4e4 rad/s,
  Gamma 5e4 1/s (the thermal_run fixture).
  - z < 3: z = 2.88, margin 1.04; 9/2000 seeds, t tail 3.9e-3.
  - mean u^2 within 4 sigma of k T / (rho0 V): 2.81 sigma, margin 1.42;
    1/2000 seeds, t tail 1.7e-4.
- test_psd_matches_analytic_pointwise: the same run, 25 bins from w_j/4
  to 4 w_j.
  - max |ratio - 1| < 0.12: 0.092, margin 1.31; 76/2000 seeds (3.8%).
  - |median ratio - 1| < 0.04: 0.033, margin 1.20; 6/2000 seeds.
  - either: 82/2000 seeds (4.1%).
- test_psd_variance_parseval: the same run.
  - |Welch variance / (rho0 c^2 k T / V) - 1| < 0.10: 0.031, margin 3.3;
    0/2000 seeds, largest 0.053; a normal of the seeds' rms, 0.015, puts
    the tail at 5e-11.
- test_ou_velocity_psd_width_and_equipartition: seed 77; 64 members of
  8 ms at w_j = 0, 30 bins from Gamma/4 to 4 Gamma.
  - |width / Gamma - 1| < 0.05: 0.032, margin 1.54; 1/2000 seeds.
  - max |ratio - 1| < 0.12: 0.085, margin 1.42; 39/2000 seeds (2.0%).
  - |median ratio - 1| < 0.04: 0.0071, margin 5.7; 0/2000 seeds, largest
    0.036.
  - z < 3: z = 2.97, margin 1.01 (a FOUND line of CHANGES.md); 10/2000
    seeds, t tail 3.9e-3.
  - any of the four: 50/2000 seeds (2.5%).
- test_estimate_psd_white_noise_parseval: Philox(314), 8 x 65536 normals.
  - |variance - 1| < 0.02: 7.2e-4, margin 28; 0/1000 seeds, rms 2.0e-3,
    normal tail 1e-23.
  - |mid-band mean / flat level - 1| < 0.05: 2.0e-3, margin 25; 0/1000
    seeds, rms 3.5e-3, normal tail 3e-46.

The other tests that draw bound no statistic.  They push the same draws
through two code paths (blocked stepper, streamed reductions, kept
samples, ensemble size, Welch against scipy) and compare to rounding, or
require two seeds to differ (test_determinism_and_seed_sensitivity).
"""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import parsim
from parsim import noise, oracle, quantities
from parsim.noise import SpectrumSeries
from parsim.oracle import (
    _BLOCK_STEPS,
    _CHUNK_STEPS,
    _SAMPLES_PER_PERIOD,
    SdeRunConfig,
    STABILITY_LIMIT,
    _expm,
    _noise_factor,
    _Stepper,
    estimate_psd,
    integrate_driven,
    integrate_langevin,
    series_variance,
    slowest_rate,
    transition,
)
from parsim.quantities import Refusal

MODE_OMEGA = 4.0e4
DAMPING = 5.0e4
SIGMA2 = 3.0e-8


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


# ---------------------------------------------------------------------------
# exact transition algebra

@pytest.mark.parametrize("mode_omega", [MODE_OMEGA, 0.0])
def test_transition_semigroup(mode_omega):
    # one double step must equal two single steps exactly: this is what
    # makes the integrator bias-free at any timestep
    dt = 1.0e-6
    phi1, sig1 = transition(mode_omega, DAMPING, SIGMA2, dt)
    phi2, sig2 = transition(mode_omega, DAMPING, SIGMA2, 2.0 * dt)
    assert _rel(phi1 @ phi1, phi2) < 1e-12
    assert _rel(phi1 @ sig1 @ phi1.T + sig1, sig2) < 1e-12


def test_transition_fixed_point():
    dt = 1.0e-6
    phi, sig = transition(MODE_OMEGA, DAMPING, SIGMA2, dt)
    p_inf = np.diag([SIGMA2 / (2.0 * DAMPING * MODE_OMEGA**2),
                     SIGMA2 / (2.0 * DAMPING)])
    assert _rel(phi @ p_inf @ phi.T + sig, p_inf) < 1e-12


def test_transition_zero_frequency_closed_forms():
    # against brute-force Van Loan style quadrature of the OU integrals
    dt = 2.0e-6
    g = DAMPING
    phi, sig = transition(0.0, g, SIGMA2, dt)
    assert math.isclose(phi[1, 1], math.exp(-g * dt), rel_tol=1e-14)
    assert math.isclose(phi[0, 1], (1.0 - math.exp(-g * dt)) / g, rel_tol=1e-14)
    ts = np.linspace(0.0, dt, 20001)
    uu = SIGMA2 * np.trapezoid(np.exp(-2.0 * g * (dt - ts)), ts)
    qu = SIGMA2 * np.trapezoid(
        np.exp(-g * (dt - ts)) * (1.0 - np.exp(-g * (dt - ts))) / g, ts)
    qq = SIGMA2 * np.trapezoid(((1.0 - np.exp(-g * (dt - ts))) / g) ** 2, ts)
    assert math.isclose(sig[1, 1], uu, rel_tol=1e-8)
    assert math.isclose(sig[0, 1], qu, rel_tol=1e-8)
    assert math.isclose(sig[0, 0], qq, rel_tol=1e-7)


# (mode_omega, damping, dt): the validate-noise step, a step 100 times finer,
# a lightly damped mode and the free Ornstein-Uhlenbeck velocity
VAN_LOAN_CASES = [(MODE_OMEGA, DAMPING, 1.0e-6), (MODE_OMEGA, DAMPING, 1.0e-8),
                  (1.0e3, 10.0, 1.0e-5), (0.0, DAMPING, 1.0e-6)]


def _transition_covariance_60_digits(mode_omega, damping, sigma2, dt):
    """Sigma from the stationary fixed point, or the closed integrated-OU
    forms at mode_omega = 0, in 60-digit arithmetic, where the cancellation
    of P_inf - Phi P_inf Phi^T costs nothing."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        w, g, s2, h = (mpmath.mpf(v) for v in (mode_omega, damping, sigma2, dt))
        if mode_omega > 0.0:
            phi = mpmath.expm(mpmath.matrix([[0, 1], [-w**2, -g]]) * h)
            p_inf = mpmath.diag([s2 / (2 * g * w**2), s2 / (2 * g)])
            sig = p_inf - phi * p_inf * phi.T
        else:
            decay = mpmath.exp(-g * h)
            s_qu = s2 * (1 - decay) ** 2 / (2 * g**2)
            sig = mpmath.matrix([
                [s2 / g**2 * (h - 2 * (1 - decay) / g + (1 - decay**2) / (2 * g)),
                 s_qu],
                [s_qu, s2 * (1 - decay**2) / (2 * g)]])
        return np.array(sig.tolist(), dtype=float)


@pytest.mark.parametrize("mode_omega, damping, dt", VAN_LOAN_CASES)
def test_transition_covariance_matches_60_digits(mode_omega, damping, dt):
    # P_inf - Phi P_inf Phi^T in doubles erred by up to 3.5e-6 in Sigma_qq
    want = _transition_covariance_60_digits(mode_omega, damping, SIGMA2, dt)
    _, sig = transition(mode_omega, damping, SIGMA2, dt)
    assert np.all(np.abs(sig - want) <= 1e-14 * np.abs(want))


# (mode_omega, damping): underdamped, critically damped, overdamped, w >> Gamma
PHI_CASES = [(MODE_OMEGA, DAMPING), (2.5e4, 5.0e4), (1.0e4, 5.0e4), (1.0e6, 1.0e2)]


@pytest.mark.parametrize("mode_omega, damping", PHI_CASES)
@pytest.mark.parametrize("fraction", [1.0, 0.3, 1.0 / 7.0])
def test_expm_matches_scipy_on_phi(mode_omega, damping, fraction):
    from scipy.linalg import expm

    # Phi pairs entries of order w^2 dt with dt; unbalanced Pade-13 leaves
    # relative errors of 1e-9 to 1e-5 in the small ones
    dt = fraction * STABILITY_LIMIT / max(mode_omega, damping)
    a = np.array([[0.0, 1.0], [-mode_omega**2, -damping]]) * dt
    want = expm(a)
    assert np.all(np.abs(_expm(a) - want) <= 1e-14 * np.abs(want))


def _driven_generator(mode_omega, damping, strength, drive_omega):
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-mode_omega**2, -damping, 0.0, -strength * drive_omega],
        [0.0, 0.0, 0.0, -drive_omega],
        [0.0, 0.0, drive_omega, 0.0],
    ])


# the acceptance configurations (Q about 100) and the benchmark's (Q = 12)
DRIVEN_CASES = [
    (10377.685870383077, 100.0, 2.0e-3, 2.5e3),
    (10377.685870383077, 100.0, 2.0e-3, 2.1e4),
    (0.0, 100.0, 1.0, 250.0),
    (1.0e4, 1.0e4 / 12.0, 1.0e-3, 1.0e4),
    (1.0e4, 1.0e4 / 12.0, 1.0e-3, 1.6e4),
]


@pytest.mark.parametrize("args", DRIVEN_CASES)
def test_expm_matches_scipy_at_sample_dt(args):
    from scipy.linalg import expm

    period = 2.0 * math.pi / args[3]
    a = _driven_generator(*args) * (period / _SAMPLES_PER_PERIOD)
    want = expm(a)
    assert np.linalg.norm(_expm(a) - want, 1) <= 1e-13 * np.linalg.norm(want, 1)


@pytest.mark.parametrize("args", DRIVEN_CASES)
def test_expm_settle_propagator_accuracy(args):
    # scipy.linalg.expm itself is off by up to 1.8e-12 here, so the
    # reference is a 60-digit exponential.  The bound is a few eps times the
    # spectral radius of M t, the condition of the exponential of a
    # rotation by that many radians; unbalanced Pade-13 misses it by factors
    # of 170 to 2000 wherever the mode frequency is not 0.
    mpmath = pytest.importorskip("mpmath")
    a = _driven_generator(*args) * (30.0 / args[1])
    with mpmath.workdps(60):
        exact = mpmath.expm(mpmath.matrix(a.tolist()))
        want = np.array(exact.tolist(), dtype=float)
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    err = np.linalg.norm(_expm(a) - want, 1) / np.linalg.norm(want, 1)
    assert err <= 1e-15 * max(1.0, radius)


def test_transition_covariance_positive():
    for dt in (1.0e-8, 1.0e-7, 1.0e-6):
        _, sig = transition(MODE_OMEGA, DAMPING, SIGMA2, dt)
        assert np.all(np.linalg.eigvalsh(sig) >= 0.0)
        assert sig[0, 1] == sig[1, 0]


# ---------------------------------------------------------------------------
# configuration guards

def test_stability_guard(anthrax):
    with pytest.raises(Refusal):
        SdeRunConfig(timestep=1.0e-5, duration=1.0e-2, seed=1,
                     ensemble_size=4, mode_omega=MODE_OMEGA,
                     damping=DAMPING).validate()
    # exactly at the limit is allowed
    SdeRunConfig(timestep=0.05 / DAMPING, duration=1.0e-2, seed=1,
                 ensemble_size=4, mode_omega=MODE_OMEGA,
                 damping=DAMPING).validate()


def test_duration_guard():
    with pytest.raises(Refusal):
        SdeRunConfig(timestep=1.0e-6, duration=10.0 / DAMPING, seed=1,
                     ensemble_size=4, mode_omega=MODE_OMEGA,
                     damping=DAMPING).validate()
    with pytest.raises(Refusal):
        SdeRunConfig(timestep=1.0e-6, duration=1.0e-2, seed=1,
                     ensemble_size=1, mode_omega=MODE_OMEGA,
                     damping=DAMPING).validate()


def test_basic_config_guards():
    with pytest.raises(ValueError):
        SdeRunConfig(timestep=-1.0, duration=1.0, seed=1, ensemble_size=4,
                     mode_omega=MODE_OMEGA, damping=DAMPING).validate()
    for bad in (math.inf, math.nan):
        for field_name in ("timestep", "duration"):
            config = SdeRunConfig(timestep=1.0e-6, duration=1.0e-2, seed=1,
                                  ensemble_size=4, mode_omega=MODE_OMEGA,
                                  damping=DAMPING)
            with pytest.raises(ValueError, match="finite"):
                dataclasses.replace(config, **{field_name: bad}).validate()
    with pytest.raises(ValueError):
        SdeRunConfig(timestep=1.0e-6, duration=1.0e-2, seed=1,
                     ensemble_size=4, mode_omega=MODE_OMEGA,
                     damping=0.0).validate()
    # a NaN mode frequency passed, and the run returned NaN statistics
    with pytest.raises(ValueError, match="mode_omega"):
        SdeRunConfig(timestep=1.0e-6, duration=1.0e-2, seed=1,
                     ensemble_size=4, mode_omega=math.nan,
                     damping=DAMPING).validate()


# ---------------------------------------------------------------------------
# free decay against the closed-form damped oscillator

def _decay(mode_omega, damping, timestep, start, n):
    """The n states (q, u) after each step of a decay from start, from the
    stepper integrate_langevin runs, one chunk at a time.  The zero force
    strength gives an exactly zero transition covariance, so its factor and
    the noise it maps the draws to are zero too."""
    phi, sig = transition(mode_omega, damping, 0.0, timestep)
    stepper = _Stepper(phi, _noise_factor(sig), min(_CHUNK_STEPS, n))
    gen = np.random.Generator(np.random.Philox(5))
    x = np.array(start, dtype=float)
    states = np.empty((n, 2))
    for done in range(0, n, _CHUNK_STEPS):
        span = min(_CHUNK_STEPS, n - done)
        states[done:done + span] = stepper.advance(x, gen, span)
        x[:] = states[done + span - 1]
    return states


def _check_free_decay(timestep, duration, tolerance):
    q0 = 1.0e-9
    n = round(duration / timestep)
    position = _decay(MODE_OMEGA, DAMPING, timestep, (q0, 0.0), n)[:, 0]
    t = (1.0 + np.arange(n)) * timestep
    half = DAMPING / 2.0
    wd = math.sqrt(MODE_OMEGA**2 - half**2)
    expected = q0 * np.exp(-half * t) * (np.cos(wd * t)
                                         + half / wd * np.sin(wd * t))
    assert np.max(np.abs(position - expected)) < tolerance * q0


def test_free_decay_matches_closed_form():
    _check_free_decay(timestep=1.0e-6, duration=2.0e-3, tolerance=1.0e-10)


def test_free_decay_fine_timestep():
    # at dt = 1e-9 s a direct-form second-order recursion drifts by ~1e-8 q0;
    # stepping the state with powers of the exact transition does not
    _check_free_decay(timestep=1.0e-9, duration=2.0e-4, tolerance=1.0e-11)


def test_free_decay_overdamped():
    # damping far above the mode frequency: biexponential relaxation
    u0 = 1.0e-6
    n = 1000
    position = _decay(100.0, 5.0e4, 1.0e-6, (0.0, u0), n)[:, 0]
    t = (1.0 + np.arange(n)) * 1.0e-6
    root = math.sqrt((5.0e4 / 2.0) ** 2 - 100.0**2)
    slow, fast = -5.0e4 / 2.0 + root, -5.0e4 / 2.0 - root
    expected = u0 * (np.exp(slow * t) - np.exp(fast * t)) / (slow - fast)
    scale = float(np.max(np.abs(expected)))
    assert np.max(np.abs(position - expected)) < 1.0e-8 * scale


# ---------------------------------------------------------------------------
# the slowest relaxation rate, which sets the burn-in

def test_slowest_rate():
    # half the damping, exactly, unless the mode is overdamped; the free
    # mode's position has no stationary state, and its velocity relaxes so
    for mode_omega in (MODE_OMEGA, DAMPING / 2.0, 1.0e300, 0.0):
        assert slowest_rate(mode_omega, DAMPING) == DAMPING / 2.0
    # overdamped: the slow root (Gamma - sqrt(Gamma^2 - 4 w^2)) / 2
    for mode_omega in (1.0e4, 2.0e3, 2.4e4):
        want = (DAMPING - math.sqrt(DAMPING**2 - 4.0 * mode_omega**2)) / 2.0
        assert math.isclose(slowest_rate(mode_omega, DAMPING), want, rel_tol=1e-12)
    # where Gamma^2 overflows, and the rate is about w^2 / Gamma
    assert math.isclose(slowest_rate(1.0e4, 1.7e308), 1.0e8 / 1.7e308, rel_tol=1e-15)
    # a rate that underflows to 0 is refused
    with pytest.raises(Refusal, match=r"^arithmetic out of range: the slowest "
                                      r"relaxation rate .* is 0\.0$"):
        slowest_rate(1.0e-170, DAMPING)


# ---------------------------------------------------------------------------
# blocked stepper against the per-step loop

def _reference_trajectory(config, scenario):
    """Per-step loop x <- Phi x + L z over the engine's own draws, from rest
    with the thermal force, burned in for 5 over the slowest relaxation
    rate: Gamma/2, or (Gamma - sqrt(Gamma^2 - 4 w_j^2))/2 when overdamped."""
    rho_v = scenario.gas.density * scenario.cell.volume
    kt = quantities.K_BOLTZMANN * scenario.gas.temperature
    m = config.ensemble_size
    sigma2 = 2.0 * config.damping * kt / rho_v
    x = np.zeros((2, m))
    w, g = config.mode_omega, config.damping
    slowest = (g - math.sqrt(g * g - 4.0 * w * w)) / 2.0 if 0.0 < 2.0 * w < g else g / 2.0
    n_burn = int(round(5.0 / slowest / config.timestep))
    total = n_burn + int(round(config.duration / config.timestep))
    phi, sig = transition(config.mode_omega, config.damping, sigma2,
                          config.timestep)
    noise_l = _noise_factor(sig)
    gens = [np.random.Generator(np.random.Philox(child))
            for child in np.random.SeedSequence(config.seed).spawn(m)]
    states = np.empty((total, 2, m))
    for done in range(0, total, _CHUNK_STEPS):
        span = min(_CHUNK_STEPS, total - done)
        z = np.stack([g.standard_normal((span, 2)) for g in gens], axis=2)
        for i in range(span):
            x = phi @ x + noise_l @ z[i]
            states[done + i] = x
    return n_burn, states[n_burn:, 0, :].T, states[n_burn:, 1, :].T


# forcing: {} for the thermal force, or the start of a deterministic decay
@pytest.mark.parametrize("mode_omega,forcing", [
    (MODE_OMEGA, {}),        # underdamped
    (DAMPING / 2.0, {}),     # critically damped
    (1.0e4, {}),             # overdamped
    (0.0, {}),               # free Ornstein-Uhlenbeck velocity
    (MODE_OMEGA, {"start": (1.0e-9, 2.0e-5)}),
])
def test_blocked_stepper_matches_per_step_loop(anthrax, mode_omega, forcing):
    config = SdeRunConfig(timestep=1.0e-6, duration=1.7e-2, seed=11,
                          ensemble_size=3, mode_omega=mode_omega,
                          damping=DAMPING, keep_samples=True)
    if forcing:
        # the stepper without noise against x <- Phi x, over 1.7e4 steps
        n = round(config.duration / config.timestep)
        phi, _ = transition(mode_omega, DAMPING, 0.0, config.timestep)
        x = np.array(forcing["start"])
        want = np.empty((n, 2))
        for i in range(n):
            x = phi @ x
            want[i] = x
        got = _decay(mode_omega, DAMPING, config.timestep, forcing["start"], n)
        pairs = zip(got.T, want.T)
    else:
        n_burn, q_ref, u_ref = _reference_trajectory(config, anthrax)
        # the burn-in of 200 steps ends 8 steps into a block; the overdamped
        # mode's, 2396 steps at its slow rate of 2087 1/s, 28 steps
        assert n_burn == (2396 if mode_omega == 1.0e4 else 200)
        stats = integrate_langevin(config, anthrax)
        assert stats.metadata["n_steps"] == n_burn + stats.n_samples
        assert stats.metadata["timestep"] == config.timestep
        pairs = ((stats.position, q_ref), (stats.velocity, u_ref))
    assert config.duration / config.timestep > _CHUNK_STEPS
    for got, want in pairs:
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1.0e-12 * scale


# ---------------------------------------------------------------------------
# stationary statistics

@pytest.fixture(scope="module")
def thermal_run():
    from parsim.presets import anthrax_stp
    scenario = anthrax_stp()
    config = SdeRunConfig(timestep=1.0e-6, duration=8.0e-3, seed=2026,
                          ensemble_size=64, mode_omega=MODE_OMEGA,
                          damping=DAMPING, keep_samples=True)
    return scenario, config, integrate_langevin(config, scenario)


def _pressure_psd(scenario, config, stats):
    """Welch PSD of the kept pressure amplitude rho0 c w_j q, nperseg 1024."""
    gas = scenario.gas
    pressure = gas.density * quantities.sound_speed(gas) * config.mode_omega * stats.position
    return estimate_psd(pressure, 1.0 / config.timestep, 1024)


def test_equipartition(thermal_run):
    scenario, config, stats = thermal_run
    sigma = stats.mean_u2_stderr / stats.mean_u2
    z = abs(stats.equipartition_ratio - 1.0) / sigma
    assert z < 3.0
    kt_over_rhov = (quantities.K_BOLTZMANN * scenario.gas.temperature
                    / (scenario.gas.density * scenario.cell.volume))
    assert math.isclose(stats.mean_u2, kt_over_rhov,
                        rel_tol=4.0 * sigma)


def test_psd_matches_analytic_pointwise(thermal_run):
    scenario, config, stats = thermal_run
    psd = _pressure_psd(scenario, config, stats)
    grid = psd.omega
    keep = (grid >= MODE_OMEGA / 4.0) & (grid <= 4.0 * MODE_OMEGA)
    assert np.count_nonzero(keep) >= 10
    analytic = noise.noise_spectrum(MODE_OMEGA, scenario,
                                    grid[keep]).values
    ratio = psd.values[keep] / analytic
    assert np.max(np.abs(ratio - 1.0)) < 0.12
    assert abs(np.median(ratio) - 1.0) < 0.04


def test_psd_variance_parseval(thermal_run):
    scenario, config, stats = thermal_run
    c = quantities.sound_speed(scenario.gas)
    analytic = (scenario.gas.density * c**2 * quantities.K_BOLTZMANN
                * scenario.gas.temperature / scenario.cell.volume)
    assert math.isclose(series_variance(_pressure_psd(scenario, config, stats)),
                        analytic, rel_tol=0.10)


def test_ou_velocity_psd_width_and_equipartition(anthrax):
    # zero mode frequency: the velocity is an Ornstein-Uhlenbeck process,
    # whose PSD is the Lorentzian (k T / rho0 V) Gamma / (Gamma^2 + w^2)
    config = SdeRunConfig(timestep=1.0e-6, duration=8.0e-3, seed=77,
                          ensemble_size=64, mode_omega=0.0, damping=DAMPING,
                          keep_samples=True)
    stats = integrate_langevin(config, anthrax)
    psd = estimate_psd(stats.velocity, 1.0 / config.timestep, 1024)
    omega, values = psd.omega, psd.values
    # 1/PSD is linear in w^2: intercept Gamma/u2, slope 1/(Gamma u2).  Each
    # bin has about the same relative error, so the residuals are weighted
    # to relative ones
    fit = (omega > 0.0) & (omega <= 4.0 * DAMPING)
    slope, intercept = np.polyfit(omega[fit]**2, 1.0 / values[fit], 1,
                                  w=values[fit])
    # 5% comfortably separates a width at damping from one at damping/2
    # while leaving room for the estimate's noise
    assert math.isclose(math.sqrt(intercept / slope), DAMPING, rel_tol=0.05)
    gas = anthrax.gas
    u2 = (quantities.K_BOLTZMANN * gas.temperature
          / (gas.density * anthrax.cell.volume))
    band = (omega >= DAMPING / 4.0) & (omega <= 4.0 * DAMPING)
    ratio = values[band] / (u2 * DAMPING / (DAMPING**2 + omega[band]**2))
    assert np.max(np.abs(ratio - 1.0)) < 0.12
    assert abs(np.median(ratio) - 1.0) < 0.04
    sigma = stats.mean_u2_stderr / stats.mean_u2
    assert abs(stats.equipartition_ratio - 1.0) < 3.0 * sigma


def test_determinism_and_seed_sensitivity(anthrax):
    config = SdeRunConfig(timestep=1.0e-6, duration=1.5e-3, seed=42,
                          ensemble_size=8, mode_omega=MODE_OMEGA,
                          damping=DAMPING)
    first = integrate_langevin(config, anthrax)
    again = integrate_langevin(config, anthrax)
    assert first.mean_u2 == again.mean_u2
    assert first.mean_q2 == again.mean_q2
    other = integrate_langevin(dataclasses.replace(config, seed=43), anthrax)
    assert other.mean_u2 != first.mean_u2
    assert other.mean_q2 != first.mean_q2
    assert first.metadata["rng"].startswith("numpy.random.Philox")


def test_member_reduction_uses_all_members(anthrax):
    config = SdeRunConfig(timestep=1.0e-6, duration=1.5e-3, seed=9,
                          ensemble_size=6, mode_omega=MODE_OMEGA,
                          damping=DAMPING)
    stats = integrate_langevin(config, anthrax)
    assert stats.n_members == 6
    assert stats.member_mean_u2.shape == (6,)
    assert math.isclose(stats.mean_u2, float(np.mean(stats.member_mean_u2)),
                        rel_tol=1e-12)
    assert stats.velocity is None and stats.position is None


# ---------------------------------------------------------------------------
# streamed reductions against the whole-array ones

STREAM_CASES = {
    # the burn-in of 200 steps is not a multiple of the block
    "underdamped": dict(ensemble_size=3, mode_omega=MODE_OMEGA,
                        duration=4.0e-2),
    # two more run lengths, whose last chunks end 1048 and 14664 steps in.
    # The names are those of the Welch segment layouts the runs once covered
    "unaligned_segments": dict(ensemble_size=2, mode_omega=MODE_OMEGA,
                               duration=5.0e-2),
    "segment_beyond_chunk": dict(ensemble_size=2, mode_omega=MODE_OMEGA,
                                 duration=8.0e-2),
    "zero_frequency_velocity": dict(ensemble_size=3, mode_omega=0.0,
                                    duration=4.0e-2),
    # a burn-in of 20,000 steps: the first chunk keeps no state
    "burn_in_beyond_chunk": dict(ensemble_size=2, mode_omega=MODE_OMEGA,
                                 damping=500.0, duration=0.1),
}


@pytest.fixture(scope="module", params=sorted(STREAM_CASES))
def kept_run(request):
    from parsim.presets import anthrax_stp
    scenario = anthrax_stp()
    config = SdeRunConfig(**{"timestep": 1.0e-6, "seed": 19, "damping": DAMPING,
                             "keep_samples": True, **STREAM_CASES[request.param]})
    return scenario, config, integrate_langevin(config, scenario)


def test_streamed_reductions_match_whole_arrays(kept_run):
    scenario, config, stats = kept_run
    u, q = stats.velocity, stats.position
    assert stats.metadata["n_steps"] > 2 * _CHUNK_STEPS
    want = np.mean(u**2, axis=1)
    assert np.all(np.abs(stats.member_mean_u2 - want) <= 1e-13 * want)
    assert math.isclose(stats.mean_q2, float(np.mean(q**2)), rel_tol=1e-13)


def test_streamed_segments_cover_the_cases():
    # the cases above reach a thermal burn-in (10/damping at dt 1e-6 s)
    # that ends inside a block, and one longer than a chunk
    n_burn = round(10.0 / DAMPING / 1.0e-6)
    assert n_burn == 200 and n_burn % _BLOCK_STEPS == 8
    damping = STREAM_CASES["burn_in_beyond_chunk"]["damping"]
    assert round(10.0 / damping / 1.0e-6) > _CHUNK_STEPS


def test_kept_samples_do_not_change_statistics(kept_run):
    scenario, config, kept = kept_run
    bare = integrate_langevin(dataclasses.replace(config, keep_samples=False),
                              scenario)
    assert bare.velocity is None and bare.position is None
    assert bare.mean_u2 == kept.mean_u2
    assert bare.mean_u2_stderr == kept.mean_u2_stderr
    assert np.array_equal(bare.member_mean_u2, kept.member_mean_u2)
    assert bare.mean_q2 == kept.mean_q2


def _traced_peak(config, scenario):
    tracemalloc.start()
    try:
        integrate_langevin(config, scenario)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_langevin_memory_independent_of_run_length(anthrax):
    # whole (members, samples) arrays would add 2 x 8 x 1.9e5 doubles, 23 MiB
    config = SdeRunConfig(timestep=1.0e-6, duration=6.4e-2, seed=4,
                          ensemble_size=8, mode_omega=MODE_OMEGA,
                          damping=DAMPING)
    integrate_langevin(config, anthrax)   # lazy imports are not the run's
    short = _traced_peak(config, anthrax)
    long = _traced_peak(dataclasses.replace(config, duration=2.56e-1), anthrax)
    assert long <= short + 2 * 2**20


def test_langevin_memory_independent_of_ensemble_size(anthrax):
    # members are stepped one after another through buffers allocated once;
    # each adds only its 8-byte sums of u^2 and q^2.  Batched (members,
    # chunk) arrays would add about 1 MB per member, and a generator held
    # for every member about 1 KiB
    config = SdeRunConfig(timestep=1.0e-6, duration=4.0e-2, seed=4,
                          ensemble_size=2, mode_omega=MODE_OMEGA,
                          damping=DAMPING)
    integrate_langevin(config, anthrax)   # lazy imports are not the run's
    few = _traced_peak(config, anthrax)
    many = _traced_peak(dataclasses.replace(config, ensemble_size=32), anthrax)
    assert many <= 1.1 * few
    short = dataclasses.replace(config, duration=2.0e-3, ensemble_size=4)
    few = _traced_peak(short, anthrax)
    many = _traced_peak(dataclasses.replace(short, ensemble_size=1024), anthrax)
    assert many <= few + 256 * 2**10


def test_member_statistics_independent_of_ensemble_size(anthrax):
    # a member's draws, states and sums never meet another member's; the
    # run ends in a short chunk of 433 steps
    config = SdeRunConfig(timestep=1.0e-6, duration=3.3e-2, seed=5,
                          ensemble_size=3, mode_omega=MODE_OMEGA,
                          damping=DAMPING)
    few = integrate_langevin(config, anthrax)
    many = integrate_langevin(dataclasses.replace(config, ensemble_size=8),
                              anthrax)
    assert np.array_equal(few.member_mean_u2, many.member_mean_u2[:3])


def test_run_too_long_refused_before_allocating(anthrax):
    # 10^9 members of 1.1e4 steps: the refusal comes before the state rows,
    # 16 GB of them, or a single generator
    config = SdeRunConfig(timestep=1.0e-6, duration=1.0e-2, seed=1,
                          ensemble_size=10**9, mode_omega=MODE_OMEGA,
                          damping=DAMPING)
    tracemalloc.start()
    try:
        with pytest.raises(Refusal, match="member-steps"):
            integrate_langevin(config, anthrax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_langevin_refuses_a_cell_volume_that_overflows(anthrax):
    # the volume overflows inside the guard of the force strength
    cell = dataclasses.replace(anthrax.cell, radius=3.5e278)
    config = SdeRunConfig(timestep=1.0e-6, duration=1.0e-2, seed=1,
                          ensemble_size=2, mode_omega=MODE_OMEGA,
                          damping=DAMPING)
    with pytest.raises(ValueError, match=r"^arithmetic out of range: .* "
                                         r"for rho0 V = inf and k T = "):
        integrate_langevin(config, dataclasses.replace(anthrax, cell=cell))


def test_langevin_refuses_statistics_out_of_range(anthrax, monkeypatch):
    # a run whose states all come out 0 returns no zero mean u^2
    monkeypatch.setattr(_Stepper, "advance",
                        lambda self, x, gen, span: np.zeros((span, 2)))
    config = SdeRunConfig(timestep=1.0e-6, duration=1.5e-3, seed=1,
                          ensemble_size=2, mode_omega=MODE_OMEGA,
                          damping=DAMPING)
    with pytest.raises(ValueError, match=r"^arithmetic out of range: "
                                         r"the run's mean u\^2 is 0.0$"):
        integrate_langevin(config, anthrax)


def test_langevin_wall_time_in_metadata(anthrax):
    config = SdeRunConfig(timestep=1.0e-6, duration=1.5e-3, seed=42,
                          ensemble_size=4, mode_omega=MODE_OMEGA,
                          damping=DAMPING)
    wall = integrate_langevin(config, anthrax).metadata["wall_s"]
    assert isinstance(wall, float) and 0.0 < wall < 60.0


# ---------------------------------------------------------------------------
# spectral estimator

def test_estimate_psd_white_noise_parseval():
    rng = np.random.Generator(np.random.Philox(314))
    x = rng.standard_normal((8, 65536))
    series = estimate_psd(x, sample_rate=1.0e6, nperseg=4096)
    var = series_variance(series)
    assert math.isclose(var, 1.0, rel_tol=0.02)
    # white: flat across the band
    mid = series.values[len(series.values) // 4: len(series.values) // 2]
    assert abs(float(np.mean(mid)) / (var / np.max(series.omega) * math.pi / 2.0) - 1.0) < 0.05


def test_estimate_psd_sinusoid():
    fs = 1.0e5
    t = np.arange(262144) / fs
    amp, f0 = 3.0, 5.0e3
    x = amp * np.cos(2.0 * math.pi * f0 * t)
    series = estimate_psd(x, sample_rate=fs, nperseg=8192)
    var = series_variance(series)
    assert math.isclose(var, amp**2 / 2.0, rel_tol=0.02)
    peak = series.omega[int(np.argmax(series.values))]
    assert abs(peak - 2.0 * math.pi * f0) < 2.0 * (series.omega[1] - series.omega[0])


@pytest.mark.parametrize("nperseg", [8, 9, 1024, 4096])
@pytest.mark.parametrize("shape", [(9000,), (3, 9000)])
def test_welch_matches_scipy(nperseg, shape):
    from scipy import signal

    x = np.random.Generator(np.random.Philox(27)).standard_normal(shape)
    series = estimate_psd(x, 2.0e5, nperseg)
    want_freqs, want = signal.welch(np.atleast_2d(x), fs=2.0e5, window="hann",
                                    nperseg=nperseg, detrend=False, axis=1)
    want = want.mean(axis=0)
    # one-sided per Hz is four times the two-sided angular density
    np.testing.assert_array_equal(series.omega, 2.0 * math.pi * want_freqs)
    assert np.all(np.abs(4.0 * series.values - want) <= 1e-13 * want)


def test_estimate_psd_guards():
    with pytest.raises(Refusal):
        estimate_psd(np.zeros(16), 1.0, nperseg=32)
    with pytest.raises(Refusal):
        estimate_psd(np.zeros(100), 1.0, nperseg=4)


def test_series_variance_sums_a_uniform_grid_and_refuses_others():
    flat = SpectrumSeries(np.linspace(0.0, 100.0, 101), np.ones(101))
    assert math.isclose(series_variance(flat), 2.0 / math.pi * 101.0 * 1.0,
                        rel_tol=1e-12)
    # one rule for every grid: a trapezoid here would disagree with the
    # uniform sum by the end-point halves
    log_grid = np.geomspace(1.0, 100.0, 200)
    for series in (SpectrumSeries(log_grid, 1.0 / log_grid**2),
                   SpectrumSeries(np.array([0.0]), np.array([1.0]))):
        with pytest.raises(ValueError, match="uniform grid of at least two"):
            series_variance(series)


# ---------------------------------------------------------------------------
# driven response by lock-in demodulation

def _driven_phasor(mode_omega, damping, strength, omega):
    return -1j * omega * strength / (mode_omega**2 - omega**2
                                     - 1j * omega * damping)


@pytest.mark.parametrize("drive_omega", [2.5e3, 1.0e4, 10377.685870383077,
                                         2.1e4])
def test_driven_amplitude_matches_analytic(drive_omega):
    mode_omega = 10377.685870383077
    damping = 100.0
    strength = 2.0e-3
    result = integrate_driven(mode_omega, damping, strength, drive_omega)
    expected = _driven_phasor(mode_omega, damping, strength, drive_omega)
    assert abs(result.amplitude - expected) / abs(expected) < 5.0e-3
    assert result.drift < 1.0e-3
    assert result.n_samples == 2 * 20 * 256 + 1
    period = 2.0 * math.pi / drive_omega
    assert math.isclose(result.sample_dt * (result.n_samples - 1),
                        2.0 * 20 * period, rel_tol=1e-12)
    assert 0.0 < result.wall_s < math.inf


def _per_step_driven_phasor(mode_omega, damping, strength, drive_omega):
    """integrate_driven's phasor at its defaults, from a per-step loop that
    demodulates against the (cos, sin) its own state carries."""
    generator = _driven_generator(mode_omega, damping, strength, drive_omega)
    settle = 30.0 / damping
    window = 20 * 2.0 * math.pi / drive_omega
    n_eval = 2 * 20 * _SAMPLES_PER_PERIOD + 1
    dt = 2.0 * window / (n_eval - 1)
    step = _expm(generator * dt)
    y = _expm(generator * settle) @ np.array([0.0, 0.0, 1.0, 0.0])
    states = np.empty((n_eval, 4))
    states[0] = y
    for i in range(1, n_eval):
        y = step @ y
        states[i] = y
    a, _, c, s = states[n_eval // 2:].T
    return complex(2.0 / window * np.trapezoid(a * c, dx=dt),
                   2.0 / window * np.trapezoid(a * s, dx=dt))


# the acceptance mode (Q about 100) and the benchmark's (Q = 12), each on
# the low flank, at resonance and on the high flank
@pytest.mark.parametrize("args", [
    (10377.685870383077, 100.0, 2.0e-3, 2.5e3),
    (10377.685870383077, 100.0, 2.0e-3, 10377.685870383077),
    (10377.685870383077, 100.0, 2.0e-3, 2.1e4),
    (1.0e4, 1.0e4 / 12.0, 1.0e-3, 6.0e3),
    (1.0e4, 1.0e4 / 12.0, 1.0e-3, 1.0e4),
    (1.0e4, 1.0e4 / 12.0, 1.0e-3, 1.6e4),
])
def test_driven_phasor_matches_per_step_loop(args):
    want = _per_step_driven_phasor(*args)
    got = integrate_driven(*args).amplitude
    assert abs(got - want) <= 1.0e-12 * abs(want)


def test_driven_zero_frequency_mode():
    # the uniform mode responds like a driven relaxator
    damping = 100.0
    strength = 1.0
    omega = 250.0
    result = integrate_driven(0.0, damping, strength, omega)
    expected = _driven_phasor(0.0, damping, strength, omega)
    assert abs(result.amplitude - expected) / abs(expected) < 5.0e-3


def test_driven_linearity():
    mode_omega, damping, omega = 1.0e4, 100.0, 3.0e3
    one = integrate_driven(mode_omega, damping, 1.0e-3, omega)
    ten = integrate_driven(mode_omega, damping, 1.0e-2, omega)
    assert abs(ten.amplitude - 10.0 * one.amplitude) / abs(ten.amplitude) < 1e-9


def test_driven_not_converged_without_settling(monkeypatch):
    # an identity settle propagator leaves the mode at rest when the windows
    # start; at Q = 1000 its response still grows between them
    exact = oracle._expm
    calls = []

    def no_settling(a):
        calls.append(a)
        return exact(a) if len(calls) > 1 else exact([[0.0] * 4] * 4)

    monkeypatch.setattr(oracle, "_expm", no_settling)
    with pytest.raises(Refusal, match=r"drifting \d\.\d\de[+-]\d+ between"):
        integrate_driven(1.0e4, 10.0, 1.0, 1.0e4)


def test_driven_guards():
    with pytest.raises(ValueError):
        integrate_driven(1.0e4, 100.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_driven(1.0e4, -5.0, 1.0, 100.0)


def _fresh_error(*lines, args=()):
    """Last stderr line of a fresh interpreter that runs the lines with
    sys.argv[1:] = args.  The timeout makes a hang fail the test instead of
    stalling the suite."""
    src = str(Path(parsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", "\n".join(lines), *args],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0, result.stdout
    return result.stderr.strip().splitlines()[-1]


DRIVEN_ARGS = ("1e4", "100.0", "1e-3", "1e4")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("index", range(4))
def test_driven_refuses_non_finite_arguments(index, value):
    # an infinite damping or frequency used to hang in _balance, and a NaN
    # mode frequency or strength returned a NaN phasor
    args = list(DRIVEN_ARGS)
    args[index] = value
    last = _fresh_error("import sys",
                        "from parsim.oracle import integrate_driven",
                        "integrate_driven(*map(float, sys.argv[1:]))", args=args)
    assert last.startswith("parsim.quantities.Refusal: "), last


def test_driven_refuses_a_mode_frequency_whose_square_overflows():
    with pytest.raises(ValueError, match="mode_omega"):
        integrate_driven(1.0e200, 100.0, 1.0e-3, 1.0e4)


@pytest.mark.parametrize("entry", ["inf", "-inf", "nan", "1e308"])
def test_expm_refuses_non_finite_entries(entry):
    # 1e308 is finite, but the sums _balance scales by overflow
    last = _fresh_error("import sys",
                        "from parsim.oracle import _expm",
                        "x = float(sys.argv[1])",
                        "_expm([[0.0, 1.0], [x, x]])", args=[entry])
    assert last.startswith("parsim.quantities.Refusal: "), last


def test_driven_nan_drift_is_not_converged(monkeypatch):
    # NaN compares False with any limit, so the check must read "not <=".
    # The settle propagator stays exact: a NaN settled state is refused
    # before the windows run; the per-sample propagator turns NaN
    exact = oracle._expm
    calls = []

    def nan_after_settling(a):
        calls.append(a)
        return exact(a) if len(calls) == 1 else [[math.nan] * 4] * 4

    monkeypatch.setattr(oracle, "_expm", nan_after_settling)
    with pytest.raises(Refusal, match="nan"):
        integrate_driven(1.0e4, 100.0, 1.0e-3, 1.0e4)


@pytest.mark.parametrize("damping", [
    1.0e-300,   # the settle time 30/damping overflows the generator
    1.0e-8,     # expm's squarings lose the drive oscillator
])
def test_driven_refuses_a_settle_time_too_long_to_resolve(damping):
    with pytest.raises(ValueError, match=f"damping {damping!r} is too low: "
                                         "after the settle time 30/damping"):
        integrate_driven(1.0e4, damping, 1.0e-3, 1.0e4)


@pytest.mark.parametrize("mode_omega, damping", [
    (1.0e150, 1.0),      # w_j^2 times the sample spacing overflows
    (1.0e4, 1.0e300),    # the damping times it does
])
def test_driven_refuses_a_drive_frequency_too_low_to_sample(mode_omega, damping):
    # at drive_omega 1e-100 the samples lie 2.5e98 s apart; _expm used to
    # refuse the overflowing generator without naming either frequency
    with pytest.raises(ValueError, match="drive_omega 1e-100 .*mode_omega"):
        integrate_driven(mode_omega, damping, 1.0e-3, 1.0e-100)
