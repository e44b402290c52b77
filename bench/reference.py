"""Independent reference for parsim's detection chain and oracle checks.

Rebuilt from the closed forms that the parsim module docstrings state,
without importing anything from ``parsim``:

    f_pop  = 1 - exp(-hbar dw / k T)                          (raman)
    G      = 8 pi^2 N v_s^2 sigma f_pop / (hbar w_s^3 dnu),  v_s = c0 / n
    H_R    = [G_c / (G_c + G_r)] (dw / w_s) G I_p I_s
    N_c    = P 4 pi r^2 / (2 m_g u_g),  u_g = sqrt(3 k T / m_g)  (thermal)
    tau_c  = (c_v / R) N_S / N_c
    T_pk   = T + f_R N_A hbar dw / c_v
    tau_r  = N_S hbar dw / (sigma_SB T_pk^4 4 pi r^2)
    eta    = 1 if (1/w_m)/tau_c >= 10 and tau_r/tau_c >= 10,
             else tau_r / (tau_r + tau_c)
    V H_nep = sqrt(V G_n rho c^2 k T (w_m^2 + G_s^2)) / (w_1 (gamma - 1))  (noise)
    rho_min = snr H_nep sqrt(G_s) / (eta H_R V_S coverage)     (detection)

A scenario here is a flat dict keyed by parsim's sweep paths
(``gas.pressure``, ``laser.pump_intensity``, ...), all in SI units with
angular frequencies; ``particle.radius_override`` and ``spore_density``
may be None.
"""

from __future__ import annotations

import math

# CODATA 2018, as quoted in the parsim documentation
HBAR = 1.054571817e-34
K_BOLTZMANN = 1.380649e-23
AVOGADRO = 6.02214076e23
GAS_CONSTANT = K_BOLTZMANN * AVOGADRO
STEFAN_BOLTZMANN = 5.670374419e-8
SPEED_OF_LIGHT = 2.99792458e8
ATOMIC_MASS = 1.66053906660e-27

# thresholds behind the four warning bits and the eta switch
BREAKDOWN_INTENSITY = 1e16          # bit 1: either beam at or above
DOMINANCE_RATIO = 10.0              # eta switch; bit 2 when not separated
SPARSE_COUNT_LIMIT = 10.0           # bit 4: rho_min V below
SMALL_MODULATION_FRACTION = 0.1     # bit 8: w_m above this share of w_1

# first roots of J_0' and J_1' (Abramowitz and Stegun, table 9.5)
BESSEL_DERIVATIVE_ROOTS = {
    0: (0.0, 3.8317059702, 7.0155866698),
    1: (1.8411837813, 5.3314427735),
}


def anthrax_stp() -> dict:
    """The ``anthrax_stp`` preset, as the parsim presets docstring gives it."""
    length, volume = 0.1, 1.0e-8
    stokes = 2.0 * math.pi * 4.0e14
    return {
        "gas.pressure": 101325.0,
        "gas.temperature": 300.0,
        "gas.density": 1.3,
        "gas.gamma": 1.4,
        "gas.molecule_mass": 28.0 * ATOMIC_MASS,
        "cell.length": length,
        "cell.radius": math.sqrt(volume / (math.pi * length)),
        "cell.detector_coverage": 1.0,
        "laser.pump_omega": stokes + 1.0e14,
        "laser.stokes_omega": stokes,
        "laser.pump_intensity": 1.0e12,
        "laser.stokes_intensity": 1.0e12,
        "laser.refractive_index": 1.0,
        "laser.modulation_omega": 100.0,
        "particle.volume": 2.0e-18,
        "particle.molecule_count": 1.0e12,
        "particle.raman_fraction": 0.1,
        "particle.active_density": 4.0e26,
        "particle.raman_cross_section": 3.25e-33,
        "particle.linewidth_hz": 6.45e10,
        "particle.collisional_rate": 1.0e12,
        "particle.radiative_rate": 1.0e3,
        "particle.molar_heat": 4.2,
        "particle.radius_override": None,
        "detector.noise_mode_omega": 4.0e4,
        "detector.noise_damping": 5.0e4,
        "detector.signal_damping": 100.0,
        "spore_density": None,
    }


def sound_speed(s: dict) -> float:
    return math.sqrt(s["gas.gamma"] * s["gas.pressure"] / s["gas.density"])


def cell_volume(s: dict) -> float:
    return math.pi * s["cell.radius"] ** 2 * s["cell.length"]


def thermal_variance(s: dict) -> float:
    """Pressure variance rho0 c^2 k T / V of the readout mode."""
    return (s["gas.density"] * sound_speed(s) ** 2 * K_BOLTZMANN
            * s["gas.temperature"] / cell_volume(s))


def chain(s: dict, snr: float = 1.0, angular: bool = False) -> dict:
    """Every intermediate of the detection chain, plus the warning bits.

    ``margins`` holds each switch quantity divided by its threshold, so a
    value of 1 sits exactly on a branch.
    """
    p, t, rho, gamma = (s["gas.pressure"], s["gas.temperature"],
                        s["gas.density"], s["gas.gamma"])
    w_p, w_s = s["laser.pump_omega"], s["laser.stokes_omega"]
    i_p, i_s = s["laser.pump_intensity"], s["laser.stokes_intensity"]
    w_m = s["laser.modulation_omega"]
    shift = w_p - w_s

    # Raman gain and heat deposition
    f_pop = -math.expm1(-HBAR * shift / (K_BOLTZMANN * t))
    v_s = SPEED_OF_LIGHT / s["laser.refractive_index"]
    dnu = s["particle.linewidth_hz"] * (2.0 * math.pi if angular else 1.0)
    g_factor = (8.0 * math.pi ** 2 * s["particle.active_density"] * v_s ** 2
                * s["particle.raman_cross_section"] * f_pop
                / (HBAR * w_s ** 3 * dnu))
    g_c, g_r = s["particle.collisional_rate"], s["particle.radiative_rate"]
    h_r = g_c / (g_c + g_r) * (shift / w_s * g_factor * i_p * i_s)

    # particle heating and cooling
    radius = s["particle.radius_override"]
    if radius is None:
        radius = (3.0 * s["particle.volume"] / (4.0 * math.pi)) ** (1.0 / 3.0)
    m_g = s["gas.molecule_mass"]
    u_g = math.sqrt(3.0 * K_BOLTZMANN * t / m_g)
    n_c = p * 4.0 * math.pi * radius ** 2 / (2.0 * m_g * u_g)
    n_s, c_v = s["particle.molecule_count"], s["particle.molar_heat"]
    tau_c = (c_v / GAS_CONSTANT) * (n_s / n_c)
    t_peak = t + s["particle.raman_fraction"] * AVOGADRO * HBAR * shift / c_v
    p_rad = STEFAN_BOLTZMANN * t_peak ** 4 * 4.0 * math.pi * radius ** 2
    tau_r = n_s * HBAR * shift / p_rad
    drive_sep = (1.0 / w_m) / tau_c
    rad_sep = tau_r / tau_c
    separated = drive_sep >= DOMINANCE_RATIO and rad_sep >= DOMINANCE_RATIO
    eta = 1.0 if separated else tau_r / (tau_r + tau_c)

    # thermal noise floor of the readout mode
    volume = cell_volume(s)
    w_1, g_n, g_s = (s["detector.noise_mode_omega"], s["detector.noise_damping"],
                     s["detector.signal_damping"])
    vh_nep = (math.sqrt(volume * g_n * rho * sound_speed(s) ** 2 * K_BOLTZMANN * t
                        * (w_m ** 2 + g_s ** 2))
              / (w_1 * (gamma - 1.0)))
    h_nep = vh_nep / volume

    rho_min = (snr * h_nep * math.sqrt(g_s)
               / (eta * h_r * s["particle.volume"] * s["cell.detector_coverage"]))
    count = rho_min * volume

    bits = 0
    if max(i_p, i_s) >= BREAKDOWN_INTENSITY:
        bits |= 1
    if not separated:
        bits |= 2
    if count < SPARSE_COUNT_LIMIT:
        bits |= 4
    if not (w_m <= SMALL_MODULATION_FRACTION * w_1):
        bits |= 8
    return {
        "h_r": h_r,
        "eta": eta,
        "h_nep": h_nep,
        "rho_min": rho_min,
        "implied_count": count,
        "warning_bits": bits,
        "margins": (max(i_p, i_s) / BREAKDOWN_INTENSITY,
                    drive_sep / DOMINANCE_RATIO,
                    rad_sep / DOMINANCE_RATIO,
                    count / SPARSE_COUNT_LIMIT,
                    w_m / (SMALL_MODULATION_FRACTION * w_1)),
    }


def clear_of_switches(margins, factor: float) -> bool:
    """True when every switch quantity is off its threshold by ``factor``."""
    return all(m >= factor or m * factor <= 1.0 for m in margins)


def mode_omega(s: dict, q: int, m: int, n: int) -> float:
    """Rigid-wall cylinder mode w_qmn = c sqrt((q pi / l)^2 + (alpha_mn / a)^2)."""
    alpha = BESSEL_DERIVATIVE_ROOTS[m][n if m == 0 else n - 1]
    return sound_speed(s) * math.hypot(q * math.pi / s["cell.length"],
                                       alpha / s["cell.radius"])


def driven_phasor(mode: float, damping: float, strength: float,
                  drive: float) -> complex:
    """Steady state of A'' + G A' + w_j^2 A = d/dt[S cos(w t)]."""
    return -1j * drive * strength / (mode ** 2 - drive ** 2 - 1j * drive * damping)
