"""Seeded inputs of the three workloads.

Everything parsim sees is made here from the workload name and the seed:
scenario YAML files, command lines and oracle arguments.  Each operation
carries what the checks need to judge its output, computed with
``reference`` and never with parsim.

Seeded scenarios are drawn around the ``anthrax_stp`` preset and redrawn
until they sit in the regime their slot asks for, with every switch of
the chain (eta, the four warning bits) off its threshold by a factor of
1.5 for single reports and by 1e-9 relative on every sweep row, so that
a last-digit change in parsim cannot flip a branch.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

# scenario-file layout: sweep path -> (section, unit-suffixed key)
FILE_KEYS = {
    "gas.pressure": ("gas", "pressure_pa"),
    "gas.temperature": ("gas", "temperature_k"),
    "gas.density": ("gas", "density_kg_m3"),
    "gas.gamma": ("gas", "adiabatic_index"),
    "gas.molecule_mass": ("gas", "molecule_mass_kg"),
    "cell.length": ("cell", "length_m"),
    "cell.radius": ("cell", "radius_m"),
    "cell.detector_coverage": ("cell", "detector_coverage"),
    "laser.pump_omega": ("laser", "pump_omega_rad_s"),
    "laser.stokes_omega": ("laser", "stokes_omega_rad_s"),
    "laser.pump_intensity": ("laser", "pump_intensity_w_m2"),
    "laser.stokes_intensity": ("laser", "stokes_intensity_w_m2"),
    "laser.refractive_index": ("laser", "refractive_index"),
    "laser.modulation_omega": ("laser", "modulation_omega_rad_s"),
    "particle.volume": ("particle", "volume_m3"),
    "particle.molecule_count": ("particle", "molecule_count"),
    "particle.raman_fraction": ("particle", "raman_fraction"),
    "particle.active_density": ("particle", "active_density_m3"),
    "particle.raman_cross_section": ("particle", "raman_cross_section_m2_sr"),
    "particle.linewidth_hz": ("particle", "linewidth_hz"),
    "particle.collisional_rate": ("particle", "collisional_rate_rad_s"),
    "particle.radiative_rate": ("particle", "radiative_rate_rad_s"),
    "particle.molar_heat": ("particle", "molar_heat_j_mol_k"),
    "particle.radius_override": ("particle", "equivalent_radius_m"),
    "detector.noise_mode_omega": ("detector", "noise_mode_omega_rad_s"),
    "detector.noise_damping": ("detector", "noise_damping_rad_s"),
    "detector.signal_damping": ("detector", "signal_damping_rad_s"),
}

# the same quantities under the file format's conversion aliases
ALIASES = {
    "gas.molecule_mass": ("molecule_mass_amu", ref.ATOMIC_MASS),
    "laser.pump_omega": ("pump_hz", 2.0 * math.pi),
    "laser.stokes_omega": ("stokes_hz", 2.0 * math.pi),
    "laser.modulation_omega": ("modulation_hz", 2.0 * math.pi),
    "detector.noise_mode_omega": ("noise_mode_hz", 2.0 * math.pi),
}

INTERACTIVE_SWEEP_POINTS = 1000
REPORT_DRAWS = 2                       # seeded scenarios per report slot
# survey sweep sizes: an intensity point (two paths set) costs about 1.2
# times a pressure or modulation point, so the four sweeps take about the
# same time and op_p50_s is a median over comparable operations
SURVEY_INTENSITY_POINTS = 45_000
SURVEY_SINGLE_PATH_POINTS = 54_000
MODES_ARGS = (4, 1, 2)                 # --max-modes axial,azimuthal,radial
SWITCH_CLEARANCE = 1.5                 # single-report scenarios
GRID_CLEARANCE = 1.0 + 1e-9            # every sweep row
DRIVEN_TOLERANCE = 5.0e-3              # acceptance gate 6d

# validate-noise slots: detector (w_1, Gamma_n), RNG seed, members and run
# length in dampings.  w_1 <= Gamma_n fixes the step count at 20 steps per
# damping time; only scale factors vary with the benchmark seed, which
# leave the normalised trajectory, and so the PASS verdict, unchanged.
NOISE_SLOTS = (
    (4.0e4, 5.0e4, 1234, 8, 15000.0),
    (2.0e4, 2.5e4, 7, 12, 12000.0),
    (3.2e4, 4.0e4, 99, 10, 13000.0),
)
# driven oracle: quality factor and drive frequencies in units of the mode.
# At Q = 12 one call costs about what one validate-noise run above costs,
# so op_p50_s is a median over comparable operations.
DRIVEN_Q = 12.0
DRIVEN_DRIVES = (("resonance", 1.0), ("low_flank", 0.6), ("high_flank", 1.6))
# the driven call made when a workload has none: mode, damping, strength, drive
PROBE_DRIVEN = (1.0e4, 1.0e4, 1.0e-3, 1.0e4)


@dataclass
class Op:
    """One operation: a parsim command line or one oracle call."""

    name: str
    kind: str                      # report, modes, presets, sweep, noise, driven
    argv: list[str]
    expect: dict = field(default_factory=dict)
    may_fail: bool = False         # the known-failing zero cross-section report


@dataclass
class Workload:
    name: str
    ops: list[Op]
    scenarios: dict[str, dict]     # file path -> scenario dict


def _log_draw(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _jittered(rng: random.Random) -> dict:
    """The preset with every input moved by a seeded factor."""
    s = ref.anthrax_stp()
    mass_amu = rng.uniform(28.0, 29.0)
    s["gas.molecule_mass"] = mass_amu * ref.ATOMIC_MASS
    s["gas.temperature"] = rng.uniform(260.0, 340.0)
    s["gas.pressure"] = 101325.0 * _log_draw(rng, -0.3, 0.15)
    s["gas.density"] = (s["gas.pressure"] * s["gas.molecule_mass"]
                        / (ref.K_BOLTZMANN * s["gas.temperature"]))
    s["gas.gamma"] = rng.uniform(1.38, 1.42)
    s["cell.length"] = rng.uniform(0.05, 0.2)
    s["cell.radius"] = rng.uniform(1.0e-4, 4.0e-4)
    s["cell.detector_coverage"] = rng.uniform(0.5, 1.0)
    stokes = 2.0 * math.pi * rng.uniform(3.0e14, 5.0e14)
    s["laser.stokes_omega"] = stokes
    s["laser.pump_omega"] = stokes + rng.uniform(0.8e14, 1.2e14)
    s["laser.refractive_index"] = rng.uniform(1.0, 1.0003)
    for path, lo, hi in (("particle.volume", 1.0e-18, 4.0e-18),
                         ("particle.active_density", 3.2e26, 4.8e26),
                         ("particle.raman_cross_section", 1.6e-33, 6.5e-33),
                         ("particle.linewidth_hz", 5.2e10, 7.7e10),
                         ("particle.collisional_rate", 5.0e11, 2.0e12),
                         ("particle.radiative_rate", 5.0e2, 2.0e3),
                         ("particle.raman_fraction", 0.05, 0.2),
                         ("particle.molar_heat", 3.5, 5.0),
                         ("detector.noise_mode_omega", 3.2e4, 5.0e4),
                         ("detector.noise_damping", 4.0e4, 6.2e4),
                         ("detector.signal_damping", 50.0, 200.0)):
        s[path] = rng.uniform(lo, hi)
    s["particle.molecule_count"] = _log_draw(rng, 11.5, 12.5)
    return s


# report slots: (intensity exponents, modulation exponents, target bits,
# snr, angular convention, spore density, file aliases and radius override)
REPORT_SLOTS = {
    "eta1_quiet": dict(intensity=(8.0, 8.6), modulation=(1.5, 2.5), bits=0,
                       snr=None, angular=False, spores=True, aliases=False),
    "eta_lt1_fast": dict(intensity=(9.0, 9.7), modulation=(3.9, 4.3), bits=2 | 8,
                         snr=(2.0, 5.0), angular=False, spores=False,
                         aliases=False),
    "breakdown_sparse": dict(intensity=(16.3, 16.8), modulation=(1.5, 2.5),
                             bits=1 | 4, snr=None, angular=True, spores=True,
                             aliases=True),
}


def _slot_scenario(rng: random.Random, slot: dict) -> tuple[dict, dict]:
    """Redraw until the scenario is in the slot's regime, clear of switches."""
    for _ in range(1000):
        s = _jittered(rng)
        s["laser.pump_intensity"] = _log_draw(rng, *slot["intensity"])
        s["laser.stokes_intensity"] = _log_draw(rng, *slot["intensity"])
        s["laser.modulation_omega"] = _log_draw(rng, *slot["modulation"])
        if slot["aliases"]:
            s["particle.radius_override"] = rng.uniform(6.0e-7, 1.0e-6)
            _use_aliases(s)
        if slot["spores"]:
            s["spore_density"] = _log_draw(rng, 4.0, 6.0)
        snr = rng.uniform(*slot["snr"]) if slot["snr"] else 1.0
        expected = ref.chain(s, snr, slot["angular"])
        if (expected["warning_bits"] == slot["bits"]
                and ref.clear_of_switches(expected["margins"], SWITCH_CLEARANCE)):
            return s, dict(expected, snr=snr)
    raise RuntimeError(f"no scenario found for slot {slot}")


def _use_aliases(s: dict) -> None:
    """Give the alias-bearing quantities file values in the alias units.

    The scenario keeps exactly the value the reader rebuilds from them.
    """
    s["aliases"] = {}
    for path, (key, factor) in ALIASES.items():
        file_value = s[path] / factor
        s["aliases"][path] = file_value
        s[path] = file_value * factor


def scenario_yaml(s: dict) -> str:
    """Scenario file text, with the alias spellings where ``s`` asks for them."""
    sections: dict[str, list[str]] = {}
    aliases = s.get("aliases", {})
    for path, (section, key) in FILE_KEYS.items():
        value = s[path]
        if value is None:
            continue
        if path in aliases:
            key, value = ALIASES[path][0], aliases[path]
        sections.setdefault(section, []).append(f"  {key}: {value!r}")
    lines = ["format_version: 1"]
    for section, body in sections.items():
        lines.append(f"{section}:")
        lines.extend(body)
    if s["spore_density"] is not None:
        lines.append(f"spore_density_m3: {s['spore_density']!r}")
    return "\n".join(lines) + "\n"


INTENSITY_PATHS = ("laser.pump_intensity", "laser.stokes_intensity")


def _sweep_grid(kind: str, lo: float, hi: float, n: int) -> np.ndarray:
    return np.geomspace(lo, hi, n) if kind == "log" else np.linspace(lo, hi, n)


def _sweep_op(name: str, path_file: str, s: dict, paths: tuple[str, ...],
              kind: str, lo: float, hi: float, n: int) -> Op:
    """A sweep whose every row is off every switch by GRID_CLEARANCE."""
    for _ in range(100):
        grid = _sweep_grid(kind, lo, hi, n)
        rows = []
        clear = True
        point = dict(s)
        for value in grid.tolist():
            for path in paths:
                point[path] = value
            expected = ref.chain(point)
            clear = ref.clear_of_switches(expected["margins"], GRID_CLEARANCE)
            if not clear:
                break
            rows.append((expected["rho_min"], expected["h_r"], expected["eta"],
                         expected["h_nep"], expected["warning_bits"]))
        if clear:
            spec = f"{','.join(paths)}={kind}:{lo!r}:{hi!r}:{n}"
            return Op(name, "sweep",
                      ["sweep", "--scenario", path_file, "--vary", spec],
                      {"paths": paths, "grid": grid, "rows": rows,
                       "intensity_product": paths == INTENSITY_PATHS})
        lo, hi = lo * (1.0 + 1e-4), hi * (1.0 + 1e-4)
    raise RuntimeError(f"sweep {name} keeps touching a switch")


def build(name: str, seed: int, directory: Path) -> Workload:
    """Write the workload's input files under ``directory`` and list its ops."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"parsim-bench:{name}:{seed}")
    scenarios: dict[str, dict] = {}

    def write(file_name: str, s: dict) -> str:
        path = directory / file_name
        path.write_text(scenario_yaml(s), encoding="utf-8")
        scenarios[str(path)] = s
        return str(path)

    ops: list[Op] = []
    if name == "interactive":
        preset = ref.anthrax_stp()
        ops.append(Op("report_preset", "report", ["report"],
                      dict(ref.chain(preset), snr=1.0)))
        files = {}
        for draw in range(REPORT_DRAWS):
            for slot_name, slot in REPORT_SLOTS.items():
                label = slot_name if draw == 0 else f"{slot_name}_{draw + 1}"
                s, expected = _slot_scenario(rng, slot)
                files[label] = write(f"{label}.yaml", s)
                argv = ["report", "--scenario", files[label]]
                if slot["snr"]:
                    argv += ["--snr", repr(expected["snr"])]
                if slot["angular"]:
                    argv += ["--linewidth-convention", "angular"]
                ops.append(Op(f"report_{label}", "report", argv, expected))
        # the known failure, on a file that does not depend on the seed
        zero = ref.anthrax_stp()
        zero["particle.raman_cross_section"] = 0.0
        zero = write("zero_cross_section.yaml", zero)
        ops.append(Op("report_zero_cross_section", "report",
                      ["report", "--scenario", zero], may_fail=True))
        quiet = scenarios[files["eta1_quiet"]]
        q, m, n = MODES_ARGS
        ops.append(Op("modes", "modes",
                      ["modes", "--scenario", files["eta1_quiet"],
                       "--max-modes", f"{q},{m},{n}"], {"scenario": quiet}))
        ops.append(Op("presets", "presets", ["presets"]))
        ops.append(_sweep_op("sweep_intensity_1e3", files["eta1_quiet"], quiet,
                             INTENSITY_PATHS, "log", _log_draw(rng, 8.0, 9.0),
                             _log_draw(rng, 13.0, 14.0),
                             INTERACTIVE_SWEEP_POINTS))
    elif name == "survey":
        quiet = REPORT_SLOTS["eta1_quiet"]
        s1, _ = _slot_scenario(rng, quiet)
        s2, _ = _slot_scenario(rng, REPORT_SLOTS["eta_lt1_fast"])
        s3, _ = _slot_scenario(rng, quiet)
        s4, _ = _slot_scenario(rng, quiet)
        ops.append(_sweep_op("sweep_intensity", write("intensity.yaml", s1), s1,
                             INTENSITY_PATHS, "log", _log_draw(rng, 8.0, 8.5),
                             _log_draw(rng, 16.2, 16.7), SURVEY_INTENSITY_POINTS))
        ops.append(_sweep_op("sweep_intensity_eta_lt1",
                             write("intensity_eta_lt1.yaml", s2), s2,
                             INTENSITY_PATHS, "log", _log_draw(rng, 8.0, 8.5),
                             _log_draw(rng, 16.2, 16.7), SURVEY_INTENSITY_POINTS))
        p0 = s3["gas.pressure"]
        ops.append(_sweep_op("sweep_pressure", write("pressure.yaml", s3), s3,
                             ("gas.pressure",), "lin", p0 * rng.uniform(0.3, 0.5),
                             p0 * rng.uniform(1.5, 2.5), SURVEY_SINGLE_PATH_POINTS))
        ops.append(_sweep_op("sweep_modulation", write("modulation.yaml", s4), s4,
                             ("laser.modulation_omega",), "log",
                             _log_draw(rng, 1.0, 1.5), _log_draw(rng, 4.7, 5.2),
                             SURVEY_SINGLE_PATH_POINTS))
    elif name == "oracle":
        first_mode = None
        for index, (w_1, g_n, rng_seed, members, dampings) in enumerate(NOISE_SLOTS):
            s = _jittered(rng)
            s["detector.noise_mode_omega"] = w_1
            s["detector.noise_damping"] = g_n
            path = write(f"noise_{index}.yaml", s)
            ops.append(Op(f"validate_noise_{index}", "noise",
                          ["validate-noise", "--scenario", path,
                           "--seed", str(rng_seed), "--members", str(members),
                           "--duration-dampings", repr(dampings)],
                          {"variance": ref.thermal_variance(s), "seed": rng_seed,
                           "members": members}))
            if first_mode is None:
                first_mode = ref.mode_omega(s, 1, 0, 0)
        damping = first_mode / DRIVEN_Q
        strength = _log_draw(rng, -4.0, -2.0)
        driven = []
        for label, ratio in DRIVEN_DRIVES:
            drive = first_mode * ratio
            args = (first_mode, damping, strength, drive)
            driven.append(Op(f"driven_{label}", "driven", [repr(a) for a in args],
                             {"phasor": ref.driven_phasor(*args)}))
        # alternate the engines, so that a slow spell of the machine does not
        # fall on one of them alone
        ops = [op for pair in zip(ops, driven) for op in pair]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, ops, scenarios)
