"""Command-line interface.

Subcommands:

  report          full detection-limit report for one scenario
  sweep           CSV of detection limits while one or more inputs vary
  modes           acoustic mode table of the scenario's cell
  validate-noise  stochastic integration cross-check of the noise model
  presets         list built-in scenarios, among them the default

Output is deterministic: identical inputs produce byte-identical output
(no timestamps, no machine identifiers), so reports can be diffed and
archived.  Numbers are printed with repr precision, which round-trips
doubles exactly.

Every command writes its output to stdout and reads its scenario from
``--scenario FILE``, or computes the built-in anthrax_stp preset without it.

Exit codes: 0 success, 1 a validation subcommand found a mismatch,
2 bad usage, an invalid scenario, a scenario file that cannot be read, a
run too large to start or mode caps beyond the built-in root table: a
``quantities.Refusal``, an ``OSError`` or a file that is not UTF-8, each
printed as one ``error:`` line.  Any other exception is a parsim bug; it
ends in a traceback and exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import __version__
from .detection import min_density
from .noise import thermal_variance
from .presets import ANTHRAX_STP_SUMMARY, anthrax_stp
from .quantities import (COMPONENTS, Refusal, Scenario, ScenarioValidationError,
                         in_range, sound_speed, validate_scenario)
from .raman import LINEWIDTH_CONVENTIONS
from .scenario_io import load_scenario, scenario_hash

__all__ = ["main"]


def _add_scenario_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default=None, metavar="FILE",
                        help="scenario YAML file (default: the built-in "
                             "anthrax_stp preset)")


def _load(args) -> tuple[Scenario, str]:
    if args.scenario is not None:
        return load_scenario(args.scenario).scenario, f"file:{args.scenario}"
    return anthrax_stp(), "preset:anthrax_stp"


# ---------------------------------------------------------------------------
# report

def _report_text(scenario: Scenario, origin: str, snr: float,
                 convention: str) -> str:
    report = min_density(scenario, snr=snr, linewidth_convention=convention)
    thermal = report.thermal
    eff = thermal.efficiency
    lines = [
        f"parsim detection report (version {__version__})",
        f"scenario: {origin}",
        f"scenario_sha256: {scenario_hash(scenario)}",
        f"linewidth_convention: {convention}",
        f"snr: {snr!r}",
        "",
        "[laser]",
        f"pump_omega_rad_s = {scenario.laser.pump_omega!r}",
        f"stokes_omega_rad_s = {scenario.laser.stokes_omega!r}",
        f"raman_shift_rad_s = {scenario.laser.raman_shift!r}",
        f"pump_intensity_w_m2 = {scenario.laser.pump_intensity!r}",
        f"stokes_intensity_w_m2 = {scenario.laser.stokes_intensity!r}",
        f"modulation_omega_rad_s = {scenario.laser.modulation_omega!r}",
        "",
        "[raman]",
        f"population_factor = {report.gain.population_factor!r}",
        f"gain_factor_m_w = {report.gain.gain_factor!r}",
        f"gain_m = {report.gain.gain!r}",
        f"branching = {report.deposition.branching!r}",
        f"h_r_w_m3 = {report.h_r!r}",
        "",
        "[thermal]",
        f"equivalent_radius_m = {scenario.particle.equivalent_radius!r}",
        f"collision_rate_hz = {thermal.collision_rate!r}",
        f"temperature_rise_k = {thermal.temperature_rise!r}",
        f"peak_temperature_k = {thermal.peak_temperature!r}",
        f"collisional_timescale_s = {thermal.collisional_timescale!r}",
        f"radiative_power_w = {thermal.radiative_power!r}",
        f"radiative_timescale_s = {thermal.radiative_timescale!r}",
        f"drive_separation = {eff.drive_separation!r}",
        f"radiative_separation = {eff.radiative_separation!r}",
        f"eta = {report.eta!r}",
        "",
        "[noise]",
        f"sound_speed_m_s = {sound_speed(scenario.gas)!r}",
        f"cell_volume_m3 = {scenario.cell.volume!r}",
        f"vh_nep_w_sqrt_s = {report.nep.vh_nep!r}",
        f"h_nep_w_sqrt_s_m3 = {report.nep.h_nep!r}",
        "",
        "[detection]",
        f"bandwidth_root_sqrt_hz = {report.bandwidth_root!r}",
        f"intensity_product_w2_m4 = {report.intensity_product!r}",
        f"rho_min_m3 = {report.rho_min!r}",
        f"implied_count_in_cell = {report.rho_min * scenario.cell.volume!r}",
    ]
    if report.h_available is not None:
        lines.append(f"h_available_w_m3 = {report.h_available!r}")
        lines.append(f"spore_density_m3 = {scenario.spore_density!r}")
    lines.append(f"warning_bits = {report.warning_bits}")
    lines.append("warnings = " + (",".join(report.warnings) or "(none)"))
    # h_nep rests on two-sided spectra in angular frequency (noise docstring)
    lines.append("notes = nep_two_sided_angular_convention")
    return "\n".join(lines) + "\n"


def _cmd_report(args) -> int:
    scenario, origin = _load(args)
    sys.stdout.write(_report_text(scenario, origin, args.snr,
                                  args.linewidth_convention))
    return 0


# ---------------------------------------------------------------------------
# sweep

def _parse_sweep(spec: str):
    """Parse "path[,path...]=lin|log:lo:hi:n" into (paths, values)."""
    import numpy as np

    head, sep, tail = spec.partition("=")
    if not sep:
        raise Refusal("sweep spec needs the form path=lin|log:lo:hi:n")
    paths = [p.strip() for p in head.split(",") if p.strip()]
    if not paths:
        raise Refusal("sweep spec names no scenario path")
    twice = next((p for i, p in enumerate(paths) if p in paths[:i]), None)
    if twice is not None:
        raise Refusal(f"sweep path {twice!r} given twice")
    parts = tail.split(":")
    if len(parts) != 4:
        raise Refusal("sweep range needs the form lin|log:lo:hi:n")
    kind, lo_s, hi_s, n_s = parts
    if kind not in ("lin", "log"):
        raise Refusal(f"unknown sweep spacing {kind!r} (use lin or log)")
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise Refusal(f"sweep endpoints must be numbers, "
                      f"got {lo_s!r} and {hi_s!r}") from None
    try:
        n = int(n_s)
    except ValueError:
        raise Refusal(f"sweep point count must be an integer, "
                      f"got {n_s!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise Refusal(f"sweep endpoints must be finite, got {lo!r} and {hi!r}")
    if n < 2:
        raise Refusal("sweep needs at least 2 points")
    if kind == "log" and (lo <= 0.0 or hi <= 0.0):
        raise Refusal("log sweeps need positive endpoints")
    if kind == "lin" and not math.isfinite(hi - lo):
        raise Refusal(f"sweep range from {lo!r} to {hi!r} is wider than "
                      "the range of a double")
    # numpy words its refusal of more than sys.maxsize bytes its own way,
    # and from 2^60 - 64 points on, which linspace counts as 2^60 doubles
    try:
        if n > sys.maxsize // 16:
            raise MemoryError
        values = (np.geomspace if kind == "log" else np.linspace)(lo, hi, n)
    except MemoryError:
        raise Refusal(f"sweep of {n} points does not fit in memory") from None
    return paths, values


def _with_value(scenario: Scenario, path: str, value) -> Scenario:
    section, sep, attr = path.partition(".")
    if not sep or section not in COMPONENTS:
        raise Refusal(
            f"unknown sweep path {path!r}; use section.attribute with "
            f"section one of {', '.join(COMPONENTS)}")
    component = getattr(scenario, section)
    if attr not in {f.name for f in dataclasses.fields(component)}:
        raise Refusal(f"{section} has no attribute {attr!r}")
    replaced = dataclasses.replace(component, **{attr: value})
    return dataclasses.replace(scenario, **{section: replaced})


def _cells(column, n: int) -> list[str]:
    """A CSV column of n reprs; a quantity the sweep leaves fixed repeats."""
    import numpy as np

    column = np.asarray(column).tolist()   # Python floats and ints
    return list(map(repr, column)) if isinstance(column, list) else [repr(column)] * n


def _cmd_sweep(args) -> int:
    scenario, origin = _load(args)
    paths, values = _parse_sweep(args.vary)
    # every point at once: the swept fields hold the whole value array
    points = scenario
    for path in paths:
        points = _with_value(points, path, values)
    try:
        validate_scenario(points)
    except ScenarioValidationError as exc:
        raise Refusal(
            f"sweep point {args.vary.partition('=')[0]}="
            f"{float(values[exc.point])!r} invalid: {exc}") from exc
    report = min_density(points, snr=args.snr,
                         linewidth_convention=args.linewidth_convention)
    n = len(values)
    columns = [_cells(values, n)] * len(paths)
    columns += [_cells(c, n) for c in (report.rho_min, report.h_r, report.eta,
                                       report.h_nep, report.warning_bits)]

    lines = [
        f"# parsim sweep (version {__version__})",
        f"# scenario: {origin}",
        f"# scenario_sha256: {scenario_hash(scenario)}",
        f"# linewidth_convention: {args.linewidth_convention}",
        f"# snr: {args.snr!r}",
        f"# vary: {args.vary}",
        ",".join(paths) + ",rho_min_m3,h_r_w_m3,eta,h_nep_w_sqrt_s_m3,warning_bits",
    ]
    lines.extend(map(",".join, zip(*columns)))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# modes

def _cmd_modes(args) -> int:
    from .acoustics import cylinder_modes

    scenario, origin = _load(args)
    try:
        max_axial, max_azimuthal, max_radial = map(int, args.max_modes.split(","))
    except ValueError:
        raise Refusal(f"--max-modes needs three comma-separated integers "
                      f"axial,azimuthal,radial, got {args.max_modes!r}") from None
    modes = cylinder_modes(scenario.cell, scenario.gas,
                           max_axial=max_axial,
                           max_radial=max_radial,
                           max_azimuthal=max_azimuthal)
    c = sound_speed(scenario.gas)
    lines = [
        f"# parsim modes (version {__version__})",
        f"# scenario: {origin}",
        f"# sound_speed_m_s: {c!r}",
        f"# cell: length_m={scenario.cell.length!r} radius_m={scenario.cell.radius!r}",
        "q,m,n,omega_rad_s,freq_hz,norm,uniform",
    ]
    for mode in modes:
        q, m, n = mode.index
        lines.append(f"{q},{m},{n},{mode.omega!r},{mode.omega / (2 * math.pi)!r},"
                     f"{mode.norm!r},{'yes' if mode.is_uniform else 'no'}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# validate-noise

# equipartition passes with |ratio - 1| within this many standard errors.
# Its false-alarm rate is the two-sided Student-t tail at members - 1
# degrees of freedom: 2.8% at 4 members, 0.52% at 8, 3.7e-4 at the default
# 32 (over seeds 1-40 at the defaults, z had rms 1.11 against the t's 1.03)
EQUIPARTITION_SIGMAS = 4.0
# the PSD-implied variance passes within this relative error of rho0 c^2 kT/V;
# seeds 1-40 at the defaults gave a "rel err" of sd 3.6%, largest 10.6%
PSD_VARIANCE_TOLERANCE = 0.15


def _cmd_validate_noise(args) -> int:
    from .oracle import STABILITY_LIMIT, SdeRunConfig, integrate_langevin, series_variance

    if not (0.0 < args.duration_dampings < math.inf):
        raise Refusal("--duration-dampings must be positive and finite, "
                      f"got {args.duration_dampings!r}")
    if args.seed < 0:
        raise Refusal(f"--seed must be a non-negative integer, got {args.seed}")
    scenario, origin = _load(args)
    # refused before integrating: the comparison divides by it
    try:
        analytic_var = thermal_variance(scenario)
    except ArithmeticError:
        analytic_var = math.nan
    in_range("the analytic pressure variance is", analytic_var)
    det = scenario.detector
    fastest = max(det.noise_damping, det.noise_mode_omega)
    dt = STABILITY_LIMIT / fastest
    duration = args.duration_dampings / det.noise_damping
    # 1024 samples, or the largest power of two that a shorter run holds
    n_keep = round(min(duration / dt, 1024.0))
    nperseg = 1 << int(math.log2(max(n_keep, 8)))
    config = SdeRunConfig(
        timestep=dt,
        duration=duration,
        seed=args.seed,
        ensemble_size=args.members,
        mode_omega=det.noise_mode_omega,
        damping=det.noise_damping,
        psd_nperseg=nperseg,
    )
    try:
        stats = integrate_langevin(config, scenario)
    except MemoryError:
        raise Refusal(f"an ensemble of {args.members} members does not "
                      "fit in memory") from None
    meta = stats.metadata
    print(f"langevin: {stats.n_members} members, {meta['n_steps']} steps each "
          f"at dt {meta['timestep']!r} s, wall {meta['wall_s']:.3f} s",
          file=sys.stderr)

    lines = [f"noise model validation: {origin}",
             f"seed {args.seed}, {args.members} members, "
             f"{stats.n_samples} samples at dt {dt!r} s"]
    ok = True

    ratio = stats.equipartition_ratio
    welch_var = in_range("the run's Welch variance is", series_variance(stats.psd))
    sigma = ratio * stats.mean_u2_stderr / stats.mean_u2
    z = abs(ratio - 1.0) / sigma
    passed = z <= EQUIPARTITION_SIGMAS
    ok &= passed
    lines.append(f"equipartition: ratio {ratio:.4f} +- {sigma:.4f} "
                 f"(z = {z:.2f}, limit {EQUIPARTITION_SIGMAS:.1f}) "
                 f"{'PASS' if passed else 'FAIL'}")

    rel = abs(welch_var - analytic_var) / analytic_var
    passed = rel <= PSD_VARIANCE_TOLERANCE
    ok &= passed
    lines.append(f"psd variance: welch {welch_var!r} vs analytic "
                 f"{analytic_var!r} (rel err {100 * rel:.1f}%, "
                 f"limit {100 * PSD_VARIANCE_TOLERANCE:.0f}%) "
                 f"{'PASS' if passed else 'FAIL'}")

    lines.append("overall: " + ("PASS" if ok else "FAIL"))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# presets

def _cmd_presets(args) -> int:
    digest = scenario_hash(anthrax_stp())
    sys.stdout.write(f"anthrax_stp: {ANTHRAX_STP_SUMMARY} (sha256 {digest[:12]})\n")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parsim",
        description="Detection-limit calculator for photoacoustic Raman "
                    "sensing of micron-scale particles in gas.")
    parser.add_argument("--version", action="version",
                        version=f"parsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="full detection-limit report")
    _add_scenario_arg(rep)
    rep.add_argument("--snr", type=float, default=1.0)
    rep.add_argument("--linewidth-convention", choices=LINEWIDTH_CONVENTIONS,
                     default="ordinary")
    rep.set_defaults(func=_cmd_report)

    sw = sub.add_parser("sweep", help="detection limit across a parameter range")
    _add_scenario_arg(sw)
    sw.add_argument("--vary", required=True, metavar="SPEC",
                    help="path[,path...]=lin|log:lo:hi:n, e.g. "
                         "laser.pump_intensity,laser.stokes_intensity=log:1e10:1e14:9")
    sw.add_argument("--snr", type=float, default=1.0)
    sw.add_argument("--linewidth-convention", choices=LINEWIDTH_CONVENTIONS,
                    default="ordinary")
    sw.set_defaults(func=_cmd_sweep)

    mo = sub.add_parser("modes", help="acoustic mode table of the cell")
    _add_scenario_arg(mo)
    mo.add_argument("--max-modes", default="4,0,2", metavar="q,m,n",
                    help="caps on the axial, azimuthal and radial indices "
                         "(default 4,0,2)")
    mo.set_defaults(func=_cmd_modes)

    vn = sub.add_parser("validate-noise",
                        help="integrate the mode SDE and compare with the "
                             "analytic noise statistics")
    _add_scenario_arg(vn)
    vn.add_argument("--seed", type=int, default=1234)
    vn.add_argument("--members", type=int, default=32)
    vn.add_argument("--duration-dampings", type=float, default=200.0,
                    help="run length in units of 1/damping (default 200)")
    vn.set_defaults(func=_cmd_validate_noise)

    pr = sub.add_parser("presets", help="list the built-in scenarios, among "
                                        "them the default, anthrax_stp")
    pr.set_defaults(func=_cmd_presets)

    return parser


def main(argv=None) -> int:
    # parsim's largest matrix, the oracle's 64 x 64 noise map, is too small
    # for a BLAS thread pool to repay starting one; set before any command
    # imports numpy, and a value the user set still wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # OSError: a file that is missing, a directory or not permitted
    except (Refusal, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
